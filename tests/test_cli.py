"""CLI behavior: formats, determinism, exit codes."""

import json
import subprocess
import sys

import ratsurf.cli
from ratsurf import conditions
from ratsurf.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_zseries_text(capsys):
    code, out, _ = run_cli(
        capsys, "zseries", "--surface", "p2", "--class", "3H", "--r", "2", "--trunc", "5"
    )
    assert code == 0
    assert "branch     GenusOne" in out
    assert "(1 + t^2) / (1 - t)^10" in out
    assert "   2         56         56" in out


def test_zseries_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "zseries",
        "--surface",
        "p2",
        "--class",
        "2H",
        "--r",
        "9",
        "--trunc",
        "3",
        "--format",
        "csv",
    )
    assert code == 0
    assert out.splitlines() == ["n,h0,chi", "0,1,1", "1,6,6", "2,21,21", "3,56,56"]


def test_zseries_is_report_with_zseries_check(capsys):
    cases = [("p2", "3H", "2", "5", fmt) for fmt in ("text", "json", "csv")]
    cases += [("f1", "2G+4F", "4", "12", "text"), ("f1", "G", "1", "3", "json")]
    cases += [("f2", "2G+6F", "2", "5", "text")]
    for surface, cls, r, trunc, fmt in cases:
        opts = ["--surface", surface, "--class", cls, "--r", r, "--trunc", trunc, "--format", fmt]
        zseries = run_cli(capsys, "zseries", *opts)
        report = run_cli(capsys, "report", *opts, "--checks", "zseries")
        assert zseries == report
    assert zseries[0] == 3 and "no closed-form numerator" in zseries[2]


def test_report_json_schema_and_round_trip(capsys):
    code, out, _ = run_cli(
        capsys,
        "report",
        "--surface",
        "f1",
        "--class",
        "2G+4F",
        "--r",
        "3",
        "--trunc",
        "4",
        "--checks",
        "zseries,invariants,g2cohom,dualizing",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert list(payload.keys()) == ["context", "branch", "series", "checks"]
    assert payload["branch"] == "GenusTwo"
    assert payload["series"][0] == {"n": 0, "h0": 1, "chi": 1}
    assert payload["series"][2] == {"n": 2, "h0": 81, "chi": 81}
    assert all(entry["pass"] for entry in payload["checks"])
    # re-serializing the parsed report is byte-identical
    assert json.dumps(payload, indent=2) + "\n" == out


def test_report_determinism(capsys):
    args = [
        "report",
        "--surface",
        "f0",
        "--class",
        "2G+3F",
        "--r",
        "2",
        "--trunc",
        "6",
        "--checks",
        "conditions,zseries,invariants,g2cohom,dualizing",
    ]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert (code1, out1) == (code2, out2)
    assert code1 == 0


def test_conditions_command(capsys):
    code, out, _ = run_cli(capsys, "conditions", "--surface", "p2", "--class", "3H")
    assert code == 0
    assert "condition A1: PASS" in out
    assert "condition A2: PASS" in out
    assert "condition A3: PASS" in out
    # a genus <= 0 class trips the A3 proxy and exits 1
    code, out, _ = run_cli(capsys, "conditions", "--surface", "f0", "--class", "2F")
    assert code == 1
    assert "condition A3: FAIL" in out


def test_conditions_json_renders_no_detail_line(capsys, monkeypatch):
    calls = []
    real = conditions.describe
    monkeypatch.setattr(conditions, "describe", lambda s, item: calls.append(item) or real(s, item))
    code, out, _ = run_cli(
        capsys, "conditions", "--surface", "f1", "--class", "2G+4F", "--format", "json"
    )
    assert code == 0
    assert [check["witness"] for check in json.loads(out)["checks"]] == [None, None, None]
    assert calls == []
    # text renders each line it prints once, and no line it hides
    code, out, _ = run_cli(capsys, "conditions", "--surface", "f1", "--class", "2G+6F")
    assert code == 0
    assert "    ... (27 more lines)" in out
    assert 0 < len(calls) <= sum(1 for line in out.splitlines() if line.startswith("    "))


def test_genus_command(capsys):
    code, out, _ = run_cli(capsys, "genus", "--surface", "f1", "--class", "2G+4F")
    assert code == 0
    assert "genus            2" in out
    assert "dim |L|          11" in out
    assert "branch           GenusTwo" in out
    code, out, _ = run_cli(
        capsys, "genus", "--surface", "f0b", "--class", "2F-E", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["branch"] == "GenusNonPositive"


def test_cohom_command(capsys):
    code, out, _ = run_cli(capsys, "cohom", "--surface", "p2", "--class=-3H")
    assert code == 0
    assert "h0 0   h1 0   h2 1   chi 1" in out
    code, out, _ = run_cli(capsys, "cohom", "--surface", "f1b", "--class", "2F-E")
    assert code == 0
    assert "h0        2" in out


def test_exit_code_2_on_parse_errors(capsys):
    code, _, err = run_cli(capsys, "genus", "--surface", "q3", "--class", "H")
    assert code == 2
    code, _, err = run_cli(capsys, "genus", "--surface", "p2", "--class", "3G")
    assert code == 2
    assert "basis" in err
    # argparse-level usage errors also exit 2
    code = main(["zseries", "--surface", "p2"])
    assert code == 2


def test_exit_code_2_on_trunc_cap(capsys, monkeypatch):
    code, _, err = run_cli(
        capsys, "zseries", "--surface", "p2", "--class", "2H", "--trunc", "500"
    )
    assert code == 2
    assert "RATSURF_MAX_TRUNC" in err
    monkeypatch.setenv("RATSURF_MAX_TRUNC", "600")
    code, out, _ = run_cli(
        capsys, "zseries", "--surface", "p2", "--class", "2H", "--trunc", "500",
        "--format", "csv",
    )
    assert code == 0
    assert len(out.splitlines()) == 502


def test_exit_code_3_on_unsupported_branch(capsys):
    code, _, err = run_cli(
        capsys, "zseries", "--surface", "p2", "--class", "4H", "--r", "2"
    )
    assert code == 3
    assert "torsion-free" in err


def test_exit_code_3_on_blowup_scope(capsys):
    code, _, err = run_cli(capsys, "cohom", "--surface", "f0b", "--class", "4F-2E")
    assert code == 3
    assert "scope" in err


def test_exit_code_3_on_rigid_class(capsys):
    for argv in (
        ["zseries", "--surface", "f1", "--class", "G"],
        ["report", "--surface", "p2", "--class", "0"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.startswith("error: dim|L| = 0: ")
    # checks that need no summand-by-summand series still run on a rigid class
    code, out, _ = run_cli(
        capsys, "report", "--surface", "f1", "--class", "G", "--checks", "invariants",
        "--trunc", "2",
    )
    assert code == 0
    assert out == (
        "surface    F1 (Hirzebruch surface F_1)\n"
        "class      G\n"
        "branch     GenusNonPositive\n"
        "genus      0\n"
        "dim |L|    0\n"
        "Z(t) = (1) / (1 - t)^1    [trivial pushforward: the moduli space is the linear system]\n"
        "   n         h0        chi\n"
        "   0          1          1\n"
        "   1          1          1\n"
        "   2          1          1\n"
        "checks\n"
        "  rank: PASS\n"
        "  no-higher-cohomology: PASS\n"
        "  nonnegative-coefficients: PASS\n"
    )


def test_exit_code_3_on_zero_class_conditions(capsys):
    # nothing lies below 0, so A1-A3 would pass vacuously: the zero class is refused
    for surface in ("p2", "f1"):
        for argv in (
            ["conditions", "--surface", surface, "--class", "0"],
            ["report", "--surface", surface, "--class", "0", "--checks", "conditions"],
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 3, argv
            assert out == ""
            assert err.startswith("error: dim|L| = 0: conditions A1-A3 need a nonzero class")
    # the zero class is refused before --ample is read, so a bad --ample is not named
    for ample in ("0", "2X", "-H"):
        argv = ["conditions", "--surface", "p2", "--class", "0", f"--ample={ample}"]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith("error: dim|L| = 0: conditions A1-A3 need a nonzero class")


def test_exit_code_2_on_r_cap(capsys, monkeypatch):
    monkeypatch.delenv("RATSURF_MAX_R", raising=False)
    cap = ratsurf.cli.DEFAULT_R_CAP
    assert cap >= 500  # every theta-tower op of the benchmark stays accepted
    argv = ["report", "--surface", "p2", "--class", "3H", "--trunc", "0", "--checks", "dualizing"]
    code, out, err = run_cli(capsys, *argv, "--r", str(cap + 1))
    assert (code, out) == (2, "")
    assert err == f"error: --r {cap + 1} exceeds the cap {cap} (raise RATSURF_MAX_R to override)\n"
    code, _, _ = run_cli(capsys, *argv, "--r", str(cap))
    assert code == 0
    monkeypatch.setenv("RATSURF_MAX_R", str(cap + 1))
    code, out, _ = run_cli(capsys, *argv, "--r", str(cap + 1))
    assert code == 0
    assert "  dualizing-twist: PASS" in out
    monkeypatch.setenv("RATSURF_MAX_R", "3")
    code, _, err = run_cli(capsys, "zseries", "--surface", "p2", "--class", "3H", "--r", "4")
    assert code == 2
    assert "--r 4 exceeds the cap 3" in err
    monkeypatch.setenv("RATSURF_MAX_R", "many")
    code, _, err = run_cli(capsys, "zseries", "--surface", "p2", "--class", "3H", "--r", "2")
    assert code == 2
    assert "RATSURF_MAX_R must be an integer" in err


def test_exit_code_4_on_decomposition_cap(capsys):
    code, _, err = run_cli(
        capsys, "conditions", "--surface", "p2", "--class", "25H"
    )
    assert code == 4
    assert "cap" in err


def test_exit_code_5_on_internal_invariant_failure(capsys, monkeypatch):
    def broken(surface, L):
        raise AssertionError("summands must be merged and sorted\nsecond line")

    monkeypatch.setattr(ratsurf.cli, "theta_context", broken)
    code, out, err = run_cli(capsys, "genus", "--surface", "p2", "--class", "3H")
    assert code == 5
    assert out == ""
    assert err == "error: internal invariant failed: summands must be merged and sorted\n"


def test_cli_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ratsurf.cli", "zseries", "--surface", "p2",
         "--class", "3H", "--r", "1", "--trunc", "2", "--format", "csv"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == "2,55,55"
