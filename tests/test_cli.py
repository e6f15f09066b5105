"""CLI behavior: formats, determinism, exit codes."""

import argparse
import itertools
import json
import subprocess
import sys

import ratsurf.cli
from ratsurf import conditions, theta
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
    code, out, err = run_cli(capsys, "genus", "--surface", "q3", "--class", "H")
    assert (code, out, err) == (2, "", "error: unknown surface 'q3' (expected p2, f<e> or f<e>b)\n")
    code, out, err = run_cli(capsys, "genus", "--surface", "p2", "--class", "")
    assert (code, out, err) == (2, "", "error: empty divisor-class string\n")
    code, _, err = run_cli(capsys, "genus", "--surface", "p2", "--class", "3G")
    assert code == 2
    assert "basis" in err
    code, out, err = run_cli(capsys, "genus", "--surface", "p2", "--class", "3H+")
    assert (code, out, err) == (2, "", "error: cannot parse divisor class '3H+'\n")
    # only the conditions check reads --ample, so a report without it refuses one
    argv = ["report", "--surface", "f1", "--class", "2G+4F", "--r", "2", "--trunc", "1"]
    code, out, err = run_cli(capsys, *argv, "--ample", "junk")
    assert (code, out, err) == (2, "", "error: --ample applies only to --checks conditions\n")
    code, out, err = run_cli(capsys, *argv, "--ample", "G+3F", "--checks", "zseries,conditions")
    assert (code, err) == (1, "") and "  A1: FAIL (G+F)" in out
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


def test_exit_code_3_on_unsupported_class_at_first_power(capsys):
    # a class outside every verified family is refused at r = 1 too
    for surface, cls in (("f2", "2G+6F"), ("f0b", "2G+3F-E")):
        for command in ("zseries", "report"):
            code, out, err = run_cli(
                capsys, command, "--surface", surface, "--class", cls, "--r", "1"
            )
            assert code == 3
            assert out == ""
            assert err.startswith(
                "error: no closed-form numerator for branch Unsupported at power 1: "
            )
            assert "r >= 2" not in err
    # the positive-genus family keeps its first power
    code, out, _ = run_cli(capsys, "zseries", "--surface", "p2", "--class", "4H", "--r", "1")
    assert code == 0
    assert "rank-one pushforward" in out


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
    monkeypatch.setenv("RATSURF_MAX_R", "-1")
    code, out, err = run_cli(capsys, "zseries", "--surface", "p2", "--class", "3H", "--r", "2")
    assert (code, out, err) == (2, "", "error: RATSURF_MAX_R must be >= 0, got -1\n")
    monkeypatch.delenv("RATSURF_MAX_R")
    code, out, err = run_cli(capsys, *argv[:-2], "--checks", " , ")
    assert (code, out, err) == (2, "", "error: --checks must name at least one check\n")


def test_g2cohom_witness_names_the_first_failing_power(capsys, monkeypatch):
    verify = theta.verify_genus2_cohomology
    argv = ["report", "--surface", "f0", "--class", "2G+3F", "--r", "9", "--checks", "g2cohom"]
    for bad in (2, 5, 9):
        monkeypatch.setattr(
            theta,
            "verify_genus2_cohomology",
            lambda e, r, bad=bad: verify(e, r)._replace(ok=r < bad),
        )
        code, out, _ = run_cli(capsys, *argv)
        assert code == 1
        assert f"  genus2-cohomology: FAIL (fails at power {bad})" in out


def test_series_consistency_witness_names_the_first_differing_coefficient(capsys, monkeypatch):
    summed = theta.z_from_decomposition
    argv = ["report", "--surface", "f1", "--class", "2G+4F", "--r", "3", "--trunc", "4"]

    def off_by_one_at_2(gb, l, trunc):
        series = summed(gb, l, trunc)
        coeffs = list(series.coeffs)
        coeffs[2] += 1
        return series._replace(coeffs=tuple(coeffs))

    monkeypatch.setattr(theta, "z_from_decomposition", off_by_one_at_2)
    code, out, err = run_cli(capsys, *argv, "--checks", "zseries")
    assert (code, err) == (1, "")
    assert out.endswith(
        "checks\n  series-consistency: FAIL (n=2: closed form 81 != summand count 82)\n"
    )


def check_names(out):
    """The entry names under `checks`, in the order the report prints them."""
    lines = out.splitlines()
    entries = lines[lines.index("checks") + 1 :]
    block = itertools.takewhile(lambda line: not line.startswith("details "), entries)
    return [line.split(":")[0].strip() for line in block]


def test_checks_run_in_the_order_given_with_repeats(capsys, monkeypatch):
    argv = ["report", "--surface", "p2", "--class", "3H", "--trunc", "2", "--checks"]
    code, out, err = run_cli(capsys, *argv, "dualizing,zseries,zseries")
    assert (code, err) == (0, "")
    assert check_names(out) == ["dualizing-twist", "series-consistency", "series-consistency"]
    code, out, err = run_cli(capsys, *argv, "conditions,conditions")
    assert (code, err) == (0, "")
    assert check_names(out) == ["A1", "A2", "A3"] * 2
    details = [line for line in out.splitlines() if line.startswith("details ")]
    assert details == ["details A1", "details A2", "details A3"] * 2
    code, out, err = run_cli(capsys, *argv, "foo,zseries")
    expected = (
        "error: unknown checks ['foo']; available: "
        "conditions, zseries, invariants, g2cohom, dualizing\n"
    )
    assert (code, out, err) == (2, "", expected)
    monkeypatch.setenv("COLUMNS", "80")
    ratsurf.cli.build_parser.cache_clear()
    try:
        code, out, _ = run_cli(capsys, "report", "--help")
    finally:
        ratsurf.cli.build_parser.cache_clear()
    assert code == 0
    assert "{conditions,zseries,invariants,g2cohom,dualizing}" in out


def test_exit_code_4_on_decomposition_cap(capsys):
    code, _, err = run_cli(
        capsys, "conditions", "--surface", "p2", "--class", "25H"
    )
    assert code == 4
    assert "cap" in err
    # over the cap, a non-effective class still exits 2 and a blowup 3; only
    # then does the cap give 4
    for argv, expected_code, expected_err in [
        (["--surface", "f1", "--class=-30G"], 2, "error: -30G is not effective on F1\n"),
        (
            ["--surface", "f1b", "--class", "20G+20F"],
            3,
            "error: no very ample default is provided on blowups\n",
        ),
        (
            ["--surface", "f1", "--class", "13G+12F"],
            4,
            "error: coefficient sum 25 of 13G+12F exceeds the decomposition cap 24\n",
        ),
    ]:
        code, out, err = run_cli(capsys, "conditions", *argv)
        assert (code, out, err) == (expected_code, "", expected_err)


def test_over_cap_conditions_exit_before_a1_walks_the_box(capsys, monkeypatch):
    # the weight is read right after the zero-class, --ample, blowup and
    # effectiveness refusals, so no box below L is ever listed
    calls = []
    walk = conditions.enumerate_effective_below

    def counted(surface, L):
        calls.append(L)
        return walk(surface, L)

    monkeypatch.setattr(conditions, "enumerate_effective_below", counted)
    code, out, err = run_cli(capsys, "conditions", "--surface", "f1", "--class", "700G+700F")
    message = "error: coefficient sum 1400 of 700G+700F exceeds the decomposition cap 24\n"
    assert (code, out, err) == (4, "", message)
    assert calls == []


def test_over_cap_report_exits_before_any_box_walk(capsys, monkeypatch):
    # the branch is read off the kind's rule, so an over-cap report reaches
    # the conditions check's cap without listing a box below L
    calls = []
    walk = conditions.enumerate_effective_below
    monkeypatch.setattr(
        conditions, "enumerate_effective_below", lambda s, L: calls.append(L) or walk(s, L)
    )
    argv = ["report", "--surface", "f1", "--class", "700G+700F", "--checks", "conditions"]
    message = "error: coefficient sum 1400 of 700G+700F exceeds the decomposition cap 24\n"
    assert run_cli(capsys, *argv) == (4, "", message)
    assert calls == []


def test_exit_code_5_on_internal_invariant_failure(capsys, monkeypatch):
    def broken(surface, L):
        raise AssertionError("summands must be merged and sorted\nsecond line")

    monkeypatch.setattr(conditions, "classify_branch", broken)
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


# Commands run in one process in order of growing need, each with its exit
# code and the watched modules loaded once it has run.  Every command pays for
# its process's imports: a subcommand loads only the modules it uses, and none
# loads `dataclasses`, nor the `inspect` that `dataclasses` pulls in.
STARTUP_STEPS = [
    ("frobnicate", 2, []),
    ("cohom --surface f1 --class 2G+4F", 0, ["cohom"]),
    ("genus --surface p2 --class 3H", 0, ["cohom", "conditions"]),
    ("report --surface p2 --class 3H --r 0", 2, ["cohom", "conditions"]),
    ("conditions --surface f1 --class 2G+4F --format json", 0, ["cohom", "conditions", "json"]),
    ("report --surface p2 --class 3H", 0, ["cohom", "conditions", "json", "powerseries", "theta"]),
]
STARTUP_PROBE = """
import contextlib, io, sys
import ratsurf.cli
watched = {"cohom", "conditions", "theta", "powerseries", "json", "dataclasses", "inspect"}
for line in sys.stdin:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = ratsurf.cli.main(line.split())
    loaded = {name.removeprefix("ratsurf.") for name in sys.modules} & watched
    print(code, *sorted(loaded))
"""


def test_each_subcommand_loads_only_the_modules_it_uses():
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE],
        input="".join(f"{argv}\n" for argv, _, _ in STARTUP_STEPS),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    expected = [" ".join([str(code), *loaded]) for _, code, loaded in STARTUP_STEPS]
    assert proc.stdout.splitlines() == expected


# one parse error, --help, zseries (its checks come from set_defaults), a
# report with the default checks and conditions with --ample
REUSE_OPS = [
    ["report", "--surface", "p2"],
    ["--help"],
    ["zseries", "--surface", "p2", "--class", "3H", "--r", "2", "--trunc", "5"],
    ["report", "--surface", "f1", "--class", "2G+4F", "--r", "3", "--trunc", "6"],
    ["conditions", "--surface", "p2", "--class", "3H", "--ample", "2H"],
]


def test_one_parser_serves_every_call(capsys, monkeypatch):
    # each op gives the same rc, stdout and stderr after the others, in either
    # order, as alone with a parser of its own
    monkeypatch.setenv("COLUMNS", "80")
    alone = []
    for argv in REUSE_OPS:
        ratsurf.cli.build_parser.cache_clear()
        alone.append(run_cli(capsys, *argv))
    assert [result[0] for result in alone] == [2, 0, 0, 0, 0]
    assert "usage: ratsurf report" in alone[0][2] and "usage: ratsurf" in alone[1][1]
    ratsurf.cli.build_parser.cache_clear()
    for order in (range(len(REUSE_OPS)), reversed(range(len(REUSE_OPS)))):
        for i in order:
            assert run_cli(capsys, *REUSE_OPS[i]) == alone[i], REUSE_OPS[i]
    assert ratsurf.cli.build_parser.cache_info().misses == 1


def test_main_builds_the_parser_once(capsys, monkeypatch):
    # parsers constructed (the top parser and its subparsers) over N calls
    built = {"parsers": 0}
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built["parsers"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    ratsurf.cli.build_parser.cache_clear()
    try:
        ratsurf.cli.build_parser()
        one_build = built["parsers"]
        assert one_build == 1 + len(ratsurf.cli._DISPATCH)
        ratsurf.cli.build_parser.cache_clear()
        built["parsers"] = 0
        for _ in range(20):
            run_cli(capsys, *REUSE_OPS[2])
        assert built["parsers"] == one_build
    finally:
        ratsurf.cli.build_parser.cache_clear()
