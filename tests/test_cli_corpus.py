"""The CLI output contract: the small-command corpus and the small
conditions-sweep classes recorded in bench/reference.json, the theta-tower
oracle, and every demo script.

bench/ is only read: its modules are imported without writing bytecode.
"""

import contextlib
import hashlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ratsurf.cli
from ratsurf.cli import main

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
try:
    import oracle
    import workloads
finally:
    sys.dont_write_bytecode = _write_bytecode
    sys.path.remove(str(ROOT / "bench"))


@pytest.fixture(autouse=True)
def _default_caps(monkeypatch):
    monkeypatch.delenv("RATSURF_MAX_TRUNC", raising=False)
    monkeypatch.delenv("RATSURF_MAX_R", raising=False)


def run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def test_cli_pool_matches_reference():
    reference = workloads.load_reference()
    mismatches = [
        " ".join(argv)
        for argv in workloads.CLI_POOL
        if workloads.reference_entry(*run_in_process(argv)) != reference[" ".join(argv)]
    ]
    assert len(workloads.CLI_POOL) == 61
    assert not mismatches


def test_pooled_argvs_take_the_plain_path():
    # every pooled op and one theta-tower round but the two usage errors is
    # parsed without argparse, into the namespace argparse builds
    argvs = [*workloads.pooled_argvs(), *next(workloads.rounds("theta-tower", 1))]
    fallbacks = []
    with contextlib.redirect_stderr(io.StringIO()):
        for argv in argvs:
            plain = ratsurf.cli._parse_plain(argv)
            if plain is None:
                fallbacks.append(" ".join(argv))
            else:
                assert vars(plain) == vars(ratsurf.cli.build_parser().parse_args(argv)), argv
    assert len(argvs) - len(fallbacks) == 357
    assert fallbacks == [
        "report --surface f1 --class 2G+4F --format xml",
        "frobnicate --surface p2 --class 3H",
    ]


def test_small_conditions_pool_matches_reference():
    reference = workloads.load_reference()
    classes = [
        (surface, cls)
        for surface, cls in workloads.CONDITIONS_POOL
        if sum(map(int, re.findall(r"\d+", cls))) <= 11
    ]
    assert len(classes) == 71
    mismatches = [
        " ".join(argv)
        for surface, cls in classes
        for argv in (workloads.conditions_argv(surface, cls, fmt) for fmt in ("text", "json"))
        if workloads.reference_entry(*run_in_process(argv)) != reference[" ".join(argv)]
    ]
    assert not mismatches


def test_theta_tower_matches_oracle():
    ops = [
        argv
        for argv in next(workloads.rounds("theta-tower", 1))
        if int(argv[argv.index("--r") + 1]) <= 60
    ]
    assert ops
    failures = {
        " ".join(argv): reason
        for argv in ops
        if (reason := oracle.check_report(argv, *run_in_process(argv))) is not None
    }
    assert not failures


#: sha256 of each demo's stdout, by its number: a change to what a demo prints
#: is a deliberate act
DEMO_STDOUT_SHA256 = {
    "01": "5bc269a10ad04819aa49f1fd3badc3cd4c8196e1943a5b249e8412932e3e4018",
    "02": "8da9e2426a968e436e6b376f63bb21a7997549968c4e69383d1637d76d2051b7",
    "03": "05e6b796b27aaa3c60f8d525b8e4bb2068adc7142889a451a86e2e3e45a7244b",
    "04": "fab5ff8456e4e53a2ee73846591478eee8333172a0704eed71639ed0fc0492c4",
    "05": "4a239ac7eb69af070309a78c5f6507f3804bcc74339aa62223701feb324abcae",
}


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(demo):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_STDOUT_SHA256[demo.name[:2]]


# Zero, rigid, non-effective, blowup, tower and over-cap classes per surface.
GRID_CLASSES = {
    "p2": ["0", "H", "2H", "3H", "4H", "-2H", "25H"],
    "f0": ["0", "F", "2G+2F", "2G+3F", "-F", "13G+12F"],
    "f1": ["0", "G", "2G+3F", "2G+4F", "-G", "700G+700F"],
    "f2": ["0", "G", "2G+6F", "G-F"],
    "f0b": ["0", "2F-E", "G+F-E", "4F-2E", "2G+3F-E"],
    "f1b": ["E", "2F-E", "2G-E", "20G+20F"],
}
GRID_CHECKS = ["zseries", "conditions,invariants", "g2cohom", "dualizing,zseries,zseries", "foo"]


def robustness_grid():
    """Every subcommand on each grid class, in text and json (csv for the
    series commands), with the --r, --trunc and --checks error paths."""
    for surface, classes in GRID_CLASSES.items():
        for cls in classes:
            common = ["--surface", surface, f"--class={cls}"]
            for command in ("genus", "cohom", "conditions"):
                for fmt in ("text", "json"):
                    yield [command, *common, "--format", fmt]
            yield ["conditions", *common, "--ample", "2X"]
            for fmt in ("text", "json", "csv"):
                yield ["zseries", *common, "--r", "2", "--trunc", "5", "--format", fmt]
                for checks in GRID_CHECKS:
                    yield ["report", *common, "--r", "2", "--trunc", "5", "--format", fmt,
                           "--checks", checks]
            for option, value in (("--r", "0"), ("--r", "1001"), ("--trunc", "-1"),
                                  ("--trunc", "201"), ("--r", "x"), ("--checks", " , ")):
                yield ["report", *common, option, value]
    yield ["report", "--help"]
    yield ["genus", "--surface", "p2"]


def test_robustness_grid_exits_cleanly():
    # each exit code is 0-4 and nothing escapes main; a refusal by ratsurf
    # (not an argparse usage error) prints nothing but one `error: ` line
    seen, bad = set(), []
    for argv in robustness_grid():
        try:
            rc, out, err = run_in_process(argv)
        except Exception as exc:  # an escape from main is a finding
            bad.append((argv, repr(exc)))
            continue
        seen.add(rc)
        if rc not in range(5):
            bad.append((argv, rc))
        elif rc >= 2 and not err.startswith("usage:"):
            if out or not err.startswith("error: ") or err.count("\n") != 1 or err[-1] != "\n":
                bad.append((argv, rc, out[:80], err[:200]))
        elif rc < 2 and err:
            bad.append((argv, rc, err[:200]))
    assert not bad, bad[:5]
    assert seen == {0, 1, 2, 3, 4}
