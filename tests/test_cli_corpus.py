"""The CLI output contract: the small-command corpus and the small
conditions-sweep classes recorded in bench/reference.json, the theta-tower
oracle, and every demo script.

bench/ is only read: its modules are imported without writing bytecode.
"""

import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_small_conditions_pool_matches_reference():
    reference = workloads.load_reference()
    classes = [
        (surface, cls)
        for surface, cls in workloads.CONDITIONS_POOL
        if sum(map(int, re.findall(r"\d+", cls))) <= 10
    ]
    assert len(classes) == 62
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


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(demo):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
