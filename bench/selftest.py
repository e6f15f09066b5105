"""Self-tests of the benchmark: op generation, reference coverage, oracle, scoring.

    PYTHONPATH=src python3 -m pytest bench/selftest.py

The file name keeps these tests out of the library's own test run.
"""

from __future__ import annotations

import contextlib
import io
import json
from itertools import islice

import pytest

import oracle
import run
import workloads
from ratsurf import cli, theta
from ratsurf.picard import parse_divisor, surface_from_name


def _first_rounds(workload: str, seed: int, n: int = 3) -> list[list[list[str]]]:
    return list(islice(workloads.rounds(workload, seed), n))


def _run_in_process(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return {"rc": rc, "out": out.getvalue(), "err": err.getvalue(), "s": 0.01, "ref_s": 0.005}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_ops(workload):
    assert _first_rounds(workload, 7) == _first_rounds(workload, 7)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_different_seed_changes_order_and_mix(workload):
    one, two = _first_rounds(workload, 1, 1)[0], _first_rounds(workload, 2, 1)[0]
    assert one != two
    assert sorted(one[:20]) != sorted(two[:20])


def test_conditions_round_is_the_whole_pool_with_a_quarter_json():
    (ops,) = _first_rounds("conditions-sweep", 3, 1)
    assert len(ops) == len(workloads.CONDITIONS_POOL) == 124
    assert {(argv[2], argv[4]) for argv in ops} == set(workloads.CONDITIONS_POOL)
    assert sum("json" in argv for argv in ops) == 31


def test_theta_ops_stay_in_range():
    for ops in _first_rounds("theta-tower", 5, 20):
        for argv in ops:
            opts = dict(zip(argv[1::2], argv[2::2]))
            assert 1 <= int(opts["--r"]) <= workloads.THETA_R_MAX
            assert 0 <= int(opts["--trunc"]) <= workloads.THETA_TRUNC_MAX


@pytest.mark.parametrize("key", oracle.THETA_CLASSES)
def test_oracle_matches_library(key):
    surface_name, cls = key
    surface = surface_from_name(surface_name)
    ctx = theta.theta_context(surface, parse_divisor(surface, cls))
    assert (ctx.genus, ctx.l) == oracle.THETA_CLASSES[key]
    for r in range(1, ctx.l + 1):
        h0, chi = oracle.columns(surface_name, cls, r, 30)
        assert h0 == [theta.h0_lambda(ctx, r, n) for n in range(31)]
        assert chi == [theta.euler_char_lambda(ctx, r, n) for n in range(31)]
    for r in (1, 2, ctx.l, ctx.l + 1, ctx.l + 2):
        for fmt in ("text", "json"):
            argv = workloads.theta_argv(surface_name, cls, r, 12, fmt)
            got = _run_in_process(argv)
            assert got["rc"] == oracle.expected_exit(surface_name, cls, r)
            assert got["out"] == oracle.expected_stdout(surface_name, cls, r, 12, fmt)
            assert oracle.check_report(argv, got["rc"], got["out"], got["err"]) is None


def test_every_pooled_op_has_a_reference_entry():
    reference = workloads.load_reference()
    keys = {" ".join(argv) for argv in workloads.pooled_argvs()}
    assert keys == set(reference)


def test_corrupted_stdout_counts_as_failed():
    def off_by_one_h0(out: str) -> str:
        payload = json.loads(out)
        payload["series"][1]["h0"] += 1
        return json.dumps(payload, indent=2) + "\n"

    reference = workloads.load_reference()
    for workload, argv, corrupt in [
        ("cli-small", list(workloads.CLI_POOL[0]), lambda out: out.replace("1", "2", 1)),
        ("theta-tower", workloads.theta_argv("f1", "2G+4F", 3, 5, "json"), off_by_one_h0),
    ]:
        good = _run_in_process(argv)
        bad = dict(good, out=corrupt(good["out"]))
        metrics, failures, _ = run.score(workload, [(argv, good), (argv, bad)], 1.0, reference)
        assert metrics["failed_frac"] == 0.5
        assert len(failures) == 1


def test_flipped_check_verdict_counts_as_failed():
    """A check that wrongly fails on an op that exits 1 anyway is caught."""

    def rank_fails_in_text(out: str) -> str:
        assert "  rank: PASS\n" in out
        return out.replace("  rank: PASS\n", "  rank: FAIL\n")

    def recursion_fails_in_json(out: str) -> str:
        payload = json.loads(out)
        assert payload["checks"][2]["name"] == "recursion"
        payload["checks"][2]["pass"] = False
        return json.dumps(payload, indent=2) + "\n"

    reference = workloads.load_reference()
    done = []
    for fmt, corrupt in (("text", rank_fails_in_text), ("json", recursion_fails_in_json)):
        argv = workloads.theta_argv("f0", "2G+3F", 40, 5, fmt)
        good = _run_in_process(argv)
        assert good["rc"] == 1
        done += [(argv, good), (argv, dict(good, out=corrupt(good["out"])))]
    metrics, failures, _ = run.score("theta-tower", done, 1.0, reference)
    assert metrics["failed_frac"] == 0.5
    assert len(failures) == 2


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_index(100) == 89
    assert run.tail_index(1000) == 899
    assert run.tail_index(40) == 29
    assert run.tail_index(5) == 0
