"""Seeded op streams and output checks for the benchmark workloads.

Each workload is an endless stream of rounds drawn from the seed, and a run
executes whole rounds.  A round is a list of argv lists for `ratsurf.cli`:

* conditions-sweep: one pass over a fixed pool of 124 classes in a seeded
  order, a quarter of them with `--format json`: one of each four
  neighbouring classes of the pool, which cost about the same.  The pool is
  every aG+bF on f0 and f1 with 2 <= a <= 5 and 4 <= a+b <= 16, and dH on p2
  for 3 <= d <= 24.
* theta-tower: fifty `report` ops, ten on each of the five genus-1/genus-2
  classes.  For each class, three take r <= dim|L|, one from each third of
  that range, and seven take dim|L| < r <= 500, one from each seventh of
  that range; the ten take trunc from the ten tenths of [0, 200], paired
  with the r slots by a fixed rotation per class.  Three of each class's ten
  ops, chosen by the seed, are json.  The seed picks every value within its
  stratum and the order; the fixed strata keep the cost of a round, and its
  median and tail, steady across seeds.
* cli-small: the fixed pool of small commands below, in a seeded order.

Outputs of the two fixed pools are checked against `reference.json`, which
records the exit code, the sha256 of stdout and the first line of stderr at
the commit that defined the benchmark.  theta-tower ops are checked against
the independent oracle in `oracle.py`.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import oracle

WORKLOADS = ("conditions-sweep", "theta-tower", "cli-small")

REFERENCE_PATH = Path(__file__).with_name("reference.json")

CONDITIONS_POOL = tuple(
    [
        (surface, f"{a}G+{b}F")
        for surface in ("f0", "f1")
        for a in range(2, 6)
        for b in range(17)
        if 4 <= a + b <= 16
    ]
    + [("p2", f"{d}H") for d in range(3, 25)]
)

THETA_R_MAX = 500
THETA_TRUNC_MAX = 200

_ALL_CHECKS = "conditions,zseries,invariants,g2cohom,dualizing"

#: Small commands a user types at the shell: each runs in well under a second.
CLI_POOL = tuple(
    tuple(cmd.split())
    for cmd in (
        # genus and cohom, blowup classes included
        "genus --surface p2 --class 3H",
        "genus --surface f1 --class 2G+4F --format json",
        "genus --surface f0 --class 2G+3F",
        "genus --surface f0b --class 2G+3F-E",
        "genus --surface f1b --class G+F-E --format json",
        "genus --surface p2 --class=-3H",
        "genus --surface f2 --class 2G+6F",
        "cohom --surface p2 --class=-3H",
        "cohom --surface p2 --class 5H --format json",
        "cohom --surface f1 --class 2G+4F",
        "cohom --surface f0 --class=-2G-2F --format json",
        "cohom --surface f0b --class 2G+3F-E",
        "cohom --surface f1b --class 2F-E --format json",
        "cohom --surface f2 --class G-F",
        # conditions on classes of weight 8 or less
        "conditions --surface f0 --class 2G+3F",
        "conditions --surface f1 --class 2G+4F",
        "conditions --surface f1 --class 2G+4F --format json",
        "conditions --surface p2 --class 4H",
        "conditions --surface p2 --class 8H --format json",
        "conditions --surface f0 --class 3G+5F",
        "conditions --surface f1 --class 4G+4F",
        "conditions --surface f0 --class 2G+2F --ample G+2F",
        "conditions --surface f1 --class 3G+3F --format json",
        "conditions --surface p2 --class 3H --ample 2H",
        # zseries and report: r <= 5, trunc <= 20, every format and check
        "zseries --surface p2 --class 3H --r 2 --trunc 5",
        "zseries --surface f1 --class 2G+4F --r 3 --trunc 10 --format json",
        "zseries --surface f0 --class 2G+2F --r 4 --trunc 20 --format csv",
        "zseries --surface p2 --class 2H --r 5 --trunc 8",
        "zseries --surface f0 --class 2G+3F --r 5 --trunc 20 --format json",
        "zseries --surface f1 --class G+2F --r 3 --trunc 6 --format csv",
        f"report --surface f1 --class 2G+4F --r 3 --trunc 10 --checks {_ALL_CHECKS}",
        f"report --surface f1 --class 2G+4F --r 3 --trunc 10 --checks {_ALL_CHECKS} --format json",
        "report --surface f0 --class 2G+3F --r 5 --trunc 20 --checks g2cohom --format csv",
        "report --surface p2 --class 3H --r 2 --trunc 12 --checks conditions",
        "report --surface p2 --class 3H --r 4 --trunc 20 --format json",
        "report --surface f0 --class 2G+2F --r 5 --trunc 15 --checks invariants,dualizing",
        "report --surface f1 --class 2G+3F --r 1 --trunc 20 --checks zseries --format csv",
        "report --surface p2 --class 4H --r 1 --trunc 10 --checks dualizing",
        "report --surface f0 --class 2G+3F --r 2 --trunc 0 --checks conditions,g2cohom --format json",
        "report --surface p2 --class 2H --r 3 --trunc 5 --checks conditions",
        "report --surface f1 --class 2G+4F --r 5 --trunc 20",
        "report --surface f0 --class 2G+2F --r 2 --trunc 4 --checks zseries,invariants --format json",
        "report --surface f1 --class 2G+4F --r 4 --trunc 8 --checks dualizing --format csv",
        # refused with exit 2: parse and configuration errors
        "genus --surface q3 --class 3H",
        "cohom --surface p2 --class 3X",
        "conditions --surface f1 --class 2G+2G",
        "conditions --surface f0 --class 2G+3F --ample G",
        "report --surface p2 --class 3H --trunc 500",
        "report --surface p2 --class 3H --r 0",
        "report --surface p2 --class 3H --checks bogus",
        "zseries --surface f0 --class 2G+3F --trunc=-1",
        "report --surface f1 --class 2G+4F --format xml",
        "frobnicate --surface p2 --class 3H",
        # refused with exit 3: out of the verified scope
        "zseries --surface f2 --class 2G+6F --r 2",
        "zseries --surface f0b --class 2G+3F-E --r 2",
        "report --surface f2 --class 2G+6F --r 2 --trunc 5",
        "report --surface f0b --class 2G+3F-E --r 2 --trunc 5 --format json",
        "report --surface p2 --class 3H --r 3 --trunc 6 --checks g2cohom",
        "conditions --surface f0b --class 2G+3F-E",
        # refused with exit 4: over the decomposition cap
        "conditions --surface f1 --class 5G+20F",
        "report --surface f1 --class 5G+20F --r 1 --trunc 3 --checks conditions",
    )
)


def conditions_argv(surface: str, cls: str, fmt: str) -> list[str]:
    argv = ["conditions", "--surface", surface, "--class", cls]
    return argv + ["--format", "json"] if fmt == "json" else argv


def theta_argv(surface: str, cls: str, r: int, trunc: int, fmt: str) -> list[str]:
    argv = ["report", "--surface", surface, "--class", cls, "--r", str(r), "--trunc", str(trunc)]
    return argv + ["--format", "json"] if fmt == "json" else argv


def _stratum(rng: random.Random, lo: int, size: int, k: int, strata: int) -> int:
    """A value from the k-th of `strata` equal slices of lo .. lo+size-1."""
    a, b = k * size // strata, (k + 1) * size // strata
    return lo + a + rng.randrange(b - a)


def _conditions_rounds(rng: random.Random):
    while True:
        json_picks = {
            CONDITIONS_POOL[i + rng.randrange(4)] for i in range(0, len(CONDITIONS_POOL), 4)
        }
        order = rng.sample(CONDITIONS_POOL, len(CONDITIONS_POOL))
        yield [
            conditions_argv(surface, cls, "json" if (surface, cls) in json_picks else "text")
            for surface, cls in order
        ]


def _theta_rounds(rng: random.Random):
    while True:
        params = []
        for c, (surface, cls) in enumerate(oracle.THETA_CLASSES):
            l = oracle.THETA_CLASSES[(surface, cls)].dim
            rs = [_stratum(rng, 1, l, k, 3) for k in range(3)]
            rs += [_stratum(rng, l + 1, THETA_R_MAX - l, k, 7) for k in range(7)]
            json_slots = set(rng.sample(range(10), 3))
            for k, r in enumerate(rs):
                trunc = _stratum(rng, 0, THETA_TRUNC_MAX + 1, (k + 2 * c) % 10, 10)
                fmt = "json" if k in json_slots else "text"
                params.append((surface, cls, r, trunc, fmt))
        rng.shuffle(params)
        yield [theta_argv(*p) for p in params]


def _cli_rounds(rng: random.Random):
    while True:
        yield [list(argv) for argv in rng.sample(CLI_POOL, len(CLI_POOL))]


_ROUNDS = {
    "conditions-sweep": _conditions_rounds,
    "theta-tower": _theta_rounds,
    "cli-small": _cli_rounds,
}


def rounds(workload: str, seed: int):
    """The endless, seed-determined stream of rounds of a workload."""
    return _ROUNDS[workload](random.Random(f"{workload}:{seed}"))


def pooled_argvs() -> list[list[str]]:
    """Every op of the two fixed pools: the ops that have reference entries."""
    return [
        conditions_argv(surface, cls, fmt)
        for surface, cls in CONDITIONS_POOL
        for fmt in ("text", "json")
    ] + [list(argv) for argv in CLI_POOL]


def reference_entry(rc: int, out: str, err: str) -> dict:
    first = err.splitlines()[0] if err else None
    return {
        "rc": rc,
        "stdout_sha256": hashlib.sha256(out.encode()).hexdigest(),
        "stderr_first_line": first,
    }


def load_reference() -> dict[str, dict]:
    return json.loads(REFERENCE_PATH.read_text())["ops"]


def check(workload: str, argv: list[str], outcome: dict, reference: dict[str, dict]) -> str | None:
    """None when an op's outcome is correct, else the reason it failed."""
    if outcome.get("timeout"):
        return "timeout"
    if outcome.get("crash"):
        return "crash: " + outcome["crash"].strip().splitlines()[-1]
    if workload == "theta-tower":
        return oracle.check_report(argv, outcome["rc"], outcome["out"], outcome["err"])
    want = reference.get(" ".join(argv))
    if want is None:
        return "no reference entry"
    got = reference_entry(outcome["rc"], outcome["out"], outcome["err"])
    for field in ("rc", "stdout_sha256", "stderr_first_line"):
        if got[field] != want[field]:
            return f"{field} {got[field]!r} differs from the reference {want[field]!r}"
    return None
