"""Benchmark for ratsurf: seeded closed-loop workloads with checked outputs.

Run from the repository root:

    python3 bench/run.py --workload theta-tower --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py for how each is drawn from the seed):

  conditions-sweep  `conditions` on a fixed pool of 124 classes, in-process.
                    Every pass over the pool runs in a fresh runner process,
                    so no two ops share work.
  theta-tower       `report` on the five genus-1/genus-2 classes with seeded
                    r and trunc, in-process in one runner process, so work
                    shared across calls would show.
  cli-small         about sixty small commands, each as its own
                    `python -m ratsurf.cli` subprocess: what a user at the
                    shell sees.

Each workload is a closed loop with one client: the next op starts when the
previous one has finished, and the benchmark never runs more than one child
process at a time.  The timed phase runs whole rounds (see workloads.py)
until --seconds of op time have been measured.  Every output is checked
against reference.json or, for theta-tower, against oracle.py.

Times are reported at a nominal host speed.  A fixed pure-Python reference
loop is timed in the driver just before and just after every op and every
set-up probe, and each latency is scaled by REF_NOMINAL_S over the loop's
mean time around it.  On a shared host the CPU speed drifts by tens of
percent within a minute, in CPU time as much as in wall time, and each CPU
drifts on its own; so the driver and its children are pinned to one CPU,
and the scaling takes the drift out.  A change to the program still moves
the figures, because the loop does not run its code.  The note gives the
run's median host speed (REF_NOMINAL_S / loop time); raw times are the
reported times divided by it.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the first
TRACE_ROUNDS rounds twice in-process, once plain and once with the public
functions of every layer wrapped (runner.py), and prints the per-layer
metrics.  Both print a summary, then a machine note, then as the last line
one JSON object {"correct", "attempted", "failed", "metrics"}; the whole
result, and the call-tree spans of a traced run, go to bench/out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads
from runner import ITEM_COUNTS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_SAMPLES = 9
OP_TIMEOUT_S = 60
RUN_BUDGET_S = 170  # every child is stopped by then, inside the 180 s a run may take

#: Rounds replayed by a traced run: a pass of the pool, or a few seconds of ops.
TRACE_ROUNDS = {"conditions-sweep": 1, "theta-tower": 2, "cli-small": 10}

#: Metric names and units, as BENCHMARK.json lists them.  failed_frac is 0
#: whenever the program is correct, so it is printed in the summary and
#: carried by "failed" in the result line, not listed as a bounded metric.
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}
SUMMARY_ONLY = {"failed_frac": "1"}


class Deadline:
    """Seconds left of the run's budget, counted from the benchmark's start."""

    def __init__(self, budget_s: float) -> None:
        self.end = time.monotonic() + budget_s

    def left(self) -> float:
        return max(0.0, self.end - time.monotonic())


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# --------------------------------------------------------------- host speed

#: The reference loop: fixed pure-Python work that takes REF_NOMINAL_S at the
#: nominal host speed (about the median speed of the 2-vCPU Xeon VM the
#: benchmark was tuned on).  It mixes dict, tuple, sort, string and
#: big-integer work like the library's own: a tight integer loop tracked the
#: drift about half as well.  It runs here in the driver, between ops, so
#: that the heap of the process running the program cannot change its speed.
REF_NOMINAL_S = 0.004


def _reference_work() -> int:
    counts: dict[tuple[int, int], int] = {}
    for i in range(6000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + i * i
    ranked = sorted(counts.items(), key=lambda item: -item[1])
    text = ",".join(f"{a}:{b}" for (a, b), _ in ranked)
    big = 1
    for i in range(1, 400):
        big = big * (i + 7) // (i % 5 + 1) + len(text)
    tuples = [tuple(range(i % 9)) for i in range(3000)]
    return len(tuples) + (big & 1)


def reference_s() -> float:
    """Time of one pass of the reference loop: the host's speed right now.

    The cyclic collector is off meanwhile, so that a collection of the
    driver's own objects does not land in the loop's time.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        _reference_work()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def at_nominal_speed(seconds: float, ref_s: float) -> float:
    return seconds * REF_NOMINAL_S / ref_s


# ---------------------------------------------------------------- children


def run_child(cmd: list[str], timeout: float, capture: bool = True) -> dict:
    """Run one child to the end and time it, killing it after `timeout` seconds.

    The waits block instead of polling, so the time has no polling steps in it.
    A killed child's outcome has "timeout": True.
    """
    stream = subprocess.PIPE if capture else subprocess.DEVNULL
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=stream, stderr=stream, text=True, env=child_env(), cwd=ROOT)
    killed = threading.Event()

    def kill() -> None:
        killed.set()
        proc.kill()

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        out, err = proc.communicate()
    finally:
        timer.cancel()
    outcome = {"rc": proc.returncode, "out": out, "err": err, "s": time.perf_counter() - t0}
    if killed.is_set():
        outcome["timeout"] = True
    return outcome


def op_timeout(deadline: Deadline) -> float:
    return min(OP_TIMEOUT_S, deadline.left())


# ------------------------------------------------------------------ set-up


def _spawn_seconds(code: str, deadline: Deadline) -> float:
    before = reference_s()
    child = run_child([sys.executable, "-c", code], op_timeout(deadline), capture=False)
    after = reference_s()
    if child["rc"] != 0:
        raise RuntimeError(f"python -c {code!r} exited {child['rc']}")
    return at_nominal_speed(child["s"], (before + after) / 2)


def measure_setup(deadline: Deadline) -> dict[str, float]:
    """Median start-up of a bare interpreter and of one that imports ratsurf.cli,
    at the nominal host speed."""
    _spawn_seconds("import ratsurf.cli", deadline)  # untimed: writes the bytecode cache
    bare, full = [], []
    for _ in range(SETUP_SAMPLES):
        bare.append(_spawn_seconds("pass", deadline))
        full.append(_spawn_seconds("import ratsurf.cli", deadline))
    setup = statistics.median(full)
    interpreter = statistics.median(bare)
    return {"setup_s": setup, "setup.interpreter_s": interpreter, "setup.import_s": setup - interpreter}


# ---------------------------------------------------------------- executing


class Runner:
    """One in-process runner (runner.py), killed if the run's budget runs out."""

    def __init__(self, trace: bool, deadline: Deadline) -> None:
        cmd = [sys.executable, str(BENCH / "runner.py")] + (["--trace"] if trace else [])
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT
        )
        self.watchdog = threading.Timer(deadline.left(), self.proc.kill)
        self.watchdog.start()

    def run_op(self, argv: list[str]) -> dict | None:
        """The op's outcome, or None if the runner died or ran out of time."""
        try:
            self.proc.stdin.write(json.dumps(argv) + "\n")
            self.proc.stdin.flush()
            line = self.proc.stdout.readline()
        except BrokenPipeError:
            line = ""
        return json.loads(line) if line else None

    def close(self) -> None:
        self.watchdog.cancel()
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def run_cli_op(argv: list[str], deadline: Deadline) -> dict:
    return run_child([sys.executable, "-m", "ratsurf.cli", *argv], op_timeout(deadline))


def run_round(run_op, argvs: list[list[str]]) -> list[dict]:
    """Run the ops one after another, timing the reference loop between them.

    Each outcome gets "ref_s", the loop's mean time just before and just
    after the op.  Stops early if `run_op` returns None: the runner is gone.
    """
    outcomes = []
    before = reference_s()
    for argv in argvs:
        outcome = run_op(argv)
        if outcome is None:
            break
        after = reference_s()
        outcome["ref_s"] = (before + after) / 2
        before = after
        outcomes.append(outcome)
    return outcomes


def nominal_s(outcome: dict) -> float:
    """An op's latency at the nominal host speed."""
    return at_nominal_speed(outcome["s"], outcome["ref_s"])


def execute(workload, rounds, seconds, deadline, *, in_process=True, trace=False):
    """Run whole rounds until `seconds` of op time have been measured or
    `rounds` ends.

    Returns the (argv, outcome) pairs and the measured time: the sum of the
    ops' latencies at the nominal host speed.  With one client in a closed
    loop, that is the wall time of the ops at that speed.
    """
    done: list[tuple[list[str], dict]] = []
    measured = 0.0
    fresh_per_round = workload == "conditions-sweep"
    runner = None
    try:
        for argvs in rounds:
            if measured >= seconds or deadline.left() == 0:
                break
            if not in_process:
                outcomes = run_round(lambda argv: run_cli_op(argv, deadline), argvs)
            else:
                if runner is None:
                    runner = Runner(trace, deadline)
                outcomes = run_round(runner.run_op, argvs)
                if fresh_per_round:
                    runner.close()
                    runner = None
            lost = len(argvs) - len(outcomes)  # the runner died or ran out of time
            gone = {"rc": None, "timeout": True, "s": OP_TIMEOUT_S, "ref_s": REF_NOMINAL_S}
            outcomes += [gone] * lost
            done.extend(zip(argvs, outcomes))
            measured += sum(nominal_s(outcome) for outcome in outcomes)
            if lost:
                break
    finally:
        if runner is not None:
            runner.close()
    return done, measured


# ----------------------------------------------------------------- scoring


def tail_index(n: int) -> int:
    """Index into n sorted samples of the p90, or of the highest percentile
    that still leaves at least ten samples beyond it."""
    return max(0, min(math.ceil(0.9 * n) - 1, n - 11))


def score(workload, done, measured, reference):
    failures = []
    for argv, outcome in done:
        reason = workloads.check(workload, argv, outcome, reference)
        if reason is not None:
            failures.append({"argv": " ".join(argv), "reason": reason})
    latencies = sorted(nominal_s(outcome) for _, outcome in done)
    k = tail_index(len(latencies))
    metrics = {
        "ops_per_s": (len(done) - len(failures)) / measured,
        "op_p50_ms": statistics.median(latencies) * 1000,
        "op_p90_ms": latencies[k] * 1000,
        "failed_frac": len(failures) / len(done),
    }
    tail = {
        "op_p90_percentile": 100 * (k + 1) / len(latencies),
        "host_speed": statistics.median(REF_NOMINAL_S / outcome["ref_s"] for _, outcome in done),
    }
    return metrics, failures, tail


def layer_metrics(done, ops: int) -> tuple[dict[str, float], list[dict]]:
    """Per-function and per-module figures from the traced ops' call trees."""
    stats: dict[str, float] = {}
    spans = []
    for op_id, (_, outcome) in enumerate(done):
        tree = outcome.get("tree", [])
        child_total = [0.0] * len(tree)
        for parent, _, _, total, *_ in tree:
            if parent >= 0:
                child_total[parent] += total
        for span_id, (parent, name, calls, total, items, start, end) in enumerate(tree):
            self_s = total - child_total[span_id]
            module = name.partition(".")[0]
            stats[f"{name}.calls"] = stats.get(f"{name}.calls", 0) + calls
            stats[f"{name}.self_s"] = stats.get(f"{name}.self_s", 0.0) + self_s
            stats[f"{module}.self_s"] = stats.get(f"{module}.self_s", 0.0) + self_s
            if name in ITEM_COUNTS:
                key = f"{name}.{ITEM_COUNTS[name][0]}"
                stats[key] = stats.get(key, 0) + items
            spans.append({
                "op": op_id, "id": span_id, "parent": parent, "name": name, "calls": calls,
                "items": items, "start_s": start, "end_s": end, "total_s": total, "self_s": self_s,
            })
    metrics = {}
    for name in PER_LAYER:
        if name.endswith(".calls_per_op"):
            calls = stats.get(name.replace(".calls_per_op", ".calls"), 0)
            metrics[name] = calls / ops
        elif not name.startswith(("setup.", "trace.")):
            metrics[name] = stats.get(name, 0)
    return metrics, spans


# ------------------------------------------------------------------ output


def machine_note(**extra) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "ratsurf").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        **extra,
    }


def emit(args, metrics: dict, units: dict, failures, attempted, note: dict, spans=None) -> None:
    """Print the summary and the result line of the metrics named in `units`."""
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    units = {**units, **SUMMARY_ONLY}
    record = {
        "workload": args.workload,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
        "failures": failures,
        "note": note,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")
    for name, value in metrics.items():
        print(f"{name:<52} {value:>16.6g} {units[name]}")
    for failure in failures[:10]:
        print(f"FAILED {failure['argv']}: {failure['reason']}")
    print("note " + json.dumps(note))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": result,
    }))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "ratsurf" / "cli.py").is_file():
        print(f"error: no ratsurf sources under {SRC}", file=sys.stderr)
        return 2
    if hasattr(os, "sched_setaffinity"):
        # The CPUs of a shared host drift in speed apart from each other, so the
        # driver, whose reference loop gauges the speed, and every child it starts
        # share one CPU.  They never run at the same time.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    deadline = Deadline(RUN_BUDGET_S)
    reference = workloads.load_reference()
    setup = measure_setup(deadline)
    stream = workloads.rounds(args.workload, args.seed)

    if not args.trace:
        done, measured = execute(
            args.workload, stream, args.seconds, deadline, in_process=args.workload != "cli-small"
        )
        metrics, failures, tail = score(args.workload, done, measured, reference)
        metrics["setup_s"] = setup["setup_s"]
        # The largest child: a runner or an op process (the set-up probes only import).
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        note = machine_note(seed=args.seed, ops=len(done), measured_s=measured, **tail)
        emit(args, metrics, END_TO_END, failures, len(done), note)
        return 0

    rounds = [next(stream) for _ in range(TRACE_ROUNDS[args.workload])]
    plain, plain_s = execute(args.workload, rounds, math.inf, deadline)
    traced, traced_s = execute(args.workload, rounds, math.inf, deadline, trace=True)
    _, failures, _ = score(args.workload, plain + traced, plain_s + traced_s, reference)
    metrics, spans = layer_metrics(traced, len(traced))
    metrics["setup.interpreter_s"] = setup["setup.interpreter_s"]
    metrics["setup.import_s"] = setup["setup.import_s"]
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1
    note = machine_note(seed=args.seed, ops=len(traced), plain_s=plain_s, traced_s=traced_s)
    emit(args, metrics, PER_LAYER, failures, len(plain) + len(traced), note, spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
