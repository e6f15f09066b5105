"""One-shot timing of the five commands in ROADMAP.md's baseline table.

    python3 bench/roadmap_baseline.py

Runs each command once as a `python -m ratsurf.cli` subprocess with a
per-command timeout of TIMEOUT_S seconds and writes roadmap_baseline.json
beside this file.  A command that runs out of time is recorded as a timeout
with the time it was given, never dropped.  This is a record, not a workload: the benchmark runs
never execute it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run

COMMANDS = (
    "conditions --surface f1 --class 6G+18F",
    "conditions --surface f0 --class 8G+16F",
    "report --surface f1 --class 2G+4F --r 1000 --trunc 200",
    "report --surface f1 --class 2G+4F --r 10000 --trunc 10",
    "genus --surface p2 --class 3H",
)

TIMEOUT_S = 300

RECORD_PATH = Path(__file__).with_name("roadmap_baseline.json")


def time_command(cmd: str) -> dict:
    child = run.run_child([sys.executable, "-m", "ratsurf.cli", *cmd.split()], TIMEOUT_S, capture=False)
    if child.get("timeout"):
        return {"command": cmd, "status": "timeout", "seconds": child["s"], "exit": None}
    return {"command": cmd, "status": "done", "seconds": child["s"], "exit": child["rc"]}


def main() -> None:
    results = []
    for cmd in COMMANDS:
        results.append({**time_command(cmd), "timeout_s": TIMEOUT_S})
        print(json.dumps(results[-1]), flush=True)
    record = {"note": run.machine_note(), "runs": results}
    RECORD_PATH.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
