"""Record reference.json: the expected outcome of every op of the fixed pools.

    python3 bench/make_reference.py

For each conditions-sweep op (every pool class, text and json) and each
cli-small op, records the exit code, the sha256 of stdout and the first line
of stderr, running each op the way its workload runs it.  Run this only at a
commit whose output is the intended behaviour: the benchmark counts every
later difference as a failed op.
"""

from __future__ import annotations

import json
import math

import run
import workloads


def main() -> None:
    deadline = run.Deadline(3600)
    sweep = [argv for argv in workloads.pooled_argvs() if tuple(argv) not in workloads.CLI_POOL]
    done, _ = run.execute("conditions-sweep", [sweep], math.inf, deadline)
    done += [(list(argv), run.run_cli_op(list(argv), deadline)) for argv in workloads.CLI_POOL]
    ops = {}
    for argv, outcome in done:
        if "rc" not in outcome or outcome.get("timeout") or outcome.get("crash"):
            raise SystemExit(f"cannot record {' '.join(argv)}: {outcome}")
        ops[" ".join(argv)] = workloads.reference_entry(outcome["rc"], outcome["out"], outcome["err"])
    note = run.machine_note()
    payload = {"commit": note["commit"], "src_sha256": note["src_sha256"], "ops": ops}
    workloads.REFERENCE_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(ops)} ops in {workloads.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
