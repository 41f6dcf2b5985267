"""Record the outputs of analyze-random operations, to check later runs against.

Usage, from the root of a checkout:

    python3 perfbench/record_golden.py

Dense random matrices have no closed-form answer, so their outputs are
compared with the outputs of the commit that recorded them.  The first cycle
of seeds 1-10 (the seeds of `report.py --seeds 1-10`) is recorded; outputs of
later cycles count as unchecked.  Operations that overrun the deadline are not
recorded; the time of every operation is printed, so the gap between
finishing and overrunning operations can be checked against the deadline
run.py uses.
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

import run
import workloads

WORKLOAD = "analyze-random"
SEEDS = range(1, 11)
DEADLINE_S = 20.0


def main():
    path = Path(__file__).resolve().parent / "golden" / f"{WORKLOAD}.json"
    golden = json.loads(path.read_text()) if path.is_file() else {}
    signal.signal(signal.SIGALRM, run._on_alarm)
    cli = run.import_package()
    checker = workloads.Checker()
    for seed in SEEDS:
        cycles = 0
        for op in workloads.distinct_ops(WORKLOAD, seed):
            if op["cycle_start"]:
                cycles += 1
                if cycles > 2:  # the first cycle is the n = 12 matrix alone
                    break
            rc, out, elapsed, error = run.run_op(cli, op, DEADLINE_S)
            error = error or checker(op, rc, out)
            print(f"seed {seed} {op['kind']:12s} {elapsed:8.3f} s  {error or 'recorded'}",
                  flush=True)
            if error is None:
                golden[op["id"]] = workloads.digest(out)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(dict(sorted(golden.items())), indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
