"""Run the benchmark on several workloads and seeds and print every metric.

Usage, from the root of a checkout:

    python3 perfbench/report.py [--workloads a,b] [--seeds 1-10] [--seconds S] [--trace 0|1]

Each run is a fresh `perfbench/run.py` process.  For every workload the
report prints each metric by name with its unit, per seed, then the median
and the spread (distance between the first and third quartile over the
median) beside the bound that BENCHMARK.json fixes, and every failed
operation by input.  It exits with status 1 if any run fails, reports an
incorrect output, or spreads past its bound (setup_s excepted).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ALL_WORKLOADS = ["analyze-structured", "verify-sparse", "verify-dense", "analyze-random"]


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return json.loads(lines[-2])["details"], json.loads(lines[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(ALL_WORKLOADS))
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    seeds = parse_seeds(args.seeds)
    ok = True
    for workload in args.workloads.split(","):
        values = {}
        units = {}
        print(f"== {workload}  (seeds {args.seeds}, {seconds:g} s, trace {args.trace})")
        for seed in seeds:
            details, result = run_once(workload, seed, seconds, args.trace)
            ok &= result["correct"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            for name, value in details.get("raw", {}).items():  # before the speed correction
                values.setdefault(f"raw {name}", []).append(value)
                units[f"raw {name}"] = units[name]
            for name in ("slowdown", "setup_slowdown"):
                if name in details:
                    values.setdefault(name, []).append(details[name])
                    units[name] = "ratio"
            count = details.get("samples", details.get("operations"))
            print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} samples={count} "
                  f"tail_percentile={details.get('op_ms.tail_percentile', '-')}")
            for f in details["failures"]:
                print(f"   FAILED {f['kind']} {f['id']}: {f['error']} ({f.get('input', '')[:80]})")
            if details.get("absent_hooks"):
                print(f"   absent hooks: {details['absent_hooks']}")
        for name, vals in values.items():
            line = f"  {name:42s} {statistics.median(vals):14.6g} {units[name]:7s}"
            if len(vals) >= 4:
                s = spread(vals)
                line += f" spread {s:.4f}"
                if name in bounds and name != "setup_s":
                    line += f" bound {bounds[name]}"
                    if s > bounds[name]:
                        ok = False
                        line += "  OVER BOUND"
                    elif s > bounds[name] / 3:
                        line += "  over a third of the bound"
            print(line)
            if len(vals) > 1:
                print("      values " + " ".join(f"{v:.6g}" for v in vals))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
