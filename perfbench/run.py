"""Benchmark of the submodzeta command line: one client, closed loop, in-process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation is `submodzeta.cli.main([...])` with `--format json`, run in
this process after the previous one has finished, and its output is checked
(see workloads.py).  With `--trace 0` the run times operations for S seconds
and reports the end-to-end metrics; with `--trace 1` it runs one fixed set of
operations untraced and then traced, and reports the per-layer metrics.  The
last line of standard output is the result object; the line before it holds
the details (sample counts, failures by input, versions).

The package is imported from `src/` of the checkout and nowhere else; without
it the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STARTED = time.perf_counter()
NPROC = len(os.sched_getaffinity(0))  # before main pins the run to one CPU
RUN_LIMIT_S = 150.0  # a run ends well within 180 s even when operations hang

SETUP_SPAWNS = 7
IMPORTTIME_SPAWNS = 3

# op_ms.tail is this percentile of the workload's latencies: the highest that
# leaves at least 10 samples beyond it in a run of run_seconds at the
# benchmark's defining commit, with a quarter to spare.  It is fixed per
# workload so that runs with more or fewer samples report the same statistic.
# analyze-random finishes too few operations for any such percentile.
TAIL_PERCENTILE = {"analyze-structured": 75, "verify-sparse": 95,
                   "verify-dense": 95, "analyze-random": 90}

# Per-operation deadline.  Natural operation times on the listed workloads
# stay below about 3 s, so 30 s fires only on a hang.  analyze-random uses 5 s:
# most of its inputs finish within 2.5 s, and the rest run in integer
# factorization for 7 s, 18 s or far longer.
DEADLINES = {"analyze-structured": 30.0, "verify-sparse": 30.0,
             "verify-dense": 30.0, "analyze-random": 5.0}

# analyze-random overruns its deadline by design while the factorization stall
# stands; on every other workload any failed operation makes the run incorrect.
OVERRUNS_EXPECTED = {"analyze-random"}

# Operations in the traced run: whole cycles of each workload's input classes.
TRACE_OPS = {"analyze-structured": 17, "verify-sparse": 16,
             "verify-dense": 40, "analyze-random": 10}


# Machine-speed correction.  On the shared 2-vCPU machine where the benchmark
# was defined, each vCPU's speed swung between two levels about 40 % apart,
# at sub-second scale, in a share that drifted over minutes, and the two vCPUs
# were often slowed by different amounts at one time.  Raw figures of ten 30 s
# runs spread by up to 0.41 of their median.  So the run pins itself, and the
# interpreters it spawns, to one CPU (see main), and times there a fixed
# kernel that runs none of the package's code: exact Fraction elimination in
# Python and int64 vector arithmetic in numpy, with the garbage collector off
# so that the program's heap cannot slow it.  The kernel runs every
# KERNEL_EVERY_S seconds of the timed phase, and KERNEL_PASSES_PER_SPAWN times
# before and after each set-up spawn.  Its trimmed mean time over
# NOMINAL_KERNEL_S is the phase's slowdown, and the phase's timings are
# divided by it (rates multiplied).  Run-to-run spreads this left, and the
# raw ones, are in CHANGES.md.  The raw figures and both slowdowns go to the
# details line.
KERNEL_EVERY_S = 0.25
KERNEL_PASSES_PER_SPAWN = 20
NOMINAL_KERNEL_S = 0.004
_KERNEL_MATRIX = [[(7 * i + 3 * j + i * j) % 13 - 6 for j in range(8)] for i in range(8)]
_KERNEL_ARRAY = np.arange(1 << 16, dtype=np.int64)


def trimmed_mean(values):
    """Mean of the values without the lowest and highest tenth."""
    values = sorted(values)
    k = len(values) // 10
    return statistics.fmean(values[k:len(values) - k])


def kernel_seconds():
    """Seconds of one pass of the fixed machine-speed kernel."""
    gc.disable()
    start = time.perf_counter()
    m = [[Fraction(x) for x in row] for row in _KERNEL_MATRIX]
    for c in range(len(m)):
        pivot = next((r for r in range(c, len(m)) if m[r][c]), None)
        if pivot is None:
            continue
        m[c], m[pivot] = m[pivot], m[c]
        for r in range(len(m)):
            if r != c and m[r][c]:
                f = m[r][c] / m[c][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    a = _KERNEL_ARRAY
    for _ in range(4):
        a = (a * 3 + 1) % 1000003
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM; a BaseException so no handler in the program swallows it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def hermetic_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("SUBMODZETA_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn_seconds(args, env):
    """Wall time of one fresh interpreter, and its standard error."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        fail(f"{args} exited with {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return elapsed, proc.stderr


def setup_seconds(env):
    """Median wall time of a fresh `import submodzeta.cli` over several spawns,
    and the times of the kernel passes run before and after each spawn."""
    spawns, kernel = [], []
    for _ in range(SETUP_SPAWNS):
        kernel.extend(kernel_seconds() for _ in range(KERNEL_PASSES_PER_SPAWN))
        spawns.append(spawn_seconds(["-c", "import submodzeta.cli"], env)[0])
    kernel.extend(kernel_seconds() for _ in range(KERNEL_PASSES_PER_SPAWN))
    return statistics.median(spawns), kernel


def import_times(env):
    """Medians of sympy, numpy and the package's own import time, from -X importtime."""
    samples = {"import.sympy_s": [], "import.numpy_s": [], "import.submodzeta_self_s": []}
    for _ in range(IMPORTTIME_SPAWNS):
        _, err = spawn_seconds(["-X", "importtime", "-c", "import submodzeta.cli"], env)
        cumulative = {}
        own = 0
        for line in err.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            fields = line[len("import time:"):].split("|")
            try:
                self_us, cum_us = int(fields[0]), int(fields[1])
            except ValueError:
                continue  # the header line
            name = fields[2].strip()
            cumulative[name] = cum_us
            if name == "submodzeta" or name.startswith("submodzeta."):
                own += self_us
        samples["import.sympy_s"].append(cumulative.get("sympy", 0) / 1e6)
        samples["import.numpy_s"].append(cumulative.get("numpy", 0) / 1e6)
        samples["import.submodzeta_self_s"].append(own / 1e6)
    return {k: statistics.median(v) for k, v in samples.items()}


def import_package():
    sys.path.insert(0, str(SRC))
    import submodzeta.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        fail(f"submodzeta came from {cli.__file__}, not from {SRC}")
    return cli


def environment(seed):
    import numpy
    import sympy
    from sympy.external.gmpy import GROUND_TYPES
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "sympy": sympy.__version__, "sympy_ground_types": GROUND_TYPES,
            "nproc": NPROC, "pinned_cpu": min(os.sched_getaffinity(0)), "seed": seed}


def time_left():
    return RUN_LIMIT_S - (time.perf_counter() - STARTED)


def op_deadline(deadline):
    """The deadline cut to what is left of the run, and never zero, which would disarm it."""
    return max(min(deadline, time_left()), 0.001)


def run_op(cli, op, deadline):
    """(exit code, stdout, seconds, error) of one operation.

    error is None when the operation returned, or says how it ended instead:
    an overrun of the deadline, or an exception raised out of `cli.main`.
    """
    out = io.StringIO()
    rc, error = None, None
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, deadline)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(op["argv"])
    except DeadlineExceeded:
        error = f"overran the {deadline:g} s deadline"
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # any escape from the program is a failed operation
        error = f"raised {type(exc).__name__}: {str(exc)[:200]}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return rc, out.getvalue(), time.perf_counter() - start, error


def is_overrun(failure):
    return failure["error"].startswith("overran")


def judge(checker, op, rc, out, elapsed, error):
    """Failure record of one operation, or None when it is correct."""
    if error is None:
        try:
            error = checker(op, rc, out)
        except (KeyError, TypeError, ValueError) as exc:
            error = f"malformed output: {exc!r}"
    if error is None:
        return None
    return {"id": op["id"], "kind": op["kind"], "seconds": round(elapsed, 3),
            "error": error, "input": op["argv"][1][:200]}


WARM_UP = [["analyze", "[[0,1],[-1,0]]", "--format", "json"],
           ["verify", "[[0,1],[-1,0]]", "--primes", "5", "--max-index-exp", "2",
            "--format", "json"]]


def warm_up(cli):
    """Run both subcommands once on a small matrix, so lazy imports finish before timing."""
    for argv in WARM_UP:
        run_op(cli, {"argv": argv}, 60.0)


def nearest_rank(sorted_values, q):
    """The q-th percentile (0 < q <= 100) of sorted values, by nearest rank."""
    return sorted_values[max(0, math.ceil(len(sorted_values) * q / 100) - 1)]


def timed_run(cli, workload, seed, seconds, deadline, golden):
    """Closed loop over whole cycles for `seconds`; every attempted operation's
    latency counts, an overrun at the time it ran."""
    checker = workloads.Checker(golden)
    latencies = []
    by_kind = {}
    failures = []
    kernel = []
    kernel_s = 0.0
    gc.collect()
    start = time.perf_counter()
    last_kernel = start - KERNEL_EVERY_S
    for op in workloads.distinct_ops(workload, seed):
        now = time.perf_counter()
        if (op["cycle_start"] and now - start - kernel_s >= seconds) or time_left() <= 0:
            break
        if now - last_kernel >= KERNEL_EVERY_S:
            kernel.append(kernel_seconds())
            last_kernel = time.perf_counter()
            kernel_s += last_kernel - now
        rc, out, elapsed, error = run_op(cli, op, op_deadline(deadline))
        latencies.append(elapsed * 1000)
        by_kind.setdefault(op["kind"], []).append(elapsed * 1000)
        failure = judge(checker, op, rc, out, elapsed, error)
        if failure is not None:
            failures.append(failure)
    wall = time.perf_counter() - start - kernel_s
    slowdown = trimmed_mean(kernel) / NOMINAL_KERNEL_S
    attempted = len(latencies)
    latencies.sort()
    n = len(latencies)
    tail_q = TAIL_PERCENTILE[workload]
    raw = {
        "ops_per_s": (n - len(failures)) / wall,
        "op_ms.p50": statistics.median(latencies),
        "op_ms.tail": nearest_rank(latencies, tail_q),
    }
    metrics = {
        "ops_per_s": (raw["ops_per_s"] * slowdown, "1/s"),
        "op_ms.p50": (raw["op_ms.p50"] / slowdown, "ms"),
        "op_ms.tail": (raw["op_ms.tail"] / slowdown, "ms"),
    }
    details = {"samples": n, "op_ms.tail_percentile": tail_q,
               "samples_beyond_tail": n - math.ceil(n * tail_q / 100),
               "timed_s": round(wall, 3), "failed_frac": len(failures) / attempted,
               "slowdown": slowdown, "kernel_passes": len(kernel), "raw": raw,
               "unchecked": checker.unchecked, "failures": failures,
               "kind_ms.p50": {k: round(statistics.median(v), 3) for k, v in sorted(by_kind.items())}}
    return attempted, failures, metrics, details


def traced_run(cli, workload, seed, deadline, golden):
    """The same operations untraced, then traced; per-layer metrics and checks.

    Outputs are checked after both passes, so neither pass times the checks.
    """
    import sympy.core.cache
    from sympy.ntheory.factor_ import factor_cache

    ops = []
    for op in workloads.distinct_ops(workload, seed):
        if len(ops) == TRACE_OPS[workload]:
            break
        ops.append(op)
    passes = []
    for traced in (False, True):
        sympy.core.cache.clear_cache()
        factor_cache.clear()
        gc.collect()
        tracer = Tracer()
        results = []
        start = time.perf_counter()
        with tracer if traced else contextlib.nullcontext():
            for op in ops:
                results.append(run_op(cli, op, op_deadline(deadline)))
        passes.append((time.perf_counter() - start, results, tracer))
    (plain_s, plain, _), (traced_s, traced, tracer) = passes

    checker = workloads.Checker(golden)
    failures = [f for op, (rc, out, elapsed, error) in zip(ops, traced)
                if (f := judge(checker, op, rc, out, elapsed, error)) is not None]
    differ = [op["id"] for op, a, b in zip(ops, plain, traced)
              if (a[0], a[1], a[3]) != (b[0], b[1], b[3])]
    if differ:
        failures.append({"id": ",".join(differ), "kind": "trace",
                         "error": "traced outputs differ from untraced outputs"})
    silent = silent_layers(workload, tracer)
    if silent:
        failures.append({"id": ",".join(silent), "kind": "layer",
                         "error": f"home layers recorded no call on {workload}"})

    def calls(name):
        return tracer.calls.get(name, 0)

    def secs(name):
        return tracer.total_s.get(name, 0.0)

    c = tracer.counters
    oracle_s = secs("oracle.count_invariant_sublattices")
    metrics = {
        "linalg.minpoly.calls": (calls("linalg.minpoly"), "count"),
        "linalg.minpoly.s": (secs("linalg.minpoly"), "s"),
        "linalg.kernel_basis.s": (secs("linalg.kernel_basis"), "s"),
        "linalg.resultant.calls": (calls("linalg.resultant"), "count"),
        "linalg.resultant.s": (secs("linalg.resultant"), "s"),
        "polyfactor.factor_over_z.s": (secs("polyfactor.factor_over_z"), "s"),
        "polyfactor.splitting_profile.calls": (calls("polyfactor.splitting_profile"), "count"),
        "polyfactor.splitting_profile.s": (secs("polyfactor.splitting_profile"), "s"),
        "canonical.edv_context.calls": (calls("canonical.edv_context"), "count"),
        "canonical.edv_context.s": (secs("canonical.edv_context"), "s"),
        "canonical.edv_context.self_s": (tracer.self_s.get("canonical.edv_context", 0.0), "s"),
        "zetacore.bad_prime_reasons.s": (secs("zetacore.bad_prime_reasons"), "s"),
        "sympy.factorint.calls": (calls("sympy.factorint"), "count"),
        "sympy.factorint.s": (secs("sympy.factorint"), "s"),
        "sympy.factorint.max_digits": (c["sympy.factorint.max_digits"], "digits"),
        "zetacore.is_good_prime.calls": (calls("zetacore.is_good_prime"), "count"),
        "zetacore.is_good_prime.s": (secs("zetacore.is_good_prime"), "s"),
        "zetacore.generic_local_factor.s": (secs("zetacore.generic_local_factor"), "s"),
        "zetacore.dirichlet_coefficients.s": (secs("zetacore.dirichlet_coefficients"), "s"),
        "oracle.count_invariant_sublattices.calls":
            (calls("oracle.count_invariant_sublattices"), "count"),
        "oracle.count_invariant_sublattices.s": (oracle_s, "s"),
        "oracle.candidates": (c["oracle.candidates"], "count"),
        "oracle.invariant": (c["oracle.invariant"], "count"),
        "oracle.useful_ratio":
            (c["oracle.invariant"] / c["oracle.candidates"] if c["oracle.candidates"] else 0.0,
             "ratio"),
        "oracle.candidates_per_s": (c["oracle.candidates"] / oracle_s if oracle_s else 0.0, "1/s"),
        "oracle.numpy.calls": (calls("oracle.numpy"), "count"),
        "oracle.numpy.s": (secs("oracle.numpy"), "s"),
        "oracle.python.calls": (calls("oracle.python"), "count"),
        "oracle.python.s": (secs("oracle.python"), "s"),
        "cli.main.self_s": (tracer.self_s.get("cli.main", 0.0), "s"),
        "unattributed_s": (traced_s - tracer.top_level_s, "s"),
        "trace_overhead_frac": (traced_s / plain_s - 1, "ratio"),
    }
    details = {"operations": len(ops), "untraced_s": round(plain_s, 3),
               "traced_s": round(traced_s, 3), "absent_hooks": tracer.absent,
               "silent_layers": silent, "unchecked": checker.unchecked, "failures": failures}
    return len(ops), failures, metrics, details


# Layers that must record calls on the workload where they do most of the work.
HOME_LAYERS = {
    "analyze-structured": ["canonical.edv_context", "linalg.minpoly", "linalg.kernel_basis",
                           "linalg.resultant", "polyfactor.factor_over_z",
                           "zetacore.bad_prime_reasons", "sympy.factorint", "cli.main"],
    "analyze-random": ["zetacore.bad_prime_reasons", "sympy.factorint",
                       "zetacore.is_good_prime", "cli.main"],
    "verify-sparse": ["oracle.count_invariant_sublattices", "oracle.count_at_exponent",
                      "oracle.numpy", "oracle.python", "zetacore.is_good_prime",
                      "zetacore.generic_local_factor", "zetacore.dirichlet_coefficients",
                      "polyfactor.splitting_profile", "cli.main"],
    "verify-dense": ["oracle.count_invariant_sublattices", "oracle.count_at_exponent",
                     "oracle.numpy", "cli.main"],
}


def silent_layers(workload, tracer):
    """Home layers that recorded no call although their hook exists."""
    return [name for name in HOME_LAYERS[workload]
            if name not in tracer.absent and not tracer.calls.get(name)]


def load_golden(workload):
    path = Path(__file__).resolve().parent / "golden" / f"{workload}.json"
    if not path.is_file():
        return {}
    with open(path) as fh:
        return json.load(fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "submodzeta" / "cli.py").is_file():
        fail(f"no package source under {SRC}")
    for key in [k for k in os.environ if k.startswith("SUBMODZETA_")]:
        del os.environ[key]
    # One CPU for this process and the interpreters it spawns, so that the
    # speed kernel runs where the timed work runs: the two vCPUs of the
    # defining machine were often slowed by different amounts at one time.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = hermetic_env()
    signal.signal(signal.SIGALRM, _on_alarm)
    deadline = DEADLINES[args.workload]
    golden = load_golden(args.workload)

    extra = {}
    if args.trace:
        extra = import_times(env)
    else:
        setup_s, setup_kernel = setup_seconds(env)
    cli = import_package()
    warm_up(cli)
    if args.trace:
        attempted, failures, metrics, details = traced_run(
            cli, args.workload, args.seed, deadline, golden)
        metrics.update({k: (v, "s") for k, v in extra.items()})
    else:
        attempted, failures, metrics, details = timed_run(
            cli, args.workload, args.seed, args.seconds, deadline, golden)
        setup_slowdown = trimmed_mean(setup_kernel) / NOMINAL_KERNEL_S
        metrics["setup_s"] = (setup_s / setup_slowdown, "s")
        details["raw"]["setup_s"] = setup_s
        details["setup_slowdown"] = setup_slowdown
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (peak_kb / 1024, "MB")
    details.update({"workload": args.workload, "deadline_s": deadline,
                    "environment": environment(args.seed)})
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": all(args.workload in OVERRUNS_EXPECTED and is_overrun(f) for f in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
