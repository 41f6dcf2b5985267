"""Per-layer spans for the traced run, recorded from outside the package.

Each layer is a public function of one module.  The tracer replaces the
function in every loaded module that holds it, not only where it is
defined: `canonical` calls `minpoly` through its own imported name, so
patching `linalg.minpoly` alone would record nothing.  Spans nest, and a
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time

# (layer name, defining module, attribute)
LAYERS = [
    ("cli.main", "submodzeta.cli", "main"),
    ("canonical.edv_context", "submodzeta.canonical", "edv_context"),
    ("linalg.minpoly", "submodzeta.linalg", "minpoly"),
    ("linalg.kernel_basis", "submodzeta.linalg", "kernel_basis"),
    ("linalg.resultant", "submodzeta.linalg", "resultant"),
    ("polyfactor.factor_over_z", "submodzeta.polyfactor", "factor_over_z"),
    ("polyfactor.splitting_profile", "submodzeta.polyfactor", "splitting_profile"),
    ("zetacore.bad_prime_reasons", "submodzeta.zetacore", "bad_prime_reasons"),
    ("zetacore.is_good_prime", "submodzeta.zetacore", "is_good_prime"),
    ("zetacore.generic_local_factor", "submodzeta.zetacore", "generic_local_factor"),
    ("zetacore.dirichlet_coefficients", "submodzeta.zetacore", "dirichlet_coefficients"),
    ("sympy.factorint", "sympy", "factorint"),
    ("oracle.count_invariant_sublattices", "submodzeta.oracle", "count_invariant_sublattices"),
    ("oracle.count_at_exponent", "submodzeta.oracle", "count_at_exponent"),
    ("oracle.numpy", "submodzeta.oracle", "_count_numpy"),
    ("oracle.python", "submodzeta.oracle", "_count_python"),
]


class Tracer:
    """Aggregates span times and counts while its patches are installed."""

    def __init__(self):
        self.calls = {}
        self.total_s = {}
        self.self_s = {}
        self.counters = {"oracle.candidates": 0, "oracle.invariant": 0,
                         "sympy.factorint.max_digits": 0}
        self.top_level_s = 0.0
        self.absent = []
        self._stack = []  # [name, start, child seconds]
        self._active = {}
        self._patches = []

    def _enter(self, name):
        self._stack.append([name, time.perf_counter(), 0.0])
        self._active[name] = self._active.get(name, 0) + 1

    def _exit(self):
        name, start, child = self._stack.pop()
        duration = time.perf_counter() - start
        self._active[name] -= 1
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child
        if not self._active[name]:  # a recursive call is already inside the outer span
            self.total_s[name] = self.total_s.get(name, 0.0) + duration
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.top_level_s += duration

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "sympy.factorint":  # counted on entry: the call may overrun
                digits = len(str(abs(int(args[0]))))
                self.counters["sympy.factorint.max_digits"] = max(
                    self.counters["sympy.factorint.max_digits"], digits)
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if name == "oracle.count_at_exponent":
                count, visits = result
                self.counters["oracle.invariant"] += count
                self.counters["oracle.candidates"] += visits
            return result
        return traced

    def install(self):
        """Patch every layer in every module that imported it; note absent hooks."""
        holders = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "submodzeta" or key.startswith("submodzeta."))]
        for name, module_name, attr in LAYERS:
            module = sys.modules.get(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(name)
                continue
            traced = self._wrap(name, original)
            for holder in holders + [module]:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, original))
                        setattr(holder, key, traced)

    def uninstall(self):
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
