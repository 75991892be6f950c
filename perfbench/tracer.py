"""Counting and timing wrappers on fractaylor's public functions.

``Tracer.install`` replaces each function named in ``BOUNDARIES`` by a
wrapper, in the module that defines it and in every fractaylor module that
imported it by name (``forward.frac_binom``, ``inverse.forward_march``,
...), so calls between modules pass through the wrappers too.  numpy's
``lstsq`` is wrapped where ``inverse`` reaches it, as ``np.linalg.lstsq``.
No program file changes.

Every wrapped call pushes a frame on a stack.  On return its duration is
added to its own totals and to its parent's child time, so a function's
self time is its duration minus the part of it its wrapped callees cover.
Calls of the coarse boundaries are also kept as spans
``(name, start, end, parent, op_id)`` in memory and written out by
``write_spans`` when the run ends.  The hot leaves (``log_gamma``,
``frac_binom``, ``deriv_trace_at_one``: up to 10^5 calls per operation)
keep counts and times only, which bounds the memory a run holds.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

# (metric name, defining module, attribute, keep spans)
BOUNDARIES = (
    ("gammafn.log_gamma", "fractaylor.gammafn", "log_gamma", False),
    ("gammafn.frac_binom", "fractaylor.gammafn", "frac_binom", False),
    ("gammafn.ml_power_coeffs", "fractaylor.gammafn", "ml_power_coeffs", True),
    ("series.eval_series", "fractaylor.series", "eval_series", True),
    ("series.deriv_trace_at_one", "fractaylor.series", "deriv_trace_at_one", False),
    ("problem.problem_from_config", "fractaylor.problem", "problem_from_config", True),
    ("cases.example_problem", "fractaylor.cases", "example_problem", True),
    ("forward.forward_march", "fractaylor.forward", "forward_march", True),
    ("forward.residual_check", "fractaylor.forward", "residual_check", True),
    ("inverse.recover_separable", "fractaylor.inverse", "recover_separable", True),
    ("inverse.recover_newton", "fractaylor.inverse", "recover_newton", True),
    ("inverse.lstsq", "numpy.linalg", "lstsq", True),
    ("cli.main", "fractaylor.cli", "main", True),
)

NEWTON = "inverse.recover_newton"


def march_updates(spec, p) -> int:
    """Multiply-adds of one march, computed from the shapes alone.

    Level i has len(phi) - 2i coefficients and produces two fewer; output
    j sums min(j, len(p) - 1) + 1 products.  Skipped zero coefficients of
    p are counted too.
    """
    m = len(p)
    total = 0
    for i in range(spec.nt):
        n_out = len(spec.phi) - 2 * i - 2
        if n_out <= m:
            total += n_out * (n_out + 1) // 2
        else:
            total += m * (m + 1) // 2 + (n_out - m) * m
    return total


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # [name, span id, child seconds]
        self.spans: list[tuple] = []  # (name, start, end, parent id, op id, span id)
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.op_id = -1
        self._next_id = 0
        self._patched: list[tuple] = []

    def install(self) -> None:
        fractaylor_modules = [
            mod for name, mod in sys.modules.items()
            if name == "fractaylor" or name.startswith("fractaylor.")
        ]
        for name, module, attr, keep in BOUNDARIES:
            home = importlib.import_module(module)
            original = getattr(home, attr)
            wrapper = self._wrap(name, original, keep)
            for mod in [home] + fractaylor_modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def _wrap(self, name: str, fn, keep: bool):
        stack, clock = self.stack, time.perf_counter
        calls, total, self_time = self.calls, self.total, self.self_time
        hook = {
            "forward.forward_march": self._count_march,
            "inverse.lstsq": self._count_lstsq,
            "inverse.recover_newton": self._count_iterations,
        }.get(name)

        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            frame = [name, span_id, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[name] += 1
                total[name] += duration
                self_time[name] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                if keep:
                    self.spans.append(
                        (name, start, end, None if parent is None else parent[1], self.op_id, span_id)
                    )
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def _inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self.stack)

    def _count_march(self, args, kwargs, result) -> None:
        spec, p = args if len(args) == 2 else (args[0], kwargs["p"])
        self.counters["forward.forward_march.coeff_updates"] += march_updates(spec, p)
        if self._inside(NEWTON):
            self.counters["inverse.recover_newton.marches"] += 1

    def _count_lstsq(self, args, kwargs, result) -> None:
        if self._inside(NEWTON):
            self.counters["inverse.recover_newton.lstsq_calls"] += 1

    def _count_iterations(self, args, kwargs, result) -> None:
        self.counters["inverse.recover_newton.iterations"] += result.iterations

    def write_spans(self, path) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
