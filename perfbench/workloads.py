"""The three benchmark workloads: inputs from a seed, one operation, its check.

Every workload is a closed loop driven by one client: the next operation
starts when the previous one has returned.  Inputs come from the seed only,
through ``random.Random``; the program under test sees nothing but the
generated inputs.

* ``table``: ``fractaylor table --example e --x-eval x`` in process, at the
  default 3x3 order grid and truncation (nt, nx, kmax) = (10, 16, 8).  The
  paper's artefact at small sizes, where per-call overhead and log-gamma
  dominate.  Never runs Newton.
* ``deep_march``: one ``forward_march`` of the self-coupled case-1 problem
  at alpha = beta = 0.7, (nt, nx, kmax) = (40, 60, 60), with a seeded
  random p in U(-1, 1)^61.  The convolution kernel is the whole cost;
  ``inverse`` and ``cli`` are bypassed.  The march starts from the
  oracle's phi, so its checked error is the kernel's own.
* ``newton``: ``fractaylor invert --config c --mode newton`` in process on
  roundtrip instances (data marched from a known p*) from a fixed pool, in
  seeded order.  Thousands of tiny marches per second; separable solves
  and ``eval_series`` are bypassed.

A run cycles through a pool of inputs (for ``deep_march``, a pool of one)
and takes its latency samples from complete passes over the pool only, so
every run's samples have the same mix of inputs.  ``worker.py`` times a
fixed reference kernel between operations and also expresses each
operation's time in reference milliseconds, which other tenants' load on
the shared machine moves far less than wall time.

Nothing here imports numpy or fractaylor at module level: the worker times
``import fractaylor`` as part of set-up, and a lazier numpy import in the
program must be able to show in ``setup_s``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from pathlib import Path

DEEP = {"alpha": 0.7, "beta": 0.7, "nt": 40, "nx": 60, "kmax": 60}
# A deep march coefficient fails its check when its error exceeds this
# share of the magnitude summed into it; so does a coefficient of the
# program's initial data phi, against its exact value.
DEEP_TOL = 1e-10

TABLE_POOL = 64
TABLE_ROWS = 10
# the exact column is rendered with 5 decimals
EXACT_TOL = 6e-6
# the classical forward-accuracy budget of acceptance criterion 3; at the
# table defaults E(1,1) reaches 9.4e-6 (example 2, x = 0.75, t = 0.5)
CLASSICAL_TOL = 1e-5

NEWTON_ORDERS = (1.0, 0.9, 0.7)
NEWTON_KMAX = range(5)
# each (kmax, beta) pair gets two self-coupled instances and one with a
# known source f, and the pool repeats that block.  The pool is drawn once
# from a fixed generator seed and the run's seed only orders the
# operations: a pool drawn per seed carries a varying number of rare hard
# instances (near-stalls at beta = 0.7), which moved op_tail_ms by 26% and
# op_p50_ms by 9% between seeds.
NEWTON_SOURCES = ("self", "self", "known")
NEWTON_REPEAT = 4
NEWTON_POOL_SEED = "newton-pool"
P_TOL = 1e-7

class NotConverged(Exception):
    """The program reported, as documented, that its solve did not converge.

    Such an operation counts as failed; unlike a wrong or missing result it
    does not make the run's output incorrect.
    """


def deep_p(seed: int) -> list[float]:
    """The seeded coefficient vector of the deep march."""
    rng = random.Random(f"deep_march:{seed}")
    return [rng.uniform(-1.0, 1.0) for _ in range(DEEP["kmax"] + 1)]


def capture(fn, *args):
    """Run fn(*args) with stdout and stderr captured; return (result, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        result = fn(*args)
    return result, out.getvalue(), err.getvalue()


class Table:
    """``table --example e --x-eval x``; checked against the closed forms."""

    warmup = 0

    def __init__(self, seed: int, workdir: Path, reference) -> None:
        from fractaylor import cli

        self.cli = cli
        rng = random.Random(f"table:{seed}")
        examples = [1, 2] * (TABLE_POOL // 2)
        rng.shuffle(examples)
        self.inputs = [(e, f"{rng.uniform(0.25, 0.75):.4f}") for e in examples]

    def op(self, i: int):
        e, x = self.inputs[i % len(self.inputs)]
        return capture(self.cli.main, ["table", "--example", str(e), "--x-eval", x])

    def check(self, i: int, result) -> float:
        """Worst relative error of the classical column, or raise ValueError."""
        code, out, err = result
        if code != 0:
            raise ValueError(f"exit {code}: {err.strip()}")
        e, x = self.inputs[i % len(self.inputs)]
        xv = float(x)
        lines = out.splitlines()
        if not lines[0].startswith("t,exact,E(1,1),"):
            raise ValueError(f"unexpected header {lines[0]!r}")
        if len(lines) != TABLE_ROWS + 1:
            raise ValueError(f"{len(lines) - 1} rows, expected {TABLE_ROWS}")
        worst = 0.0
        for row, line in enumerate(lines[1:]):
            cells = [float(c) for c in line.split(",")]
            t = 0.05 * (row + 1)
            if len(cells) != 11 or abs(cells[0] - t) > 1e-9:
                raise ValueError(f"row {row}: {line!r}")
            exact = math.exp(2.0 * t + xv * xv) if e == 1 else math.exp(t + xv**3)
            if abs(cells[1] - exact) > EXACT_TOL:
                raise ValueError(f"row {row}: exact {cells[1]} != {exact:.7f}")
            if not all(math.isfinite(c) for c in cells):
                raise ValueError(f"row {row}: non-finite cell in {line!r}")
            if cells[2] > CLASSICAL_TOL:
                raise ValueError(f"row {row}: E(1,1) = {cells[2]:.2e} > {CLASSICAL_TOL}")
            worst = max(worst, cells[2] / exact)
        return worst


class DeepMarch:
    """One ``forward_march`` at (40, 60, 60); checked against a 50-digit march.

    The program's case-1 phi is checked once, here, against the exact phi.
    The timed march starts from the exact phi rounded to float, the oracle's
    starting point, and only its time levels 1..nt are checked: their error
    is the march's own, not that of the initial data.
    """

    warmup = 0

    def __init__(self, seed: int, workdir: Path, reference) -> None:
        from fractaylor import ProblemSpec, XSeries, example_problem, forward

        self.forward = forward
        d = DEEP
        base = example_problem(1, d["alpha"], d["beta"], d["nt"], d["nx"], d["kmax"])
        phi, self.ref_levels, self.ref_mags = reference
        if len(base.phi) != len(phi):
            raise ValueError(f"phi has {len(base.phi)} coefficients, expected {len(phi)}")
        for j, (a, r) in enumerate(zip(base.phi.coeffs, phi)):
            if abs(a - r) > DEEP_TOL * abs(r):
                raise ValueError(f"phi[{j}] = {a!r}, exact {r!r}")
        self.spec = ProblemSpec(
            base.orders, nt=d["nt"], nx=d["nx"], kmax=d["kmax"],
            phi=XSeries(d["beta"], tuple(phi)), mu1=base.mu1, mu2=base.mu2,
        )
        self.p = XSeries(d["beta"], tuple(deep_p(seed)))
        self.inputs = [self.p]
        self.checked = None

    @staticmethod
    def reference(seed: int):
        from oracle import case1_march

        d = DEEP
        return case1_march(deep_p(seed), d["beta"], d["nt"], d["nx"] + 2 * d["nt"])

    def op(self, i: int):
        return self.forward.forward_march(self.spec, self.p)

    def check(self, i: int, result) -> float:
        """Worst componentwise error against the reference, or raise ValueError.

        The march is deterministic, so an output equal to one already
        checked carries that check's error.
        """
        levels = result.u.levels[1:]
        flat = [float(v) for level in levels for v in level]
        if self.checked is not None and flat == self.checked[0]:
            return self.checked[1]
        got = [len(level) for level in levels]
        want = [len(level) for level in self.ref_levels]
        if got != want:
            raise ValueError(f"level widths {got} != {want}")
        worst = 0.0
        ref = [v for level in self.ref_levels for v in level]
        mag = [v for level in self.ref_mags for v in level]
        for a, r, m in zip(flat, ref, mag):
            if not math.isfinite(a):
                raise ValueError("non-finite coefficient")
            if m > 0.0:
                worst = max(worst, abs(a - r) / m)
            elif a != 0.0:
                raise ValueError("nonzero coefficient where the exact one is 0")
        if worst > DEEP_TOL:
            raise ValueError(f"componentwise error {worst:.2e} > {DEEP_TOL}")
        self.checked = (flat, worst)
        return worst

    def raw_error(self) -> float:
        """Worst per-level normwise relative error of the last checked output.

        Unlike the componentwise error this includes the instance's own
        cancellation, so it varies by orders of magnitude between seeds.
        """
        flat = iter(self.checked[0])
        worst = 0.0
        for level in self.ref_levels:
            scale = max(abs(v) for v in level)
            worst = max(worst, max(abs(next(flat) - v) for v in level) / scale)
        return worst


class Newton:
    """``invert --mode newton`` on roundtrip instances; checked against p*."""

    def __init__(self, seed: int, workdir: Path, reference) -> None:
        from fractaylor import BiFracSeries, ProblemSpec, XSeries, cli, example_problem, forward_march

        self.cli = cli
        rng = random.Random(NEWTON_POOL_SEED)
        combos = [
            (kmax, beta, source)
            for kmax in NEWTON_KMAX
            for beta in NEWTON_ORDERS
            for source in NEWTON_SOURCES
        ] * NEWTON_REPEAT
        pool = []
        for n, (kmax, beta, source) in enumerate(combos):
            pstar = [rng.uniform(-5.0, 5.0) for _ in range(kmax + 1)]
            nt, nx = kmax + 2, max(kmax, 4)
            base = example_problem(1, 1.0, beta, nt=nt, nx=nx, kmax=kmax)
            f = None
            if source == "known":
                width = len(base.phi)
                f = [[rng.uniform(-1.0, 1.0) for _ in range(width - 2 * i)] for i in range(nt + 1)]
            spec = ProblemSpec(
                base.orders, nt=nt, nx=nx, kmax=kmax, phi=base.phi,
                mu1=base.mu1, mu2=base.mu2,
                f_series=None if f is None else BiFracSeries(base.orders, tuple(map(tuple, f))),
            )
            data = forward_march(spec, XSeries(beta, tuple(pstar)))
            cfg = {
                "alpha": 1.0, "beta": beta, "nt": nt, "nx": nx, "kmax": kmax,
                "phi": {"kind": "ml_power", "m": 2},
                "mu1": {"kind": "coeffs", "values": list(data.bc_trace_x0.coeffs)},
                "mu2": {"kind": "coeffs", "values": list(data.bc_trace_x1.coeffs)},
                "f": "self" if f is None else {"kind": "coeffs2d", "values": f},
            }
            path = workdir / f"newton-{n:03d}.json"
            path.write_text(json.dumps(cfg))
            pool.append((str(path), pstar))
        random.Random(f"newton:{seed}").shuffle(pool)
        self.inputs = pool
        # warm up on a kmax = 0 instance: its cost does not depend on the seed
        self.warmup = next(n for n, (_, pstar) in enumerate(pool) if len(pstar) == 1)

    def op(self, i: int):
        path, _ = self.inputs[i % len(self.inputs)]
        return capture(self.cli.main, ["invert", "--config", path, "--mode", "newton"])

    def check(self, i: int, result) -> float:
        """Worst relative error of the printed p against p*, or raise ValueError."""
        code, out, err = result
        lines = out.splitlines()
        if code == 4 and "converged: no" in lines:
            raise NotConverged(f"instance {i % len(self.inputs)}: {err.strip() or 'converged: no'}")
        if code != 0 or "converged: yes" not in lines:
            raise ValueError(f"exit {code}: {err.strip()}")
        _, pstar = self.inputs[i % len(self.inputs)]
        head = next(n for n, line in enumerate(lines) if line.split()[:1] == ["k"])
        rows = [line.split() for line in lines[head + 1:]]
        if [int(r[0]) for r in rows] != list(range(len(pstar))):
            raise ValueError(f"printed {len(rows)} coefficients, expected {len(pstar)}")
        worst = 0.0
        for r, want in zip(rows, pstar):
            got = float(r[1])
            if not abs(got - want) <= P_TOL:
                raise ValueError(f"p error {abs(got - want):.2e} > {P_TOL}")
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
        return worst


CLASSES = {"table": Table, "deep_march": DeepMarch, "newton": Newton}
