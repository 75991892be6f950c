"""Command-line front end: forward/inverse solves and error-table emission.

Subcommands:
  forward    evaluate the forward solution of a config at one point
  invert     recover the spatial coefficient and print it
  table      sweep an (alpha, beta) grid and emit an error table (csv/text)
  selfcheck  run the built-in verification suite

Exit codes: 0 ok, 2 config/validation error, 4 solver non-convergence,
3 other solver/domain errors.
"""

from __future__ import annotations

import argparse
import math
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np

from .cases import EXAMPLES, exact_classical, example_config, example_problem
from .forward import MarchOverflow, forward_march
from .gammafn import frac_binom, gamma_table, log_gamma
from .inverse import (
    DegenerateData,
    NotSeparable,
    RecoveryReport,
    recover_newton,
    recover_separable,
)
from .problem import ConfigError, ProblemSpec, decode_config, problem_from_config
from .series import (
    BiFracSeries,
    DomainError,
    FracOrders,
    WidthError,
    eval_series,
    level_values,
    normalized_from_raw,
    raw_from_normalized,
    time_basis,
    time_sum,
)

TABLE_DEFAULTS = {"nt": 10, "nx": 16, "kmax": 8}
MAX_ROWS = 10_000  # table --rows limit: a table's time and memory grow linearly in rows


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, MarchOverflow) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NotSeparable, DegenerateData, DomainError, WidthError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    # parsing leaves the parser as it was, so one tree serves every call
    parser = argparse.ArgumentParser(
        prog="fractaylor",
        description="Fractional Taylor series solver for space-time fractional diffusion",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fwd = sub.add_parser("forward", help="evaluate the forward solution at a point")
    fwd.add_argument("--config", required=True, help="problem config (JSON)")
    fwd.add_argument("--x", type=float, required=True, help="spatial evaluation point")
    fwd.add_argument("--t", type=float, required=True, help="temporal evaluation point")
    fwd.add_argument("--invert", action="store_true",
                     help="recover p from the boundary data first (config p not required)")
    fwd.add_argument("--mode", choices=("auto", "separable", "newton"), default="auto",
                     help="recovery mode when --invert is given")
    _add_truncation_overrides(fwd)
    fwd.set_defaults(handler=_cmd_forward)

    inv = sub.add_parser("invert", help="recover the spatial coefficient p")
    inv.add_argument("--config", required=True, help="problem config (JSON)")
    inv.add_argument("--mode", choices=("auto", "separable", "newton"), default="auto")
    _add_truncation_overrides(inv)
    inv.set_defaults(handler=_cmd_invert)

    tab = sub.add_parser("table", help="emit an absolute-error table over an order grid")
    src = tab.add_mutually_exclusive_group(required=True)
    src.add_argument("--example", type=int, choices=EXAMPLES,
                     help="built-in case (exact column is its classical closed form)")
    src.add_argument("--config", help="custom config (exact column is the classical-limit run)")
    tab.add_argument("--alphas", default="1,0.9,0.7", help="comma-separated time orders")
    tab.add_argument("--betas", default="1,0.9,0.7", help="comma-separated space orders")
    tab.add_argument("--x-eval", type=float, default=0.5, dest="x_eval")
    tab.add_argument("--t-start", type=float, default=0.05, dest="t_start")
    tab.add_argument("--t-step", type=float, default=0.05, dest="t_step")
    tab.add_argument("--rows", type=int, default=10)
    tab.add_argument("--format", choices=("csv", "text"), default="csv")
    tab.add_argument("--output", default=None, help="output path (default: stdout)")
    _add_truncation_overrides(tab)
    tab.set_defaults(handler=_cmd_table)

    chk = sub.add_parser("selfcheck", help="run the built-in verification suite")
    chk.set_defaults(handler=_cmd_selfcheck)
    return parser


def _add_truncation_overrides(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--nt", type=int, default=None, help="override time truncation depth")
    sub.add_argument("--nx", type=int, default=None, help="override guaranteed final width")
    sub.add_argument("--kmax", type=int, default=None, help="override highest p index")


def _load_config_dict(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return decode_config(text)


def _spec_from_args(args, cfg: dict | None = None) -> ProblemSpec:
    cfg = dict(cfg if cfg is not None else _load_config_dict(args.config))
    for field in ("nt", "nx", "kmax"):
        override = getattr(args, field)
        if override is not None:
            cfg[field] = override
    return problem_from_config(cfg)


def _recover(spec: ProblemSpec, mode: str) -> RecoveryReport:
    if mode == "separable":
        return recover_separable(spec)
    if mode == "newton":
        return recover_newton(spec)
    try:
        return recover_separable(spec)
    except NotSeparable:
        return recover_newton(spec)


def _cmd_forward(args) -> int:
    for flag, value in (("--x", args.x), ("--t", args.t)):
        if not math.isfinite(value):
            raise ConfigError(f"{flag} must be a finite real number, got {value}")
    spec = _spec_from_args(args)
    if args.invert:
        report = _recover(spec, args.mode)
        if report.mode == "newton" and not report.converged:
            print("inversion did not converge; rerun `invert` for diagnostics", file=sys.stderr)
            return 4
        result = report.solution
    elif spec.p_known is not None:
        result = forward_march(spec, spec.p_known)
    else:
        raise ConfigError("config carries no p; pass --invert to recover it from the data")
    with np.errstate(over="ignore", invalid="ignore"):
        value = eval_series(result.u, args.x, args.t)
    if not math.isfinite(value):
        raise DomainError(f"the solution at (x, t) = ({args.x:g}, {args.t:g}) is not finite")
    print(f"{value:.8g}")
    return 0


def _cmd_invert(args) -> int:
    spec = _spec_from_args(args)
    report = _recover(spec, args.mode)
    lines = [f"mode: {report.mode}"]
    if report.lam is not None:
        lines.append(f"lambda: {report.lam:.10g}")
    lines += [f"forward residual: {report.forward_residual:.4e}",
              f"iterations: {report.iterations}",
              f"converged: {'yes' if report.converged else 'no'}"]
    if report.rank_deficient:
        lines.append("warning: Jacobian is rank deficient at the solution")
    lines.append(f"{'k':>4}  {'coefficient':>16}  {'monomial':>16}")
    rgamma = gamma_table(spec.orders.beta, len(report.p)).rgamma.tolist()
    for k, coeff in enumerate(report.p.coeffs.tolist()):
        lines.append(f"{k:>4}  {coeff:>16.10g}  {coeff * rgamma[k]:>16.10g}")
    sys.stdout.write("\n".join(lines) + "\n")  # one write: a print per line costs more
    if report.mode == "newton" and not report.converged:
        return 4
    return 0


def _cmd_table(args) -> int:
    alphas = _parse_order_list(args.alphas, "--alphas")
    betas = _parse_order_list(args.betas, "--betas")
    if not 1 <= args.rows <= MAX_ROWS:
        raise ConfigError(f"--rows must lie in [1, {MAX_ROWS}], got {args.rows}")
    if not 0.0 <= args.x_eval <= 1.0:
        raise ConfigError(f"--x-eval must lie in [0, 1], got {args.x_eval}")
    # written so that NaN fails each check
    if not args.t_step >= 0.0:
        raise ConfigError(f"--t-step must be >= 0, got {args.t_step}")
    ts = [args.t_start + k * args.t_step for k in range(args.rows)]
    if not (ts[0] >= 0.0 and ts[-1] <= 1.0):
        raise ConfigError(f"t values must lie in [0, 1], got range [{ts[0]:.6g}, {ts[-1]:.6g}]")

    # explicit flags always win (`_spec_from_args`); the built-in cases fall
    # back to the table defaults while a custom config keeps its own
    # truncation fields
    if args.example is not None:
        base = {**example_config(args.example), **TABLE_DEFAULTS}
    else:
        base = _load_config_dict(args.config)
    # the march and both recoveries never read alpha (the Caputo derivative
    # is an index shift in the normalized basis), so the table solves once
    # per beta, keeps that solution's level values at x and sums them over
    # each alpha's time basis
    solved: dict[float, np.ndarray] = {}

    def values_at(alpha: float, beta: float) -> np.ndarray:
        if beta not in solved:
            spec = _spec_from_args(args, {**base, "alpha": alpha, "beta": beta})
            solved[beta] = level_values(_recover(spec, "auto").solution.u, args.x_eval)
        return solved[beta]

    if args.example is not None:
        exact = [exact_classical(args.example, args.x_eval, t) for t in ts]
    else:
        v = values_at(1.0, 1.0)
        exact = time_sum(time_basis(1.0, ts, len(v)), v).tolist()

    # every beta is first needed by a cell of the first alpha, so the solves
    # run in the order the cells are printed and the first failing one
    # stops the table
    values = np.array([values_at(alphas[0], beta) for beta in betas])
    tbasis = np.stack([time_basis(alpha, ts, values.shape[-1]) for alpha in alphas])
    errors = np.abs(time_sum(tbasis[:, None], values[:, None]) - exact)
    columns = errors.reshape(-1, len(ts)).tolist()

    labels = [f"E({_fmt_order(a)},{_fmt_order(b)})" for a in alphas for b in betas]
    text = _render_table(args.format, ts, exact, labels, columns)
    if args.output is None:
        sys.stdout.write(text)
    else:
        try:
            Path(args.output).write_bytes(text.encode())
        except OSError as exc:
            raise ConfigError(f"cannot write output {args.output}: {exc}") from exc
    return 0


def _parse_order_list(raw: str, flag: str) -> list[float]:
    try:
        values = [float(part) for part in raw.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"{flag} must be a comma-separated list of reals: {exc}") from exc
    if not values:
        raise ConfigError(f"{flag} must name at least one order")
    for v in values:
        if not 0.0 < v <= 1.0:
            raise ConfigError(f"{flag} entries must lie in (0, 1], got {v}")
    return values


def _fmt_order(v: float) -> str:
    return f"{v:.6g}"


# per --format: the cell separator and the widths of the t, exact and
# error columns ("" pads nothing)
_TABLE_LAYOUTS = {"csv": (",", "", "", ""), "text": ("  ", 8, 10, 12)}


def _render_table(fmt: str, ts, exact, labels, columns) -> str:
    sep, wt, wx, we = _TABLE_LAYOUTS[fmt]
    header = [f"{'t':>{wt}}", f"{'exact':>{wx}}"] + [f"{label:>{we}}" for label in labels]
    row = sep.join([f"{{:>{wt}.6g}}", f"{{:>{wx}.5f}}"] + [f"{{:>{we}.2e}}"] * len(columns))
    lines = [row.format(t, exact[i], *[col[i] for col in columns]) for i, t in enumerate(ts)]
    return "\n".join([sep.join(header)] + lines) + "\n"


def _cmd_selfcheck(args) -> int:
    failures = 0
    for name, fn in _SELFCHECKS:
        try:
            detail = fn()
        except Exception as exc:  # a check that raises is a failure, not a crash
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
            failures += 1
            continue
        print(f"ok   {name} ({detail})")
    if failures:
        print(f"{failures} selfcheck(s) failed")
        return 3
    print("all selfchecks passed")
    return 0


def _check_gamma() -> str:
    worst = abs(frac_binom(10, 10, 1.0) - math.comb(20, 10)) / math.comb(20, 10)
    worst = max(worst, abs(log_gamma(5.0) - math.log(24.0)))
    if worst > 1e-12:
        raise AssertionError(f"gamma arithmetic off by {worst:.2e}")
    return f"max deviation {worst:.1e}"


def _check_roundtrip() -> str:
    orders = FracOrders(0.9, 0.7)
    series = BiFracSeries(orders, ((1.0, -2.5, 3.25, 0.5), (4.0, 0.125, -9.75)))
    raw = raw_from_normalized(series)
    back = normalized_from_raw(orders, raw)
    scale = np.maximum(1.0, np.abs(series.array))
    worst = float(np.max(np.abs(back.array - series.array) / scale))
    if worst > 1e-14:
        raise AssertionError(f"raw/normalized roundtrip off by {worst:.2e}")
    return f"max deviation {worst:.1e}"


def _check_case(example: int, expected: tuple[float, ...]) -> str:
    spec = example_problem(example, 1.0, 1.0, nt=4, nx=18, kmax=len(expected) - 1)
    report = recover_separable(spec)
    worst = max(abs(a - b) for a, b in zip(report.p.coeffs, expected))
    if worst > 1e-9:
        raise AssertionError(f"recovered p off by {worst:.2e}")
    return f"max coefficient error {worst:.1e}"


def _check_forward_accuracy() -> str:
    spec = example_problem(1, 1.0, 1.0, nt=12, nx=12, kmax=2)
    u = recover_separable(spec).solution.u
    err = abs(eval_series(u, 0.5, 0.05) - math.exp(0.35))
    if err > 1e-5:
        raise AssertionError(f"forward value off by {err:.2e}")
    return f"|error| {err:.1e} at (x, t) = (0.5, 0.05)"


def _check_fractional_consistency() -> str:
    # at fractional orders exact separability needs the recovered support to
    # cover every marched column, which pins nt = 1 with kmax = nx
    spec = example_problem(1, 0.7, 0.7, nt=1, nx=44, kmax=44)
    report = recover_separable(spec)
    if report.forward_residual > 1e-9:
        raise AssertionError(f"forward residual {report.forward_residual:.2e}")
    u = report.solution.u
    level0, level1 = u.array[:, : u.sizes[1]]
    worst = float(np.max(np.abs(level1 - report.lam * level0) / np.maximum(1.0, np.abs(level0))))
    if worst > 1e-10:
        raise AssertionError(f"separability off by {worst:.2e}")
    return f"residual {report.forward_residual:.1e}, separability {worst:.1e}"


_SELFCHECKS = (
    ("gamma arithmetic", _check_gamma),
    ("raw/normalized roundtrip", _check_roundtrip),
    ("case 1 classical recovery", lambda: _check_case(1, (0.0, 0.0, -8.0, 0.0, 0.0, 0.0, 0.0))),
    ("case 2 classical recovery", lambda: _check_case(2, (1.0, -6.0, 0.0, 0.0, -216.0, 0.0, 0.0))),
    ("classical forward accuracy", _check_forward_accuracy),
    ("fractional self-consistency", _check_fractional_consistency),
)


if __name__ == "__main__":
    raise SystemExit(main())
