"""Benchmark launcher: one workload, one seed, end-to-end or per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload table --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``table``, ``deep_march``, ``newton``.
Each runs as one client in a fresh single-threaded Python process, with
OpenBLAS/OpenMP threads pinned to 1, against the sources under ``src/``.

``--trace 0`` prints the end-to-end metrics of an untraced run, each with
its unit and sample count, and finally one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 1`` splits
the time between an untraced run and a run with the boundary wrappers of
``tracer.py`` installed, and prints the per-layer metrics (values per
operation) the same way; the spans of the traced run are written to
``perfbench/.work/spans-<workload>.jsonl``.

Latency figures are in reference milliseconds (unit ``ref_ms``): each
operation's wall time over the time of a fixed reference kernel measured
beside it (see ``worker.py``), which other tenants' load on a shared
machine moves far less than wall time.  ``setup_s`` is in reference
seconds likewise (the unit it prints is ``s``, as the benchmark contract
fixes it).

Set-up time is measured in ``SETUP_PROBES`` extra fresh processes, half
before and half after the measured ones, as well as in the measured ones,
and reported as their median.  The exit code is 2, with no result, when
the sources are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
SETUP_PROBES = 12
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TAIL_BEYOND = 10

# (metric, tracer table, traced name): values per operation
PER_LAYER = (
    ("gammafn.log_gamma.calls", "calls", "gammafn.log_gamma"),
    ("gammafn.log_gamma.self_ms", "self_ms", "gammafn.log_gamma"),
    ("gammafn.frac_binom.calls", "calls", "gammafn.frac_binom"),
    ("gammafn.frac_binom.self_ms", "self_ms", "gammafn.frac_binom"),
    ("gammafn.ml_power_coeffs.ms", "ms", "gammafn.ml_power_coeffs"),
    ("cases.example_problem.ms", "ms", "cases.example_problem"),
    ("problem.problem_from_config.ms", "ms", "problem.problem_from_config"),
    ("forward.forward_march.calls", "calls", "forward.forward_march"),
    ("forward.forward_march.self_ms", "self_ms", "forward.forward_march"),
    ("forward.forward_march.coeff_updates", "counters", "forward.forward_march.coeff_updates"),
    ("series.deriv_trace_at_one.calls", "calls", "series.deriv_trace_at_one"),
    ("series.deriv_trace_at_one.ms", "ms", "series.deriv_trace_at_one"),
    ("series.eval_series.calls", "calls", "series.eval_series"),
    ("series.eval_series.ms", "ms", "series.eval_series"),
    ("forward.residual_check.ms", "ms", "forward.residual_check"),
    ("inverse.recover_separable.calls", "calls", "inverse.recover_separable"),
    ("inverse.recover_separable.self_ms", "self_ms", "inverse.recover_separable"),
    ("inverse.recover_newton.self_ms", "self_ms", "inverse.recover_newton"),
    ("inverse.recover_newton.marches", "counters", "inverse.recover_newton.marches"),
    ("inverse.recover_newton.lstsq_calls", "counters", "inverse.recover_newton.lstsq_calls"),
    ("inverse.lstsq.ms", "ms", "inverse.lstsq"),
    ("inverse.recover_newton.iterations", "counters", "inverse.recover_newton.iterations"),
    ("cli.main.self_ms", "self_ms", "cli.main"),
)
UNITS = {"calls": "count", "ms": "ms", "self_ms": "ms", "counters": "count"}


class BenchError(RuntimeError):
    pass


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.CLASSES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "fractaylor" / "__init__.py").is_file():
        print("run.py: no src/fractaylor here; run from the repository root", file=sys.stderr)
        return 2
    work = BENCH / ".work"
    work.mkdir(exist_ok=True)
    reference = None
    if args.workload == "deep_march":
        reference = workloads.DeepMarch.reference(args.seed)
    env = dict(os.environ)
    env.update({name: "1" for name in PINNED})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )

    def worker(mode: str, seconds: float, spans: Path | None = None) -> dict:
        workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work))
        cmd = [
            sys.executable, str(BENCH / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(seconds), "--mode", mode, "--workdir", str(workdir),
        ]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        try:
            proc = subprocess.run(
                cmd, input=json.dumps(reference), capture_output=True, text=True,
                env=env, cwd=root, timeout=seconds + 120,
            )
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0:
            raise BenchError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        return json.loads(proc.stdout.splitlines()[-1])

    try:
        # half the probes before the measured runs and half after, so that
        # their median does not come from one short stretch of time
        probes = [worker("setup", 0.0) for _ in range(SETUP_PROBES // 2)]
        if args.trace == 0:
            runs = [worker("run", args.seconds)]
        else:
            spans = work / f"spans-{args.workload}.jsonl"
            runs = [worker("run", args.seconds / 2), worker("trace", args.seconds / 2, spans)]
        probes += [worker("setup", 0.0) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    phases = {
        key: statistics.median(r["phases"][key] for r in probes + runs)
        for key in ("import_s", "inputs_s", "warmup_s", "setup_s", "setup_ref_s")
    }
    if not all(r["samples_ref"] for r in runs):
        print("run.py: no operation succeeded", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    errors = [e for r in probes + runs for e in r["errors"]]
    for line in errors[:10]:
        print(f"error: {line}", file=sys.stderr)
    for line in [u for r in runs for u in r["unconverged"]][:10]:
        print(f"not converged: {line}", file=sys.stderr)
    if args.trace == 0:
        rows = end_to_end(runs[0], phases, len(probes) + 1)
    else:
        rows = per_layer(runs[0], runs[1], phases, len(probes) + 2)
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for name, value, unit, note in rows:
        print(f"  {name:<40} {value:>14.6g} {unit:<7} {note}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in rows},
    }))
    return 0


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples beyond it, and its value."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def end_to_end(run: dict, phases: dict, setups: int) -> list[tuple]:
    """Latency figures are taken over the operations of the run's complete
    passes, in reference milliseconds (see ``worker.py``); the wall-time
    figures are printed beside them.  They describe delivered results:
    failed operations are left out and counted in ``ok_frac``."""
    samples = run["samples_ref"]
    wall = run["samples_ms"]
    n = len(samples)
    ops = len(run["latencies_ms"])
    attempted = run["attempted"]
    pct, tail_ref = tail(samples)
    _, tail_ms = tail(wall)
    worst = run["worst_rel_err"]
    digits_note = f"worst relative error {worst:.3e}"
    if "raw_rel_err" in run:
        digits_note += f" (componentwise; per-level normwise {run['raw_rel_err']:.3e})"
    return [
        ("setup_s", phases["setup_ref_s"], "s",
         f"reference seconds, median of {setups} fresh processes; wall {phases['setup_s']:.4g} s"),
        ("op_p50_ms", statistics.median(samples), "ref_ms",
         f"n={n}; wall {statistics.median(wall):.4g} ms, "
         f"reference kernel {statistics.median(run['ref_ms']):.4g} ms"),
        ("op_tail_ms", tail_ref, "ref_ms", f"p{pct:.2f}, n={n}, {TAIL_BEYOND} beyond; wall {tail_ms:.4g} ms"),
        ("ops_per_s", 1e3 * n / sum(samples), "1/ref_s",
         f"n={n}; wall {1e3 * n / sum(wall):.4g}/s; {ops} ops in {run['elapsed_s']:.3f} s"),
        ("ok_frac", ops / attempted, "ratio",
         f"{run['failed']} of {attempted} failed, {sum(run['failed_ms']) / 1e3:.3f} s"),
        ("accurate_digits", -math.log10(max(worst, 2.0**-53)), "digits", digits_note),
        ("peak_rss_mb", run["peak_rss_mb"], "MB", "workload process"),
    ]


def per_layer(plain: dict, traced: dict, phases: dict, setups: int) -> list[tuple]:
    trace = traced["trace"]
    n = traced["attempted"]
    note = f"per op, n={n} traced"
    rows = [
        (metric, trace[table].get(name, 0.0), UNITS[table], note)
        for metric, table, name in PER_LAYER
    ]
    counters = trace["counters"]
    lstsq = counters.get("inverse.recover_newton.lstsq_calls", 0.0)
    iterations = counters.get("inverse.recover_newton.iterations", 0.0)
    rows.append((
        "inverse.recover_newton.full_depth_share", iterations / lstsq if lstsq else 0.0,
        "ratio", "full-depth iterations / lstsq calls",
    ))
    for key in ("import_s", "inputs_s", "warmup_s"):
        rows.append((f"setup.{key}", phases[key], "s", f"median of {setups} fresh processes"))
    rows.append((
        "wall.op_p50_ms", statistics.median(plain["samples_ms"]), "ms",
        f"untraced, n={len(plain['samples_ms'])}: op_p50_ms in wall time",
    ))
    rows.append((
        "machine.ref_kernel_ms", statistics.median(plain["ref_ms"]), "ms",
        "untraced: the reference kernel's median wall time beside the operations",
    ))
    plain_p50 = statistics.median(plain["samples_ref"])
    traced_p50 = statistics.median(traced["samples_ref"])
    rows.append((
        "trace.overhead_ratio", traced_p50 / plain_p50, "ratio",
        f"traced p50 {traced_p50:.4g} ref_ms (n={len(traced['samples_ref'])}) / untraced "
        f"{plain_p50:.4g} ref_ms (n={len(plain['samples_ref'])})",
    ))
    self_ms = sum(trace["self_ms"].values())
    op_ms = (sum(traced["latencies_ms"]) + sum(traced["failed_ms"])) / n
    rows.append((
        "trace.self_share", self_ms / op_ms, "ratio",
        f"sum of layer self times {self_ms:.4g} ms / traced op {op_ms:.4g} ms",
    ))
    return rows


if __name__ == "__main__":
    raise SystemExit(main())
