"""One workload process: set-up, then a timed closed loop of checked operations.

Started by ``run.py`` in a fresh interpreter with ``src`` on the path and
BLAS/OpenMP threads pinned to 1; reads the workload's reference (or
``null``) as JSON on stdin and prints one JSON object on stdout.

Modes:
  setup  time import, input generation and one warm-up operation, then exit
  run    set up, then run operations for --seconds with tracing off
  trace  the same with the boundary wrappers of ``tracer`` installed

The machines this runs on are shared: other tenants slow every process by
up to 2x for periods of seconds to minutes.  So between operations the loop
times a fixed reference kernel (``reference_kernel``, pure Python, no
fractaylor), and each operation's wall time is also expressed in reference
milliseconds: wall time / the kernel's time measured on both sides of it.
One reference millisecond is one run of the kernel, which takes about 1 ms
on an unloaded core of the machine the baseline was recorded on.  Set-up
time is expressed in reference seconds the same way, with the kernel timed
just before ``import fractaylor`` and just after the warm-up operation.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.CLASSES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args()
    reference = json.load(sys.stdin)

    ref_before = reference_ms(SETUP_REF_REPS)
    t0 = time.perf_counter()
    import fractaylor  # noqa: F401  (timed: part of set-up)

    t1 = time.perf_counter()
    workload = workloads.CLASSES[args.workload](args.seed, args.workdir, reference)
    t2 = time.perf_counter()
    errors = []
    try:
        workload.check(workload.warmup, workload.op(workload.warmup))
    except workloads.NotConverged:
        pass
    except Exception as exc:  # reported, and the run marked incorrect
        errors.append(f"warm-up: {type(exc).__name__}: {exc}")
    t3 = time.perf_counter()
    ref_ms = (ref_before + reference_ms(SETUP_REF_REPS)) / 2
    out = {
        "phases": {
            "import_s": t1 - t0, "inputs_s": t2 - t1, "warmup_s": t3 - t2, "setup_s": t3 - t0,
            "setup_ref_s": (t3 - t0) / ref_ms,
        },
        "errors": errors,
        "unconverged": [],
    }
    if args.mode != "setup":
        tracer = None
        if args.mode == "trace":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        out.update(timed_loop(workload, args.seconds, tracer, errors, out["unconverged"]))
        if tracer is not None:
            tracer.uninstall()
            out["trace"] = per_op(tracer, out["attempted"])
            if args.spans is not None:
                tracer.write_spans(args.spans)
        if hasattr(workload, "raw_error") and workload.checked is not None:
            out["raw_rel_err"] = workload.raw_error()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))


# the reference kernel runs between operations for about this share of the
# last operation's time, at least once; and this many times on each side of
# the set-up
REF_SHARE = 0.03
SETUP_REF_REPS = 5


def reference_kernel() -> float:
    """A fixed piece of pure-Python float work, about 1 ms on an unloaded core.

    Its shape (nested loops around ``math.lgamma``) is that of fractaylor's
    hot path, so interference slows both alike; it calls nothing of
    fractaylor, so no change to the program changes its time.
    """
    acc = 0.0
    lg = math.lgamma
    for j in range(72):
        for k in range(j + 1):
            acc += math.exp(lg(k + 1.7) - lg(j - k + 0.7) - lg(j + 1.3))
    return acc


def reference_ms(reps: int) -> float:
    """Median wall time of ``reps`` runs of the reference kernel, in ms."""
    clock = time.perf_counter
    times = []
    for _ in range(reps):
        t = clock()
        reference_kernel()
        times.append(clock() - t)
    return statistics.median(times) * 1e3


def timed_loop(workload, seconds: float, tracer, errors: list, unconverged: list) -> dict:
    """Run checked operations until the deadline, and at least one whole pass.

    The loop cycles through the workload's pool of inputs.  Latency samples
    come from the complete passes only, so every run's samples have the
    same mix of inputs; the ops of an unfinished last pass are still
    checked and counted.  ``samples_ms`` holds their wall times, and
    ``samples_ref`` each wall time over the mean of the reference kernel's
    times just before and just after the operation.
    """
    pool = len(workload.inputs)
    latencies = []  # wall ms of delivered ops
    ref_ms = []  # the reference kernel's time on each side of each delivered op
    ok_ops = []
    failed_ms = []
    worst = 0.0
    clock = time.perf_counter
    before = reference_ms(3)
    start = clock()
    deadline = start + seconds
    i = 1
    while True:
        if tracer is not None:
            tracer.op_id = i
        t = clock()
        try:
            result = workload.op(i)
        except (Exception, SystemExit) as exc:
            result = exc
        ms = (clock() - t) * 1e3
        after = reference_ms(max(1, round(REF_SHARE * ms / before)))
        try:
            if isinstance(result, BaseException):
                raise ValueError(f"raised {type(result).__name__}: {result}")
            worst = max(worst, workload.check(i, result))
            latencies.append(ms)
            ref_ms.append((before + after) / 2)
            ok_ops.append(i)
        except workloads.NotConverged as exc:
            failed_ms.append(ms)
            if len(unconverged) < 5:
                unconverged.append(f"op {i}: {exc}")
        except Exception as exc:  # a failed operation is counted, not fatal
            failed_ms.append(ms)
            if len(errors) < 5:
                errors.append(f"op {i}: {type(exc).__name__}: {exc}")
        before = after
        i += 1
        if clock() >= deadline and i > pool:
            break
    elapsed = clock() - start
    whole = (i - 1) // pool * pool
    kept = [n for n, op in enumerate(ok_ops) if op <= whole]
    return {
        "elapsed_s": elapsed,
        "latencies_ms": latencies,
        "samples_ms": [latencies[n] for n in kept],
        "samples_ref": [latencies[n] / ref_ms[n] for n in kept],
        "ref_ms": [ref_ms[n] for n in kept],
        "failed_ms": failed_ms,
        "attempted": len(latencies) + len(failed_ms),
        "failed": len(failed_ms),
        "worst_rel_err": worst,
    }


def per_op(tracer, ops: int) -> dict:
    """Per-operation means of everything the tracer counted."""
    return {
        "calls": {k: v / ops for k, v in tracer.calls.items()},
        "ms": {k: v * 1e3 / ops for k, v in tracer.total.items()},
        "self_ms": {k: v * 1e3 / ops for k, v in tracer.self_time.items()},
        "counters": {k: v / ops for k, v in tracer.counters.items()},
    }


if __name__ == "__main__":
    main()
