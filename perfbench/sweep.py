"""Run workloads over several seeds and summarise each metric's spread.

    python3 perfbench/sweep.py --seeds 1-10 [--trace 0|1] [--out perfbench/results/sweep.json]

Runs ``run.py`` once per workload of ``BENCHMARK.json`` and seed, one
after another, from the repository root, for the ``run_seconds`` that file
fixes.  For every metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance
between the quartiles as a share of the median.  End-to-end metrics are
compared against the bound ``BENCHMARK.json`` fixes for them.  With
``--out`` the runs and the summary are also written as JSON, together with
the machine and the Python, numpy and OpenBLAS versions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def machine() -> dict:
    probe = (
        "import json, numpy; b = numpy.show_config(mode='dicts')['Build Dependencies']['blas']; "
        "print(json.dumps({'numpy': numpy.__version__, "
        "'blas': b['name'] + ' ' + b['version']}))"
    )
    versions = json.loads(subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    ).stdout)
    model = next(
        (line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )
    return {
        "cpu": model,
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        **versions,
    }


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = []
    summary = {}
    seconds = spec["run_seconds"]
    for workload in (w["name"] for w in spec["workloads"]):
        per_metric: dict[str, list[float]] = {}
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            runs.append({"workload": workload, "seed": seed, **result})
            for name, metric in result["metrics"].items():
                per_metric.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        summary[workload] = {name: summarise(values) for name, values in per_metric.items()}
        for name, s in summary[workload].items():
            bound = bounds.get(name)
            flag = "" if bound is None else f" bound {bound:<5} {'OK' if s['spread'] <= bound / 3 else 'WIDE'}"
            print(f"  {workload:<11} {name:<40} median {s['median']:<12.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {s['spread']:.4f}{flag}")
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            "machine": machine(),
            "seeds": args.seeds,
            "seconds": seconds,
            "trace": args.trace,
            "summary": summary,
            "runs": runs,
        }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
