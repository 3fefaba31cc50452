#!/usr/bin/env python3
"""Run every workload over several seeds and summarise each metric.

    python3 perfbench/report.py --seeds 10 [--first-seed 1] [--trace] [--out FILE]

It runs every workload in BENCHMARK.json.  ``--first-seed`` gives a second
set of runs its own seeds (``--first-seed 11`` for the two-set check in
README.md).

Each run is ``run.py`` in its own process, one at a time.  For every
end-to-end metric (or, with ``--trace``, every per-layer metric) the
summary gives the median, the first and third quartiles as
``statistics.quantiles(values, n=4)`` computes them, the spread
(q3 - q1) / median, and the number of runs.  ``--out`` also writes the
summary with every run's value, the error rate and the machine
description as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    info = json.loads(lines[0][2:])
    return info, json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "n": len(values),
            "runs": values}


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()

    summary: dict = {"run_seconds": bench["run_seconds"], "trace": args.trace, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        per_metric: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        side: dict[str, list[float]] = {}
        attempted = failed = 0
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            start = time.perf_counter()
            info, result = run_once(workload, seed, bench["run_seconds"], args.trace)
            side.setdefault("elapsed_s", []).append(time.perf_counter() - start)
            attempted += result["attempted"]
            failed += result["failed"]
            summary["machine"] = {k: info[k] for k in ("nproc", "python", "numpy")}
            # the run's own wall time; wall-clock values, speed factor and family shares from its info line
            extra = {f"wall.{k}": v for k, v in info.get("wall", {}).items()}
            extra.update({f"family_share.{k}": v for k, v in info.get("family_share", {}).items()})
            if "speed_factor" in info:
                extra["speed_factor"] = info["speed_factor"]
            for name, value in extra.items():
                side.setdefault(name, []).append(value)
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        rows = {name: {"unit": units[name], **summarise(vals)} for name, vals in per_metric.items()}
        summary["workloads"][workload] = {"seeds": [args.first_seed, args.first_seed + args.seeds - 1],
                                          "attempted": attempted, "error_rate": failed / attempted,
                                          "metrics": rows,
                                          "info": {name: summarise(vals) for name, vals in side.items()}}
        print(f"{workload}: {attempted} ops, error_rate {failed / attempted:.4g}")
        for name, r in rows.items():
            print(f"  {name:45s} median {r['median']:<12.6g} q1 {r['q1']:<12.6g} q3 {r['q3']:<12.6g}"
                  f" spread {r['spread']:<8.3f} n={r['n']} {r['unit']}")
        for name, vals in side.items():
            r = summarise(vals)
            print(f"  ({name:43s} median {r['median']:<12.6g} spread {r['spread']:.3f})")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
