"""Measure every workload over several seeds and write the baseline file.

    python3 perfbench/baseline.py --out perfbench/BENCH_baseline.json

Runs ``run.py`` once per workload and seed untraced (seeds 1..10), and once
per workload traced (seed 1), each in a fresh process and for the
``run_seconds`` of ``BENCHMARK.json``.  For every end-to-end
metric it records the values, their median and quartiles, and the spread
(interquartile distance / median) that ``BENCHMARK.json`` bounds are held to.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import run

SEEDS = range(1, 11)


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=run.ROOT, capture_output=True, text=True, check=False)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stdout}")
    print(f"{workload} seed={seed} trace={trace}: " + ", ".join(
        f"{m}={v['value']:.5g}" for m, v in result["metrics"].items()), flush=True)
    return result


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else 0.0,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]

    report = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "seconds": seconds,
        "seeds": list(SEEDS),
        "end_to_end": {},
        "per_layer": {},
    }
    for workload in run.NAMES:
        runs = [measure(workload, seed, seconds, 0) for seed in SEEDS]
        report["end_to_end"][workload] = {
            metric: {"unit": runs[0]["metrics"][metric]["unit"],
                     **summarize([r["metrics"][metric]["value"] for r in runs])}
            for metric in runs[0]["metrics"]
        }
        report["end_to_end"][workload]["attempted"] = [r["attempted"] for r in runs]
        report["per_layer"][workload] = measure(workload, 1, seconds, 1)["metrics"]
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
