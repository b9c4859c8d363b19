"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs each workload for one cycle, untraced and traced, and checks that it
passes and prints exactly the metrics ``BENCHMARK.json`` names, with their
units.  Then plants a wrong pinned answer and checks that the run fails and
its answered share drops, and checks that a directory holding only the
benchmark (no package) makes it exit non-zero without a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import run

PLANTED = "cli-conflicts/find-sd-sidon100-seed1"


def bench(name, trace, pins=None):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", "3", "--seconds", "0.1",
                         "--trace", str(trace)], pins=pins)
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def main() -> int:
    problems = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            problems.append(what)

    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    expect({w["name"] for w in spec["workloads"]} <= set(run.NAMES),
           "every workload of BENCHMARK.json is one the command runs")

    run.MIN_JOBS = 1  # one cycle per run
    clean = {}
    for name in run.NAMES:
        for trace in (0, 1):
            code, result = bench(name, trace)
            expect(code == 0 and result["correct"] and result["failed"] == 0,
                   f"{name} trace={trace}: every answer matches its pin")
            printed = {m: v["unit"] for m, v in result["metrics"].items()}
            expect(printed == units[trace],
                   f"{name} trace={trace}: prints every metric of BENCHMARK.json with its unit")
            if trace == 0:
                clean[name] = result

    pins = run.load_pins()
    pins[PLANTED] = dict(pins[PLANTED], subset=["14", "36", "93"])
    code, planted = bench("cli-conflicts", 0, pins)
    answered = planted["metrics"]["answered_ratio"]["value"]
    expect(code != 0 and not planted["correct"] and planted["failed"] >= 1,
           "a planted wrong pin makes the run fail")
    expect(answered < clean["cli-conflicts"]["metrics"]["answered_ratio"]["value"],
           "a planted wrong pin lowers answered_ratio (raises fail_ratio)")

    bare = os.path.join(run.WORKDIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sidon-greedy",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180, check=False)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and "{" not in proc.stdout,
           "without the package it exits non-zero and prints no result")

    print("selftest: " + ("PASS" if not problems else f"FAIL ({len(problems)} problems)"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
