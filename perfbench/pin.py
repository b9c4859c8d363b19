"""Record the pinned answer of every job in every workload's pool.

    python3 perfbench/pin.py [workload ...]

Runs every variant of each named workload's pool once (all three when none
is named), re-checks every returned subset, and rewrites those workloads'
entries in ``perfbench/pins.json``.  Run it only on a commit whose answers
are trusted: the benchmark then fails any later commit whose answers differ.
"""

from __future__ import annotations

import json
import os
import sys

import run


def main(argv) -> int:
    sys.path.insert(0, run.SRC)
    from check import judge
    from workloads import WORKLOADS, CliConflicts

    os.chdir(run.ROOT)
    names = argv or list(WORKLOADS)
    pins = run.load_pins() if os.path.exists(run.PINS) else {}
    for name in names:
        workload = WORKLOADS[name]
        prefix = name + "/"
        pins = {key: value for key, value in pins.items() if not key.startswith(prefix)}
        state = workload.setup(0, run.fresh_workdir(name), whole_pool=True)
        loop = run.Loop(workload, state)
        for i in range(workload.pool_cycles):
            loop.run_cycle(i)
        recorded = {}
        for r in loop.records:
            if r.status == "ok" and r.pinned:
                if recorded.setdefault(r.key, r.answer) != r.answer:
                    print(f"{r.key}: two runs gave different answers", file=sys.stderr)
                    return 1
        failures = judge(loop.records, recorded)
        if failures:
            print("\n".join(failures), file=sys.stderr)
            return 1
        pins.update(recorded)
        print(f"{name}: {len(loop.records)} jobs, {len(recorded)} pinned answers")
    roadmap = pins.get("cli-conflicts/find-sd-sidon100-seed1", {}).get("subset")
    if "cli-conflicts" in names and roadmap != CliConflicts.ROADMAP_PIN:
        print(f"sample-delete on 1..100 with seed 1 gave {roadmap}, "
              f"not {CliConflicts.ROADMAP_PIN}", file=sys.stderr)
        return 1
    with open(run.PINS, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}"
                                    for k, v in sorted(pins.items())) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
