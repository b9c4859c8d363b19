"""Benchmark for the rainbowsets package: one workload per run, one process.

    python3 perfbench/run.py --workload fixture-mix --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run it from the repository root.  It imports the package from ``src/``, sets
up the workload's inputs (at least 5 times and for at least 1 s, reporting
the median set-up time), then runs whole cycles of jobs in a closed loop,
one client and no threads, until ``--seconds`` have passed and at least 100
jobs have completed.  Times are scaled by a probe of the machine's speed
(see PROBE_REF_S below).  After the timed phase every answer is compared
with its pin and every returned subset is re-checked.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 1 when any answer is wrong.
``--workload all`` prints one such block and object per workload, so its
last line is that of cli-conflicts alone; its exit code is the worst of the
three.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` instead runs one
traced set-up, an untraced calibration share of cycles, the same cycles
again traced (their ratio is ``trace.overhead_ratio``), and further traced
cycles until ``--seconds`` have passed; it reports the per-layer metrics and
writes the spans to ``perfbench/.work/<workload>/trace.jsonl``.  ``--workload
all`` runs the three workloads one after another, each in a fresh process.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

import check
from check import judge, settle

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(HERE, ".work")
PINS = os.path.join(HERE, "pins.json")
NAMES = ("fixture-mix", "sidon-greedy", "cli-conflicts")

SETUP_REPEATS = 5  # at least, and until SETUP_SECONDS have passed; setup_s is their median
SETUP_SECONDS = 1.0
MIN_JOBS = 100  # so that at least 10 job times lie beyond the 90th percentile
CALIBRATION_SHARE = 0.15

# On a shared machine the speed of Python code drifts by 20-70 % over
# seconds to minutes.  A fixed probe of the benchmark's own (not the
# package's) exact arithmetic runs before the timed phase, then between jobs
# once PROBE_EVERY seconds have passed since the last probe, and after the
# timed phase; it also runs before each set-up.  The untraced run's times are
# scaled by PROBE_REF_S over the probe time nearest them: each job by the
# mean of the probes just before and after it, the time between jobs by the
# mean of all the timed phase's probes, set-up by the mean of the set-up
# probes.  They read as if the probe had taken PROBE_REF_S, close to its time
# on the 2-vCPU baseline machine when that runs fast.
PROBE_EVERY = 0.5
PROBE_REF_S = 0.02
PROBE_POINTS = tuple((Fraction(i * i % 13, 3), Fraction(i * 7 % 11, 5)) for i in range(1, 13))
PROBE_INTEGERS = tuple(range(1, 201))


def probe() -> float:
    """Seconds that one fixed, package-free computation takes right now."""
    t0 = perf_counter()
    check.is_rainbow(PROBE_POINTS, check.volume, 3)
    check.is_rainbow(PROBE_POINTS, check.similarity, 3)
    check.is_rainbow(PROBE_INTEGERS, check.sidon, 2)
    return perf_counter() - t0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_pins() -> dict:
    with open(PINS, encoding="utf-8") as fh:
        return json.load(fh)


def fresh_workdir(name: str) -> str:
    """An empty ``perfbench/.work/<name>``, relative to the repository root.

    Relative, so that the paths the CLI writes into its manifests, and hence
    ``cli.bytes_written``, do not depend on where the checkout lives.
    """
    path = os.path.join(WORKDIR, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return os.path.relpath(path, ROOT)


class Loop:
    """Runs whole cycles of one workload and keeps every job's time and record.

    With ``probing`` set it runs the probe once at the start and then between
    jobs, and keeps when each probe started and how long it took;
    ``run_for`` leaves probes out of the wall time it returns.
    """

    def __init__(self, workload, state, probing=False):
        self.workload, self.state = workload, state
        self.starts: list[float] = []
        self.times: list[float] = []
        self.records = []
        self.probes: list[tuple[float, float]] | None = None
        if probing:
            self.probes = []
            self.probe()

    def probe(self) -> None:
        self.probes.append((perf_counter(), probe()))

    def run_cycle(self, i: int, tracer=None) -> None:
        for job in self.workload.cycle(self.state, i):
            call = job.call if tracer is None else (
                lambda call=job.call, n=len(self.records): tracer.run_job(n, call))
            t0 = perf_counter()
            try:
                raw = call()
            except Exception as exc:  # a job that raises is a failed job
                raw = exc
            t1 = perf_counter()
            self.starts.append(t0)
            self.times.append(t1 - t0)
            self.records.append(settle(job, raw))
            if self.probes is not None and t1 - self.probes[-1][0] >= PROBE_EVERY:
                self.probe()

    def run_for(self, seconds: float, first: int = 0, min_jobs: int = 0,
                tracer=None) -> tuple[int, float]:
        """Run cycles from ``first`` until the time and job floor are met."""
        jobs0, probes0, t0 = len(self.records), len(self.probes or ()), perf_counter()
        i = first
        while perf_counter() - t0 < seconds or len(self.records) - jobs0 < min_jobs:
            self.run_cycle(i, tracer)
            i += 1
        return i, perf_counter() - t0 - sum(dt for _, dt in (self.probes or ())[probes0:])

    def scaled_times(self) -> list[float]:
        """Job times scaled by the mean of the probes just before and just after each job."""
        when = [t for t, _ in self.probes]
        scaled = []
        for start, t in zip(self.starts, self.times):
            i = bisect.bisect_right(when, start) - 1
            scaled.append(t * 2 * PROBE_REF_S / (self.probes[i][1] + self.probes[i + 1][1]))
        return scaled


def settle_heap() -> None:
    """Move set-up objects and the pins out of the collector's view before timing."""
    gc.collect()
    gc.freeze()


def run_untraced(workload, seed, seconds, pins):
    workdir = fresh_workdir(workload.name)
    setups, setup_probes = [], []
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS:
        setup_probes.append(probe())
        t0 = perf_counter()
        state = workload.setup(seed, workdir)
        setups.append(perf_counter() - t0)
    settle_heap()
    loop = Loop(workload, state, probing=True)
    _, wall = loop.run_for(seconds, min_jobs=MIN_JOBS)
    loop.probe()  # so that the last job has a probe after it
    probe_s = statistics.fmean(dt for _, dt in loop.probes)
    scale = PROBE_REF_S / probe_s
    setup_scale = PROBE_REF_S / statistics.fmean(setup_probes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = judge(loop.records, pins)
    attempted = len(loop.records)
    refused = sum(r.status == "refused" for r in loop.records)
    answered = attempted - refused - len(failures)
    scaled = loop.scaled_times()
    busy = sum(scaled) + (wall - sum(loop.times)) * scale  # time between jobs at the mean scale
    ms = [t * 1000.0 for t in scaled]
    metrics = {
        "jobs_per_s": (answered / busy, "jobs/s"),
        "job_ms_p50": (statistics.median(ms), "ms"),
        "job_ms_p90": (statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0], "ms"),
        "setup_s": (statistics.median(setups) * setup_scale, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "answered_ratio": (answered / attempted, "ratio"),
    }
    notes = [
        f"timed phase {wall:.2f} s without probes, {attempted} jobs (percentiles over "
        f"n={attempted} job times)",
        f"probe: {len(loop.probes)} runs, mean {probe_s * 1000:.2f} ms; times are scaled to a "
        f"{PROBE_REF_S * 1000:g} ms probe (unscaled: {answered / wall:.4g} jobs/s, "
        f"p50 {statistics.median(loop.times) * 1000:.4g} ms)",
        f"set-up repeated {len(setups)} times: {min(setups):.4f} .. {max(setups):.4f} s "
        f"unscaled, scaled by {setup_scale:.4f} from a probe before each",
        f"fail_ratio = {(attempted - answered) / attempted:.6f} ratio "
        f"({attempted - answered} of {attempted} attempted: {len(failures)} wrong or failed, "
        f"{refused} refused by the budget rule)",
    ]
    return metrics, notes, attempted, failures


def run_traced(workload, seed, seconds, pins):
    from tracing import Tracer

    workdir = fresh_workdir(workload.name)
    tracer = Tracer()
    with tracer.installed():
        state = workload.setup(seed, workdir)
    settle_heap()
    # calibration: each cycle untraced, then the same cycle traced, so that a
    # drift in machine speed hits both sides of trace.overhead_ratio alike
    untraced, traced = Loop(workload, state), Loop(workload, state)
    cycles, base, replay = 0, 0.0, 0.0
    while base < CALIBRATION_SHARE * seconds:
        t0 = perf_counter()
        untraced.run_cycle(cycles)
        t1 = perf_counter()
        with tracer.installed():
            traced.run_cycle(cycles, tracer)
        base += t1 - t0
        replay += perf_counter() - t1
        cycles += 1
    with tracer.installed():
        traced.run_for(max(0.0, seconds - base - replay), first=cycles, tracer=tracer)
        tracer.finish()
    tracer.write(os.path.join(workdir, "trace.jsonl"))

    records = untraced.records + traced.records
    failures = judge(records, pins)
    jobs = len(traced.records)
    geo, alg = tracer.colour["geometry"], tracer.colour["algebra"]
    counts = tracer.counts

    def per_job(x):
        return x / jobs

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {
        "geometry.colour_calls": (per_job(geo[0]), "calls/job"),
        "geometry.colour_s": (per_job(geo[1]), "s/job"),
        "geometry.unique_edge_ratio": (ratio(geo[2], geo[0]), "ratio"),
        "geometry.general_position_s": (tracer.self_time(
            "geometry.generate_general_position", "geometry.validate", in_jobs=False), "s/setup"),
        "algebra.colour_calls": (per_job(alg[0]), "calls/job"),
        "algebra.colour_s": (per_job(alg[1]), "s/job"),
        "algebra.unique_edge_ratio": (ratio(alg[2], alg[0]), "ratio"),
        "algebra.prepare_s": (tracer.self_time("algebra.poly_prepare", in_jobs=False),
                              "s/setup"),
        "hypergraph.classes_calls": (per_job(tracer.calls("hypergraph.colour_classes")),
                                     "calls/job"),
        "hypergraph.classes_s": (per_job(tracer.self_time("hypergraph.colour_classes")), "s/job"),
        "hypergraph.conflict_pairs": (per_job(counts["conflict_pairs"]), "pairs/job"),
        "hypergraph.conflict_build_s": (
            per_job(tracer.self_time("hypergraph.build_conflict_hypergraph")), "s/job"),
        "hypergraph.audit_s": (per_job(tracer.self_time("hypergraph.validate_lambda")), "s/job"),
        "engine.greedy_s": (per_job(tracer.self_time("engine.greedy_rainbow")), "s/job"),
        "engine.sample_delete_s": (per_job(tracer.self_time("engine.sample_and_delete")), "s/job"),
        "engine.pair_use_ratio": (ratio(counts["pairs_after_sampling"], counts["pairs_total"]),
                                  "ratio"),
        "engine.exact_s": (per_job(tracer.self_time("engine.exact_max_rainbow")), "s/job"),
        "engine.exact_nodes": (per_job(counts["exact_nodes"]), "nodes/job"),
        "engine.verify_calls": (per_job(tracer.calls("engine.verify_rainbow")), "calls/job"),
        "engine.verify_s": (per_job(tracer.self_time("engine.verify_rainbow")), "s/job"),
        "cli.self_s": (per_job(tracer.self_time("cli.main")), "s/job"),
        "cli.bytes_written": (per_job(sum(r.written for r in traced.records)), "B/job"),
        "trace.overhead_ratio": (ratio(replay, base), "ratio"),
    }
    notes = [
        f"calibration: {cycles} cycles, {len(untraced.records)} jobs, {base:.3f} s untraced; "
        f"the same cycles traced took {replay:.3f} s (trace.overhead_ratio = traced / untraced)",
        f"traced phase: {jobs} jobs; per-job metrics divide by {jobs}; set-up metrics are one "
        f"traced set-up; spans in {os.path.join(workdir, 'trace.jsonl')}",
    ]
    return metrics, notes, len(records), failures


def run_one(name, seed, seconds, trace, pins=None) -> int:
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    pins = load_pins() if pins is None else pins
    runner = run_traced if trace else run_untraced
    metrics, notes, attempted, failures = runner(WORKLOADS[name], seed, seconds, pins)
    print(f"workload={name} seed={seed} seconds={seconds:g} trace={trace}")
    for note in notes:
        print(f"  {note}")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric} = {value:.6g} {unit}")
    for failure in failures[:20]:
        print(f"  FAILED {failure}")
    if len(failures) > 20:
        print(f"  ... and {len(failures) - 20} more failures")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }))
    sys.stdout.flush()
    return 0 if not failures else 1


def main(argv=None, pins=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rainbowsets", "__init__.py")):
        print(f"no rainbowsets package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    if args.workload != "all":
        return run_one(args.workload, args.seed, args.seconds, args.trace, pins)
    worst = 0
    for name in NAMES:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], check=False)
        worst = max(worst, proc.returncode)
    return worst


if __name__ == "__main__":
    sys.exit(main())
