"""Rainbow-subset extraction algorithms and the benchmark harness.

Three routes to a rainbow subset: an incremental greedy scan, random
sparsification followed by hand deletions, and an exact branch-and-bound
oracle for small instances.  Every algorithm re-verifies its own output
before returning it.
"""

from __future__ import annotations

import math
import random
import time
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import combinations
from statistics import fmean

from .errors import ParameterError, require_budget
from .hypergraph import (
    DEFAULT_BUDGET,
    Colouring,
    GroundSet,
    build_conflict_hypergraph,
    colour_class_sizes,
)

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Per-k ground-set caps for the exact oracle; override via the limit argument.
DEFAULT_ORACLE_LIMITS = {2: 20, 3: 14}
DEFAULT_ORACLE_FALLBACK_LIMIT = 12

BENCH_CSV_HEADER = "N,k,h,lambda,colouring,algorithm,trial,seed,rainbow_size,runtime_ms"


def _splitmix64(x: int) -> int:
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_seed(master_seed: int, index: int) -> int:
    """Deterministic per-trial seed stream: splitmix64(master + (index+1)*golden).

    Trials may therefore run in any order or on any number of workers and
    still see identical randomness.
    """
    return _splitmix64((master_seed + (index + 1) * _GOLDEN) & _MASK64)


@dataclass(frozen=True)
class SamplePlan:
    """One sparsification run: keep each vertex with probability p, drawn from seed.

    A plan describes no instance, so any p in (0, 1] suits any ground set.
    """

    p: float
    seed: int

    def __post_init__(self):
        if not 0 < self.p <= 1:
            raise ParameterError(f"sampling probability must be in (0, 1], got {self.p}")

    @classmethod
    def from_spec(cls, n: int, k: int, h: int, seed: int, shrink: float = 0.5,
                  p: float | None = None) -> "SamplePlan":
        """The plan for n vertices and a (k, h) colouring, unless p is given.

        The default keep-probability is shrink * n^(-(k+h-1)/(2k-1)), the
        point where surviving conflicts become rare enough to delete by hand,
        nudged down by the shrink factor.
        """
        if not 0 < shrink <= 1:
            raise ParameterError(f"shrink must be in (0, 1], got {shrink}")
        if p is None:
            p = min(1.0, shrink * n ** (-(k + h - 1) / (2 * k - 1)))
        return cls(p=p, seed=seed)


@dataclass(frozen=True)
class RainbowResult:
    """A vertex subset certified rainbow, with provenance.

    ``stats`` holds deterministic counters only; wall-clock time lives in
    ``runtime_ms`` so serialized results stay byte-stable across reruns.
    """

    subset: tuple[int, ...]
    algorithm: str
    seed: int | None
    verified: bool
    stats: dict[str, int] = field(default_factory=dict)
    runtime_ms: float = 0.0

    @property
    def size(self) -> int:
        return len(self.subset)


@dataclass(frozen=True)
class BenchRecord:
    """One benchmark trial, one CSV row."""

    n: int
    k: int
    h: int
    max_petals: int
    colouring: str
    algorithm: str
    trial: int
    seed: int
    rainbow_size: int
    runtime_ms: float

    def csv_row(self) -> str:
        return (
            f"{self.n},{self.k},{self.h},{self.max_petals},{self.colouring},"
            f"{self.algorithm},{self.trial},{self.seed},{self.rainbow_size},"
            f"{self.runtime_ms:.3f}"
        )


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares slope of log(mean rainbow size) against log(N)."""

    slope: float
    stderr: float
    intercept: float


def verify_rainbow(colouring: Colouring, subset, budget: int = DEFAULT_BUDGET) -> bool:
    """Exhaustively check that all inner k-edges of the subset have distinct colours.

    Subsets smaller than k are vacuously rainbow.
    """
    k = colouring.spec.k
    s = tuple(sorted(set(subset)))
    if len(s) < k:
        return True
    edges = math.comb(len(s), k)
    require_budget(edges, budget, "verify", "verify_rainbow", "colour evaluations")
    return len(set(colouring.colours(s))) == edges


def greedy_rainbow(colouring: Colouring, ground: GroundSet, order: int | None = None,
                   budget: int = DEFAULT_BUDGET) -> RainbowResult:
    """Scan vertices in order, adding each one whose new edges keep the subset rainbow.

    ``order`` is None for natural id order, or an int seed for an order
    shuffled by ``random.Random(order)``.  A vertex is added iff every k-edge
    it forms with already-chosen vertices has a colour unused so far and the
    new colours are pairwise distinct; the result is maximal for the order,
    since a rejected vertex only accumulates more constraints later.  The
    scan compares the evaluator's raw values; the closing verification reads
    them through ``Colouring.colours``, so an inexact colour raises there.
    """
    n, k = ground.n, colouring.spec.k
    if k > n:
        raise ParameterError(f"k={k} exceeds ground set size {n}")
    seq = list(ground.vertices)
    if order is not None:
        random.Random(order).shuffle(seq)
    t0 = time.perf_counter()
    ev = colouring.evaluator
    chosen: list[int] = []
    used: set = set()
    for v in seq:
        if len(chosen) < k - 1:
            chosen.append(v)
            continue
        new_values = set()
        ok = True
        if k == 2:
            # hot path: one edge per already-chosen vertex, bail on first clash
            for c in chosen:
                value = ev((c, v) if c < v else (v, c))
                if value in used or value in new_values:
                    ok = False
                    break
                new_values.add(value)
        else:
            for rest in combinations(chosen, k - 1):
                value = ev(tuple(sorted(rest + (v,))))
                if value in used or value in new_values:
                    ok = False
                    break
                new_values.add(value)
        if ok:
            chosen.append(v)
            used |= new_values
    subset = tuple(sorted(chosen))
    verified = verify_rainbow(colouring, subset, budget=budget)
    runtime_ms = (time.perf_counter() - t0) * 1000.0
    stats = {"vertices_scanned": n, "vertices_rejected": n - len(chosen)}
    return RainbowResult(subset, "greedy", order, verified, stats, runtime_ms)


def sample_and_delete(colouring: Colouring, ground: GroundSet, plan: SamplePlan,
                      budget: int = DEFAULT_BUDGET) -> RainbowResult:
    """Keep each vertex with probability p, then delete surviving conflicts by hand.

    After the random keep step, the kept set's colour classes form its
    conflict hypergraph.  While any same-coloured pair (A, B) survives inside
    the kept set, the vertex of highest pair degree (the number of surviving
    pairs whose union A∪B contains it; smallest id on ties) is deleted with
    its edges.  The remainder is independent in the conflict hypergraph,
    hence rainbow.

    Only pairs among the kept vertices can matter, so only those are
    budgeted, by ``build_conflict_hypergraph``; their degrees come in closed
    form from the class sizes and no pair is listed.  The ground set's colour
    classes are merely counted, for ``pairs_total``, after C(N, k) colour
    evaluations are checked against the budget.
    """
    t0 = time.perf_counter()
    sizes = colour_class_sizes(colouring, ground, budget=budget)
    pairs_total = sum(math.comb(size, 2) for size in sizes.values())
    rng = random.Random(plan.seed)
    kept = {v for v in ground.vertices if rng.random() < plan.p}
    kept_after_sampling = len(kept)

    hypergraph = build_conflict_hypergraph(colouring, ground, budget=budget,
                                           vertices=sorted(kept))
    pairs_after_sampling = hypergraph.num_pairs

    deleted = 0
    while hypergraph.num_pairs:
        degrees = hypergraph.pair_degrees()
        victim = degrees.index(max(degrees))
        kept.discard(victim)
        deleted += 1
        hypergraph = hypergraph.without(victim)

    subset = tuple(sorted(kept))
    verified = verify_rainbow(colouring, subset, budget=budget)
    runtime_ms = (time.perf_counter() - t0) * 1000.0
    stats = {
        "pairs_total": pairs_total,
        "pairs_after_sampling": pairs_after_sampling,
        "pairs_destroyed_by_sampling": pairs_total - pairs_after_sampling,
        "vertices_kept_after_sampling": kept_after_sampling,
        "vertices_deleted_by_hand": deleted,
    }
    return RainbowResult(subset, "sample_delete", plan.seed, verified, stats, runtime_ms)


def exact_max_rainbow(colouring: Colouring, ground: GroundSet, limit: int | None = None,
                      budget: int = DEFAULT_BUDGET) -> RainbowResult:
    """Maximum-cardinality rainbow subset by branch and bound.

    Vertices are ordered by conflict-pair degree (descending, ids break
    ties) and the search runs on their positions in that order.  The row
    ``closing[i]`` maps the earlier positions of each k-edge ending at
    position i (the one earlier position for k = 2, a sorted tuple
    otherwise) to one bit, that of the edge's colour class, so the search
    colours nothing and holds the classes in use as an int mask.  The
    natural-order greedy result seeds the bound; it runs on each edge's class
    index, which equal colours share, so it colours nothing either.  Branches
    that cannot strictly beat the incumbent are pruned.  Deterministic.
    """
    n, k = ground.n, colouring.spec.k
    cap = limit if limit is not None else DEFAULT_ORACLE_LIMITS.get(k, DEFAULT_ORACLE_FALLBACK_LIMIT)
    require_budget(n, cap, "search", f"the exact oracle for k={k}", "vertices")
    t0 = time.perf_counter()
    hypergraph = build_conflict_hypergraph(colouring, ground, budget=budget)
    degrees = hypergraph.pair_degrees()
    order = sorted(range(n), key=lambda v: (-degrees[v], v))
    position = {v: i for i, v in enumerate(order)}
    closing: list[dict] = [{} for _ in range(n)]
    class_of: dict[tuple[int, ...], int] = {}
    for index, edges in enumerate(hypergraph.classes):
        for e in edges:
            class_of[e] = index
            *rest, last = sorted(map(position.__getitem__, e))
            closing[last][rest[0] if k == 2 else tuple(rest)] = 1 << index

    by_class = Colouring(colouring.spec, class_of.__getitem__, colouring.label)
    best = list(greedy_rainbow(by_class, ground, budget=budget).subset)
    nodes = 0

    def extend(i: int, chosen: list[int], used: int) -> None:
        nonlocal best, nodes
        nodes += 1
        if len(chosen) + (n - i) <= len(best):
            return
        if i == n:
            best = [order[j] for j in chosen]
            return
        row = closing[i]
        mask = used
        for rest in chosen if k == 2 else combinations(chosen, k - 1):
            bit = row[rest]
            if mask & bit:
                break
            mask |= bit
        else:
            chosen.append(i)
            extend(i + 1, chosen, mask)
            chosen.pop()
        extend(i + 1, chosen, used)

    extend(0, [], 0)
    subset = tuple(sorted(best))
    verified = verify_rainbow(colouring, subset, budget=budget)
    runtime_ms = (time.perf_counter() - t0) * 1000.0
    stats = {"nodes_explored": nodes, "conflict_pairs": hypergraph.num_pairs}
    return RainbowResult(subset, "exact", None, verified, stats, runtime_ms)


def estimate_exponent(records: list[BenchRecord]) -> ExponentFit:
    """Fit log(mean rainbow size) = intercept + slope * log(N) by least squares.

    Requires at least 4 distinct ground sizes with at least 3 trials each;
    the standard error of the slope comes out of the usual OLS residuals.
    """
    by_n: dict[int, list[int]] = defaultdict(list)
    for record in records:
        by_n[record.n].append(record.rainbow_size)
    if len(by_n) < 4:
        raise ParameterError(f"need at least 4 distinct N values, got {len(by_n)}")
    for n, sizes in by_n.items():
        if len(sizes) < 3:
            raise ParameterError(f"need at least 3 trials per N, got {len(sizes)} at N={n}")
        if fmean(sizes) <= 0:
            raise ParameterError(f"mean rainbow size at N={n} is not positive")
    points = sorted((math.log(n), math.log(fmean(sizes))) for n, sizes in by_n.items())
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    x_bar, y_bar = fmean(xs), fmean(ys)
    sxx = sum((x - x_bar) ** 2 for x in xs)
    sxy = sum((x - x_bar) * (y - y_bar) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = y_bar - slope * x_bar
    residuals = [y - (intercept + slope * x) for x, y in zip(xs, ys)]
    dof = len(xs) - 2
    stderr = math.sqrt(sum(r * r for r in residuals) / dof / sxx)
    return ExponentFit(slope=slope, stderr=stderr, intercept=intercept)


def run_algorithm(colouring: Colouring, ground: GroundSet, algorithm: str, seed: int,
                  shrink: float = 0.5, p: float | None = None,
                  limit: int | None = None, budget: int = DEFAULT_BUDGET) -> RainbowResult:
    """Dispatch one seeded run of a named algorithm."""
    if algorithm == "greedy":
        return greedy_rainbow(colouring, ground, order=seed, budget=budget)
    if algorithm == "sample_delete":
        plan = SamplePlan.from_spec(
            ground.n, colouring.spec.k, colouring.spec.h, seed=seed, shrink=shrink, p=p
        )
        return sample_and_delete(colouring, ground, plan, budget=budget)
    if algorithm == "exact":
        return exact_max_rainbow(colouring, ground, limit=limit, budget=budget)
    raise ParameterError(f"unknown algorithm {algorithm!r}")


def bench_trials(colouring: Colouring, ground: GroundSet, algorithm: str, trials: int,
                 master_seed: int, budget: int = DEFAULT_BUDGET,
                 on_trial=None) -> list[BenchRecord]:
    """Run seeded trials of one algorithm on one instance and collect records."""
    if trials < 1:
        raise ParameterError("need at least one trial")
    spec = colouring.spec
    records = []
    for trial in range(trials):
        seed = derive_seed(master_seed, trial)
        result = run_algorithm(colouring, ground, algorithm, seed, budget=budget)
        record = BenchRecord(
            n=ground.n, k=spec.k, h=spec.h, max_petals=spec.max_petals,
            colouring=colouring.label, algorithm=algorithm, trial=trial, seed=seed,
            rainbow_size=result.size, runtime_ms=result.runtime_ms,
        )
        records.append(record)
        if on_trial is not None:
            on_trial(record)
    return records


def bench_csv(records: list[BenchRecord]) -> str:
    """Render records as CSV with the fixed header."""
    lines = [BENCH_CSV_HEADER]
    lines.extend(record.csv_row() for record in records)
    return "\n".join(lines) + "\n"
