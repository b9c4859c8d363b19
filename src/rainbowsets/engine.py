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
from collections import Counter, defaultdict
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
    colour_classes,
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
    """Parameters of one sparsification run.

    The default keep-probability is shrink * n^(-(k+h-1)/(2k-1)), the point
    where surviving conflicts become rare enough to delete by hand, nudged
    down by the shrink factor.  Fully determined by (n, k, h, seed, shrink).
    """

    n: int
    k: int
    h: int
    p: float
    seed: int
    shrink: float = 0.5

    def __post_init__(self):
        if not 0 < self.shrink <= 1:
            raise ParameterError(f"shrink must be in (0, 1], got {self.shrink}")
        if not 0 < self.p <= 1:
            raise ParameterError(f"sampling probability must be in (0, 1], got {self.p}")

    @classmethod
    def from_spec(cls, n: int, k: int, h: int, seed: int, shrink: float = 0.5,
                  p: float | None = None) -> "SamplePlan":
        if p is None:
            p = min(1.0, shrink * n ** (-(k + h - 1) / (2 * k - 1)))
        return cls(n=n, k=k, h=h, p=p, seed=seed, shrink=shrink)


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
    n_points: int


def verify_rainbow(colouring: Colouring, subset, budget: int = DEFAULT_BUDGET) -> bool:
    """Exhaustively check that all inner k-edges of the subset have distinct colours.

    Subsets smaller than k are vacuously rainbow.
    """
    k = colouring.spec.k
    s = tuple(sorted(set(subset)))
    if len(s) < k:
        return True
    require_budget(math.comb(len(s), k), budget, "verify", "verify_rainbow",
                   "colour evaluations")
    seen = set()
    ev = colouring.evaluator
    for e in combinations(s, k):
        value = ev(e)
        if value in seen:
            return False
        seen.add(value)
    return True


def _resolve_order(ground: GroundSet, order) -> tuple[list[int], int | None]:
    if order is None:
        return list(ground.vertices), None
    if isinstance(order, int):
        rng = random.Random(order)
        seq = list(ground.vertices)
        rng.shuffle(seq)
        return seq, order
    seq = list(order)
    if sorted(seq) != list(ground.vertices):
        raise ParameterError("order must be a permutation of the vertex ids")
    return seq, None


def greedy_rainbow(colouring: Colouring, ground: GroundSet, order=None,
                   budget: int = DEFAULT_BUDGET) -> RainbowResult:
    """Scan vertices in order, adding each one whose new edges keep the subset rainbow.

    ``order`` is None for natural id order, an int seed for a shuffled order,
    or an explicit permutation.  A vertex is added iff every k-edge it forms
    with already-chosen vertices has a colour unused so far and the new
    colours are pairwise distinct; the result is maximal for the order, since
    a rejected vertex only accumulates more constraints later.
    """
    n, k = ground.n, colouring.spec.k
    if k > n:
        raise ParameterError(f"k={k} exceeds ground set size {n}")
    seq, seed = _resolve_order(ground, order)
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
    return RainbowResult(subset, "greedy", seed, verified, stats, runtime_ms)


def sample_and_delete(colouring: Colouring, ground: GroundSet, plan: SamplePlan,
                      budget: int = DEFAULT_BUDGET) -> RainbowResult:
    """Keep each vertex with probability p, then delete surviving conflicts by hand.

    After the random keep step, while any same-coloured pair (A, B) survives
    with both members inside the kept set, the vertex of A∪B appearing in the
    most surviving pairs is deleted (smallest id on ties).  The remainder is
    independent in the conflict hypergraph, hence rainbow.

    Only pairs inside the kept set can matter, so only those are enumerated
    and budgeted; the ground set's colour classes are merely counted, for
    ``pairs_total``, after C(N, k) colour evaluations are checked against the
    budget.
    """
    spec = colouring.spec
    if (plan.n, plan.k, plan.h) != (ground.n, spec.k, spec.h):
        raise ParameterError(
            f"plan is for (n={plan.n}, k={plan.k}, h={plan.h}); "
            f"instance has (n={ground.n}, k={spec.k}, h={spec.h})"
        )
    t0 = time.perf_counter()
    sizes = colour_class_sizes(colouring, ground, budget=budget)
    pairs_total = sum(math.comb(size, 2) for size in sizes.values())
    rng = random.Random(plan.seed)
    kept = {v for v in ground.vertices if rng.random() < plan.p}
    kept_after_sampling = len(kept)

    classes = colour_classes(colouring, ground, budget=budget, vertices=sorted(kept))
    pairs_after_sampling = sum(math.comb(len(edges), 2) for edges in classes.values())
    require_budget(pairs_after_sampling, budget, "index", "conflict pairs inside the kept set",
                   "pairs")
    surviving = [pair for edges in classes.values() for pair in combinations(edges, 2)]

    deleted = 0
    while surviving:
        degree: Counter = Counter()
        for a, b in surviving:
            for v in set(a) | set(b):
                degree[v] += 1
        victim = max(degree.items(), key=lambda item: (item[1], -item[0]))[0]
        kept.discard(victim)
        deleted += 1
        surviving = [(a, b) for a, b in surviving if victim not in a and victim not in b]

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
    ties); the natural-order greedy result seeds the bound, and branches
    that cannot strictly beat the incumbent are pruned.  Each k-edge's colour
    is read as the index of its colour class, so the search colours nothing.
    Deterministic.
    """
    n, k = ground.n, colouring.spec.k
    if k > n:
        raise ParameterError(f"k={k} exceeds ground set size {n}")
    cap = limit if limit is not None else DEFAULT_ORACLE_LIMITS.get(k, DEFAULT_ORACLE_FALLBACK_LIMIT)
    require_budget(n, cap, "search", f"the exact oracle for k={k}", "vertices")
    t0 = time.perf_counter()
    hypergraph = build_conflict_hypergraph(colouring, ground, budget=budget)
    degrees = hypergraph.pair_degrees()
    order = sorted(range(n), key=lambda v: (-degrees[v], v))
    class_of = {e: i for i, edges in enumerate(hypergraph.classes) for e in edges}

    best = list(greedy_rainbow(colouring, ground, budget=budget).subset)
    nodes = 0

    def extend(i: int, chosen: list[int], used: frozenset) -> None:
        nonlocal best, nodes
        nodes += 1
        if len(chosen) + (n - i) <= len(best):
            return
        if i == n:
            best = list(chosen)
            return
        v = order[i]
        new_classes = set()
        ok = True
        for rest in combinations(chosen, k - 1):
            index = class_of[tuple(sorted(rest + (v,)))]
            if index in used or index in new_classes:
                ok = False
                break
            new_classes.add(index)
        if ok:
            chosen.append(v)
            extend(i + 1, chosen, used | new_classes)
            chosen.pop()
        extend(i + 1, chosen, used)

    extend(0, [], frozenset())
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
    stderr = math.sqrt(max(sum(r * r for r in residuals), 0.0) / dof / sxx) if dof > 0 else 0.0
    return ExponentFit(slope=slope, stderr=stderr, intercept=intercept, n_points=len(xs))


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
