"""Rainbow-subset extraction algorithms and the scaling-exponent fit.

Three routes to a rainbow subset: an incremental greedy scan, random
sparsification followed by hand deletions, and an exact branch-and-bound
oracle.  Every algorithm re-verifies its own output before returning it.
``run_algorithm`` dispatches one seeded run by name, ``derive_seed`` gives
each trial its seed, and ``estimate_exponent`` fits the log-log slope of
rainbow size against N for the CLI's ``bench`` command.
"""

from __future__ import annotations

import math
import random
import struct
import time
from dataclasses import dataclass, field
from itertools import combinations, repeat
from operator import rshift
from statistics import fmean

from .errors import BudgetError, ParameterError, require_budget
from .hypergraph import (DEFAULT_BUDGET, Colouring, GroundSet, build_conflict_hypergraph,
                         colour_class_sizes)

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


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
    def from_spec(cls, n: int, k: int, h: int, seed: int,
                  p: float | None = None) -> "SamplePlan":
        """The plan for n vertices and a (k, h) colouring, unless p is given.

        The default keep-probability is 0.5 * n^(-(k+h-1)/(2k-1)), half the
        point where surviving conflicts become rare enough to delete by hand.
        """
        if p is None:
            p = 0.5 * n ** (-(k + h - 1) / (2 * k - 1))
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


def _shuffled(n: int, seed: int) -> list[int]:
    """``random.Random(seed).shuffle(list(range(n)))``, from the generator's words read in bulk.

    The shuffle draws position i's swap as the top k bits of one 32-bit word,
    k the bit length of i + 1, redrawn while it exceeds i.  ``getrandbits(32 * m)``
    is the next m words, least significant first, so one loop per k runs over
    shifted words; words left over carry to the next k.  A draw holds about
    1.5 words per position left, and at most 4096.
    """
    seq = list(range(n))
    getrandbits = random.Random(seed).getrandbits
    words = iter(())
    i = n - 1
    while i > 0:
        k = (i + 1).bit_length()
        last = (1 << (k - 1)) - 1  # the lowest i whose i + 1 has k bits
        for s in map(rshift, words, repeat(32 - k)):
            if s <= i:
                seq[i], seq[s] = seq[s], seq[i]
                i -= 1
                if i < last:
                    break
        else:
            m = min(4096, 3 * (i + 1) // 2 + 16)
            words = iter(struct.unpack(f"<{m}I", getrandbits(32 * m).to_bytes(4 * m, "little")))
    return seq


def greedy_rainbow(colouring: Colouring, ground: GroundSet, order: int | None = None,
                   budget: int = DEFAULT_BUDGET) -> RainbowResult:
    """Scan vertices in order, adding each one whose new edges keep the subset rainbow.

    ``order`` is None for natural id order, or an int seed for the order
    ``random.Random(order).shuffle`` gives, built by ``_shuffled`` from the
    generator's words drawn in bulk.  A vertex is added iff every k-edge
    it forms with already-chosen vertices has a colour unused so far and the
    new colours are pairwise distinct (so the first k-1 vertices always
    are); the result is maximal for the order, since a rejected vertex only
    accumulates more constraints later.  The scan is the colouring's,
    ``Colouring.greedy_scan``, and compares the evaluator's raw values; the
    closing verification reads them through ``Colouring.colours``, so an
    inexact colour raises there.  ``runtime_ms`` covers the whole call: the
    shuffle, the scan and the verification.
    """
    t0 = time.perf_counter()
    n, k = ground.n, colouring.spec.k
    if k > n:
        raise ParameterError(f"k={k} exceeds ground set size {n}")
    seq = list(ground.vertices) if order is None else _shuffled(n, order)
    chosen = colouring.greedy_scan(seq)
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

    while hypergraph.num_pairs:
        degrees = hypergraph.pair_degrees()
        victim = degrees.index(max(degrees))
        kept.discard(victim)
        hypergraph = hypergraph.without(victim)

    subset = tuple(sorted(kept))
    verified = verify_rainbow(colouring, subset, budget=budget)
    runtime_ms = (time.perf_counter() - t0) * 1000.0
    stats = {
        "pairs_total": pairs_total,
        "pairs_after_sampling": pairs_after_sampling,
        "pairs_destroyed_by_sampling": pairs_total - pairs_after_sampling,
        "vertices_kept_after_sampling": kept_after_sampling,
        "vertices_deleted_by_hand": kept_after_sampling - len(kept),
    }
    return RainbowResult(subset, "sample_delete", plan.seed, verified, stats, runtime_ms)


def exact_max_rainbow(colouring: Colouring, ground: GroundSet,
                      budget: int = DEFAULT_BUDGET) -> RainbowResult:
    """Maximum-cardinality rainbow subset by branch and bound.

    Vertices are ordered by conflict-pair degree (descending, ids break
    ties) and the search runs on their positions in that order.  The row
    ``closing[i]`` maps the earlier positions of each k-edge ending at
    position i (the one earlier position for k = 2, a sorted tuple
    otherwise) to the bit of the edge's colour class, or to 0 when the class
    has one edge and so never clashes; the search colours nothing and holds
    the classes in use as an int mask.  The natural-order greedy result
    seeds the bound; it runs on each edge's class index, which equal colours
    share, so it colours nothing either.  Branches that cannot strictly beat
    the incumbent are pruned.  Deterministic.  Each search node counts
    against ``budget``: the oracle raises ``BudgetError`` once it has searched
    ``budget`` nodes without finishing, not before any work.
    """
    n, k = ground.n, colouring.spec.k
    t0 = time.perf_counter()
    hypergraph = build_conflict_hypergraph(colouring, ground, budget=budget)
    degrees = hypergraph.pair_degrees()
    order = sorted(range(n), key=lambda v: (-degrees[v], v))
    position = {v: i for i, v in enumerate(order)}
    closing: list[dict] = [{} for _ in range(n)]
    class_of: dict[tuple[int, ...], int] = {}
    clashing = sum(len(edges) > 1 for edges in hypergraph.classes)  # only these take a bit
    require_budget(clashing ** 2, budget, "index", "the exact oracle's mask table", "bits")
    bit = 1
    for index, edges in enumerate(hypergraph.classes):
        for e in edges:
            class_of[e] = index
            *rest, last = sorted(map(position.__getitem__, e))
            closing[last][rest[0] if k == 2 else tuple(rest)] = bit if len(edges) > 1 else 0
        bit <<= len(edges) > 1

    by_class = Colouring(colouring.spec, class_of.__getitem__, colouring.label)
    best, nodes = list(greedy_rainbow(by_class, ground, budget=budget).subset), 0

    def extend(i: int, chosen: list[int], used: int) -> None:
        nonlocal best, nodes
        nodes += 1
        if nodes > budget:
            raise BudgetError(f"search layer: the exact oracle for k={k} needs more than "
                              f"{budget} nodes; budget is {budget}")
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

    try:
        extend(0, [], 0)
    except RecursionError:  # the search nests one Python call per position
        raise BudgetError(f"search layer: the exact oracle needs {n + 1} nested calls") from None
    subset = tuple(sorted(best))
    verified = verify_rainbow(colouring, subset, budget=budget)
    runtime_ms = (time.perf_counter() - t0) * 1000.0
    stats = {"nodes_explored": nodes, "conflict_pairs": hypergraph.num_pairs}
    return RainbowResult(subset, "exact", None, verified, stats, runtime_ms)


def estimate_exponent(by_n: dict[int, list[int]]) -> ExponentFit:
    """Fit log(mean rainbow size) = intercept + slope * log(N) by least squares.

    ``by_n`` maps each ground size N to the rainbow sizes of its trials.
    Requires at least 4 distinct ground sizes with at least 3 trials each;
    the standard error of the slope comes out of the usual OLS residuals.
    """
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
                  p: float | None = None, budget: int = DEFAULT_BUDGET) -> RainbowResult:
    """Dispatch one seeded run of a named algorithm."""
    if algorithm == "greedy":
        return greedy_rainbow(colouring, ground, order=seed, budget=budget)
    if algorithm == "sample_delete":
        plan = SamplePlan.from_spec(ground.n, colouring.spec.k, colouring.spec.h, seed=seed, p=p)
        return sample_and_delete(colouring, ground, plan, budget=budget)
    if algorithm == "exact":
        return exact_max_rainbow(colouring, ground, budget=budget)
    raise ParameterError(f"unknown algorithm {algorithm!r}")
