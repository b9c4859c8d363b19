"""Shared fixtures-in-spirit: reference colourings and independent oracles.

The oracles here deliberately re-derive everything from first principles
(direct enumeration over cores and over pairs of edges) so the engine is
never checked against itself.
"""

import random
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import combinations

from rainbowsets.engine import _splitmix64
from rainbowsets.hypergraph import Colouring, ColouringSpec
from rainbowsets.keys import canonical_key


def injective_colouring(k=2, h=1, declared=1) -> Colouring:
    """Every edge its own colour: the edge tuple itself is the value."""
    return Colouring(ColouringSpec(k, h, declared), lambda e: e, "injective")


def constant_colouring(k=2, h=1, declared=1) -> Colouring:
    return Colouring(ColouringSpec(k, h, declared), lambda e: 0, "constant")


def random_colouring(seed: int, k: int, h: int, palette: int, declared=1) -> Colouring:
    """Seeded colouring that is a pure function of the edge contents.

    Stable under ground-set growth, so restriction arguments hold.
    """

    def evaluator(edge):
        x = seed & ((1 << 64) - 1)
        for v in sorted(edge):
            x = _splitmix64(x ^ (v + 0x9E3779B97F4A7C15))
        return x % palette

    return Colouring(ColouringSpec(k, h, declared), evaluator, f"random{seed}")


def brute_force_max_petals(colouring: Colouring, n: int, h: int) -> int:
    """Independent sunflower oracle: scan every h-core against every edge."""
    k = colouring.spec.k
    best = 0
    for core in combinations(range(n), h):
        core_set = set(core)
        counts: Counter = Counter()
        for e in combinations(range(n), k):
            if core_set <= set(e):
                counts[canonical_key(colouring.evaluator(e))] += 1
        if counts:
            best = max(best, max(counts.values()))
    return best


def brute_force_pair_degrees(colouring: Colouring, n: int) -> tuple[list[int], int]:
    """Independent conflict-pair count: walk every pair of same-coloured k-edges.

    Returns, for each vertex, the number of pairs (A, B) with the vertex in
    A∪B, and the total number of pairs.
    """
    edges = list(combinations(range(n), colouring.spec.k))
    degrees = [0] * n
    pairs = 0
    for a, b in combinations(edges, 2):
        if colouring.evaluator(a) == colouring.evaluator(b):
            pairs += 1
            for v in set(a) | set(b):
                degrees[v] += 1
    return degrees, pairs


def all_subsets(n: int):
    """Every subset of range(n) as a sorted tuple."""
    for mask in range(1 << n):
        yield tuple(i for i in range(n) if mask >> i & 1)


def reference_sample_and_delete(colouring: Colouring, n: int, plan) -> tuple[tuple, dict]:
    """Independent sample-and-delete over the full conflict-pair enumeration.

    Takes every same-coloured pair of k-edges over the whole ground set, keeps
    each vertex with probability ``plan.p`` (one ``random.Random(plan.seed)``
    draw per vertex, in id order), filters the pairs to the kept set, then
    deletes a vertex lying in the most surviving pairs (smallest id on ties)
    until none survive.  Returns the subset and the stats the engine reports.
    """
    by_colour = defaultdict(list)
    for e in combinations(range(n), colouring.spec.k):
        by_colour[colouring.evaluator(e)].append(e)
    all_pairs = [pair for edges in by_colour.values() for pair in combinations(edges, 2)]
    rng = random.Random(plan.seed)
    kept = {v for v in range(n) if rng.random() < plan.p}
    sampled = len(kept)
    surviving = [(a, b) for a, b in all_pairs if set(a) | set(b) <= kept]
    after = len(surviving)
    deleted = 0
    while surviving:
        degree = Counter(v for a, b in surviving for v in set(a) | set(b))
        top = max(degree.values())
        victim = min(v for v, d in degree.items() if d == top)
        kept.remove(victim)
        deleted += 1
        surviving = [(a, b) for a, b in surviving if victim not in set(a) | set(b)]
    stats = {
        "pairs_total": len(all_pairs),
        "pairs_after_sampling": after,
        "pairs_destroyed_by_sampling": len(all_pairs) - after,
        "vertices_kept_after_sampling": sampled,
        "vertices_deleted_by_hand": deleted,
    }
    return tuple(sorted(kept)), stats


def gauss_jordan_solve(matrix, rhs):
    """Solve matrix . x = rhs over the rationals by Gauss-Jordan elimination.

    Returns the unique solution as a list of Fractions, or None when the
    square matrix is singular.
    """
    size = len(matrix)
    rows = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col] != 0), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [v / lead for v in rows[col]]
        for r in range(size):
            factor = rows[r][col]
            if r != col and factor != 0:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return [row[size] for row in rows]
