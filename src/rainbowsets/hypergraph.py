"""Ground sets, k-subset colourings, sunflower audits and conflict hypergraphs.

Vertices are dense indices 0..N-1; the application modules keep the mapping
from indices to domain objects (points, integers).  Everything here is exact:
colour values are compared for equality only, never approximately.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterator

from .errors import ParameterError, require_budget
from .keys import canonical_key

# Exhaustive operations refuse to touch more k-subsets than this unless the
# caller raises the budget explicitly; they fail loudly rather than sample.
DEFAULT_BUDGET = 5_000_000


@dataclass(frozen=True)
class GroundSet:
    """Dense vertex ids 0..n-1."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError("ground set needs at least one vertex")

    @property
    def vertices(self) -> range:
        return range(self.n)


@dataclass(frozen=True)
class ColouringSpec:
    """Edge size k, sunflower core size h, and the claimed petal bound.

    ``max_petals`` is the colouring's promise: no monochromatic family of
    k-edges sharing h common vertices has more members than this.
    """

    k: int
    h: int
    max_petals: int

    def __post_init__(self):
        if self.k < 1:
            raise ParameterError("edge size k must be at least 1")
        if not 0 <= self.h < self.k:
            raise ParameterError(f"core size must satisfy 0 <= h < k, got h={self.h}, k={self.k}")
        if self.max_petals < 1:
            raise ParameterError("petal bound must be at least 1")


@dataclass(frozen=True, eq=False)
class Colouring:
    """A pure deterministic map from k-subsets of the ground set to colours.

    The evaluator receives the subset as a sorted tuple of vertex ids and
    returns an exact hashable value (int, Fraction, tuple, ...).  Use
    ``colour`` for arbitrary id order and ``colour_key`` for the canonical
    byte serialization.
    """

    spec: ColouringSpec
    evaluator: Callable[[tuple[int, ...]], object]
    label: str

    def colour(self, edge) -> object:
        e = tuple(sorted(edge))
        if len(e) != self.spec.k:
            raise ParameterError(f"edge must have {self.spec.k} vertices, got {len(e)}")
        for a, b in zip(e, e[1:]):
            if a == b:
                raise ParameterError("edge vertices must be distinct")
        return self.evaluator(e)

    def colour_key(self, edge) -> bytes:
        return canonical_key(self.colour(edge))


@dataclass(frozen=True)
class SunflowerReport:
    """Worst monochromatic sunflower found: its core, colour and petal edges."""

    core: tuple[int, ...]
    colour: bytes
    petals: int
    witness_edges: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ConflictHypergraph:
    """Conflict structure whose independent sets are exactly the rainbow sets.

    ``classes`` holds the colour classes, each a tuple of sorted k-edges; a
    subset of the ground set is rainbow iff no two distinct edges of one
    class both lie inside it.  Every such pair is a conflict pair.
    """

    ground: GroundSet
    classes: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def num_pairs(self) -> int:
        return sum(math.comb(len(edges), 2) for edges in self.classes)

    def pair_degrees(self) -> list[int]:
        """Number of conflict pairs whose union A∪B contains each vertex.

        A vertex lying in d of a class's m edges lies in neither edge of
        exactly C(m - d, 2) of the class's C(m, 2) pairs, so no pair is
        enumerated.
        """
        deg = [0] * self.ground.n
        for edges in self.classes:
            m = len(edges)
            for v, d in Counter(v for e in edges for v in e).items():
                deg[v] += math.comb(m, 2) - math.comb(m - d, 2)
        return deg


def enumerate_ksubsets(ground: GroundSet, k: int) -> Iterator[tuple[int, ...]]:
    """All k-subsets of the ground set as sorted tuples, in lexicographic order."""
    if not 1 <= k <= ground.n:
        raise ParameterError(f"k={k} out of range for ground set of size {ground.n}")
    return combinations(ground.vertices, k)


def _edges_within_budget(colouring: Colouring, ground: GroundSet, vertices, budget: int,
                         what: str) -> Iterator[tuple[int, ...]]:
    """The k-subsets of ``vertices``, after checking their colour evaluations against the budget."""
    k = colouring.spec.k
    if k > ground.n:
        raise ParameterError(f"k={k} exceeds ground set size {ground.n}")
    require_budget(math.comb(len(vertices), k), budget, "colour", what, "colour evaluations")
    return combinations(vertices, k)


def colour_classes(
    colouring: Colouring, ground: GroundSet, budget: int = DEFAULT_BUDGET, vertices=None
) -> dict[bytes, list[tuple[int, ...]]]:
    """Group every k-subset of ``vertices`` by its canonical colour key.

    ``vertices`` is an ascending sequence of ground-set ids and defaults to
    the whole ground set.
    """
    if vertices is None:
        vertices = ground.vertices
    edges = _edges_within_budget(colouring, ground, vertices, budget, "colour_classes")
    classes: dict[bytes, list[tuple[int, ...]]] = defaultdict(list)
    ev = colouring.evaluator
    for e in edges:
        classes[canonical_key(ev(e))].append(e)
    return dict(classes)


def colour_class_sizes(
    colouring: Colouring, ground: GroundSet, budget: int = DEFAULT_BUDGET
) -> Counter:
    """Size of every colour class of the ground set, counted without storing an edge."""
    edges = _edges_within_budget(colouring, ground, ground.vertices, budget,
                                 "colour_class_sizes")
    ev = colouring.evaluator
    return Counter(canonical_key(ev(e)) for e in edges)


def max_monochromatic_sunflower(
    colouring: Colouring, ground: GroundSet, h: int, budget: int = DEFAULT_BUDGET
) -> SunflowerReport:
    """Find the (core, colour) pair collecting the most same-coloured k-edges.

    Every k-edge of every colour class is bucketed under each of its h-element
    subsets; the report is the fullest bucket.  For h = 0 the core is empty and
    the petal count is the size of the largest colour class.  Deterministic:
    colour classes are scanned in key order and cores in sorted order, and only
    a strictly fuller bucket replaces the incumbent.
    """
    k = colouring.spec.k
    if not 0 <= h < k:
        raise ParameterError(f"core size must satisfy 0 <= h < k, got h={h}")
    if ground.n < k:
        raise ParameterError(f"need at least k={k} vertices, got {ground.n}")
    require_budget(math.comb(ground.n, k) * math.comb(k, h), budget, "verify", "sunflower audit",
                   "(edge, core) incidences")
    classes = colour_classes(colouring, ground, budget=budget)
    best: SunflowerReport | None = None
    for key in sorted(classes):
        buckets: dict[tuple[int, ...], list[tuple[int, ...]]] = defaultdict(list)
        for e in classes[key]:
            for core in combinations(e, h):
                buckets[core].append(e)
        for core in sorted(buckets):
            petals = len(buckets[core])
            if best is None or petals > best.petals:
                best = SunflowerReport(
                    core=core, colour=key, petals=petals, witness_edges=tuple(buckets[core])
                )
    assert best is not None
    return best


def validate_lambda(
    colouring: Colouring, ground: GroundSet, budget: int = DEFAULT_BUDGET
) -> tuple[bool, SunflowerReport]:
    """Audit the colouring's declared petal bound; the report is returned either way."""
    report = max_monochromatic_sunflower(colouring, ground, colouring.spec.h, budget=budget)
    return report.petals <= colouring.spec.max_petals, report


def build_conflict_hypergraph(
    colouring: Colouring, ground: GroundSet, budget: int = DEFAULT_BUDGET
) -> ConflictHypergraph:
    """Group the k-edges into colour classes, budgeting their conflict pairs.

    The conflict pairs number the sum of C(class size, 2) over the classes;
    that count is checked against the budget, though no pair is enumerated.
    """
    classes = colour_classes(colouring, ground, budget=budget)
    hypergraph = ConflictHypergraph(ground, tuple(tuple(edges) for edges in classes.values()))
    require_budget(hypergraph.num_pairs, budget, "index", "conflict pair enumeration", "pairs")
    return hypergraph
