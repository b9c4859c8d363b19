"""Ground sets, k-subset colourings, sunflower audits and conflict hypergraphs.

Vertices are dense indices 0..N-1; the application modules keep the mapping
from indices to domain objects (points, integers).  Everything here is exact:
colour values are compared for equality only, never approximately.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, islice, repeat
from typing import Callable, Iterable, Iterator, Sequence

from .errors import ParameterError, require_budget
from .keys import canonical_key

# Exhaustive operations refuse to touch more k-subsets than this unless the
# caller raises the budget explicitly; they fail loudly rather than sample.
DEFAULT_BUDGET = 5_000_000

_CHUNK = 4096  # Colouring.colours checks the types of this many colours at a time


def _checked(chunk: list) -> list:
    """``chunk`` as it is, unless one of its colours has no canonical key: that raises TypeError."""
    if not {int, Fraction}.issuperset(map(type, chunk)):
        for value in chunk:
            canonical_key(value)
    return chunk


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
    returns an exact hashable value (int, Fraction, tuple, ...) that
    ``keys.canonical_key`` serializes.  ``rows``, if given, colours a whole
    ascending vertex list at once with the evaluator's values.  ``colours``
    checks every colour it yields, so whole-set passes may compare values.
    ``scan``, if given, stands in for the default ``greedy_scan`` and must
    take the same vertices in the same order.
    """

    spec: ColouringSpec
    evaluator: Callable[[tuple[int, ...]], object]
    label: str
    rows: Callable[[Sequence[int]], Iterable] | None = None
    scan: Callable[[Sequence[int]], list[int]] | None = None

    def greedy_scan(self, seq: Sequence[int]) -> list[int]:
        """The vertices of ``seq`` that greedy takes, in the order it takes them.

        A vertex v is taken iff the evaluator's raw colours of v with each
        (k-1)-subset of the vertices taken before it are unused so far and
        pairwise distinct.  By default those edges are coloured in
        ``combinations`` order, each at most once, stopping at the first clash.
        """
        if self.scan is not None:
            return self.scan(seq)
        ev, k = self.evaluator, self.spec.k
        chosen: list[int] = []
        used: set = set()
        for v in seq:
            values = set()
            for rest in combinations(chosen, k - 1):
                value = ev(tuple(sorted(rest + (v,))))
                if value in used or value in values:
                    break
                values.add(value)
            else:
                chosen.append(v)
                used |= values
        return chosen

    def colours(self, vertices: Sequence[int]) -> Iterator:
        """The colours of the k-subsets of ascending ``vertices``, in ``combinations`` order.

        Read ``_CHUNK`` at a time: a chunk of exact ints and Fractions passes as
        it is, and every colour of any other is keyed, so an inexact one raises.
        """
        colours = iter(self.rows(vertices) if self.rows is not None
                       else map(self.evaluator, combinations(vertices, self.spec.k)))
        return chain.from_iterable(map(_checked, iter(lambda: list(islice(colours, _CHUNK)), [])))


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

    def without(self, vertex: int) -> "ConflictHypergraph":
        """The conflict hypergraph of the ground set minus ``vertex``.

        The vertex's edges go, and so does every class left with fewer than
        two edges, as it holds no conflict pair.
        """
        classes = (tuple(e for e in edges if vertex not in e) for edges in self.classes)
        return ConflictHypergraph(self.ground, tuple(edges for edges in classes if len(edges) > 1))


def _colours_within_budget(colouring: Colouring, ground: GroundSet, vertices, budget: int,
                           what: str) -> Iterator:
    """The colours of the k-subsets of ``vertices``, once their count fits the budget."""
    k = colouring.spec.k
    if k > ground.n:
        raise ParameterError(f"k={k} exceeds ground set size {ground.n}")
    require_budget(math.comb(len(vertices), k), budget, "colour", what, "colour evaluations")
    return colouring.colours(vertices)


def colour_classes(
    colouring: Colouring, ground: GroundSet, budget: int = DEFAULT_BUDGET, vertices=None
) -> dict[object, list[tuple[int, ...]]]:
    """Group every k-subset of ``vertices`` by its checked colour value, in order of first edge.

    ``vertices`` is an ascending sequence of ground-set ids and defaults to
    the whole ground set.
    """
    if vertices is None:
        vertices = ground.vertices
    colours = _colours_within_budget(colouring, ground, vertices, budget, "colour_classes")
    classes: dict[object, list[tuple[int, ...]]] = defaultdict(list)
    for value, e in zip(colours, combinations(vertices, colouring.spec.k)):
        classes[value].append(e)
    return dict(classes)


def colour_class_sizes(
    colouring: Colouring, ground: GroundSet, budget: int = DEFAULT_BUDGET
) -> Counter:
    """Size of every colour class of the ground set, by colour value; no edge is stored."""
    return Counter(_colours_within_budget(colouring, ground, ground.vertices, budget,
                                          "colour_class_sizes"))


def max_monochromatic_sunflower(
    colouring: Colouring, ground: GroundSet, budget: int = DEFAULT_BUDGET
) -> SunflowerReport:
    """Find the (core, colour) pair collecting the most same-coloured k-edges.

    The h-element subsets of each colour class's k-edges are counted, h
    being the spec's core size; the report is the most frequent (core,
    colour) pair, with the class's edges through that core, in class order,
    as witnesses.  For h = 0 the core is empty and the petal count is the
    size of the largest colour class.
    Deterministic: colour classes are scanned in the order of their
    canonical keys, which the report names, and a class replaces the
    incumbent only with strictly more petals, at its smallest core with that
    many.
    """
    k, h = colouring.spec.k, colouring.spec.h
    require_budget(math.comb(ground.n, k) * math.comb(k, h), budget, "verify", "sunflower audit",
                   "(edge, core) incidences")
    classes = colour_classes(colouring, ground, budget=budget)
    best: SunflowerReport | None = None
    for key, edges in sorted((canonical_key(value), edges) for value, edges in classes.items()):
        if best is not None and len(edges) <= best.petals:
            continue
        cores = Counter(chain.from_iterable(map(combinations, edges, repeat(h))))
        petals = max(cores.values())
        if best is None or petals > best.petals:
            core = min(c for c, count in cores.items() if count == petals)
            witnesses = tuple(e for e in edges if core in combinations(e, h))
            best = SunflowerReport(core=core, colour=key, petals=petals, witness_edges=witnesses)
    assert best is not None
    return best


def validate_lambda(
    colouring: Colouring, ground: GroundSet, budget: int = DEFAULT_BUDGET
) -> tuple[bool, SunflowerReport]:
    """Audit the colouring's declared petal bound; the report is returned either way."""
    report = max_monochromatic_sunflower(colouring, ground, budget=budget)
    return report.petals <= colouring.spec.max_petals, report


def build_conflict_hypergraph(
    colouring: Colouring, ground: GroundSet, budget: int = DEFAULT_BUDGET, vertices=None
) -> ConflictHypergraph:
    """Group the k-edges of ``vertices`` into colour classes, budgeting their conflict pairs.

    ``vertices`` is as in ``colour_classes``.  The conflict pairs number the
    sum of C(class size, 2) over the classes; that count is checked against
    the budget, though no pair is enumerated.
    """
    classes = colour_classes(colouring, ground, budget=budget, vertices=vertices)
    hypergraph = ConflictHypergraph(ground, tuple(tuple(edges) for edges in classes.values()))
    require_budget(hypergraph.num_pairs, budget, "index", "conflict pair enumeration", "pairs")
    return hypergraph
