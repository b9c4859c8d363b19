"""Ground sets, k-subset colourings, sunflower audits and conflict hypergraphs.

Vertices are dense indices 0..N-1; the application modules keep the mapping
from indices to domain objects (points, integers).  Everything here is exact:
colours are compared for equality only, never approximately, through
their keys.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import chain, combinations, islice, repeat
from typing import Callable, Iterable, Sequence

from .errors import ParameterError, require_budget
from .keys import require_keys

# Exhaustive operations refuse to touch more k-subsets than this unless the
# caller raises the budget explicitly; they fail loudly rather than sample.
DEFAULT_BUDGET = 5_000_000
_CHUNK = 4096  # evaluator keys checked per list by Colouring.colours


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
    """A pure deterministic map from k-subsets of the ground set to colour keys.

    The evaluator receives the subset as a sorted tuple of vertex ids and
    returns the key of its colour: a plain int for an integer-valued colour,
    else bytes that name the exact value, such as ``keys.ratio_key`` gives,
    so two colours are equal exactly when their keys are and no pass hashes
    a Fraction.  Every key the evaluator returns is checked before any pass
    groups or compares it, and one that is neither a plain int nor bytes
    raises TypeError (``keys.require_keys``): a raw 1.0 or True would
    otherwise join the class of the int 1.  ``rows``, if given, gives the
    keys of a whole ascending vertex list at once; it must return keys, as
    the built-in row forms do, since they build each key from exact
    integers, and its keys are not checked.  ``scan``, if given, stands in
    for the default ``greedy_scan`` and must take the same vertices in the
    same order.
    """

    spec: ColouringSpec
    evaluator: Callable[[tuple[int, ...]], object]
    label: str
    rows: Callable[[Sequence[int]], Iterable] | None = None
    scan: Callable[[Sequence[int]], list[int]] | None = None

    def greedy_scan(self, seq: Sequence[int]) -> list[int]:
        """The vertices of ``seq`` that greedy takes, in the order it takes them.

        A vertex v is taken iff the colours of v with each (k-1)-subset of
        the vertices taken before it are unused so far and pairwise distinct.
        By default those edges are coloured in ``combinations`` order, each at
        most once, stopping at the first clash, and each key is checked before
        it is compared.
        """
        if self.scan is not None:
            return self.scan(seq)
        ev, k = self.evaluator, self.spec.k
        chosen: list[int] = []
        used: set = set()
        for v in seq:
            keys = set()
            for rest in combinations(chosen, k - 1):
                key = ev(tuple(sorted(rest + (v,))))
                if type(key) is not int and type(key) is not bytes:
                    require_keys((key,))  # raises
                if key in used or key in keys:
                    break
                keys.add(key)
            else:
                chosen.append(v)
                used |= keys
        return chosen

    def colours(self, vertices: Sequence[int]) -> Iterable:
        """The colour keys of the k-subsets of ascending ``vertices``, in combinations order.

        Without a row form, the evaluator's keys are gathered ``_CHUNK`` at a
        time and each list is checked whole by ``keys.require_keys``, so no
        Python call is made per key.
        """
        if self.rows is not None:
            return self.rows(vertices)
        keys = map(self.evaluator, combinations(vertices, self.spec.k))
        chunks = iter(lambda: list(islice(keys, _CHUNK)), [])
        return chain.from_iterable(map(require_keys, chunks))


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
            if m < 2:  # a class of one edge holds no pair
                continue
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
                           what: str) -> Iterable:
    """The colour keys of the k-subsets of ``vertices``, once their count fits the budget."""
    k = colouring.spec.k
    if k > ground.n:
        raise ParameterError(f"k={k} exceeds ground set size {ground.n}")
    require_budget(math.comb(len(vertices), k), budget, "colour", what, "colour evaluations")
    return colouring.colours(vertices)


def colour_classes(
    colouring: Colouring, ground: GroundSet, budget: int = DEFAULT_BUDGET, vertices=None
) -> dict[int | bytes, list[tuple[int, ...]]]:
    """Group every k-subset of ``vertices`` by its colour key, in order of first edge.

    The key of an integer colour is the integer itself; see ``Colouring``.
    ``vertices`` is an ascending sequence of ground-set ids and defaults to
    the whole ground set.
    """
    if vertices is None:
        vertices = ground.vertices
    colours = _colours_within_budget(colouring, ground, vertices, budget, "colour_classes")
    classes: dict[int | bytes, list[tuple[int, ...]]] = defaultdict(list)
    for key, e in zip(colours, combinations(vertices, colouring.spec.k)):
        classes[key].append(e)
    return dict(classes)


def colour_class_sizes(
    colouring: Colouring, ground: GroundSet, budget: int = DEFAULT_BUDGET
) -> Counter:
    """Size of every colour class of the ground set, by colour key; no edge is stored."""
    return Counter(_colours_within_budget(colouring, ground, ground.vertices, budget,
                                          "colour_class_sizes"))


def max_monochromatic_sunflower(
    colouring: Colouring, ground: GroundSet, budget: int = DEFAULT_BUDGET
) -> SunflowerReport:
    """Find the (core, colour) pair collecting the most same-coloured k-edges.

    The h-element subsets of each colour class's k-edges are counted, h
    being the spec's core size, with a ``Counter``; for h = 1 it counts the
    edges' vertices, each standing for its 1-core.  The report is the most
    frequent (core, colour) pair, with the class's edges through that core,
    in class order, as witnesses.  For h = 0 the core is empty and the petal
    count is the size of the largest colour class.
    Deterministic: colour classes are scanned in the order of their key
    bytes, which the report names (an int key n is ``b"%d" % n``),
    and a class replaces the incumbent only with strictly more petals, at its
    smallest core with that many.
    """
    k, h = colouring.spec.k, colouring.spec.h
    require_budget(math.comb(ground.n, k) * math.comb(k, h), budget, "verify", "sunflower audit",
                   "(edge, core) incidences")
    classes = colour_classes(colouring, ground, budget=budget)
    best: SunflowerReport | None = None
    for key, edges in sorted((key if type(key) is bytes else b"%d" % key, edges)
                             for key, edges in classes.items()):
        if best is not None and len(edges) <= best.petals:
            continue
        # a 1-core is counted as its vertex; ints order like their 1-tuples
        cores = Counter(chain.from_iterable(edges if h == 1
                                            else map(combinations, edges, repeat(h))))
        petals = max(cores.values())
        if best is None or petals > best.petals:
            core = min(c for c, count in cores.items() if count == petals)
            core = (core,) if h == 1 else core
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
