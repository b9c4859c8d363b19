"""Shared fixtures-in-spirit: reference colourings and independent oracles.

The oracles here deliberately re-derive everything from first principles
(direct enumeration over cores and over pairs of edges, Leibniz
determinants, Gauss-Jordan solves) and call no package code, so the engine
is never checked against itself.
"""

import math
import random
from collections import Counter, defaultdict
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations

from rainbowsets.engine import _splitmix64
from rainbowsets.hypergraph import Colouring, ColouringSpec


def canonical_key(value) -> bytes:
    """Serialize an exact colour value (int, Fraction, str, bytes, or tuples of these) to bytes.

    Numbers share one encoding, their decimal text, so ``3`` and
    ``Fraction(3, 1)`` map to the same key; Fraction's lowest-terms normal
    form keeps it canonical, and a number is keyed by its value, so an int
    or Fraction subclass shares the key of the equal plain number.  Strings
    and bytes are length-prefixed and tuples bracketed, so distinct values
    never collide.  A float or a bool, at any depth, raises TypeError.
    """
    if isinstance(value, Fraction):
        ratio = value.as_integer_ratio()
        return b"%d" % ratio[0] if ratio[1] == 1 else b"%d/%d" % ratio
    if isinstance(value, bool):
        raise TypeError("booleans are not colour values")
    if isinstance(value, int):
        return b"%d" % value
    if isinstance(value, str):
        data = value.encode("utf-8")
        return b"s%d:%s" % (len(data), data)
    if isinstance(value, bytes):
        return b"b%d:%s" % (len(value), value)
    if isinstance(value, tuple):
        return b"(%s)" % b",".join(map(canonical_key, value))
    raise TypeError(f"no canonical key for {type(value).__name__}")


def keyed_colouring(spec: ColouringSpec, values, label: str) -> Colouring:
    """The colouring whose evaluator keys each exact value ``values(edge)`` by ``colour_key``."""
    return Colouring(spec, lambda edge: colour_key(values(edge)), label)


def injective_colouring(k=2, h=1, declared=1) -> Colouring:
    """Every edge its own colour: the edge tuple itself is the value."""
    return keyed_colouring(ColouringSpec(k, h, declared), lambda e: e, "injective")


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


def brute_force_sunflower(value, n: int, k: int, h: int) -> tuple:
    """Independent worst-sunflower report (core, colour key, petals, witnesses).

    ``value`` maps each k-edge of range(n) to its exact colour value, and
    each colour is named by the ``canonical_key`` of that value.  Every
    (key, core) pair is scanned in sorted order, its bucket gathered from the
    edges in combinations order, and the first bucket strictly fuller than
    the best so far is kept.
    """
    edges = list(combinations(range(n), k))
    key_of = {e: canonical_key(value(e)) for e in edges}
    best = None
    for key in sorted(set(key_of.values())):
        for core in combinations(range(n), h):
            bucket = tuple(e for e in edges if key_of[e] == key and set(core) <= set(e))
            if bucket and (best is None or len(bucket) > best[2]):
                best = (core, key, len(bucket), bucket)
    return best


def colour_key(value):
    """The key the engine groups a colour by, read back from its canonical bytes.

    Only an integer-valued number has a canonical key of bare decimal digits;
    that key reads back as the plain int, and every other key stays bytes.
    """
    key = canonical_key(value)
    return int(key) if key.lstrip(b"-").isdigit() else key


def keyed_class_sizes(value, k: int, n: int) -> Counter:
    """Size of each colour class of range(n)'s k-edges, keying each value(e) one at a time."""
    sizes: Counter = Counter()
    for e in combinations(range(n), k):
        sizes[canonical_key(value(e))] += 1
    return sizes


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


def reference_greedy(values, order, colour) -> tuple:
    """Greedy rainbow subset of ids into ``values`` under a pair colouring, scanned in ``order``.

    ``colour`` maps the values of a pair, in id order, to its colour.  A
    candidate is taken iff its pairs with the chosen ids have colours that
    are unused and pairwise distinct, so its scan stops at the first repeat.
    Returns the taken ids, sorted.
    """
    chosen, used = [], set()
    for v in order:
        new = set()
        for c in chosen:
            value = colour((values[min(c, v)], values[max(c, v)]))
            if value in used or value in new:
                break
            new.add(value)
        else:
            chosen.append(v)
            used |= new
    return tuple(sorted(chosen))


def reference_exact_search(colouring: Colouring, n: int) -> tuple[tuple, int]:
    """Independent branch and bound for the largest rainbow subset of range(n).

    Vertices are visited by descending conflict-pair degree, ids breaking
    ties.  A vertex can join the chosen set iff its k-edges with the chosen
    vertices have colours that are unused and pairwise distinct.  The bound
    starts at the greedy scan of the ids in natural order.  Each call is one
    node: it is pruned unless its chosen set plus every vertex left could
    strictly beat the best so far, and otherwise tries taking its vertex
    before leaving it out.  Returns the best subset, sorted, and the number
    of nodes.
    """
    k, colour = colouring.spec.k, colouring.evaluator
    degrees, _ = brute_force_pair_degrees(colouring, n)
    order = sorted(range(n), key=lambda v: (-degrees[v], v))

    def new_colours(chosen, used, v):
        colours = [colour(tuple(sorted(rest + (v,)))) for rest in combinations(chosen, k - 1)]
        distinct = set(colours)
        return distinct if len(distinct) == len(colours) and not distinct & used else None

    best, used = [], set()
    for v in range(n):
        colours = new_colours(best, used, v)
        if colours is not None:
            best.append(v)
            used |= colours
    nodes = 0

    def search(i, chosen, used):
        nonlocal best, nodes
        nodes += 1
        if len(chosen) + n - i <= len(best):
            return
        if i == n:
            best = list(chosen)
            return
        colours = new_colours(chosen, used, order[i])
        if colours is not None:
            search(i + 1, chosen + [order[i]], used | colours)
        search(i + 1, chosen, used)

    search(0, [], set())
    return tuple(sorted(best)), nodes


def direct_poly_value(coeffs, x, y, modulus=None):
    """p(x, y) for the coefficient map (i, j) -> c, summed one term at a time.

    Over Q (``modulus`` None) every term is a Fraction; over GF(p) each term
    is c * x^i * y^j with the powers taken by ``pow(., ., p)``.
    """
    if modulus is None:
        return sum((Fraction(c) * Fraction(x) ** i * Fraction(y) ** j
                    for (i, j), c in coeffs.items()), Fraction(0))
    return sum(c * pow(x, i, modulus) * pow(y, j, modulus)
               for (i, j), c in coeffs.items()) % modulus


def is_sidon(values):
    """True iff the pairwise differences of the values are distinct: a Sidon (B2) set."""
    differences = [abs(a - b) for a, b in combinations(values, 2)]
    return len(set(differences)) == len(differences)


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


@cache
def _signed_permutations(size):
    """Every permutation of range(size) with its sign, computed once per size."""
    return tuple((perm, -1 if sum(perm[i] > perm[j] for i, j in combinations(range(size), 2)) % 2
                  else 1) for perm in permutations(range(size)))


def leibniz_det(matrix):
    """Determinant as the signed sum over permutations; exact, for small matrices.

    Integer entries give an ``int``, rational ones a ``Fraction``.
    """
    total = 0
    for perm, sign in _signed_permutations(len(matrix)):
        term = sign
        for row, col in enumerate(perm):
            term *= matrix[row][col]
        total += term
    return total


def _lifted_rows(points):
    """The row (|x|^2, x, 1) of each point, in plain ints when every coordinate is integral."""
    coords = [[Fraction(c) for c in p] for p in points]
    if all(c.denominator == 1 for p in coords for c in p):
        coords = [[c.numerator for c in p] for p in coords]
    return [[sum(c * c for c in p), *p, 1] for p in coords]


def lifted_determinant(points):
    """Determinant of the rows (|x|^2, x, 1) of d+2 points in dimension d.

    Zero iff the points lie on a common sphere or hyperplane.
    """
    return leibniz_det(_lifted_rows(points))


def general_position_witnesses(points):
    """First (d+1)-subset on a hyperplane and first (d+2)-subset on a sphere or hyperplane.

    Walks every subset in lexicographic order: d+1 points lie on a hyperplane
    iff the rows (x, 1) are singular, d+2 on a sphere or hyperplane iff the
    lifted determinant is zero.  Each witness is an index tuple or None.
    Every point is lifted once.
    """
    d = len(points[0])
    lifted = _lifted_rows(points)
    flat = [row[1:] for row in lifted]
    hyperplane = next((idxs for idxs in combinations(range(len(points)), d + 1)
                       if leibniz_det([flat[i] for i in idxs]) == 0), None)
    sphere = next((idxs for idxs in combinations(range(len(points)), d + 2)
                   if leibniz_det([lifted[i] for i in idxs]) == 0), None)
    return hyperplane, sphere


def similar_simplices(p, q) -> bool:
    """True iff some matching of the points of p with those of q scales every distance alike.

    Compares squared distances by cross-multiplication, so no ratio is formed.
    """
    def squared_distances(points):
        return [[sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(u, v)) for v in points]
                for u in points]

    pairs = list(combinations(range(len(p)), 2))
    sp, sq = squared_distances(p), squared_distances(q)
    dp = [sp[i][j] for i, j in pairs]
    for perm in permutations(range(len(q))):
        dq = [sq[perm[i]][perm[j]] for i, j in pairs]
        if all(x * dq[0] == y * dp[0] for x, y in zip(dp, dq)):
            return True
    return False


def similarity_profile(points):
    """The similarity colour by its definition, in Fractions from the coordinates.

    Over every ordering of the points, the least tuple of the squared
    distances between positions i < j, each over the sum of the squared
    distances over all ordered pairs of points.
    """
    squared = [[sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(u, v)) for v in points]
               for u in points]
    pairs = list(combinations(range(len(points)), 2))
    least = min(tuple(squared[perm[i]][perm[j]] for i, j in pairs)
                for perm in permutations(range(len(points))))
    total = sum(map(sum, squared))
    return tuple(x / total for x in least)


def simplex_squared_volume(points):
    """Squared d-volume of the simplex on d+1 points: det(p_i - p_0)^2 / (d!)^2."""
    origin = [Fraction(c) for c in points[0]]
    rows = [[Fraction(c) - o for c, o in zip(p, origin)] for p in points[1:]]
    return Fraction(leibniz_det(rows)) ** 2 / math.factorial(len(rows)) ** 2


def circumcentre(points):
    """The point equidistant from d+1 points in dimension d; None if they are affinely dependent.

    It solves 2 (p - p0) . c = |p|^2 - |p0|^2 for the points p after the first.
    """
    p0 = points[0]
    matrix = [[2 * (a - b) for a, b in zip(p, p0)] for p in points[1:]]
    rhs = [sum(c * c for c in p) - sum(c * c for c in p0) for p in points[1:]]
    return gauss_jordan_solve(matrix, rhs)


def simplex_squared_circumradius(points):
    """Squared distance from the circumcentre to the first point; None if there is no centre."""
    centre = circumcentre(points)
    if centre is None:
        return None
    return sum((c - Fraction(x)) ** 2 for c, x in zip(centre, points[0]))


def spiral_coords(n: int) -> list[tuple[int, int]]:
    """The powers z^0..z^(n-1) of the Gaussian integer z = 1 + 2i, as integer pairs.

    Multiplying by z is a spiral similarity, (a, b) -> (a - 2b, 2a + b), so
    triangles repeat their similarity class, and volumes and radii repeat
    too: unlike random points, these carry real colour conflicts.
    """
    pts = [(1, 0)]
    while len(pts) < n:
        a, b = pts[-1]
        pts.append((a - 2 * b, 2 * a + b))
    return pts


def parabola_squared_area(a, b, c):
    """Squared area of the triangle on (a, a^2), (b, b^2), (c, c^2): ((b-a)(c-a)(c-b))^2 / 4."""
    return Fraction(((b - a) * (c - a) * (c - b)) ** 2, 4)


def parabola_squared_areas(xs) -> set:
    """The distinct squared areas of the triangles on the parabola points (x, x^2), x in xs."""
    return {parabola_squared_area(a, b, c) for a, b, c in combinations(xs, 3)}


def parabola_max_rainbow(xs) -> tuple:
    """A largest subset of xs whose triangles on the parabola have pairwise distinct areas.

    Exhaustive search in increasing x that extends only admissible prefixes
    and stops a branch that cannot beat the best so far; the first largest
    subset found wins.
    """
    xs = sorted(xs)
    best: list = []

    def extend(start: int, chosen: list, seen: set) -> None:
        nonlocal best
        if len(chosen) > len(best):
            best = list(chosen)
        for i in range(start, len(xs)):
            if len(chosen) + len(xs) - i <= len(best):
                return
            new = [parabola_squared_area(a, b, xs[i]) for a, b in combinations(chosen, 2)]
            if len(set(new)) == len(new) and seen.isdisjoint(new):
                chosen.append(xs[i])
                extend(i + 1, chosen, seen | set(new))
                chosen.pop()

    extend(0, [], set())
    return tuple(best)
