"""Exact rational geometry colourings: circumradius, volume, similarity type.

Everything is decided in integers, on the points scaled by their common
denominator L: general position, and every colour, read from one integer
squared-distance matrix.  Each kernel keys its colour from an integer ratio
by ``math.gcd`` (``keys.ratio_key``).  In the plane, circumradius and
similarity are closed forms in the integer points; volume at any dimension,
and circumradius off the plane, take the integer Cayley-Menger
determinant from ``det_exact``.  There is no floating-point path anywhere,
so colour equality is genuine equality of the underlying geometric quantity.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain, combinations, permutations

from .errors import (BudgetError, ParameterError, ValidationError, require_array, require_budget,
                     require_exact)
from .hypergraph import DEFAULT_BUDGET, Colouring, ColouringSpec
from .keys import ratio_key

Point = tuple[Fraction, ...]

DEFAULT_REJECTION_FACTOR = 1000  # generator gives up after this many draws per point


def as_point(coords) -> Point:
    return tuple(Fraction(c) for c in coords)


def det_exact(matrix: list[list[int]]) -> int:
    """Determinant of an integer matrix, by Fraction Gaussian elimination with pivot search."""
    m = [list(row) for row in matrix]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = Fraction(1) / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                factor = m[r][col] * inv
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return int(det)


def _distance_matrix(pts: list[tuple[int, ...]]) -> list[list[int]]:
    return [[sum((a - b) * (a - b) for a, b in zip(p, q)) for q in pts] for p in pts]


def _cayley_menger(dist, idxs) -> int:
    """Determinant of the chosen points' distance matrix bordered by (0, 1, ..., 1).

    Zero iff the points are affinely dependent: d+1 points on a hyperplane.
    """
    rows = [[0] + [1] * len(idxs)]
    rows += [[1] + [dist[i][j] for j in idxs] for i in idxs]
    return det_exact(rows)


def _volume(dist, denominator, idxs) -> int | bytes:
    """Key of the squared d-volume (-1)^(d+1) CM / ``denominator`` = |CM| / (2^d (d!)^2 L^(2d))."""
    return ratio_key(abs(_cayley_menger(dist, idxs)), denominator)


def _circumradius(dist, denominator, idxs) -> int | bytes:
    """The key of the squared circumradius -2 det D / (CM ``denominator``), that is 4 L^2.

    D is the integer distance matrix and CM its bordered form; the ratio is positive.
    """
    return ratio_key(2 * abs(det_exact([[dist[i][j] for j in idxs] for i in idxs])),
                     denominator * abs(_cayley_menger(dist, idxs)))


def _plane_circumradius(pts, dist, denominator, idxs) -> int | bytes:
    """The key of the squared circumradius of a triangle of integer points scaled by L.

    R^2 = |ab|^2 |ac|^2 |bc|^2 / (4 cross^2 L^2), where cross = (b - a) x (c - a)
    is twice the signed area and ``denominator`` is 4 L^2.
    """
    a, b, c = idxs
    (ax, ay), (bx, by), (cx, cy) = pts[a], pts[b], pts[c]
    cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    row = dist[a]
    return ratio_key(row[b] * row[c] * dist[b][c], denominator * cross * cross)


def _plane_similarity(dist, idxs) -> bytes:
    """The key of the triangle's squared sides in ascending order, each over twice their sum.

    Every order of the sides is some ordering of the vertices, so this is
    ``_similarity``'s key on three points.
    """
    a, b, c = idxs
    row = dist[a]
    s1, s2, s3 = sorted((row[b], row[c], dist[b][c]))
    total = 2 * (s1 + s2 + s3)
    return b"(%s,%s,%s)" % (ratio_key(s1, total), ratio_key(s2, total), ratio_key(s3, total))


def _similarity(dist, idxs) -> bytes:
    """The key of the least squared-distance tuple over orderings of the points, over their total.

    That total is twice the tuple's sum, so dividing after the minimum keeps its
    order and L cancels.  From three points on, each ratio lies in (0, 1/2), so
    ``ratio_key`` gives bytes, joined as ``canonical_key`` joins a tuple's.
    """
    n = len(idxs)
    least = min(
        tuple(dist[perm[a]][perm[b]] for a in range(n) for b in range(a + 1, n))
        for perm in permutations(idxs)
    )
    total = 2 * sum(least)
    return b"(%s)" % b",".join(ratio_key(x, total) for x in least)


@dataclass(frozen=True)
class PointInstance:
    """A point set in R^d.

    Coordinates must be exact: a float or a bool raises ``ParameterError``.
    General position is not assumed: each geometric colouring checks the
    points it is given.
    """

    dim: int
    points: tuple[Point, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ParameterError("dimension must be at least 1")
        if any(len(p) != self.dim for p in self.points):
            raise ParameterError("point dimension mismatch")
        for c in chain.from_iterable(self.points):
            require_exact(c)
        if len(set(self.points)) != len(self.points):
            raise ParameterError("points must be distinct")

    def __len__(self) -> int:
        return len(self.points)

    def validate(self, sphere: bool = True) -> "PointInstance":
        """The instance itself, once no d+1 points lie on a hyperplane and, if
        ``sphere``, no d+2 on a sphere; ``ValidationError`` names a violation."""
        _require_general_position(self, sphere, DEFAULT_BUDGET)
        return self


def _differences(points, origin) -> list[tuple[int, ...]]:
    return [tuple(a - b for a, b in zip(p, origin)) for p in points]


def _dependent(vectors, r: int) -> bool:
    """True iff some r of the integer vectors, each of dimension r, are linearly dependent.

    An r-subset is decided from its first vector u: the map v -> u_t v - v_t u,
    with u_t != 0 and coordinate t dropped, has kernel span(u), so the subset
    is dependent iff the images of its other r-1 vectors are.  Two vectors are
    dependent iff they share a primitive direction up to sign.
    """
    if len(vectors) < r:
        return False
    if any(not any(v) for v in vectors):
        return True
    if r == 1:
        return False
    if r == 2:
        seen = set()
        for v in vectors:
            g = math.gcd(*v)
            if next(x for x in v if x) < 0:
                g = -g
            direction = tuple(x // g for x in v)
            if direction in seen:
                return True
            seen.add(direction)
        return False
    for i, u in enumerate(vectors):
        t = next(s for s, x in enumerate(u) if x)
        projected = [[u[t] * v[s] - v[t] * u[s] for s in range(r) if s != t]
                     for v in vectors[i + 1:]]
        if _dependent(projected, r - 1):
            return True
    return False


def _integer_points(inst: PointInstance) -> tuple[int, list[tuple[int, ...]]]:
    """The common denominator L of the coordinates, and the points scaled by it.

    Scaling keeps every sphere and hyperplane.
    """
    scale = math.lcm(*(c.denominator for p in inst.points for c in p))
    return scale, [tuple(c.numerator * (scale // c.denominator) for c in p) for p in inst.points]


def _lift(p: tuple[int, ...]) -> tuple[int, ...]:
    """The point (p, |p|^2) over p on the paraboloid one dimension up."""
    return (*p, sum(x * x for x in p))


def _first_violation(inst: PointInstance, sphere: bool, budget: int):
    """First (r+1)-subset, in lexicographic order, whose points lie on a hyperplane of R^r.

    r is d, or d+1 for the points lifted by ``_lift`` when ``sphere``: d+2
    points lie on a common sphere or hyperplane iff their lifts lie on a
    hyperplane (Brown 1979).  r+1 integer points lie on a hyperplane iff
    their differences from the first are linearly dependent (``_dependent``).
    The first anchor whose later points hold such a subset heads the first
    witness, so only the subsets it heads are tested one by one; a valid
    instance tests none.
    """
    n, r = len(inst), inst.dim + 1 if sphere else inst.dim
    if n <= r:
        return None
    # a valid instance hashes at most one direction per r-subset
    what = "sphere check" if sphere else "hyperplane check"
    require_budget(math.comb(n, r), budget, "verify", what, "direction hashes")
    _, pts = _integer_points(inst)
    if sphere:
        pts = list(map(_lift, pts))
    anchor = next((j for j, c in enumerate(pts)
                   if _dependent(_differences(pts[j + 1:], c), r)), None)
    if anchor is None:
        return None
    return next(((anchor,) + rest for rest in combinations(range(anchor + 1, n), r)
                 if _dependent(_differences([pts[i] for i in rest], pts[anchor]), r)), None)


def find_hyperplane_violation(inst: PointInstance, budget: int = DEFAULT_BUDGET):
    """First (d+1)-subset on a hyperplane, as index tuple; None if there is none.

    Decided in integers by hashing directions (``_dependent``): d+1 points lie
    on a hyperplane iff their differences from the first are linearly dependent.
    """
    return _first_violation(inst, False, budget)


def find_sphere_violation(inst: PointInstance, budget: int = DEFAULT_BUDGET):
    """First (d+2)-subset on a common (d-1)-sphere or hyperplane, as index tuple.

    None if there is none; a witness may be cospherical or cohyperplanar.
    Decided in integers as the hyperplane check one dimension up: the points
    are lifted to (p, |p|^2), where a sphere |p|^2 + a.p + b = 0 and a
    hyperplane a.p + b = 0 both become hyperplanes of R^(d+1).
    """
    return _first_violation(inst, True, budget)


def _require_general_position(inst: PointInstance, sphere: bool, budget: int) -> None:
    """Raise ``ValidationError`` naming the first hyperplane or, if ``sphere``, sphere witness."""
    for shape in ("hyperplane", "sphere") if sphere else ("hyperplane",):
        witness = _first_violation(inst, shape == "sphere", budget)
        if witness is not None:
            described = "; ".join("(" + ", ".join(str(c) for c in inst.points[i]) + ")"
                                  for i in witness)
            raise ValidationError(f"points {list(witness)} lie on a {shape}: {described}")


def generate_general_position(n: int, dim: int, seed: int,
                              coord_bound: int | None = None) -> PointInstance:
    """Random integer points with no d+1 on a hyperplane and no d+2 on a sphere.

    Draws uniformly from [0, coord_bound]^dim, rejecting any candidate that
    breaks either condition against the accepted prefix, as the checks
    decide them: by ``_dependent``, on the points and on their lifts.
    coord_bound defaults to 4n^2 for collision head-room.  At most
    DEFAULT_REJECTION_FACTOR * n draws are made before ``BudgetError``.
    Deterministic for a given seed.
    """
    if n < 1:
        raise ParameterError("need at least one point")
    if dim < 1:
        raise ParameterError("dimension must be at least 1")
    if coord_bound is None:
        coord_bound = max(4 * n * n, 4)
    if coord_bound < 1:
        raise ParameterError("coordinate bound must be at least 1")
    max_attempts = DEFAULT_REJECTION_FACTOR * n
    rng = random.Random(seed)
    accepted: list[tuple[int, ...]] = []  # lifted by _lift
    attempts = 0
    while len(accepted) < n:
        if attempts >= max_attempts:
            raise BudgetError(
                f"generator layer: placing {n} points needs more than {attempts} draws "
                f"({len(accepted)}/{n} placed); budget is {max_attempts} draws; "
                f"try a larger coord_bound (currently {coord_bound})"
            )
        attempts += 1
        candidate = _lift(tuple(rng.randint(0, coord_bound) for _ in range(dim)))
        if candidate in accepted:
            continue
        ws = _differences(accepted, candidate)
        if _dependent([w[:dim] for w in ws], dim) or _dependent(ws, dim + 1):
            continue
        accepted.append(candidate)
    return PointInstance(dim=dim, points=tuple(as_point(p[:dim]) for p in accepted))


def circumradius_colouring(inst: PointInstance, budget: int = DEFAULT_BUDGET) -> Colouring:
    """Colour (d+1)-tuples by exact squared circumradius; at most 2 petals per core.

    Refuses points with d+1 on a hyperplane or d+2 on a sphere.
    """
    _require_general_position(inst, True, budget)
    spec = ColouringSpec(k=inst.dim + 1, h=inst.dim, max_petals=2)
    scale, pts = _integer_points(inst)
    kernel = partial(_plane_circumradius, pts) if inst.dim == 2 else _circumradius
    return Colouring(spec, partial(kernel, _distance_matrix(pts), 4 * scale * scale),
                     "circumradius")


def volume_colouring(inst: PointInstance, budget: int = DEFAULT_BUDGET) -> Colouring:
    """Colour (d+1)-tuples by exact squared volume; at most 2d petals per core.

    Refuses points with d+1 on a hyperplane.
    """
    _require_general_position(inst, False, budget)
    spec = ColouringSpec(k=inst.dim + 1, h=inst.dim, max_petals=2 * inst.dim)
    scale, pts = _integer_points(inst)
    denominator = 2 ** inst.dim * (math.factorial(inst.dim) * scale ** inst.dim) ** 2
    return Colouring(spec, partial(_volume, _distance_matrix(pts), denominator), "volume")


def similarity_colouring(inst: PointInstance, budget: int = DEFAULT_BUDGET) -> Colouring:
    """Colour (d+1)-tuples by similarity class; at most 2(d+1)! petals per core.

    Refuses points with d+1 on a hyperplane, and dimension 1: the bound needs
    a core that fixes the scale, and every segment is similar to every other.
    """
    if inst.dim < 2:
        raise ParameterError("the similarity colouring needs d >= 2: all segments are similar")
    _require_general_position(inst, False, budget)
    spec = ColouringSpec(k=inst.dim + 1, h=inst.dim, max_petals=2 * math.factorial(inst.dim + 1))
    kernel = _plane_similarity if inst.dim == 2 else _similarity
    dist = _distance_matrix(_integer_points(inst)[1])
    return Colouring(spec, partial(kernel, dist), "similarity")


def points_to_obj(inst: PointInstance) -> dict:
    """JSON-ready form: rationals as decimal strings, paired numerator/denominator."""
    return {
        "type": "points",
        "d": inst.dim,
        "coords": [
            [[str(c.numerator), str(c.denominator)] for c in p] for p in inst.points
        ],
    }


def points_from_obj(obj: dict) -> PointInstance:
    """Parse the JSON form; general position is checked by the colourings, not here."""
    if obj.get("type") != "points":
        raise ParameterError(f"expected a points instance, got type={obj.get('type')!r}")
    dim = int(require_exact(obj["d"]))
    points = tuple(
        tuple(Fraction(int(require_exact(num)), int(require_exact(den)))
              for num, den in (require_array(c, 2) for c in require_array(p)))
        for p in require_array(obj["coords"])
    )
    return PointInstance(dim=dim, points=points)
