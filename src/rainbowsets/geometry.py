"""Exact rational geometry colourings: circumradius, volume, similarity type.

General position is decided in integers, on the points scaled by their
common denominator.  In the plane, circumradius and similarity colours are
closed forms in those integer points; volume at any dimension, and the other
two colourings above the plane, take Fraction Cayley-Menger determinants.
Every colour is an exact Fraction or tuple of Fractions and there is no
floating-point path anywhere, so colour equality is genuine equality of the
underlying geometric quantity.
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

Point = tuple[Fraction, ...]

DEFAULT_REJECTION_FACTOR = 1000  # generator gives up after this many draws per point


def as_point(coords) -> Point:
    return tuple(Fraction(c) for c in coords)


def squared_distance(p: Point, q: Point) -> Fraction:
    return sum((a - b) * (a - b) for a, b in zip(p, q))


def det_exact(matrix: list[list[Fraction]]) -> Fraction:
    """Determinant by fraction Gaussian elimination with pivot search."""
    m = [list(row) for row in matrix]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = Fraction(1) / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                factor = m[r][col] * inv
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return det


def _distance_matrix(pts) -> list[list]:
    return [[squared_distance(p, q) for q in pts] for p in pts]


def _cayley_menger(dist, idxs) -> Fraction:
    """Determinant of the chosen points' distance matrix bordered by (0, 1, ..., 1).

    Zero iff the points are affinely dependent: d+1 points on a hyperplane.
    """
    rows = [[Fraction(0)] + [Fraction(1)] * len(idxs)]
    rows += [[Fraction(1)] + [dist[i][j] for j in idxs] for i in idxs]
    return det_exact(rows)


def _volume(dist, idxs) -> Fraction:
    """Squared d-volume of the simplex: (-1)^(d+1) / (2^d (d!)^2) times the bordered determinant."""
    d = len(idxs) - 1
    coefficient = Fraction((-1) ** (d + 1), (2 ** d) * math.factorial(d) ** 2)
    return coefficient * _cayley_menger(dist, idxs)


def _circumradius(dist, idxs) -> Fraction:
    """Squared circumradius -det D / (2 det M), D the distance matrix and M its bordered form."""
    return -det_exact([[dist[i][j] for j in idxs] for i in idxs]) / (2 * _cayley_menger(dist, idxs))


def _plane_circumradius(pts, dist, denominator, idxs) -> Fraction:
    """Squared circumradius of a triangle of integer points scaled by L.

    R^2 = |ab|^2 |ac|^2 |bc|^2 / (4 cross^2 L^2), where cross = (b - a) x (c - a)
    is twice the signed area and ``denominator`` is 4 L^2.
    """
    a, b, c = idxs
    (ax, ay), (bx, by), (cx, cy) = pts[a], pts[b], pts[c]
    cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    row = dist[a]
    return Fraction(row[b] * row[c] * dist[b][c], denominator * cross * cross)


def _plane_similarity(dist, idxs) -> tuple[Fraction, ...]:
    """The triangle's squared sides in ascending order, each over twice their sum.

    Every order of the sides is some ordering of the vertices, so this is
    ``_similarity_profile``'s least tuple; the scale L cancels.
    """
    a, b, c = idxs
    row = dist[a]
    s1, s2, s3 = sorted((row[b], row[c], dist[b][c]))
    total = 2 * (s1 + s2 + s3)
    return Fraction(s1, total), Fraction(s2, total), Fraction(s3, total)


def _similarity_profile(dist, idxs) -> tuple[Fraction, ...]:
    """The least squared-distance tuple over orderings of the points, over their total.

    The total is positive, so dividing after the minimum keeps its order.
    """
    n = len(idxs)
    least = min(
        tuple(dist[perm[a]][perm[b]] for a in range(n) for b in range(a + 1, n))
        for perm in permutations(idxs)
    )
    total = sum(dist[i][j] for i in idxs for j in idxs)
    return tuple(x / total for x in least)


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


def _cospherical(ws, d: int) -> bool:
    """True iff the origin and some d+1 of the nonzero integer vectors ws are cospherical.

    A hyperplane counts as a sphere here.  Inversion about the origin,
    w -> w / |w|^2, maps every sphere or hyperplane through it to a
    hyperplane, so this holds iff d+1 images are affinely dependent: iff, for
    the first of them w_j, the differences of the others from it are
    linearly dependent.  The difference w_i/n_i - w_j/n_j, with n = |w|^2, is
    n_j w_i - n_i w_j over the positive n_i n_j.
    """
    norms = [sum(x * x for x in w) for w in ws]
    return any(
        _dependent([[nj * a - ni * b for a, b in zip(wi, wj)]
                    for wi, ni in zip(ws[j + 1:], norms[j + 1:])], d)
        for j, (wj, nj) in enumerate(zip(ws, norms))
    )


def _integer_points(inst: PointInstance) -> tuple[int, list[tuple[int, ...]]]:
    """The common denominator L of the coordinates, and the points scaled by it.

    Scaling keeps every sphere and hyperplane.
    """
    scale = math.lcm(*(c.denominator for p in inst.points for c in p))
    return scale, [tuple(c.numerator * (scale // c.denominator) for c in p) for p in inst.points]


def _first_violation(inst: PointInstance, size: int, what: str, exists, budget: int):
    """First size-subset, in lexicographic order, on which ``exists`` finds a violation.

    ``exists(ws, d)`` holds iff an anchor point and some size-1 of the points
    given as differences ws from it violate general position.  The first
    anchor for which it holds over the later points heads the first witness,
    so only the subsets it heads are tested one by one; a valid instance
    tests none.
    """
    n = len(inst)
    if n < size:
        return None
    # a valid instance hashes at most one direction per (size-1)-subset
    require_budget(math.comb(n, size - 1), budget, "verify", what, "direction hashes")
    _, pts = _integer_points(inst)
    anchor = next((j for j, c in enumerate(pts)
                   if exists(_differences(pts[j + 1:], c), inst.dim)), None)
    if anchor is None:
        return None
    return next(((anchor,) + rest for rest in combinations(range(anchor + 1, n), size - 1)
                 if exists(_differences([pts[i] for i in rest], pts[anchor]), inst.dim)), None)


def find_hyperplane_violation(inst: PointInstance, budget: int = DEFAULT_BUDGET):
    """First (d+1)-subset on a hyperplane, as index tuple; None if there is none.

    Decided in integers by hashing directions (``_dependent``): d+1 points lie
    on a hyperplane iff their differences from the first are linearly dependent.
    """
    return _first_violation(inst, inst.dim + 1, "hyperplane check", _dependent, budget)


def find_sphere_violation(inst: PointInstance, budget: int = DEFAULT_BUDGET):
    """First (d+2)-subset on a common (d-1)-sphere or hyperplane, as index tuple.

    None if there is none; a witness may be cospherical or cohyperplanar.
    Decided in integers by inversion about the first point and hashing
    directions (``_cospherical``).
    """
    return _first_violation(inst, inst.dim + 2, "sphere check", _cospherical, budget)


def _require_general_position(inst: PointInstance, sphere: bool, budget: int) -> None:
    """Raise ``ValidationError`` naming the first hyperplane or, if ``sphere``, sphere witness."""
    checks = [("hyperplane", find_hyperplane_violation)]
    if sphere:
        checks.append(("sphere", find_sphere_violation))
    for shape, find in checks:
        witness = find(inst, budget=budget)
        if witness is not None:
            described = "; ".join("(" + ", ".join(str(c) for c in inst.points[i]) + ")"
                                  for i in witness)
            raise ValidationError(f"points {list(witness)} lie on a {shape}: {described}")


def generate_general_position(n: int, dim: int, seed: int,
                              coord_bound: int | None = None) -> PointInstance:
    """Random integer points with no d+1 on a hyperplane and no d+2 on a sphere.

    Draws uniformly from [0, coord_bound]^dim, rejecting any candidate that
    breaks either condition against the accepted prefix.  coord_bound
    defaults to 4n^2 for collision head-room.  At most
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
    accepted: list[tuple[int, ...]] = []
    attempts = 0
    while len(accepted) < n:
        if attempts >= max_attempts:
            raise BudgetError(
                f"generator layer: placing {n} points needs more than {attempts} draws "
                f"({len(accepted)}/{n} placed); budget is {max_attempts} draws; "
                f"try a larger coord_bound (currently {coord_bound})"
            )
        attempts += 1
        candidate = tuple(rng.randint(0, coord_bound) for _ in range(dim))
        if candidate in accepted:
            continue
        ws = _differences(accepted, candidate)
        if _dependent(ws, dim) or _cospherical(ws, dim):
            continue
        accepted.append(candidate)
    return PointInstance(dim=dim, points=tuple(as_point(p) for p in accepted))


def circumradius_colouring(inst: PointInstance, budget: int = DEFAULT_BUDGET) -> Colouring:
    """Colour (d+1)-tuples by exact squared circumradius; at most 2 petals per core.

    Refuses points with d+1 on a hyperplane or d+2 on a sphere.
    """
    _require_general_position(inst, True, budget)
    spec = ColouringSpec(k=inst.dim + 1, h=inst.dim, max_petals=2)
    if inst.dim == 2:
        scale, pts = _integer_points(inst)
        evaluator = partial(_plane_circumradius, pts, _distance_matrix(pts), 4 * scale * scale)
    else:
        evaluator = partial(_circumradius, _distance_matrix(inst.points))
    return Colouring(spec, evaluator, "circumradius")


def volume_colouring(inst: PointInstance, budget: int = DEFAULT_BUDGET) -> Colouring:
    """Colour (d+1)-tuples by exact squared volume; at most 2d petals per core.

    Refuses points with d+1 on a hyperplane.
    """
    _require_general_position(inst, False, budget)
    spec = ColouringSpec(k=inst.dim + 1, h=inst.dim, max_petals=2 * inst.dim)
    return Colouring(spec, partial(_volume, _distance_matrix(inst.points)), "volume")


def similarity_colouring(inst: PointInstance, budget: int = DEFAULT_BUDGET) -> Colouring:
    """Colour (d+1)-tuples by similarity class; at most 2(d+1)! petals per core.

    Refuses points with d+1 on a hyperplane.
    """
    _require_general_position(inst, False, budget)
    spec = ColouringSpec(k=inst.dim + 1, h=inst.dim, max_petals=2 * math.factorial(inst.dim + 1))
    if inst.dim == 2:
        evaluator = partial(_plane_similarity, _distance_matrix(_integer_points(inst)[1]))
    else:
        evaluator = partial(_similarity_profile, _distance_matrix(inst.points))
    return Colouring(spec, evaluator, "similarity")


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
