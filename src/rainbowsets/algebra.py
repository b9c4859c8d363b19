"""Algebraic colourings: symmetric bivariate polynomials and Sidon differences.

Polynomials live over the exact rationals or a prime field GF(p); integer
instances use arbitrary precision throughout, so nothing overflows and colour
equality is exact.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, filterfalse, repeat

from .errors import ParameterError, ValidationError, require_array, require_exact
from .hypergraph import Colouring, ColouringSpec

RATIONALS = "Q"

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# The Sidon scan keeps its refusal map only while the values span at most
# this many times their count; see sidon_colouring.
_MAP_SPAN = 8
_BITS = bytes.maketrans(b"01", b"\0\1")


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all 64-bit (and then some) inputs."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class SymPoly:
    """A symmetric bivariate polynomial as a coefficient map (i, j) -> c.

    ``field`` is "Q" for the rationals or a prime modulus.  Coefficients are
    normalized (reduced mod p, zeros dropped) and must satisfy c[i][j] ==
    c[j][i]; the total degree must be exactly ``degree``.

    Writing p(x, y) = sum_i q_i(y) x^i, ``pivot_power`` is the smallest
    i >= 1 with q_i not formally zero.  It always exists: a monomial x^i y^j
    with i + j >= 1 has i >= 1 or, by symmetry, a mirror x^j y^i with j >= 1.
    """

    def __init__(self, field, coeffs: dict):
        if field != RATIONALS:
            field = int(field)
            if not is_prime(field):
                raise ParameterError(f"modulus {field} is not prime")
        self.field = field
        normalized: dict[tuple[int, int], object] = {}
        for (i, j), c in coeffs.items():
            if i < 0 or j < 0:
                raise ParameterError("monomial exponents must be nonnegative")
            value = self.element(c)
            if value != 0:
                normalized[(int(i), int(j))] = value
        if not normalized:
            raise ParameterError("polynomial must be nonzero of degree at least 1")
        for (i, j), c in normalized.items():
            if normalized.get((j, i)) != c:
                raise ParameterError(f"coefficients not symmetric at ({i},{j})")
        self.degree = max(i + j for i, j in normalized)
        if self.degree < 1:
            raise ParameterError("polynomial degree must be at least 1")
        self.coeffs = dict(sorted(normalized.items()))
        self.pivot_power = min(i for i, _ in self.coeffs if i >= 1)

    def element(self, value):
        """Coerce an exact scalar into the field (Fraction over Q, residue mod p).

        Floats and bools are refused in both fields, and non-integral
        rationals over GF(p), so no value is rounded or truncated on the way in.
        """
        value = Fraction(require_exact(value))
        if self.field == RATIONALS:
            return value
        if value.denominator != 1:
            raise ParameterError(f"{value} is not an integer, so not a residue mod {self.field}")
        return value.numerator % self.field

    def pair_evaluator(self, values):
        """The map ``(a, b) -> p(values[a], values[b])`` on field elements, in integers.

        The values are scaled by their common denominator L and the
        coefficients by theirs, D, so each term becomes an integer multiple of
        1 / (D * L**degree); over GF(p), L = D = 1 and the total is reduced
        mod p.  Powers of every value are computed once.
        """
        degree = self.degree
        scale = math.lcm(*(v.denominator for v in values))
        clear = math.lcm(*(c.denominator for c in self.coeffs.values()))
        terms = [(i, j, (c * clear).numerator * scale ** (degree - i - j))
                 for (i, j), c in self.coeffs.items()]
        xs = [v.numerator * (scale // v.denominator) for v in values]
        powers = [[x**e for e in range(degree + 1)] for x in xs]
        if self.field == RATIONALS:
            denominator = clear * scale**degree

            def finish(total):
                return Fraction(total, denominator)
        else:
            p = self.field

            def finish(total):
                return total % p

        def evaluator(ids: tuple[int, ...]):
            xa, xb = powers[ids[0]], powers[ids[1]]
            return finish(sum([c * xa[i] * xb[j] for i, j, c in terms]))

        return evaluator

    def vanishes(self, y) -> bool:
        """Whether q_pivot, the y-polynomial multiplying x**pivot_power, is zero at y."""
        y = self.element(y)
        total = sum(c * y**j for (i, j), c in self.coeffs.items() if i == self.pivot_power)
        return total == 0 if self.field == RATIONALS else total % self.field == 0

    @property
    def label(self) -> str:
        where = "Q" if self.field == RATIONALS else f"GF({self.field})"
        return f"poly-d{self.degree}-{where}"


@dataclass(frozen=True)
class PolyGround:
    """A ground set prepared for polynomial colouring: ``kept`` are the usable values."""

    poly: SymPoly
    kept: tuple


def poly_prepare(poly: SymPoly, values) -> PolyGround:
    """Drop the values where the pivot coefficient polynomial vanishes.

    The dropped values are the zero set of q_pivot (see ``SymPoly``) inside
    the input, so there are at most deg(q_pivot) <= degree - 1 of them; for
    every kept value y0, p(x, y0) is a nonconstant polynomial in x of degree
    at most the total degree, which is what bounds the petals of the
    colouring.  q_pivot is evaluated once per value.
    """
    elements = [poly.element(v) for v in values]
    if len(set(elements)) != len(elements):
        raise ParameterError("ground values must be distinct in the field")
    return PolyGround(poly=poly, kept=tuple(v for v in elements if not poly.vanishes(v)))


def poly_colouring(prepared: PolyGround) -> Colouring:
    """Colour pairs {a, b} of the prepared values by the value p(a, b).

    At most ``degree`` same-coloured pairs can share a point, hence the petal
    bound.  Raises if the kept values were not actually prepared (some value
    still zeroes the pivot coefficient polynomial).
    """
    poly = prepared.poly
    for v in prepared.kept:
        if poly.vanishes(v):
            raise ValidationError(f"value {v} was not prepared out (pivot polynomial vanishes)")
    spec = ColouringSpec(k=2, h=1, max_petals=poly.degree)
    return Colouring(spec=spec, evaluator=poly.pair_evaluator(prepared.kept), label=poly.label)


@dataclass(frozen=True)
class IntegerInstance:
    """A strictly increasing tuple of positive integers; a float or a bool is refused.

    Each check runs at C speed, since ground sets reach 10^6 values.
    """

    values: tuple[int, ...]

    def __post_init__(self):
        values = self.values
        if not values:
            raise ParameterError("need at least one value")
        if any(issubclass(kind, (float, bool)) for kind in set(map(type, values))):
            for v in values:
                require_exact(v)
        if min(values) < 1:
            raise ParameterError("values must be positive")
        if not all(map(operator.lt, values, values[1:])):
            raise ParameterError("values must be strictly increasing")

    def __len__(self) -> int:
        return len(self.values)


def sidon_colouring(inst: IntegerInstance) -> Colouring:
    """Colour pairs {x, y} by |x - y|; each difference repeats at most twice through a point.

    The row form subtracts at C speed: the values increase, so no ``abs`` is
    needed.  The scan works on offsets from the least value, the ids
    themselves when the values are consecutive.  Its exact test is the
    default scan's at C speed: a candidate's differences with the chosen
    offsets meet ``used``, stopping at the first clash, and only a candidate
    that passes builds their set, whose size falls short when the candidate
    is the midpoint of two chosen offsets.

    While the values span at most ``_MAP_SPAN`` = 8 times their count, a
    refusal map over the span goes in front of that test.  It marks every
    offset at a used difference from a chosen one, and ``filterfalse``
    skips the marked candidates at C speed.  The map is rebuilt only after
    the scan has taken in 1, 2, 4, ... candidates: packed marks, one bit per
    offset, set bits span + u and span - u for each used difference u; the
    map is the OR of their mask (``int.from_bytes``) shifted by each chosen
    offset, read back through ``format(..., "b")``.  A map out of date is
    never wrong: ``chosen`` and ``used`` only grow, so the exact test would
    still refuse a marked candidate.  The rebuilds cost more as the span
    widens: with the values spread at random over 8 times their count, the
    map won by 12-24 % at every count from 10^4 to 10^6, and over 10 to 16
    times it won or lost from run to run.
    """
    values = inst.values
    spec = ColouringSpec(k=2, h=1, max_petals=2)
    lo, span = values[0], values[-1] - values[0]
    mapped = span <= _MAP_SPAN * len(values)

    def evaluator(ids: tuple[int, ...]):
        return abs(values[ids[1]] - values[ids[0]])

    def rows(ids):
        xs = list(map(values.__getitem__, ids))
        return chain.from_iterable(map(operator.sub, xs[i + 1:], repeat(x))
                                   for i, x in enumerate(xs))

    def scan(seq):
        candidates = (seq if span == len(values) - 1 else
                      list(map(operator.sub, map(values.__getitem__, seq), repeat(lo))))
        chosen: list[int] = []
        used: set = set()

        def take(x: int) -> set:
            """The new differences if the offset x is taken, else the empty set."""
            if used.isdisjoint(map(abs, map(operator.sub, repeat(x), chosen))):
                differences = set(map(abs, map(operator.sub, repeat(x), chosen)))
                if len(differences) == len(chosen):
                    chosen.append(x)
                    used.update(differences)
                    return differences
            return set()

        if not mapped:
            for x in candidates:
                take(x)
        else:
            marks = bytearray(span // 4 + 1)  # bits span - u and span + u for each used u
            window = (1 << (span + 1)) - 1
            refused = bytes(span + 1)
            start = 0
            while start < len(candidates):
                stop = 2 * start or 1
                for x in filterfalse(refused.__getitem__, candidates[start:stop]):
                    for d in take(x):
                        for b in (span - d, span + d):
                            marks[b >> 3] |= 1 << (b & 7)
                start = stop
                if start < len(candidates):
                    mask = int.from_bytes(marks, "little")
                    hits = 0
                    for c in chosen:
                        hits |= mask >> c  # bit span - x iff |x - c| is used
                    bits = format(hits & window, f"0{span + 1}b")  # character x is bit span - x
                    refused = bits.encode().translate(_BITS)
        return [bisect_left(values, lo + x) for x in chosen]

    return Colouring(spec=spec, evaluator=evaluator, label="sidon", rows=rows, scan=scan)


def integers_to_obj(inst: IntegerInstance) -> dict:
    """JSON-ready form with values as decimal strings (arbitrary precision safe)."""
    return {"type": "integers", "values": [str(v) for v in inst.values]}


def integers_from_obj(obj: dict) -> IntegerInstance:
    if obj.get("type") != "integers":
        raise ParameterError(f"expected an integers instance, got type={obj.get('type')!r}")
    values = require_array(obj["values"])
    return IntegerInstance(values=tuple(int(require_exact(v)) for v in values))


def sympoly_from_obj(obj: dict) -> SymPoly:
    if obj.get("type") != "sympoly":
        raise ParameterError(f"expected a sympoly, got type={obj.get('type')!r}")
    field = obj["field"]
    if field != "Q":
        field = int(require_exact(field["GF"]))
    coeffs: dict[tuple[int, int], object] = {}
    for i, j, c in (require_array(term, 3) for term in require_array(obj["coeffs"])):
        value = (Fraction if field == "Q" else int)(require_exact(c))
        key = (int(require_exact(i)), int(require_exact(j)))
        if key in coeffs and coeffs[key] != value:
            raise ParameterError(f"conflicting coefficients for monomial {key}")
        coeffs[key] = value
        mirror = (key[1], key[0])
        if mirror not in coeffs:
            coeffs[mirror] = value
    poly = SymPoly(field, coeffs)
    declared = int(require_exact(obj["degree"]))
    if poly.degree != declared:
        raise ParameterError(f"declared degree {declared} but coefficients give {poly.degree}")
    return poly
