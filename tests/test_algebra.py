import dataclasses
from enum import IntEnum
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from helpers import all_subsets, canonical_key, colour_key, direct_poly_value, is_sidon
from rainbowsets.algebra import (
    _MAP_SPAN,
    IntegerInstance,
    PolyGround,
    SymPoly,
    integers_from_obj,
    integers_to_obj,
    is_prime,
    poly_colouring,
    poly_prepare,
    sidon_colouring,
    sympoly_from_obj,
)
from rainbowsets.engine import exact_max_rainbow, verify_rainbow
from rainbowsets.errors import ParameterError, ValidationError
from rainbowsets.hypergraph import GroundSet, validate_lambda

X_PLUS_Y = {(1, 0): 1, (0, 1): 1}
XY = {(1, 1): 1}
X2_PLUS_Y2 = {(2, 0): 1, (0, 2): 1}
X2Y_PLUS_XY2 = {(2, 1): 1, (1, 2): 1}


# ----------------------------------------------------------- SymPoly


def test_sympoly_validation():
    with pytest.raises(ParameterError):
        SymPoly("Q", {(1, 0): 1})  # not symmetric
    with pytest.raises(ParameterError):
        SymPoly("Q", {(0, 0): 3})  # degree 0
    with pytest.raises(ParameterError):
        SymPoly(6, X_PLUS_Y)  # modulus not prime
    with pytest.raises(ParameterError):
        SymPoly("Q", {})
    poly = SymPoly("Q", {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 2), (2, 2): 0})
    assert poly.degree == 1  # zero coefficients dropped before the degree is read


def test_sympoly_mod_reduction():
    poly = SymPoly(5, {(1, 0): 7, (0, 1): 7})
    assert poly.coeffs == {(0, 1): 2, (1, 0): 2}
    assert poly.pair_evaluator((2, 4))((0, 1)) == (2 * 2 + 2 * 4) % 5


def test_sympoly_refuses_inexact_coefficients():
    # truncating to the integer part would silently turn 1/2 into 0 and 2.9 into 2
    with pytest.raises(ParameterError, match="not an integer"):
        SymPoly(7, {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 2), (1, 1): 1})
    with pytest.raises(ParameterError, match="float"):
        SymPoly(7, {(1, 1): 2.9})
    with pytest.raises(ParameterError, match="float"):
        SymPoly("Q", {(1, 1): 0.1})  # would enter as a binary fraction
    assert SymPoly(7, {(1, 1): Fraction(6, 2)}).coeffs == {(1, 1): 3}


def test_sympoly_refuses_bools():
    # a bool would otherwise enter as 0 or 1 and build x + y here
    with pytest.raises(ParameterError, match="bool True is not an exact number"):
        SymPoly("Q", {(1, 0): True, (0, 1): True})
    with pytest.raises(ParameterError, match="bool"):
        poly_prepare(SymPoly(5, X_PLUS_Y), [1, False])


def test_prepare_refuses_inexact_values():
    with pytest.raises(ParameterError, match="not an integer"):
        poly_prepare(SymPoly(5, X_PLUS_Y), [1, Fraction(1, 2)])  # not 0
    with pytest.raises(ParameterError, match="float"):
        poly_prepare(SymPoly("Q", X_PLUS_Y), [1, 0.1])
    assert poly_prepare(SymPoly(5, X_PLUS_Y), [1, Fraction(6, 2)]).kept == (1, 3)


def test_is_prime():
    primes = [2, 3, 5, 7, 97, 7919, 2**61 - 1]
    composites = [0, 1, 4, 6, 91, 7917, 2**61 - 3]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(c) for c in composites)


# ------------------------------------------------------- poly_prepare


def test_prepare_x_plus_y():
    prep = poly_prepare(SymPoly("Q", X_PLUS_Y), [1, 2, 3, 4])
    assert prep.poly.pivot_power == 1
    assert prep.kept == (1, 2, 3, 4)
    assert [f.name for f in dataclasses.fields(prep)] == ["poly", "kept"]


def test_prepare_xy_drops_zero():
    prep = poly_prepare(SymPoly("Q", XY), [0, 1, 2])
    assert prep.poly.pivot_power == 1
    assert prep.kept == (1, 2)  # 0 dropped


def test_prepare_x2y_plus_xy2():
    prep = poly_prepare(SymPoly("Q", X2Y_PLUS_XY2), [-1, 0, 1, 2])
    assert prep.poly.pivot_power == 1  # q_1(y) = y^2
    assert prep.kept == (-1, 1, 2)  # 0 dropped


@pytest.mark.parametrize("field, sign, values, kept, removed", [
    (5, 1, range(5), (0, 1, 4), (2, 3)),          # q_2(y) = y^2 + 1 = (y - 2)(y - 3) mod 5
    ("Q", -1, range(-3, 4), (-3, -2, 0, 2, 3), (-1, 1)),   # q_2(y) = y^2 - 1
], ids=["gf5", "Q"])
def test_prepare_pivot_power_two(field, sign, values, kept, removed):
    # x^2 y^2 + s x^2 + s y^2 has no x^1 term, so the pivot is x^2
    poly = SymPoly(field, {(2, 2): 1, (2, 0): sign, (0, 2): sign})
    prep = poly_prepare(poly, list(values))
    assert poly.pivot_power == 2
    assert prep.kept == kept
    assert sorted(set(values) - set(prep.kept)) == list(removed)


def test_prepare_zero_set_is_small():
    import random

    rng = random.Random(2)
    for _ in range(20):
        degree = rng.randint(1, 4)
        coeffs = {}
        for i in range(degree + 1):
            for j in range(degree + 1 - i):
                c = rng.randint(-2, 2)
                coeffs[(i, j)] = c
                coeffs[(j, i)] = c
        if all(v == 0 for (i, j), v in coeffs.items() if i + j == degree):
            coeffs[(degree, 0)] = coeffs[(0, degree)] = 1
        try:
            poly = SymPoly("Q", coeffs)
        except ParameterError:
            continue
        values = list(range(-10, 11))
        prep = poly_prepare(poly, values)
        assert len(values) - len(prep.kept) <= poly.degree


def test_prepare_rejects_duplicates():
    with pytest.raises(ParameterError):
        poly_prepare(SymPoly(5, X_PLUS_Y), [1, 6])  # equal mod 5


# ----------------------------------------------------- poly_colouring


def test_poly_colouring_values():
    prep = poly_prepare(SymPoly("Q", X_PLUS_Y), [1, 2, 3])
    c = poly_colouring(prep)
    assert c.evaluator((0, 1)) == 3
    assert canonical_key(c.evaluator((0, 1))) == b"3"
    assert (c.spec.k, c.spec.h, c.spec.max_petals) == (2, 1, 1)


def test_poly_colouring_gf5():
    prep = poly_prepare(SymPoly(5, XY), [1, 2, 3, 4])
    c = poly_colouring(prep)
    ids = {v: i for i, v in enumerate(prep.kept)}
    assert c.evaluator((ids[2], ids[4])) == 3  # 8 mod 5


def test_poly_colouring_symmetric_keys():
    prep = poly_prepare(SymPoly("Q", X2_PLUS_Y2), list(range(1, 9)))
    c = poly_colouring(prep)
    for a, b in combinations(range(len(prep.kept)), 2):
        x, y = prep.kept[a], prep.kept[b]
        assert c.evaluator((a, b)) == c.evaluator((b, a)) == x * x + y * y


def test_poly_colouring_rejects_unprepared():
    poly = SymPoly("Q", XY)
    fake = PolyGround(poly=poly, kept=(Fraction(0), Fraction(1)))
    with pytest.raises(ValidationError):
        poly_colouring(fake)


def test_poly_colouring_is_pure():
    import random

    rng = random.Random(17)
    prep = poly_prepare(SymPoly(11, {(1, 1): 4, (2, 0): 1, (0, 2): 1}), list(range(1, 9)))
    c = poly_colouring(prep)
    coeffs = prep.poly.coeffs
    for _ in range(20):
        a, b = sorted(rng.sample(range(len(prep.kept)), 2))
        expected = direct_poly_value(coeffs, prep.kept[a], prep.kept[b], 11)
        assert c.evaluator((a, b)) == c.evaluator((a, b)) == expected


@st.composite
def poly_cases(draw):
    """A symmetric polynomial's coefficient map, its field and distinct ground values."""
    field = draw(st.sampled_from(["Q", 2, 3, 7, 101]))
    degree = draw(st.integers(1, 4))
    if field == "Q":
        coefficient = st.fractions(-5, 5, max_denominator=6)
        value = st.integers(-40, 40) | st.fractions(-10, 10, max_denominator=7)
        same = Fraction
    else:
        coefficient = value = st.integers(-300, 300)

        def same(v):
            return v % field
    coeffs = {}
    for i in range(degree + 1):
        for j in range(i, degree + 1 - i):
            coeffs[(i, j)] = coeffs[(j, i)] = draw(coefficient)
    values = draw(st.lists(value, min_size=2, max_size=9, unique_by=same))
    return field, coeffs, values


@settings(max_examples=300, deadline=None)
@given(case=poly_cases())
@example(case=("Q", {(1, 1): Fraction(-2, 3), (1, 0): 3, (0, 1): 3, (2, 0): Fraction(1, 2),
                     (0, 2): Fraction(1, 2)}, [Fraction(-1, 2), Fraction(5, 3), 4, -7]))
@example(case=(7, {(1, 1): -3, (2, 0): 9, (0, 2): 9}, [-8, 3, 250]))
def test_poly_colouring_matches_direct_evaluation(case):
    field, coeffs, values = case
    try:
        poly = SymPoly(field, coeffs)
        prep = poly_prepare(poly, values)
    except ParameterError:
        reject()  # zero after reduction mod p, or of degree 0
    c = poly_colouring(prep)
    modulus = None if field == "Q" else field
    raw = {Fraction(v) if field == "Q" else v % field: v for v in values}
    for a, b in combinations(range(len(prep.kept)), 2):
        expected = direct_poly_value(coeffs, raw[prep.kept[a]], raw[prep.kept[b]], modulus)
        key, want = c.evaluator((a, b)), colour_key(expected)
        assert key == want
        assert type(key) is type(want)


@settings(max_examples=300, deadline=None)
@given(case=poly_cases())
@example(case=("Q", X_PLUS_Y, [-2, 2, 5]))  # totals 0, 3 and 7
@example(case=("Q", X_PLUS_Y, [-9, 2, Fraction(-7, 3)]))  # negative: -7, -34/3, -1/3
@example(case=("Q", {(1, 1): Fraction(-1, 2), (1, 0): 1, (0, 1): 1}, [Fraction(4, 3), 2, -6]))
@example(case=(101, {(2, 0): 1, (0, 2): 1, (1, 1): -2}, [3, 50, -7]))  # (x - y)^2 mod 101
def test_kernel_keys_match_the_definitions(case):
    # a polynomial colour's key over Q is its integer total reduced over the
    # colouring's constant denominator: the int when the value is integral,
    # 0 and negatives included, else b"n/d" with the sign on n; over GF(p)
    # it is the residue.  Every whole-set key equals the key of the value
    # summed term by term, in value and type, and so does each Sidon key
    field, coeffs, values = case
    try:
        prep = poly_prepare(SymPoly(field, coeffs), values)
    except ParameterError:
        reject()  # zero after reduction mod p, of degree 0, or values equal mod p
    modulus = None if field == "Q" else field
    raw = {Fraction(v) if field == "Q" else v % field: v for v in values}
    edges = list(combinations(range(len(prep.kept)), 2))
    want = [colour_key(direct_poly_value(coeffs, raw[prep.kept[a]], raw[prep.kept[b]], modulus))
            for a, b in edges]
    poly = poly_colouring(prep)
    for got in (list(poly.colours(range(len(prep.kept)))), list(map(poly.evaluator, edges))):
        assert got == want
        assert list(map(type, got)) == list(map(type, want))
    integers = sorted({abs(int(v)) + 1 for v in values})
    sidon = sidon_colouring(IntegerInstance(values=tuple(integers)))
    edges = list(combinations(range(len(integers)), 2))
    assert list(sidon.colours(range(len(integers)))) == [
        colour_key(abs(integers[b] - integers[a])) for a, b in edges]
    assert [sidon.evaluator(e) for e in edges] == [
        colour_key(abs(integers[b] - integers[a])) for a, b in edges]


@st.composite
def poly_subsets(draw):
    """A polynomial case with some monomials zeroed, and a mask choosing kept value ids."""
    field, coeffs, values = draw(poly_cases())
    for i, j in draw(st.sets(st.sampled_from(sorted(coeffs)))):
        coeffs[(i, j)] = coeffs[(j, i)] = 0
    return field, coeffs, values, draw(st.integers(0, 2**9 - 1))


@settings(max_examples=200, deadline=None)
@given(case=poly_subsets())
@example(case=(101, {(2, 1): 1, (1, 2): 1, (1, 0): 1, (0, 1): 1}, [3, 50, 7, 99], 0))  # empty
@example(case=(101, {(2, 1): 1, (1, 2): 1, (1, 0): 1, (0, 1): 1}, [3, 50, 7, 99], 4))  # one
@example(case=(101, {(2, 1): 1, (1, 2): 1, (1, 0): 1, (0, 1): 1}, [3, 50, 7, 99], 15))  # all
@example(case=("Q", {(2, 0): 1, (1, 1): Fraction(-1, 2), (0, 2): 1, (0, 0): Fraction(1, 3)},
               [Fraction(-1, 2), 5, 400, Fraction(7, 3)], 2**9 - 1))
@example(case=(7, {(3, 0): 5, (0, 3): 5, (1, 1): 0, (0, 0): 6}, [1, 2, 3, 4, 5, 6], 2**9 - 1))
def test_poly_rows_match_the_evaluator_and_the_definition(case):
    # on any ascending subset of the kept ids, empty, one id or all of them,
    # the row form gives the evaluator's keys, in value and type, and both
    # give the key of p(x, y) summed term by term
    field, coeffs, values, mask = case
    try:
        prep = poly_prepare(SymPoly(field, coeffs), values)
    except ParameterError:
        reject()  # zero after reduction mod p, of degree 0, or values equal mod p
    modulus = None if field == "Q" else field
    raw = {Fraction(v) if field == "Q" else v % field: v for v in values}
    ids = [i for i in range(len(prep.kept)) if mask >> i & 1]
    edges = list(combinations(ids, 2))
    want = [colour_key(direct_poly_value(coeffs, raw[prep.kept[a]], raw[prep.kept[b]], modulus))
            for a, b in edges]
    poly = poly_colouring(prep)
    for got in (list(poly.colours(ids)), list(map(poly.evaluator, edges))):
        assert got == want
        assert list(map(type, got)) == list(map(type, want))


def test_poly_lambda_audit():
    prep = poly_prepare(SymPoly("Q", X2_PLUS_Y2), list(range(1, 11)))
    c = poly_colouring(prep)
    ok, report = validate_lambda(c, GroundSet(len(prep.kept)))
    assert ok
    assert report.petals <= 2


# -------------------------------------------------------------- sidon


def test_sidon_colour_values():
    inst = IntegerInstance(values=(3, 10))
    c = sidon_colouring(inst)
    assert c.evaluator((0, 1)) == 7
    assert canonical_key(c.evaluator((0, 1))) == b"7"


class Mark(IntEnum):
    SEVEN = 7
    HUGE = 2**65 + 3


@st.composite
def values_and_vertices(draw):
    """Strictly increasing values, some past 2**64 or IntEnum members, and ascending ids."""
    values = sorted(draw(st.lists(st.integers(1, 2**70) | st.sampled_from(Mark), min_size=1,
                                  max_size=30, unique=True)))
    vertices = draw(st.lists(st.integers(0, len(values) - 1), max_size=15, unique=True))
    return values, sorted(vertices)


@settings(max_examples=200, deadline=None)
@given(case=values_and_vertices())
@example(case=([1, Mark.SEVEN, 2**64 + 1], [0, 1, 2]))
def test_colours_match_the_evaluator(case):
    # the whole-set entry point gives the evaluator's colour keys, equal in
    # value and type, in combinations order: the Sidon and polynomial row
    # forms, and the default path of a colouring that has none
    values, vertices = case
    poly = poly_colouring(poly_prepare(SymPoly("Q", X_PLUS_Y), values))
    assert poly.rows is not None
    for c in (sidon_colouring(IntegerInstance(values=tuple(values))), poly,
              dataclasses.replace(poly, rows=None)):
        got = list(c.colours(vertices))
        want = [c.evaluator(e) for e in combinations(vertices, 2)]
        assert got == want
        assert list(map(type, got)) == list(map(type, want))


@st.composite
def scan_cases(draw):
    """Increasing values and a scan order: a prefix, maybe empty, of a permutation of their ids.

    The values are drawn from a window of up to 20 times their count, so
    their span falls on both sides of the refusal map's rule, and some lie
    past 2**64.  Small windows make midpoints of two taken values common.
    """
    count = draw(st.integers(1, 30))
    offset = draw(st.just(0) | st.integers(0, 2**70))
    width = draw(st.integers(count, 20 * count))
    values = [offset + x for x in sorted(draw(st.lists(st.integers(1, width), min_size=count,
                                                       max_size=count, unique=True)))]
    ids = draw(st.permutations(range(count)))
    return values, ids[:draw(st.integers(0, count))]


@settings(max_examples=300, deadline=None)
@given(case=scan_cases())
@example(case=([1, 3, 5], [2, 0, 1]))  # 3 is the midpoint of 1 and 5
@example(case=([1, 3, 5, 2**64 + 3], [3, 0, 1, 2]))  # past the map's span rule
@example(case=([2**70 + 1, 2**70 + 3, 2**70 + 5], [0, 2, 1]))
@example(case=([2, 9, 16, 20], [0, 1, 2, 3]))  # 16 = 9 + 7, a used difference: mapped
@example(case=([1, 2, 1 + 3 * _MAP_SPAN], [2, 0, 1]))  # the widest span that is mapped
@example(case=([1, 2, 2 + 3 * _MAP_SPAN], [2, 0, 1]))  # the narrowest that is not
# the least and greatest values first, so the top mark, bit 2 * span, is set: it lies
# just below a byte boundary (2 * span + 1 = 31 bits), on one (33) and past one (35)
@example(case=([1, 9, 11, 12, 16], [0, 4, 2, 1, 3]))
@example(case=([1, 2, 6, 9, 15, 17], [0, 5, 3, 4, 1, 2]))
@example(case=([1, 6, 11, 15, 16, 18], [0, 5, 4, 2, 1, 3]))
@example(case=([5], []))
@example(case=([5], [0]))
# past the map's rebuilds after 16, 256 and 4096 candidates, ending on a block of one
# candidate (test_greedy_sidon_matches_the_reference_scan crosses 4096-candidate blocks)
@example(case=(list(range(1, 4098)), list(range(4096, -1, -1))))
# offsets gathered from values either side of 2**64, mapped, past the rebuild at 16
@example(case=([2**64 - 60 + 7 * i for i in range(20)], [*range(0, 20, 2), *range(1, 20, 2)]))
def test_sidon_scan_matches_the_default_scan(case):
    # the Sidon scan, refusal map or not, takes what the default scan of the
    # same evaluator takes, in the same order
    values, seq = case
    sidon = sidon_colouring(IntegerInstance(values=tuple(values)))
    assert sidon.scan is not None
    assert sidon.greedy_scan(seq) == dataclasses.replace(sidon, scan=None).greedy_scan(seq)


def test_sidon_lambda_on_range_50():
    inst = IntegerInstance(values=tuple(range(1, 51)))
    ok, report = validate_lambda(sidon_colouring(inst), GroundSet(50))
    assert ok
    assert report.petals <= 2


def test_integer_instance_invariants():
    with pytest.raises(ParameterError):
        IntegerInstance(values=(3, 3, 4))
    with pytest.raises(ParameterError):
        IntegerInstance(values=(5, 4))
    with pytest.raises(ParameterError):
        IntegerInstance(values=(0, 1))
    with pytest.raises(ParameterError):
        IntegerInstance(values=())


def test_integer_instance_refuses_floats_and_bools():
    # a float would become a float colour that greedy compares and verifies
    with pytest.raises(ParameterError, match="float 2.5 is not an exact number"):
        IntegerInstance(values=(1, 2.5, 4))
    with pytest.raises(ParameterError, match="bool True is not an exact number"):
        IntegerInstance(values=(True, 2))
    with pytest.raises(ParameterError, match="float"):
        IntegerInstance(values=(0.5, 1))  # refused as inexact before the positivity check
    with pytest.raises(ParameterError, match="positive"):
        IntegerInstance(values=(0, 2, 1))  # positivity before ordering
    with pytest.raises(ParameterError, match="positive"):
        IntegerInstance(values=(2, 0, 1))  # the least value is not the first when unordered


# ----------------------------------------------------------------- B2


def test_is_b2_examples():
    for values, sidon in (((1, 2, 5, 11), True), ((1, 2, 3), False), ((7,), True)):
        assert is_sidon(values) is sidon
        c = sidon_colouring(IntegerInstance(values=values))
        assert verify_rainbow(c, range(len(values))) is sidon


def test_rainbow_iff_b2():
    values = tuple(range(1, 9))
    c = sidon_colouring(IntegerInstance(values=values))
    for subset in all_subsets(8):
        picked = tuple(values[i] for i in subset)
        expected = is_sidon(picked)
        assert verify_rainbow(c, subset) == expected


def test_engine_outputs_are_b2():
    from rainbowsets.engine import greedy_rainbow, sample_and_delete, SamplePlan

    values = tuple(range(1, 41))
    inst = IntegerInstance(values=values)
    c = sidon_colouring(inst)
    g = GroundSet(40)
    for result in (
        greedy_rainbow(c, g, order=3),
        sample_and_delete(c, g, SamplePlan.from_spec(40, 2, 1, seed=3)),
    ):
        assert is_sidon(tuple(values[i] for i in result.subset))


def test_sum_colouring_dominates_difference_colouring():
    # Distinct differences force distinct pairwise sums, so the x+y optimum
    # is at least the |x-y| optimum.  Equality can fail: doubles are not
    # 2-subsets, so the sum colouring never sees 2b = a + c, while the
    # difference colouring rejects it as b - a = c - b.  At n = 5 the set
    # {1, 2, 3, 5} has all six distinct-pair sums different yet repeats the
    # difference 1, so the optima are 4 versus 3.
    sizes = {}
    for n in range(4, 11):
        values = tuple(range(1, n + 1))
        sidon = sidon_colouring(IntegerInstance(values=values))
        prep = poly_prepare(SymPoly("Q", X_PLUS_Y), values)
        sums = poly_colouring(prep)
        a = exact_max_rainbow(sidon, GroundSet(n)).size
        b = exact_max_rainbow(sums, GroundSet(len(prep.kept))).size
        assert b >= a
        sizes[n] = (a, b)
    assert sizes[4] == (3, 3)
    assert sizes[5] == (3, 4)


# ---------------------------------------------------------------- JSON


def test_integers_json_roundtrip():
    inst = IntegerInstance(values=(1, 5, 10**30))
    obj = integers_to_obj(inst)
    assert obj == {"type": "integers", "values": ["1", "5", str(10**30)]}
    assert integers_from_obj(obj).values == inst.values


def test_sympoly_json_roundtrip():
    # sympoly files are written by hand; the reader mirrors each monomial (i, j) to (j, i)
    poly = SymPoly("Q", {(2, 0): Fraction(1, 3), (0, 2): Fraction(1, 3), (1, 1): -2})
    back = sympoly_from_obj({"type": "sympoly", "field": "Q", "degree": 2,
                             "coeffs": [[2, 0, "1/3"], [1, 1, "-2"]]})
    assert back.coeffs == poly.coeffs
    assert back.degree == poly.degree

    gf = SymPoly(7, {(1, 0): 3, (0, 1): 3})
    back = sympoly_from_obj({"type": "sympoly", "field": {"GF": 7}, "degree": 1,
                             "coeffs": [[1, 0, "3"], [0, 1, "3"]]})
    assert back.field == 7
    assert back.coeffs == gf.coeffs


def test_sympoly_json_mirrors_and_conflicts():
    obj = {"type": "sympoly", "field": "Q", "degree": 1, "coeffs": [[1, 0, "2"]]}
    poly = sympoly_from_obj(obj)  # mirror filled in automatically
    assert poly.coeffs == {(0, 1): Fraction(2), (1, 0): Fraction(2)}

    bad = {"type": "sympoly", "field": "Q", "degree": 1,
           "coeffs": [[1, 0, "2"], [0, 1, "3"]]}
    with pytest.raises(ParameterError):
        sympoly_from_obj(bad)

    wrong_degree = {"type": "sympoly", "field": "Q", "degree": 2, "coeffs": [[1, 0, "2"], [0, 1, "2"]]}
    with pytest.raises(ParameterError):
        sympoly_from_obj(wrong_degree)
