import hashlib
import math
import random
import re
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from helpers import (
    circumcentre,
    colour_key,
    general_position_witnesses,
    leibniz_det,
    lifted_determinant,
    similar_simplices,
    similarity_profile,
    simplex_squared_circumradius,
    simplex_squared_volume,
)
from rainbowsets import geometry
from rainbowsets.errors import BudgetError, ParameterError, ValidationError
from rainbowsets.geometry import (
    PointInstance,
    as_point,
    circumradius_colouring,
    find_hyperplane_violation,
    find_sphere_violation,
    generate_general_position,
    points_from_obj,
    points_to_obj,
    similarity_colouring,
    volume_colouring,
)
from rainbowsets.hypergraph import Colouring, GroundSet, validate_lambda


def instance(points) -> PointInstance:
    return PointInstance(dim=len(points[0]), points=tuple(as_point(p) for p in points))


def simplex_colour(factory, points):
    """The colour key ``factory`` gives the simplex on exactly these d+1 points.

    The factory checks the points first, so a degenerate simplex raises
    ``ValidationError`` before any colour is computed.
    """
    return factory(instance(points)).evaluator(tuple(range(len(points))))


def rational_triangle(rng, bound=50):
    while True:
        pts = [
            (Fraction(rng.randint(-bound, bound), rng.randint(1, 7)),
             Fraction(rng.randint(-bound, bound), rng.randint(1, 7)))
            for _ in range(3)
        ]
        if simplex_squared_volume(pts) != 0:
            return pts


# ------------------------------------------------------------- volume


def test_squared_volume_unit_right_triangle():
    assert simplex_colour(volume_colouring, [(0, 0), (1, 0), (0, 1)]) == colour_key(Fraction(1, 4))


def test_squared_volume_corner_simplices():
    for d in (2, 3, 4):
        pts = [tuple(0 for _ in range(d))]
        pts += [tuple(1 if i == j else 0 for i in range(d)) for j in range(d)]
        assert (simplex_colour(volume_colouring, pts)
                == colour_key(Fraction(1, math.factorial(d) ** 2)))


def test_squared_volume_degenerate():
    with pytest.raises(ValidationError, match=re.escape("points [0, 1, 2] lie on a hyperplane")):
        simplex_colour(volume_colouring, [(0, 0), (1, 1), (2, 2)])


def test_squared_volume_invariances():
    rng = random.Random(3)
    for _ in range(20):
        pts = rational_triangle(rng)
        base = simplex_colour(volume_colouring, pts)
        assert base == colour_key(simplex_squared_volume(pts))
        shuffled = list(pts)
        rng.shuffle(shuffled)
        assert simplex_colour(volume_colouring, shuffled) == base
        shift = (Fraction(rng.randint(-9, 9), 5), Fraction(rng.randint(-9, 9), 5))
        moved = [(x + shift[0], y + shift[1]) for x, y in pts]
        assert simplex_colour(volume_colouring, moved) == base


@settings(max_examples=200, deadline=None)
@given(points=st.integers(1, 4).flatmap(lambda d: st.lists(
    st.tuples(*[st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))] * d),
    min_size=d + 1, max_size=d + 1, unique=True)))
@example(points=[(0, 0), (1, 1), (2, 2)])
@example(points=[(0, 0, 0), (2, 0, 0), (0, 3, 0), (0, 0, 5)])
def test_squared_volume_matches_leibniz_oracle(points):
    expected = simplex_squared_volume(points)
    if expected == 0:
        with pytest.raises(ValidationError):
            simplex_colour(volume_colouring, points)
    else:
        assert simplex_colour(volume_colouring, points) == colour_key(expected)


# ------------------------------------------------------- circumradius


def test_circumradius_right_triangle():
    assert (simplex_colour(circumradius_colouring, [(0, 0), (3, 0), (0, 4)])
            == colour_key(Fraction(25, 4)))


def test_circumradius_isoceles():
    # centre (1, 3/4), squared radius 1 + 9/16
    assert (simplex_colour(circumradius_colouring, [(0, 0), (2, 0), (1, 2)])
            == colour_key(Fraction(25, 16)))


def test_circumradius_collinear_rejected():
    with pytest.raises(ValidationError, match=re.escape("points [0, 1, 2] lie on a hyperplane")):
        simplex_colour(circumradius_colouring, [(0, 0), (1, 1), (2, 2)])


def test_circumradius_equidistance_property():
    rng = random.Random(11)
    for _ in range(20):
        pts = rational_triangle(rng)
        r2 = simplex_colour(circumradius_colouring, pts)
        # recover the centre independently from two perpendicular bisector rows
        centre = tuple(circumcentre(pts))
        assert all(colour_key(sum((c - Fraction(x)) ** 2 for c, x in zip(centre, p))) == r2
                   for p in pts)


# small rational coordinates, so that dependent and cospherical sets are common
coordinates = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


def point_lists(least, most, coords=coordinates):
    """d + 1 + extra distinct points in dimension d = 1, 2, 3, extra in [least, most]."""
    return st.integers(1, 3).flatmap(lambda d: st.lists(
        st.tuples(*[coords] * d), min_size=d + 1 + least, max_size=d + 1 + most,
        unique=True))


@settings(max_examples=200, deadline=None)
@given(points=point_lists(0, 0))
@example(points=[(0, 0), (1, 0), (1, 1)])
@example(points=[(3, 4), (5, 0), (-4, 3)])
@example(points=[(1, 2, 2), (2, 1, -2), (-2, 2, 1), (2, -2, 1)])
@example(points=[(0,), (3,)])
def test_circumradius_is_distance_to_solved_centre(points):
    # the centre is unique iff the points are affinely independent
    expected = simplex_squared_circumradius(points)
    if expected is None:
        with pytest.raises(ValidationError):
            simplex_colour(circumradius_colouring, points)
    else:
        assert simplex_colour(circumradius_colouring, points) == colour_key(expected)


@settings(max_examples=200, deadline=None)
@given(points=point_lists(1, 2))
@example(points=[(0, 0), (1, 0), (1, 1), (0, 1)])
@example(points=[(3, 4), (5, 0), (-4, 3), (0, -5)])
@example(points=[(1, 2, 2), (2, 1, -2), (-2, 2, 1), (2, -2, 1), (0, 0, 3)])
# the same five points over 3, on the unit sphere: the lift squares thirds (L = 3)
@example(points=[tuple(Fraction(c, 3) for c in p)
                 for p in [(1, 2, 2), (2, 1, -2), (-2, 2, 1), (2, -2, 1), (0, 0, 3)]])
def test_sphere_check_matches_lifted_determinant(points):
    d = len(points[0])
    inst = PointInstance(dim=d, points=tuple(as_point(p) for p in points))
    expected = next((idxs for idxs in combinations(range(len(points)), d + 2)
                     if lifted_determinant([points[i] for i in idxs]) == 0), None)
    assert find_sphere_violation(inst) == expected


def _with_collinear(n, seed):
    """n points in general position plus one on the line through the last two."""
    pts = [tuple(p) for p in generate_general_position(n, 2, seed).points]
    return pts + [tuple(2 * b - a for a, b in zip(pts[-2], pts[-1]))]


def _with_coplanar(n, seed):
    """n points in general position in R^3 plus one on the plane through the last three."""
    pts = [tuple(p) for p in generate_general_position(n, 3, seed).points]
    return pts + [tuple(b + c - a for a, b, c in zip(*pts[-3:]))]


def _with_cospherical(n, seed):
    """n points in general position in R^3 plus the antipode of the last on the sphere
    through the last four."""
    pts = [tuple(p) for p in generate_general_position(n, 3, seed).points]
    centre = circumcentre(pts[-4:])
    return pts + [tuple(2 * c - x for c, x in zip(centre, pts[-1]))]


@settings(max_examples=300, deadline=None)
@given(points=point_lists(0, 3, st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3))))
@example(points=[(1, 1), (0, 0), (2, 2)])  # collinear, the first point between the others
@example(points=[(0, 0), (1, 0), (1, 1), (0, 1)])  # the unit square
@example(points=[(3, 3), (0, 0), (1, 2), (5, 0), (4, -2)])  # a circle through the anchor (0, 0)
@example(points=[(0, 0, 0), (1, 0, 0), (0, 1, 0), (2, 1, 0), (0, 0, 1)])  # four coplanar
@example(points=[(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0)])  # coplanar, three collinear
# planted witnesses last in lexicographic order, later than any draw reaches
@example(points=_with_collinear(30, 11))  # hyperplane witness (28, 29, 30)
@example(points=_with_coplanar(9, 0))  # hyperplane witness (6, 7, 8, 9)
@example(points=_with_cospherical(9, 0))  # sphere witness (5, 6, 7, 8, 9)
def test_violations_match_determinant_oracle(points):
    inst = PointInstance(dim=len(points[0]), points=tuple(as_point(p) for p in points))
    found = find_hyperplane_violation(inst), find_sphere_violation(inst)
    assert found == general_position_witnesses(points)


# --------------------------------------------------------- similarity


def similarity_key(points) -> bytes:
    """Key of the triangle's similarity class: the similarity colouring's colour key."""
    return simplex_colour(similarity_colouring, points)


def test_similarity_permutation_invariance():
    pts = [(0, 0), (3, 0), (0, 4)]
    assert similarity_key(pts) == similarity_key([pts[2], pts[0], pts[1]])


def test_similarity_scale_translate_reflect():
    rng = random.Random(5)
    for _ in range(20):
        pts = rational_triangle(rng)
        base = similarity_key(pts)
        scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        shift = (Fraction(rng.randint(-20, 20), 3), Fraction(rng.randint(-20, 20), 3))
        transformed = [(x * scale + shift[0], y * scale + shift[1]) for x, y in pts]
        assert similarity_key(transformed) == base
        mirrored = [(-x, y) for x, y in pts]
        assert similarity_key(mirrored) == base


def test_similarity_distinguishes_shapes():
    a = similarity_key([(0, 0), (3, 0), (0, 4)])
    b = similarity_key([(0, 0), (1, 0), (0, 1)])
    assert a != b


def test_similarity_degenerate_rejected():
    # refused when the colouring is made, before the evaluator meets the collinear triple
    collinear = instance([(0, 0), (1, 1), (3, 3)])
    with pytest.raises(ValidationError, match=re.escape("points [0, 1, 2] lie on a hyperplane")):
        similarity_colouring(collinear)


# --------------------------------------------------------- validators


def test_no_hyperplane_triangle_with_centroid():
    inst = PointInstance(dim=2, points=(
        (Fraction(0), Fraction(0)),
        (Fraction(3), Fraction(0)),
        (Fraction(0), Fraction(3)),
        (Fraction(1), Fraction(1)),
    ))
    assert find_hyperplane_violation(inst) is None


def test_no_hyperplane_detects_collinear():
    inst = PointInstance(dim=2, points=(
        (Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(1)),
        (Fraction(2), Fraction(2)),
        (Fraction(5), Fraction(0)),
    ))
    assert find_hyperplane_violation(inst) == (0, 1, 2)


def test_no_hyperplane_vacuous():
    inst = PointInstance(dim=2, points=((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))))
    assert find_hyperplane_violation(inst) is None


def test_no_sphere_square_is_concyclic():
    inst = PointInstance(dim=2, points=(
        (Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(0)),
        (Fraction(1), Fraction(1)),
        (Fraction(0), Fraction(1)),
    ))
    assert find_sphere_violation(inst) == (0, 1, 2, 3)


def test_no_sphere_generic_quadruple():
    inst = PointInstance(dim=2, points=(
        (Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
        (Fraction(5), Fraction(7)),
    ))
    assert find_sphere_violation(inst) is None


def test_no_sphere_vacuous():
    inst = PointInstance(dim=2, points=(
        (Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
    ))
    assert find_sphere_violation(inst) is None


def test_validators_refuse_over_budget_before_computing():
    # coordinates that admit no arithmetic: the refusal must come first.  The
    # budget counts direction hashes: C(n, d) for the hyperplane check and
    # C(n, d+1) for the sphere check
    untouchable = PointInstance(dim=2, points=tuple((str(i), "y") for i in range(8)))
    with pytest.raises(BudgetError) as err:
        find_hyperplane_violation(untouchable, budget=math.comb(8, 2) - 1)
    assert str(err.value) == "verify layer: hyperplane check needs 28 direction hashes; budget is 27"
    with pytest.raises(BudgetError) as err:
        find_sphere_violation(untouchable, budget=math.comb(8, 3) - 1)
    assert str(err.value) == "verify layer: sphere check needs 56 direction hashes; budget is 55"

    points = generate_general_position(8, 2, seed=0)
    for factory in (circumradius_colouring, volume_colouring, similarity_colouring):
        with pytest.raises(BudgetError) as err:
            factory(points, budget=math.comb(8, 2) - 1)
        assert str(err.value) == (
            "verify layer: hyperplane check needs 28 direction hashes; budget is 27")
    with pytest.raises(BudgetError) as err:
        circumradius_colouring(points, budget=math.comb(8, 3) - 1)
    assert str(err.value) == "verify layer: sphere check needs 56 direction hashes; budget is 55"
    circumradius_colouring(points, budget=math.comb(8, 3))
    volume_colouring(points, budget=math.comb(8, 2))
    similarity_colouring(points, budget=math.comb(8, 2))


def test_validation_budget_counts_direction_hashes_not_subsets():
    # C(30, 4) = 27 405 subsets for the sphere check, but C(30, 3) = 4 060 hashes
    points = generate_general_position(30, 2, seed=0)
    colouring = circumradius_colouring(points, budget=math.comb(30, 3))
    assert (colouring.evaluator((0, 1, 2))
            == colour_key(simplex_squared_circumradius(points.points[:3])))


def test_validate_returns_the_instance_or_refuses():
    square = instance([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert square.validate(sphere=False) is square
    with pytest.raises(ValidationError, match=re.escape("points [0, 1, 2, 3] lie on a sphere")):
        square.validate(sphere=True)


def test_instance_invariants():
    with pytest.raises(ParameterError):
        PointInstance(dim=2, points=((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0))))
    with pytest.raises(ParameterError):
        PointInstance(dim=2, points=((Fraction(0),),))


def test_instance_refuses_floats_and_bools():
    # a float would reach the integer scaling of the validators as a binary fraction
    with pytest.raises(ParameterError, match="float 0.5 is not an exact number"):
        PointInstance(dim=1, points=((0.5,), (1,)))
    with pytest.raises(ParameterError, match="bool True is not an exact number"):
        PointInstance(dim=2, points=((0, 0), (True, 2)))
    exact = PointInstance(dim=1, points=((Fraction(1, 2),), (1,)))
    assert exact.validate() is exact


# ---------------------------------------------------------- generator


def test_generate_single_point():
    inst = generate_general_position(1, 2, seed=0)
    assert len(inst) == 1
    assert inst.validate() is inst


def test_generate_revalidates():
    inst = generate_general_position(4, 2, seed=123)
    assert len(inst) == 4
    assert find_hyperplane_violation(inst) is None
    assert find_sphere_violation(inst) is None


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_generated_points_pass_the_determinant_oracle(dim):
    # the tight bound 5 makes the generator reject many candidates
    for bound, sizes in ((None, range(dim + 2, dim + 7)), (5, range(dim + 2, dim + 6))):
        for n in sizes:
            for seed in range(4):
                points = generate_general_position(n, dim, seed, coord_bound=bound).points
                assert general_position_witnesses(points) == (None, None)


def test_generate_deterministic():
    a = generate_general_position(5, 2, seed=9)
    b = generate_general_position(5, 2, seed=9)
    assert a.points == b.points


def test_generate_tiny_bound_exhausts_budget():
    # of the unit square's corners any three are placed, the fourth is concyclic
    with pytest.raises(BudgetError) as err:
        generate_general_position(10, 2, seed=1, coord_bound=1)
    assert str(err.value) == (
        "generator layer: placing 10 points needs more than 10000 draws (3/10 placed); "
        "budget is 10000 draws; try a larger coord_bound (currently 1)")


# sha256 prefixes of the points, recorded before the generator read a distance
# matrix: the same candidates must be accepted in the same order; bound 5 is
# tight, so many candidates are rejected
GENERATOR_PINS = {
    (1, 3, 0, None): "61a9c25fc5a44e04",
    (1, 3, 1, None): "c496ce5bcec017bc",
    (1, 3, 7, None): "039beb7969809289",
    (1, 6, 0, None): "59f4c7cc58bb0d38",
    (1, 6, 1, None): "5a75ea7288dfe575",
    (1, 6, 7, None): "abf03046a99eb039",
    (1, 9, 0, None): "7157e991081c4dd3",
    (1, 9, 1, None): "bbd96bcd23a8eb1f",
    (1, 9, 7, None): "56c0e51558ea838f",
    (1, 6, 0, 5): "5c4807d12dc516c6",
    (1, 6, 1, 5): "30edb9786369e324",
    (1, 6, 7, 5): "7cc3ba97697039c4",
    (2, 3, 0, None): "4a38de533a71099a",
    (2, 3, 1, None): "e9c824b229a6ec2d",
    (2, 3, 7, None): "b98734728f61b6fa",
    (2, 6, 0, None): "0ba7fee40d82772a",
    (2, 6, 1, None): "c9b42dd5eced467e",
    (2, 6, 7, None): "115719681895cc26",
    (2, 9, 0, None): "d7cc6a01bced9726",
    (2, 9, 1, None): "7672e4b7110fe3e3",
    (2, 9, 7, None): "403c0c12af424b86",
    (2, 8, 0, 5): "186c44f006c9a2fe",
    (2, 8, 1, 5): "3005cfaada22e8be",
    (2, 8, 7, 5): "4015eefbf0b8ba45",
    (3, 3, 0, None): "d129ac0e356fa917",
    (3, 3, 1, None): "8c55bf2a8882e88e",
    (3, 3, 7, None): "220f3b8f4ec47259",
    (3, 6, 0, None): "ab1577c7796c5bff",
    (3, 6, 1, None): "6182c5574d313862",
    (3, 6, 7, None): "26599f7d0895aaed",
    (3, 9, 0, None): "ded32cfec09d2e2c",
    (3, 9, 1, None): "bcd17c06048353a9",
    (3, 9, 7, None): "6da01e5f402bfaa0",
    (3, 8, 0, 5): "fc9aaec0769b5c86",
    (3, 8, 1, 5): "010ced61cd01f803",
    (3, 8, 7, 5): "500ffb8c9f1c15d0",
}


def test_generator_output_pinned():
    got = {}
    for dim, n, seed, bound in GENERATOR_PINS:
        inst = generate_general_position(n, dim, seed, coord_bound=bound)
        text = ";".join(",".join(str(c) for c in p) for p in inst.points)
        got[dim, n, seed, bound] = hashlib.sha256(text.encode()).hexdigest()[:16]
    assert got == GENERATOR_PINS


def test_generate_parameter_errors():
    with pytest.raises(ParameterError):
        generate_general_position(0, 2, seed=1)
    with pytest.raises(ParameterError):
        generate_general_position(3, 0, seed=1)


# --------------------------------------------------------- colourings


def test_colourings_check_their_own_points():
    # generated points need no validate() call
    inst = generate_general_position(5, 2, seed=2)
    for factory in (circumradius_colouring, volume_colouring, similarity_colouring):
        factory(inst)
    collinear = instance([(0, 0), (3, 1), (1, 1), (2, 2)])
    for factory in (circumradius_colouring, volume_colouring, similarity_colouring):
        with pytest.raises(ValidationError, match=re.escape(
                "points [0, 2, 3] lie on a hyperplane: (0, 0); (1, 1); (2, 2)")):
            factory(collinear)
    # only the circumradius colouring needs no four points on a circle
    square = instance([(0, 0), (1, 0), (1, 1), (0, 1)])
    with pytest.raises(ValidationError, match=re.escape("points [0, 1, 2, 3] lie on a sphere")):
        circumradius_colouring(square)
    volume_colouring(square)
    similarity_colouring(square)


# general position with common denominator 6; circumradius, similarity and
# volume colour 2, 2 and 3 of the 20 triangles like an earlier one
SIXTHS = [tuple(Fraction(c) for c in p) for p in
          [(-1, 2), ("-1/3", 2), (0, 0), ("2/3", 0), (1, "1/2"), (2, "-2/3")]]


@settings(max_examples=200, deadline=None)
@given(points=point_lists(0, 2))
@example(points=SIXTHS)
@example(points=[(0, 0), (1, 0), (1, 1), (0, 1)])  # concyclic: only circumradius refuses
@example(points=[(0, 0), (1, 1), (2, 2), (0, 1)])  # collinear: all three refuse
@example(points=[(0,), (1,), (3,)])
@example(points=[(0,), (1,), (3,), (7,), (12,), (20,), (33,)])  # 6 similar segments at 0
@example(points=[(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
def test_colourings_refuse_exactly_the_oracle_witnesses(points):
    # each factory refuses the first witness the determinant oracle names;
    # otherwise every colour matches the independent oracles
    hyperplane, sphere = general_position_witnesses(points)
    inst = instance(points)
    simplices = {e: [points[i] for i in e]
                 for e in combinations(range(len(points)), inst.dim + 1)}
    refusals = {
        volume_colouring: (hyperplane, "hyperplane"),
        similarity_colouring: (hyperplane, "hyperplane"),
        circumradius_colouring: (hyperplane, "hyperplane") if hyperplane else (sphere, "sphere"),
    }
    for factory, (witness, shape) in refusals.items():
        if witness is not None:
            with pytest.raises(ValidationError,
                               match=re.escape(f"points {list(witness)} lie on a {shape}")):
                factory(inst)
    if hyperplane is not None:
        return
    volume = volume_colouring(inst).evaluator
    assert all(volume(e) == colour_key(simplex_squared_volume(s)) for e, s in simplices.items())
    if inst.dim == 1:  # every segment is similar to every other: no petal bound holds
        with pytest.raises(ParameterError, match="similarity colouring needs d >= 2"):
            similarity_colouring(inst)
    else:
        similarity = similarity_colouring(inst).evaluator
        for (e1, s1), (e2, s2) in combinations(simplices.items(), 2):
            assert (similarity(e1) == similarity(e2)) == similar_simplices(s1, s2)
    if sphere is None:
        radius = circumradius_colouring(inst).evaluator
        assert all(radius(e) == colour_key(simplex_squared_circumradius(s))
                   for e, s in simplices.items())


@pytest.mark.parametrize("ts, sphere", [((-3, -1, 1, 3), (0, 1, 2, 3)), ((1, 2, 3, 4), None)],
                         ids=["t-sum-zero", "t-sum-ten"])
def test_parabola_points_are_concyclic_exactly_when_their_parameters_sum_to_zero(ts, sphere):
    # four points (t, t^2) lie on a circle iff their t sum to 0: the lifted
    # determinant is a Vandermonde times that sum; no three are collinear
    points = [(t, t * t) for t in ts]
    assert general_position_witnesses(points) == (None, sphere)
    inst = instance(points)
    if sphere is None:
        circumradius_colouring(inst)
    else:
        with pytest.raises(ValidationError, match=re.escape(
                "points [0, 1, 2, 3] lie on a sphere: (-3, 9); (-1, 1); (1, 1); (3, 9)")):
            circumradius_colouring(inst)
    volume_colouring(inst)
    similarity_colouring(inst)


square_matrices = st.integers(1, 5).flatmap(
    lambda size: st.lists(st.lists(st.integers(-10**6, 10**6), min_size=size, max_size=size),
                          min_size=size, max_size=size))


@settings(max_examples=300, deadline=None)
@given(matrix=square_matrices)
@example(matrix=[[0, 2, 3], [4, 5, 6], [7, 8, 10]])  # zero leading pivot: one swap flips the sign
@example(matrix=[[1, 2, 3], [4, 5, 6], [1, 2, 3]])  # a repeated row
@example(matrix=[[1, 0, 3], [4, 0, 6], [7, 0, 9]])  # a zero column
@example(matrix=[[1, 2, 3, 4], [5, 6, 7, 9], [6, 8, 10, 13], [2, 0, 1, 1]])  # row 3 = rows 1 + 2
@example(matrix=[[-10**6]])
def test_det_exact_matches_the_leibniz_oracle(matrix):
    det = geometry.det_exact(matrix)
    assert det == leibniz_det(matrix) and type(det) is int


def test_plane_circumradius_and_similarity_need_no_determinant(monkeypatch):
    # in the plane both colours are closed forms in the integer points, so
    # neither falls back to the determinant; volume, and circumradius above
    # the plane, still take it
    def refuse(matrix):
        raise AssertionError("det_exact called")

    monkeypatch.setattr(geometry, "det_exact", refuse)
    inst = instance(SIXTHS)
    triangles = [[SIXTHS[i] for i in e] for e in combinations(range(len(SIXTHS)), 3)]
    edges = list(combinations(range(len(SIXTHS)), 3))
    radii = list(map(circumradius_colouring(inst).evaluator, edges))
    assert radii == [colour_key(simplex_squared_circumradius(t)) for t in triangles]
    shapes = list(map(similarity_colouring(inst).evaluator, edges))
    for (t1, c1), (t2, c2) in combinations(zip(triangles, shapes), 2):
        assert (c1 == c2) == similar_simplices(t1, t2)
    with pytest.raises(AssertionError, match="det_exact called"):
        volume_colouring(inst).evaluator((0, 1, 2))
    with pytest.raises(AssertionError, match="det_exact called"):
        simplex_colour(circumradius_colouring, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])


plane_coordinates = st.integers(-30, 30) | st.builds(Fraction, st.integers(-30, 30),
                                                     st.integers(1, 9))


@settings(max_examples=300, deadline=None)
@given(points=point_lists(0, 0, plane_coordinates))
@example(points=[(0, 0), (6, 0), (0, 8)])  # R^2 = 25, an int key
@example(points=[(0, 0), (3, 0), (0, 4)])  # R^2 = 25/4
@example(points=[(Fraction(-1, 3), 2), (0, 0), (Fraction(2, 3), Fraction(-5, 7))])
@example(points=[(Fraction(-1, 3),), (5,)])
@example(points=[(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)])  # R^2 = 3, volume 16/9
@example(points=[(1, 2, 2), (2, 1, -2), (-2, 2, 1), (Fraction(2, 3), -2, 1)])
def test_kernel_keys_match_the_definitions(points):
    # every kernel gives its key from integer ratios with no Fraction; each
    # equals the key of the value the helpers derive from the definition, in
    # value and type, at d = 1..3 (similarity from d = 2)
    volume = simplex_squared_volume(points)
    if volume == 0:
        reject()
    edge = tuple(range(len(points)))
    radius = simplex_squared_circumradius(points)
    checks = [(circumradius_colouring, radius), (volume_colouring, volume)]
    if len(points) > 2:
        checks.append((similarity_colouring, similarity_profile(points)))
    for factory, value in checks:
        key, want = factory(instance(points)).evaluator(edge), colour_key(value)
        assert key == want
        assert type(key) is type(want)
    if radius.denominator == 1:
        assert circumradius_colouring(instance(points)).evaluator(edge) == radius.numerator


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_geometric_colours_are_not_built_from_values(dim):
    # every built-in geometric kernel returns keys from the integer points;
    # the library has no value path left to build a colouring through
    assert not hasattr(Colouring, "from_values")
    inst = generate_general_position(7, dim, seed=dim)
    factories = [circumradius_colouring, volume_colouring]
    if dim > 1:
        factories.append(similarity_colouring)
    for factory in factories:
        keys = list(factory(inst).colours(range(len(inst))))
        assert len(keys) == math.comb(len(inst), dim + 1)
        assert {int, bytes}.issuperset(map(type, keys))


def test_colouring_specs():
    inst = generate_general_position(5, 2, seed=4)
    cr = circumradius_colouring(inst)
    assert (cr.spec.k, cr.spec.h, cr.spec.max_petals) == (3, 2, 2)
    vol = volume_colouring(inst)
    assert vol.spec.max_petals == 4
    sim = similarity_colouring(inst)
    assert sim.spec.max_petals == 12


@pytest.mark.parametrize("seed", range(5))
def test_lambda_audits_small(seed):
    inst = generate_general_position(7, 2, seed=seed)
    ground = GroundSet(7)
    for factory, bound in (
        (circumradius_colouring, 2),
        (volume_colouring, 4),
        (similarity_colouring, 12),
    ):
        ok, report = validate_lambda(factory(inst), ground)
        assert ok, f"{factory.__name__} petals={report.petals}"
        assert report.petals <= bound


def test_squared_radius_colours_like_radius():
    # equal squared circumradius iff equal circumradius for positive radii,
    # so colours collide exactly when the independently solved radii agree
    inst = generate_general_position(6, 2, seed=8)
    c = circumradius_colouring(inst)
    edges = list(combinations(range(6), 3))
    radii = {e: simplex_squared_circumradius([inst.points[i] for i in e]) for e in edges}
    for e in edges:
        assert c.evaluator(e) == colour_key(radii[e])
    for e1, e2 in combinations(edges, 2):
        assert (c.evaluator(e1) == c.evaluator(e2)) == (radii[e1] == radii[e2])


def test_geometry_colourings_are_pure():
    # each colour is a function of the point set: listing the points in
    # another order, as a fresh instance, gives the same colour
    rng = random.Random(21)
    inst = generate_general_position(7, 2, seed=13)
    for factory in (circumradius_colouring, volume_colouring, similarity_colouring):
        c = factory(inst)
        for _ in range(15):
            edge = tuple(sorted(rng.sample(range(7), 3)))
            reordered = [inst.points[i] for i in edge[::-1]]
            assert c.evaluator(edge) == c.evaluator(edge)
            assert c.evaluator(edge) == simplex_colour(factory, reordered)


def test_points_json_roundtrip():
    inst = generate_general_position(6, 2, seed=31)
    obj = points_to_obj(inst)
    assert obj["type"] == "points"
    back = points_from_obj(obj)
    assert back == inst
    assert points_to_obj(back) == obj
