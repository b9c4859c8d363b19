import math
import random
from fractions import Fraction

import pytest

from helpers import gauss_jordan_solve
from rainbowsets.errors import (
    BudgetError,
    DegenerateInputError,
    ParameterError,
    ValidationError,
)
from rainbowsets.geometry import (
    PointInstance,
    check_no_hyperplane,
    check_no_sphere,
    circumradius_colouring,
    find_hyperplane_violation,
    find_sphere_violation,
    generate_general_position,
    points_from_obj,
    points_to_obj,
    similarity_canonical_form,
    similarity_colouring,
    squared_circumradius,
    squared_distance,
    squared_volume,
    volume_colouring,
)
from rainbowsets.hypergraph import GroundSet, validate_lambda


def rational_triangle(rng, bound=50):
    while True:
        pts = [
            (Fraction(rng.randint(-bound, bound), rng.randint(1, 7)),
             Fraction(rng.randint(-bound, bound), rng.randint(1, 7)))
            for _ in range(3)
        ]
        if squared_volume(pts) != 0:
            return pts


# ------------------------------------------------------------- volume


def test_squared_volume_unit_right_triangle():
    assert squared_volume([(0, 0), (1, 0), (0, 1)]) == Fraction(1, 4)


def test_squared_volume_corner_simplices():
    for d in (2, 3, 4):
        pts = [tuple(0 for _ in range(d))]
        pts += [tuple(1 if i == j else 0 for i in range(d)) for j in range(d)]
        assert squared_volume(pts) == Fraction(1, math.factorial(d) ** 2)


def test_squared_volume_degenerate():
    assert squared_volume([(0, 0), (1, 1), (2, 2)]) == 0


def test_squared_volume_shape_errors():
    with pytest.raises(ParameterError):
        squared_volume([(0, 0), (1, 0)])
    with pytest.raises(ParameterError):
        squared_volume([(0, 0), (1, 0), (0, 1, 2)])


def test_squared_volume_invariances():
    rng = random.Random(3)
    for _ in range(20):
        pts = rational_triangle(rng)
        base = squared_volume(pts)
        shuffled = list(pts)
        rng.shuffle(shuffled)
        assert squared_volume(shuffled) == base
        shift = (Fraction(rng.randint(-9, 9), 5), Fraction(rng.randint(-9, 9), 5))
        moved = [(x + shift[0], y + shift[1]) for x, y in pts]
        assert squared_volume(moved) == base


# ------------------------------------------------------- circumradius


def test_circumradius_right_triangle():
    assert squared_circumradius([(0, 0), (3, 0), (0, 4)]) == Fraction(25, 4)


def test_circumradius_isoceles():
    # centre (1, 3/4), squared radius 1 + 9/16
    assert squared_circumradius([(0, 0), (2, 0), (1, 2)]) == Fraction(25, 16)


def test_circumradius_collinear_rejected():
    with pytest.raises(DegenerateInputError):
        squared_circumradius([(0, 0), (1, 1), (2, 2)])


def test_circumradius_equidistance_property():
    rng = random.Random(11)
    for _ in range(20):
        pts = rational_triangle(rng)
        r2 = squared_circumradius(pts)
        # recover the centre independently from two perpendicular bisector rows
        p0 = pts[0]
        matrix = [[2 * (a - b) for a, b in zip(p, p0)] for p in pts[1:]]
        rhs = [sum(c * c for c in p) - sum(c * c for c in p0) for p in pts[1:]]
        centre = tuple(gauss_jordan_solve(matrix, rhs))
        assert all(squared_distance(centre, p) == r2 for p in pts)


# --------------------------------------------------------- similarity


def test_similarity_permutation_invariance():
    pts = [(0, 0), (3, 0), (0, 4)]
    assert similarity_canonical_form(pts) == similarity_canonical_form(
        [pts[2], pts[0], pts[1]]
    )


def test_similarity_scale_translate_reflect():
    rng = random.Random(5)
    for _ in range(20):
        pts = rational_triangle(rng)
        base = similarity_canonical_form(pts)
        scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        shift = (Fraction(rng.randint(-20, 20), 3), Fraction(rng.randint(-20, 20), 3))
        transformed = [(x * scale + shift[0], y * scale + shift[1]) for x, y in pts]
        assert similarity_canonical_form(transformed) == base
        mirrored = [(-x, y) for x, y in pts]
        assert similarity_canonical_form(mirrored) == base


def test_similarity_distinguishes_shapes():
    a = similarity_canonical_form([(0, 0), (3, 0), (0, 4)])
    b = similarity_canonical_form([(0, 0), (1, 0), (0, 1)])
    assert a != b


def test_similarity_degenerate_rejected():
    with pytest.raises(DegenerateInputError):
        similarity_canonical_form([(0, 0), (1, 1), (3, 3)])


# --------------------------------------------------------- validators


def test_no_hyperplane_triangle_with_centroid():
    inst = PointInstance(dim=2, points=(
        (Fraction(0), Fraction(0)),
        (Fraction(3), Fraction(0)),
        (Fraction(0), Fraction(3)),
        (Fraction(1), Fraction(1)),
    ))
    assert check_no_hyperplane(inst)


def test_no_hyperplane_detects_collinear():
    inst = PointInstance(dim=2, points=(
        (Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(1)),
        (Fraction(2), Fraction(2)),
        (Fraction(5), Fraction(0)),
    ))
    assert not check_no_hyperplane(inst)
    assert find_hyperplane_violation(inst) == (0, 1, 2)


def test_no_hyperplane_vacuous():
    inst = PointInstance(dim=2, points=((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))))
    assert check_no_hyperplane(inst)


def test_no_sphere_square_is_concyclic():
    inst = PointInstance(dim=2, points=(
        (Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(0)),
        (Fraction(1), Fraction(1)),
        (Fraction(0), Fraction(1)),
    ))
    assert not check_no_sphere(inst)
    assert find_sphere_violation(inst) == (0, 1, 2, 3)


def test_no_sphere_generic_quadruple():
    inst = PointInstance(dim=2, points=(
        (Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
        (Fraction(5), Fraction(7)),
    ))
    assert check_no_sphere(inst)


def test_no_sphere_vacuous():
    inst = PointInstance(dim=2, points=(
        (Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
    ))
    assert check_no_sphere(inst)


def test_validate_flags_and_errors():
    square = PointInstance(dim=2, points=(
        (Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(0)),
        (Fraction(1), Fraction(1)),
        (Fraction(0), Fraction(1)),
    ))
    flagged = square.validate(sphere=False)
    assert flagged.no_hyperplane and not flagged.no_sphere
    with pytest.raises(ValidationError):
        square.validate(sphere=True)


def test_instance_invariants():
    with pytest.raises(ParameterError):
        PointInstance(dim=2, points=((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0))))
    with pytest.raises(ParameterError):
        PointInstance(dim=2, points=((Fraction(0),),))


# ---------------------------------------------------------- generator


def test_generate_single_point():
    inst = generate_general_position(1, 2, seed=0)
    assert len(inst) == 1
    assert inst.no_hyperplane and inst.no_sphere


def test_generate_revalidates():
    inst = generate_general_position(4, 2, seed=123)
    assert len(inst) == 4
    assert check_no_hyperplane(inst)
    assert check_no_sphere(inst)


def test_generate_deterministic():
    a = generate_general_position(5, 2, seed=9)
    b = generate_general_position(5, 2, seed=9)
    assert a.points == b.points


def test_generate_tiny_bound_exhausts_budget():
    with pytest.raises(BudgetError):
        generate_general_position(10, 2, seed=1, coord_bound=1)


def test_generate_parameter_errors():
    with pytest.raises(ParameterError):
        generate_general_position(0, 2, seed=1)
    with pytest.raises(ParameterError):
        generate_general_position(3, 0, seed=1)


# --------------------------------------------------------- colourings


def test_colourings_require_flags():
    inst = generate_general_position(5, 2, seed=2)
    bare = PointInstance(dim=2, points=inst.points)
    for factory in (circumradius_colouring, volume_colouring, similarity_colouring):
        with pytest.raises(ValidationError):
            factory(bare)
    hyper_only = bare.validate(sphere=False)
    with pytest.raises(ValidationError):
        circumradius_colouring(hyper_only)
    volume_colouring(hyper_only)
    similarity_colouring(hyper_only)


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
    # so colour keys collide exactly when the radii agree
    from itertools import combinations

    inst = generate_general_position(6, 2, seed=8)
    c = circumradius_colouring(inst)
    for e1, e2 in combinations(combinations(range(6), 3), 2):
        r1 = squared_circumradius([inst.points[i] for i in e1])
        r2 = squared_circumradius([inst.points[i] for i in e2])
        assert (c.colour_key(e1) == c.colour_key(e2)) == (r1 == r2)


def test_geometry_colourings_are_pure():
    rng = random.Random(21)
    inst = generate_general_position(7, 2, seed=13)
    for factory in (circumradius_colouring, volume_colouring, similarity_colouring):
        c = factory(inst)
        for _ in range(15):
            edge = tuple(rng.sample(range(7), 3))
            assert c.colour_key(edge) == c.colour_key(edge)
            assert c.colour_key(edge) == c.colour_key(edge[::-1])


def test_points_json_roundtrip():
    inst = generate_general_position(6, 2, seed=31)
    obj = points_to_obj(inst)
    assert obj["type"] == "points"
    back = points_from_obj(obj)
    assert back.points == inst.points
    assert not back.no_hyperplane  # flags must be re-earned
    assert points_to_obj(back) == obj
