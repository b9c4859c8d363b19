import math
from enum import IntEnum
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    all_subsets,
    brute_force_pair_degrees,
    brute_force_sunflower,
    constant_colouring,
    injective_colouring,
    keyed_class_sizes,
    random_colouring,
)
from rainbowsets.algebra import IntegerInstance, sidon_colouring
from rainbowsets.engine import verify_rainbow
from rainbowsets.errors import BudgetError, ParameterError
from rainbowsets.hypergraph import (
    _CHUNK,
    Colouring,
    ColouringSpec,
    GroundSet,
    build_conflict_hypergraph,
    colour_class_sizes,
    colour_classes,
    max_monochromatic_sunflower,
    validate_lambda,
)
from rainbowsets.keys import canonical_key


def test_ground_set_needs_vertices():
    with pytest.raises(ParameterError):
        GroundSet(0)


def test_spec_invariants():
    with pytest.raises(ParameterError):
        ColouringSpec(k=2, h=2, max_petals=1)
    with pytest.raises(ParameterError):
        ColouringSpec(k=2, h=1, max_petals=0)
    with pytest.raises(ParameterError):
        ColouringSpec(k=0, h=0, max_petals=1)


def test_colour_classes_injective():
    classes = colour_classes(injective_colouring(k=2), GroundSet(5))
    assert len(classes) == 10
    assert all(len(edges) == 1 for edges in classes.values())


def test_colour_classes_constant():
    classes = colour_classes(constant_colouring(k=2), GroundSet(4))
    assert len(classes) == 1
    (edges,) = classes.values()
    assert len(edges) == 6


def test_colour_classes_sidon_123():
    c = sidon_colouring(IntegerInstance(values=(1, 2, 3)))
    classes = colour_classes(c, GroundSet(3))
    assert classes == {b"1": [(0, 1), (1, 2)], b"2": [(0, 2)]}


def test_colour_classes_budget():
    with pytest.raises(BudgetError):
        colour_classes(injective_colouring(k=2), GroundSet(10), budget=10)


def test_colour_classes_partition():
    for seed in range(5):
        c = random_colouring(seed, k=3, h=2, palette=4)
        classes = colour_classes(c, GroundSet(7))
        edges = sorted(e for group in classes.values() for e in group)
        assert edges == sorted(combinations(range(7), 3))


# small leaves, so that hypothesis often draws equal values of different types
# and values whose encodings could run together
COLOUR_LEAVES = (
    st.integers(-12, 12)
    | st.fractions(min_value=-3, max_value=3, max_denominator=3)
    | st.text(alphabet="12,():bs", max_size=3)
    | st.binary(max_size=2)
)
COLOUR_VALUES = st.recursive(
    COLOUR_LEAVES, lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=6
)


def as_fractions(value):
    """The same value with every integer replaced by an equal Fraction."""
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, tuple):
        return tuple(as_fractions(v) for v in value)
    return value


@settings(max_examples=300, deadline=None)
@given(values=st.lists(COLOUR_VALUES, max_size=30))
@example(values=[3, Fraction(3), "3", b"3", (3,), ((3,),), ()])
@example(values=[(1, 2), (12,), ("1", "2"), ("1,s2",), ("12",)])
def test_canonical_key_is_injective(values):
    # keys agree exactly when the values are equal, so 3 and Fraction(3) share one
    for a, b in combinations(values, 2):
        assert (canonical_key(a) == canonical_key(b)) == (a == b)
    for a in values:
        assert canonical_key(as_fractions(a)) == canonical_key(a)


@settings(max_examples=300, deadline=None)
@given(value=st.integers(-2**80, 2**80)
       | st.fractions()
       | st.builds(Fraction, st.integers(-2**80, 2**80), st.integers(1, 2**70)))
@example(value=-1)
@example(value=2**64 + 1)
@example(value=Fraction(-7, 3))
@example(value=Fraction(4, 2))
def test_canonical_key_of_numbers_is_their_decimal_text(value):
    assert canonical_key(value) == str(value).encode("ascii")


def test_canonical_key_rejects_booleans():
    assert canonical_key(3) == canonical_key(Fraction(3))
    for value in (True, False, (1, True), ((False,),)):
        with pytest.raises(TypeError):
            canonical_key(value)


class Tagged(int):
    """An int that prints as a word."""

    def __str__(self):
        return "tag"


class Size(IntEnum):
    THREE = 3


class Ratio(Fraction):
    """A Fraction subclass that adds nothing."""


@pytest.mark.parametrize("value, plain, key", [
    (Size.THREE, 3, b"3"),
    (Tagged(3), 3, b"3"),
    (Ratio(3, 4), Fraction(3, 4), b"3/4"),
    (Ratio(6, 2), 3, b"3"),
], ids=["intenum", "int-subclass", "fraction-subclass", "fraction-subclass-integral"])
def test_number_subclasses_key_by_value(value, plain, key):
    # a number is keyed by its value, not by what its str says, so it joins
    # the class of the equal plain number
    assert value == plain
    assert canonical_key(value) == canonical_key(plain) == key
    c = Colouring(ColouringSpec(2, 1, 1), lambda e: value if e == (1, 3) else plain, "subclass")
    assert colour_classes(c, GroundSet(4)) == {key: list(combinations(range(4), 2))}
    with pytest.raises(TypeError):
        canonical_key(True)


# one odd colour among small ints: any exact value, or one that must raise
ODD_COLOURS = (COLOUR_VALUES | st.floats() | st.booleans()
               | st.tuples(st.integers(-3, 3), st.floats()))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32), k=st.integers(1, 3), n=st.integers(3, 7),
       palette=st.integers(1, 6), odd=ODD_COLOURS, at=st.integers(0, 34))
@example(seed=0, k=2, n=5, palette=4, odd=Fraction(3), at=9)
@example(seed=0, k=2, n=5, palette=4, odd="3", at=0)
@example(seed=0, k=2, n=5, palette=4, odd=2**70, at=3)
@example(seed=0, k=2, n=100, palette=4, odd=3.0, at=4949)
@example(seed=0, k=2, n=100, palette=4, odd=True, at=4949)
@example(seed=0, k=2, n=100, palette=4, odd=Fraction(3), at=4949)
@example(seed=0, k=2, n=100, palette=4, odd=(3, (3.0,)), at=4949)
def test_class_sizes_match_keyed_count(seed, k, n, palette, odd, at):
    # colours are checked a chunk at a time and counted by value; the odd
    # value at any edge, the first included and the last of C(100, 2) = 4950
    # (past the first chunk), must still be keyed (or refused) like every other
    assert math.comb(100, 2) > _CHUNK
    edges = list(combinations(range(n), k))
    odd_edge = edges[at % len(edges)]
    base = random_colouring(seed, k, 0, palette)
    c = Colouring(base.spec, lambda e: odd if e == odd_edge else base.evaluator(e), "odd")
    try:
        expected = keyed_class_sizes(c, n)
    except TypeError:
        with pytest.raises(TypeError):
            colour_class_sizes(c, GroundSet(n))
    else:
        assert colour_class_sizes(c, GroundSet(n)) == expected


@pytest.mark.parametrize("odd_edge", [(0, 1), (2, 4), (3, 4)])
def test_class_sizes_merge_equal_numbers_only(odd_edge):
    def colouring(odd):
        return Colouring(ColouringSpec(2, 1, 1), lambda e: odd if e == odd_edge else 3, "threes")

    edges = list(combinations(range(5), 2))
    others = [e for e in edges if e != odd_edge]
    assert colour_class_sizes(colouring(Fraction(3)), GroundSet(5)) == {b"3": 10}
    assert colour_classes(colouring(Fraction(3)), GroundSet(5)) == {b"3": edges}
    assert colour_class_sizes(colouring("3"), GroundSet(5)) == {b"3": 9, b"s1:3": 1}
    assert colour_classes(colouring("3"), GroundSet(5)) == {b"3": others, b"s1:3": [odd_edge]}
    for odd in (3.0, True, (3, (3.0,))):
        with pytest.raises(TypeError):
            colour_class_sizes(colouring(odd), GroundSet(5))
        with pytest.raises(TypeError):
            colour_classes(colouring(odd), GroundSet(5))


def test_evaluator_purity_and_symmetry():
    import random as pyrandom

    rng = pyrandom.Random(7)
    values = tuple(range(1, 13))
    c = sidon_colouring(IntegerInstance(values=values))
    for _ in range(50):
        a, b = rng.sample(range(12), 2)
        assert c.evaluator((a, b)) == c.evaluator((a, b))
        assert c.evaluator((a, b)) == c.evaluator((b, a)) == abs(values[a] - values[b])


def test_sunflower_injective():
    report = max_monochromatic_sunflower(injective_colouring(k=2), GroundSet(6))
    assert report.petals == 1


def test_sunflower_constant():
    report = max_monochromatic_sunflower(constant_colouring(k=2), GroundSet(5))
    assert report.petals == 4
    assert len(report.core) == 1
    assert all(report.core[0] in e for e in report.witness_edges)


def test_sunflower_sidon_123():
    c = sidon_colouring(IntegerInstance(values=(1, 2, 3)))
    report = max_monochromatic_sunflower(c, GroundSet(3))
    assert report.petals == 2
    assert report.core == (1,)
    assert report.colour == b"1"
    assert set(report.witness_edges) == {(0, 1), (1, 2)}


def test_sunflower_h0_is_largest_class():
    c = constant_colouring(k=2, h=0)
    report = max_monochromatic_sunflower(c, GroundSet(5))
    assert report.core == ()
    assert report.petals == 10


def test_sunflower_witnesses_contain_core_and_colour():
    for seed in range(6):
        c = random_colouring(seed, k=3, h=1, palette=3)
        report = max_monochromatic_sunflower(c, GroundSet(7))
        for e in report.witness_edges:
            assert set(report.core) <= set(e)
            assert canonical_key(c.evaluator(e)) == report.colour
        assert len(report.witness_edges) == report.petals


@pytest.mark.parametrize("k,h,n", [(2, 0, 7), (2, 1, 8), (3, 0, 7), (3, 1, 7), (3, 2, 8)])
def test_sunflower_matches_brute_force(k, h, n):
    for seed in range(8):
        c = random_colouring(seed, k=k, h=h, palette=3)
        report = max_monochromatic_sunflower(c, GroundSet(n))
        assert ((report.core, report.colour, report.petals, report.witness_edges)
                == brute_force_sunflower(c, n, h))


def test_sunflower_parameter_errors():
    # h < k is the spec's check (test_spec_invariants); k <= n is colour_classes'
    c = injective_colouring(k=2)
    with pytest.raises(ParameterError):
        max_monochromatic_sunflower(c, GroundSet(1))
    with pytest.raises(BudgetError):
        max_monochromatic_sunflower(c, GroundSet(12), budget=5)


def test_validate_lambda_sidon():
    c = sidon_colouring(IntegerInstance(values=tuple(range(1, 11))))
    ok, report = validate_lambda(c, GroundSet(10))
    assert ok and report.petals <= 2


def test_validate_lambda_constant_fails():
    ok, report = validate_lambda(constant_colouring(k=2, declared=1), GroundSet(5))
    assert not ok
    assert report.petals == 4


def test_validate_lambda_injective():
    ok, report = validate_lambda(injective_colouring(k=2, declared=1), GroundSet(6))
    assert ok and report.petals == 1


def test_conflict_injective_empty():
    hg = build_conflict_hypergraph(injective_colouring(k=2), GroundSet(6))
    assert all(len(edges) == 1 for edges in hg.classes)
    assert hg.num_pairs == 0


def test_conflict_constant_n3():
    hg = build_conflict_hypergraph(constant_colouring(k=2), GroundSet(3))
    assert hg.classes == (((0, 1), (0, 2), (1, 2)),)
    assert hg.num_pairs == 3


def test_conflict_sidon_123():
    c = sidon_colouring(IntegerInstance(values=(1, 2, 3)))
    hg = build_conflict_hypergraph(c, GroundSet(3))
    assert sorted(hg.classes) == [((0, 1), (1, 2)), ((0, 2),)]
    assert hg.num_pairs == 1


def test_conflict_pair_count_and_union_sizes():
    for seed in range(6):
        c = random_colouring(seed, k=3, h=2, palette=3)
        hg = build_conflict_hypergraph(c, GroundSet(8))
        assert sorted(e for edges in hg.classes for e in edges) == sorted(
            combinations(range(8), 3))
        keys = [{canonical_key(c.evaluator(e)) for e in edges} for edges in hg.classes]
        assert all(len(key) == 1 for key in keys)
        assert len(set.union(*keys)) == len(hg.classes)
        assert hg.num_pairs == sum(math.comb(len(edges), 2) for edges in hg.classes)
        for edges in hg.classes:
            for a, b in combinations(edges, 2):
                assert 4 <= len(set(a) | set(b)) <= 6


@settings(max_examples=150, deadline=None)
@given(
    colour_seed=st.integers(0, 2**32),
    k=st.sampled_from([2, 3]),
    n=st.integers(3, 10),
    palette=st.integers(1, 6),
)
@example(colour_seed=0, k=3, n=10, palette=1)
def test_conflict_degrees_match_pair_enumeration(colour_seed, k, n, palette):
    # degrees come from per-class incidence counts, never from the pairs
    c = random_colouring(colour_seed, k=k, h=1, palette=palette)
    hg = build_conflict_hypergraph(c, GroundSet(n))
    degrees, pairs = brute_force_pair_degrees(c, n)
    assert hg.pair_degrees() == degrees
    assert hg.num_pairs == pairs


def test_conflict_budget():
    with pytest.raises(BudgetError):
        build_conflict_hypergraph(constant_colouring(k=2), GroundSet(10), budget=20)


def test_conflict_pair_bound_under_valid_lambda():
    # pairs <= C(N,k) C(k,h) lambda C(N-k, k-h) whenever the audit passes
    for n in (6, 10, 14):
        c = sidon_colouring(IntegerInstance(values=tuple(range(1, n + 1))))
        ground = GroundSet(n)
        ok, _ = validate_lambda(c, ground)
        assert ok
        hg = build_conflict_hypergraph(c, ground)
        k, h, lam = c.spec.k, c.spec.h, c.spec.max_petals
        bound = math.comb(n, k) * math.comb(k, h) * lam * math.comb(n - k, k - h)
        assert hg.num_pairs <= bound


def test_rainbow_iff_independent():
    for seed in range(4):
        c = random_colouring(seed, k=2, h=1, palette=3)
        ground = GroundSet(7)
        hg = build_conflict_hypergraph(c, ground)
        pairs = [pair for edges in hg.classes for pair in combinations(edges, 2)]
        for subset in all_subsets(7):
            s = set(subset)
            independent = not any(set(a) <= s and set(b) <= s for a, b in pairs)
            assert verify_rainbow(c, subset) == independent
