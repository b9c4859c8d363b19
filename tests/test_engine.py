import inspect
import math
import random
import sys
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    constant_colouring,
    injective_colouring,
    random_colouring,
    reference_greedy,
    reference_sample_and_delete,
)
from rainbowsets.algebra import _MAP_SPAN, IntegerInstance, sidon_colouring
from rainbowsets.engine import (
    SamplePlan,
    _shuffled,
    derive_seed,
    estimate_exponent,
    exact_max_rainbow,
    greedy_rainbow,
    run_algorithm,
    sample_and_delete,
    verify_rainbow,
)
from rainbowsets.errors import BudgetError, ParameterError
from rainbowsets.hypergraph import (
    Colouring,
    ColouringSpec,
    GroundSet,
    build_conflict_hypergraph,
    colour_classes,
)


def sidon_instance(n):
    c = sidon_colouring(IntegerInstance(values=tuple(range(1, n + 1))))
    return c, GroundSet(n)


# ---------------------------------------------------------------- greedy


def test_greedy_sidon_hand_trace():
    c, g = sidon_instance(6)
    result = greedy_rainbow(c, g)
    assert result.subset == (0, 1, 3)  # values 1, 2, 4
    assert result.verified


def test_greedy_sidon_is_mian_chowla():
    # natural-order greedy on 1..N takes the least value that keeps every
    # difference distinct: the Mian-Chowla sequence, OEIS A005282
    c, g = sidon_instance(500)
    result = greedy_rainbow(c, g)
    assert [v + 1 for v in result.subset] == [
        1, 2, 4, 8, 13, 21, 31, 45, 66, 81, 97, 123, 148, 182, 204, 252, 290, 361, 401, 475]
    assert result.verified


@pytest.mark.parametrize("trial, spread", [pytest.param(0, 1, id="0"), pytest.param(1, 1, id="1"),
                                           pytest.param(0, 2 * _MAP_SPAN, id="sparse")])
def test_greedy_sidon_matches_the_reference_scan(trial, spread):
    # the Sidon scan skips refused values by its map on 1..n, and tests every
    # candidate exactly on sparse values spread past the map's span rule; the
    # subsets must be those of the plain scan over |x - y|, in the same
    # shuffled order
    n, seed = 30_000, derive_seed(1, trial)
    values = sorted(random.Random(spread).sample(range(1, spread * n + 1), n))
    assert (values[-1] - values[0] > _MAP_SPAN * n) == (spread > 1)
    c = sidon_colouring(IntegerInstance(values=tuple(values)))
    order = list(range(n))
    random.Random(seed).shuffle(order)
    want = reference_greedy(values, order, lambda pair: abs(pair[1] - pair[0]))
    assert greedy_rainbow(c, GroundSet(n), order=seed).subset == want


def shuffle_examples(test):
    """Examples at the shuffle's block edges: n = 2**j - 1, 2**j and 2**j + 1, where the
    draw's bit length changes, and n = 2720 and 2721, where the first draw reaches its
    4096-word cap."""
    for n in (1, 2, 3, *(2**j + d for j in (2, 5, 8, 11) for d in (-1, 0, 1)), 2720, 2721):
        test = example(n=n, seed=-n)(example(n=n, seed=2**64 + n)(test))
    return test


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 3000), seed=(st.integers(-2**80, -1) | st.just(0)
                                    | st.integers(1, 2**32) | st.integers(2**64, 2**80)))
@shuffle_examples
def test_shuffled_is_random_shuffle(n, seed):
    # greedy's order reads the generator's words in bulk; it must be the very
    # permutation random.shuffle gives, or every seeded greedy answer moves
    want = list(range(n))
    random.Random(seed).shuffle(want)
    assert _shuffled(n, seed) == want


def test_greedy_injective_takes_everything():
    c = injective_colouring(k=2)
    result = greedy_rainbow(c, GroundSet(9))
    assert result.subset == tuple(range(9))


def test_greedy_constant_takes_two():
    result = greedy_rainbow(constant_colouring(k=2), GroundSet(5))
    assert result.subset == (0, 1)


def test_greedy_below_k_edges():
    c = injective_colouring(k=3)
    result = greedy_rainbow(c, GroundSet(3))
    assert result.subset == (0, 1, 2)


def test_greedy_seeded_order_recorded_and_deterministic():
    c, g = sidon_instance(30)
    a = greedy_rainbow(c, g, order=99)
    b = greedy_rainbow(c, g, order=99)
    assert a.seed == 99
    assert a.subset == b.subset


def test_greedy_explicit_order():
    c, g = sidon_instance(6)
    natural = greedy_rainbow(c, g, order=None)
    assert natural.subset == (0, 1, 3)
    assert natural.seed is None


def test_greedy_maximality():
    # no skipped vertex can be appended at the end
    for seed in range(6):
        c = random_colouring(seed, k=2, h=1, palette=4)
        g = GroundSet(10)
        result = greedy_rainbow(c, g, order=seed)
        chosen = set(result.subset)
        for v in range(10):
            if v in chosen:
                continue
            assert not verify_rainbow(c, result.subset + (v,))


def test_greedy_requires_k_at_most_n():
    with pytest.raises(ParameterError):
        greedy_rainbow(injective_colouring(k=3), GroundSet(2))


# ------------------------------------------------------- sample and delete


def test_plan_default_probability():
    plan = SamplePlan.from_spec(100, 2, 1, seed=0)
    assert plan.p == pytest.approx(0.5 * 100 ** (-2 / 3))
    assert 0 < plan.p < 1
    # n^(-(k+h-1)/(2k-1)) is at most 1, so the default is at most one half
    assert SamplePlan.from_spec(1, 2, 1, seed=0).p == 0.5


def test_plan_validation():
    with pytest.raises(ParameterError):
        SamplePlan.from_spec(10, 2, 1, seed=0, p=0.0)
    with pytest.raises(ParameterError):
        SamplePlan.from_spec(10, 2, 1, seed=0, p=1.5)
    with pytest.raises(ParameterError):
        SamplePlan(p=1.0001, seed=0)
    with pytest.raises(TypeError):  # the default probability has no second knob
        SamplePlan.from_spec(10, 2, 1, seed=0, shrink=0.5)


def test_sample_injective_p1_keeps_everything():
    c = injective_colouring(k=2)
    g = GroundSet(7)
    plan = SamplePlan.from_spec(7, 2, 1, seed=3, p=1.0)
    result = sample_and_delete(c, g, plan)
    assert result.subset == tuple(range(7))
    assert result.stats["pairs_total"] == 0
    assert result.stats["vertices_deleted_by_hand"] == 0


def test_sample_constant_p1_tie_breaks():
    # 15 pairs on 4 vertices; max-degree deletion with smallest-id ties
    # removes 0 then 1, leaving the single edge {2, 3}
    plan = SamplePlan.from_spec(4, 2, 1, seed=5, p=1.0)
    result = sample_and_delete(constant_colouring(k=2), GroundSet(4), plan)
    assert result.subset == (2, 3)
    assert result.stats["vertices_deleted_by_hand"] == 2
    assert result.verified


def test_sample_regression_seed1():
    # pinned output of the default plan on values 1..100 with seed 1
    c, g = sidon_instance(100)
    plan = SamplePlan.from_spec(100, 2, 1, seed=1)
    result = sample_and_delete(c, g, plan)
    assert result.verified
    assert result.size >= 3
    assert result.subset == (13, 35, 91)


def test_sample_determinism():
    c, g = sidon_instance(40)
    plan = SamplePlan.from_spec(40, 2, 1, seed=77)
    first = sample_and_delete(c, g, plan)
    second = sample_and_delete(c, g, plan)
    assert first.subset == second.subset
    assert first.stats == second.stats


def test_sample_outputs_are_rainbow():
    for seed in range(8):
        c = random_colouring(seed, k=2, h=1, palette=3)
        g = GroundSet(11)
        plan = SamplePlan.from_spec(11, 2, 1, seed=seed, p=0.9)
        result = sample_and_delete(c, g, plan)
        assert result.verified
        assert verify_rainbow(c, result.subset)


@settings(max_examples=150, deadline=None)
@given(
    colour_seed=st.integers(0, 2**32),
    k=st.sampled_from([2, 3]),
    n=st.integers(3, 12),
    palette=st.integers(1, 6),
    plan_seed=st.integers(0, 2**32),
    p=st.floats(0, 1, exclude_min=True),
)
@example(colour_seed=0, k=3, n=12, palette=1, plan_seed=0, p=1.0)
@example(colour_seed=7, k=2, n=12, palette=2, plan_seed=3, p=1.0)
def test_sample_matches_full_enumeration_reference(colour_seed, k, n, palette, plan_seed, p):
    # enumerating pairs only inside the kept set changes no subset and no stat
    c = random_colouring(colour_seed, k=k, h=1, palette=palette)
    plan = SamplePlan(p=p, seed=plan_seed)
    result = sample_and_delete(c, GroundSet(n), plan)
    subset, stats = reference_sample_and_delete(c, n, plan)
    assert result.subset == subset
    assert result.stats == stats
    assert list(result.stats) == list(stats)
    assert result.verified


@pytest.mark.parametrize("colouring, n, seed", [
    (sidon_instance(40)[0], 40, 1),
    (sidon_instance(40)[0], 40, 2),
    (sidon_instance(40)[0], 40, 3),
    (constant_colouring(k=3), 10, 0),
], ids=["sidon40-1", "sidon40-2", "sidon40-3", "constant-k3-10"])
def test_sample_dense_deletion_matches_reference(colouring, n, seed):
    # nothing is sampled away, so deletion runs for many rounds through many ties
    k = colouring.spec.k
    plan = SamplePlan(p=1.0, seed=seed)
    result = sample_and_delete(colouring, GroundSet(n), plan)
    subset, stats = reference_sample_and_delete(colouring, n, plan)
    assert result.subset == subset
    assert result.stats == stats
    assert result.stats["vertices_deleted_by_hand"] >= n - 10
    assert result.verified


def test_sample_dense_regression_seed1():
    # pinned output on values 1..100 with every vertex kept: 90 deletion rounds
    c, g = sidon_instance(100)
    result = sample_and_delete(c, g, SamplePlan.from_spec(100, 2, 1, seed=1, p=1.0))
    assert result.subset == (1, 10, 12, 24, 48, 65, 80, 93, 98, 99)
    assert result.stats == {
        "pairs_total": 161700,
        "pairs_after_sampling": 161700,
        "pairs_destroyed_by_sampling": 0,
        "vertices_kept_after_sampling": 100,
        "vertices_deleted_by_hand": 90,
    }
    assert result.verified


def test_sample_budget_refused_before_any_colour():
    calls = []

    def counting(edge):
        calls.append(edge)
        return 0

    c = Colouring(ColouringSpec(2, 1, 1), counting, "counting")
    plan = SamplePlan.from_spec(60, 2, 1, seed=2)
    with pytest.raises(BudgetError, match="colour layer.* needs 1770 colour evaluations; "
                                          "budget is 1769"):
        sample_and_delete(c, GroundSet(60), plan, budget=1769)
    assert calls == []
    assert sample_and_delete(c, GroundSet(60), plan, budget=1770).verified
    assert len(calls) >= 1770


def test_sample_kept_pairs_refused_by_the_shared_builder():
    # every vertex is kept, so the C(60, 2) = 1770 colour evaluations fit the
    # budget but the kept set's conflict pairs do not; the refusal is the
    # conflict-hypergraph builder's, worded as it is for the oracle
    c, g = sidon_instance(60)
    message = "index layer: conflict pair enumeration needs 34220 pairs; budget is 2000"
    with pytest.raises(BudgetError) as caught:
        sample_and_delete(c, g, SamplePlan(p=1.0, seed=0), budget=2000)
    assert str(caught.value) == message
    with pytest.raises(BudgetError) as caught:
        build_conflict_hypergraph(c, g, budget=2000)
    assert str(caught.value) == message


def test_sample_float_colours_raise_type_error():
    # Colouring.colours checks each colour with canonical_key, which has no float encoding
    c = Colouring(ColouringSpec(2, 1, 1), lambda e: e[0] / 2, "halves")
    plan = SamplePlan.from_spec(6, 2, 1, seed=0, p=1.0)
    with pytest.raises(TypeError, match="no canonical key for float"):
        sample_and_delete(c, GroundSet(6), plan)


@pytest.mark.parametrize("odd", [1.0, True, (1, (2.0,))])
def test_every_colour_value_is_keyed(odd):
    # 1 == 1.0 == True, so grouping unchecked raw values would put the last
    # edge in the class of 1 and let the float or bool through;
    # Colouring.colours, which indexing, counting and verification read,
    # refuses it, or a float nested in a tuple, wherever it appears.  The
    # plan keeps no vertex, so only the counting pass over the whole ground
    # set sees the last edge.
    c = Colouring(ColouringSpec(2, 1, 1), lambda e: odd if e == (4, 5) else 1, "mixed")
    plan = SamplePlan(p=1e-9, seed=0)
    with pytest.raises(TypeError):
        sample_and_delete(c, GroundSet(6), plan)
    with pytest.raises(TypeError):
        colour_classes(c, GroundSet(6))
    with pytest.raises(TypeError):
        verify_rainbow(c, range(6))
    # float differences of 1..10 round apart, so {1, 2, 3} would pass as
    # rainbow by raw value although 2 - 1 == 3 - 2; verification refuses
    # the floats, and so greedy, whose scan compares raw values, cannot
    # certify its subset
    tenths = Colouring(ColouringSpec(2, 1, 2), lambda e: 0.1 * (e[1] + 1) - 0.1 * (e[0] + 1),
                       "tenths")
    with pytest.raises(TypeError):
        verify_rainbow(tenths, (0, 1, 2))
    with pytest.raises(TypeError):
        greedy_rainbow(tenths, GroundSet(10))


# ----------------------------------------------------------------- exact


def test_exact_constant():
    result = exact_max_rainbow(constant_colouring(k=2), GroundSet(5))
    assert result.size == 2


def test_exact_sidon_six():
    c, g = sidon_instance(6)
    result = exact_max_rainbow(c, g)
    assert result.size == 3


def test_exact_injective_full():
    result = exact_max_rainbow(injective_colouring(k=3), GroundSet(8))
    assert result.size == 8


def test_exact_answers_by_work_not_by_vertex_count():
    # no vertex cap: 21 vertices answer within the default budget of nodes
    c, g = sidon_instance(21)
    result = exact_max_rainbow(c, g)
    assert result.size == 6 and result.stats["nodes_explored"] == 17491
    assert result.verified


def test_exact_refuses_once_the_search_passes_its_budget():
    c, g = sidon_instance(30)
    result = exact_max_rainbow(c, g, budget=248807)
    assert result.stats["nodes_explored"] == 248807
    assert result.subset == (0, 2, 13, 14, 19, 22, 29)
    with pytest.raises(BudgetError, match=r"^search layer: the exact oracle for k=2 needs more "
                                          r"than 248806 nodes; budget is 248806$"):
        exact_max_rainbow(c, g, budget=248806)


def test_exact_refuses_k_above_n():
    with pytest.raises(ParameterError, match=r"^k=4 exceeds ground set size 3$"):
        exact_max_rainbow(injective_colouring(k=4), GroundSet(3))


def test_exact_budgets_its_mask_table():
    # 45 pairs of 10 vertices in 22 two-edge classes and one singleton: only
    # the 22 classes that can clash take a bit, so the table counts 22^2 bits
    twin = {e: i // 2 for i, e in enumerate(combinations(range(10), 2))}
    c = Colouring(ColouringSpec(2, 1, 2), twin.__getitem__, "twins")
    with pytest.raises(BudgetError, match=r"^index layer: the exact oracle's mask table needs "
                                          r"484 bits; budget is 483$"):
        exact_max_rainbow(c, GroundSet(10), budget=483)
    assert exact_max_rainbow(c, GroundSet(10), budget=484).verified


def test_exact_refuses_a_search_deeper_than_the_interpreter_allows():
    # greedy keeps vertex 0 and so loses 3 and 6; the optimum drops 0 alone,
    # so the search runs down every position before it improves on greedy
    clashes = {(0, 1): "a", (2, 3): "a", (0, 4): "b", (5, 6): "b"}
    c = Colouring(ColouringSpec(2, 1, 2), lambda e: clashes.get(e, e), "two-clashes")
    assert exact_max_rainbow(c, GroundSet(120)).size == 119
    depth = len(inspect.stack(0))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        with pytest.raises(BudgetError, match=r"^search layer: the exact oracle needs 121 nested "
                                              r"calls$"):
            exact_max_rainbow(c, GroundSet(120))
    finally:
        sys.setrecursionlimit(limit)


def test_exact_dominates_and_is_deterministic():
    for seed in range(6):
        c = random_colouring(seed, k=2, h=1, palette=4)
        g = GroundSet(10)
        exact = exact_max_rainbow(c, g)
        again = exact_max_rainbow(c, g)
        assert exact.subset == again.subset
        greedy = greedy_rainbow(c, g, order=seed)
        plan = SamplePlan.from_spec(10, 2, 1, seed=seed)
        sampled = sample_and_delete(c, g, plan)
        assert exact.size >= greedy.size
        assert exact.size >= sampled.size


def test_exact_monotone_in_ground_set():
    sizes = []
    for n in range(4, 12):
        c, g = sidon_instance(n)
        sizes.append(exact_max_rainbow(c, g).size)
    assert all(a <= b for a, b in zip(sizes, sizes[1:]))

    for seed in range(3):
        prev = 0
        for n in range(4, 10):
            c = random_colouring(seed, k=2, h=1, palette=5)
            size = exact_max_rainbow(c, GroundSet(n)).size
            assert size >= prev
            prev = size


def counting_colouring(colouring):
    """The same colouring, with an evaluator that records every edge it colours."""
    calls = []

    def evaluator(edge):
        calls.append(edge)
        return colouring.evaluator(edge)

    return Colouring(colouring.spec, evaluator, colouring.label), calls


def test_exact_colours_each_edge_once():
    # one colour pass for the classes and the final check; the greedy seed
    # and the search read class indices and colour nothing
    g = GroundSet(9)
    c, calls = counting_colouring(random_colouring(3, k=3, h=2, palette=6))
    result = exact_max_rainbow(c, g)
    assert result.verified
    assert calls[:math.comb(9, 3)] == list(combinations(range(9), 3))
    expected = math.comb(9, 3) + math.comb(result.size, 3)
    assert len(calls) == expected == 88


@pytest.mark.parametrize("n,optimum", [(25, 6), (26, 7), (34, 7), (35, 8)])
def test_exact_sidon_matches_golomb_rulers(n, optimum):
    # optimal Golomb rulers (OEIS A003022): 7 marks need length 25 and
    # 8 marks need length 34, so 1..25 and 1..34 just miss them
    c, g = sidon_instance(n)
    result = exact_max_rainbow(c, g)
    assert result.size == optimum
    assert result.verified


@pytest.mark.parametrize("n,nodes,pairs,subset", [
    (20, 12439, 1140, (2, 7, 9, 15, 18, 19)),
    (24, 50405, 2024, (0, 1, 3, 7, 12, 20)),
    (26, 73682, 2600, (0, 3, 4, 12, 18, 23, 25)),
])
def test_exact_sidon_search_is_pinned(n, nodes, pairs, subset):
    # visit order, pruning and tie-breaks: any change to them moves the node count
    c, g = sidon_instance(n)
    result = exact_max_rainbow(c, g)
    assert result.stats == {"nodes_explored": nodes, "conflict_pairs": pairs}
    assert result.subset == subset


def test_exact_k3_search_is_pinned():
    result = exact_max_rainbow(random_colouring(3, k=3, h=2, palette=6), GroundSet(9))
    assert result.stats == {"nodes_explored": 205, "conflict_pairs": 623}
    assert result.subset == (0, 1, 2, 4)


# ---------------------------------------------------------------- verify


def test_verify_vacuous_below_k():
    c = injective_colouring(k=3)
    assert verify_rainbow(c, (0, 1))
    assert verify_rainbow(c, ())


def test_verify_sidon_examples():
    c, _ = sidon_instance(5)
    assert verify_rainbow(c, (0, 1, 4))      # values 1, 2, 5
    assert not verify_rainbow(c, (0, 1, 2))  # values 1, 2, 3


def test_verify_budget():
    c, _ = sidon_instance(30)
    with pytest.raises(BudgetError):
        verify_rainbow(c, tuple(range(30)), budget=10)


# ------------------------------------------------------------- exponent


def fake_sizes(size_by_n, trials=3):
    return {n: [size] * trials for n, size in size_by_n.items()}


def test_exponent_exact_power_law():
    # sizes are exact cube roots of the grid
    fit = estimate_exponent(fake_sizes({10**6: 100, 8 * 10**6: 200, 27 * 10**6: 300,
                                        64 * 10**6: 400}))
    assert fit.slope == pytest.approx(1 / 3, abs=1e-9)
    assert fit.stderr == pytest.approx(0.0, abs=1e-9)


def test_exponent_constant_sizes():
    fit = estimate_exponent(fake_sizes({10: 7, 100: 7, 1000: 7, 10000: 7}))
    assert fit.slope == pytest.approx(0.0, abs=1e-12)


def test_exponent_full_ground_set():
    # rainbow size equal to N, as for a colouring with no repeats at all
    fit = estimate_exponent(fake_sizes({10: 10, 100: 100, 1000: 1000, 10000: 10000}))
    assert fit.slope == pytest.approx(1.0, abs=1e-9)


def test_exponent_requires_enough_data():
    with pytest.raises(ParameterError):
        estimate_exponent(fake_sizes({10: 5, 100: 6, 1000: 7}))
    with pytest.raises(ParameterError):
        estimate_exponent(fake_sizes({10: 5, 100: 6, 1000: 7, 10000: 8}, trials=2))


# ------------------------------------------------------------- harness


def test_derive_seed_deterministic_and_spread():
    assert derive_seed(1, 0) == derive_seed(1, 0)
    seeds = {derive_seed(42, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert all(0 <= s < 2**64 for s in seeds)


def test_run_algorithm_dispatch():
    c, g = sidon_instance(12)
    assert run_algorithm(c, g, "greedy", seed=1).algorithm == "greedy"
    assert run_algorithm(c, g, "sample_delete", seed=1).algorithm == "sample_delete"
    assert run_algorithm(c, g, "exact", seed=1).algorithm == "exact"
    with pytest.raises(ParameterError):
        run_algorithm(c, g, "annealing", seed=1)


def test_all_algorithms_verify_on_random_instances():
    for seed in range(5):
        c = random_colouring(seed, k=3, h=2, palette=3)
        g = GroundSet(9)
        for algorithm in ("greedy", "sample_delete", "exact"):
            result = run_algorithm(c, g, algorithm, seed=seed)
            assert result.verified
            assert verify_rainbow(c, result.subset)
