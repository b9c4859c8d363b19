import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    constant_colouring,
    injective_colouring,
    random_colouring,
    reference_sample_and_delete,
)
from rainbowsets.algebra import IntegerInstance, sidon_colouring
from rainbowsets.engine import (
    BENCH_CSV_HEADER,
    BenchRecord,
    SamplePlan,
    bench_csv,
    bench_trials,
    derive_seed,
    estimate_exponent,
    exact_max_rainbow,
    greedy_rainbow,
    run_algorithm,
    sample_and_delete,
    verify_rainbow,
)
from rainbowsets.errors import BudgetError, ParameterError
from rainbowsets.hypergraph import Colouring, ColouringSpec, GroundSet


def sidon_instance(n):
    c = sidon_colouring(IntegerInstance(values=tuple(range(1, n + 1))))
    return c, GroundSet(n)


# ---------------------------------------------------------------- greedy


def test_greedy_sidon_hand_trace():
    c, g = sidon_instance(6)
    result = greedy_rainbow(c, g)
    assert result.subset == (0, 1, 3)  # values 1, 2, 4
    assert result.verified


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
    natural = greedy_rainbow(c, g, order=list(range(6)))
    assert natural.subset == (0, 1, 3)
    with pytest.raises(ParameterError):
        greedy_rainbow(c, g, order=[0, 1, 2])
    with pytest.raises(ParameterError):
        greedy_rainbow(c, g, order=[0, 0, 1, 2, 3, 4])


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
    full = SamplePlan.from_spec(1, 2, 1, seed=0, shrink=1.0)
    assert full.p == 1.0


def test_plan_validation():
    with pytest.raises(ParameterError):
        SamplePlan.from_spec(10, 2, 1, seed=0, p=0.0)
    with pytest.raises(ParameterError):
        SamplePlan.from_spec(10, 2, 1, seed=0, p=1.5)
    with pytest.raises(ParameterError):
        SamplePlan.from_spec(10, 2, 1, seed=0, shrink=0.0)
    with pytest.raises(ParameterError):
        SamplePlan.from_spec(10, 2, 1, seed=0, shrink=1.0001)


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


def test_sample_plan_mismatch():
    c, g = sidon_instance(10)
    plan = SamplePlan.from_spec(11, 2, 1, seed=0)
    with pytest.raises(ParameterError):
        sample_and_delete(c, g, plan)


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
    plan = SamplePlan(n=n, k=k, h=1, p=p, seed=plan_seed)
    result = sample_and_delete(c, GroundSet(n), plan)
    subset, stats = reference_sample_and_delete(c, n, plan)
    assert result.subset == subset
    assert result.stats == stats
    assert list(result.stats) == list(stats)
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


def test_sample_float_colours_raise_type_error():
    # classes are keyed by canonical_key, which has no float encoding
    c = Colouring(ColouringSpec(2, 1, 1), lambda e: e[0] / 2, "halves")
    plan = SamplePlan.from_spec(6, 2, 1, seed=0, p=1.0)
    with pytest.raises(TypeError, match="no canonical key for float"):
        sample_and_delete(c, GroundSet(6), plan)


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


def test_exact_limit_and_override():
    c, g = sidon_instance(21)
    with pytest.raises(BudgetError):
        exact_max_rainbow(c, g)
    result = exact_max_rainbow(c, g, limit=21)
    assert result.verified


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
    # one colour pass for the classes, then the greedy seed and the final
    # check; the search itself reads class indices and colours nothing
    g = GroundSet(9)
    c, calls = counting_colouring(random_colouring(3, k=3, h=2, palette=6))
    greedy_rainbow(c, g)
    greedy_calls = len(calls)
    calls.clear()
    result = exact_max_rainbow(c, g)
    assert result.verified
    expected = math.comb(9, 3) + greedy_calls + math.comb(result.size, 3)
    assert len(calls) == expected == 104


@pytest.mark.parametrize("n,optimum", [(25, 6), (26, 7), (34, 7), (35, 8)])
def test_exact_sidon_matches_golomb_rulers(n, optimum):
    # optimal Golomb rulers (OEIS A003022): 7 marks need length 25 and
    # 8 marks need length 34, so 1..25 and 1..34 just miss them
    c, g = sidon_instance(n)
    result = exact_max_rainbow(c, g, limit=n)
    assert result.size == optimum
    assert result.verified


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


def fake_records(sizes_by_n, trials=3):
    records = []
    for n, size in sizes_by_n.items():
        for t in range(trials):
            records.append(BenchRecord(
                n=n, k=2, h=1, max_petals=2, colouring="synthetic", algorithm="greedy",
                trial=t, seed=t, rainbow_size=size, runtime_ms=1.0,
            ))
    return records


def test_exponent_exact_power_law():
    # sizes are exact cube roots of the grid
    records = fake_records({10**6: 100, 8 * 10**6: 200, 27 * 10**6: 300, 64 * 10**6: 400})
    fit = estimate_exponent(records)
    assert fit.slope == pytest.approx(1 / 3, abs=1e-9)
    assert fit.stderr == pytest.approx(0.0, abs=1e-9)


def test_exponent_constant_sizes():
    records = fake_records({10: 7, 100: 7, 1000: 7, 10000: 7})
    fit = estimate_exponent(records)
    assert fit.slope == pytest.approx(0.0, abs=1e-12)


def test_exponent_full_ground_set():
    # rainbow size equal to N, as for a colouring with no repeats at all
    records = fake_records({10: 10, 100: 100, 1000: 1000, 10000: 10000})
    fit = estimate_exponent(records)
    assert fit.slope == pytest.approx(1.0, abs=1e-9)


def test_exponent_requires_enough_data():
    with pytest.raises(ParameterError):
        estimate_exponent(fake_records({10: 5, 100: 6, 1000: 7}))
    with pytest.raises(ParameterError):
        estimate_exponent(fake_records({10: 5, 100: 6, 1000: 7, 10000: 8}, trials=2))


# ------------------------------------------------------------- harness


def test_derive_seed_deterministic_and_spread():
    assert derive_seed(1, 0) == derive_seed(1, 0)
    seeds = {derive_seed(42, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert all(0 <= s < 2**64 for s in seeds)


def test_bench_trials_and_csv():
    c, g = sidon_instance(25)
    records = bench_trials(c, g, "greedy", trials=3, master_seed=5)
    assert [r.trial for r in records] == [0, 1, 2]
    assert all(r.seed == derive_seed(5, r.trial) for r in records)
    assert all(0 < r.rainbow_size <= 25 for r in records)
    text = bench_csv(records)
    lines = text.splitlines()
    assert lines[0] == BENCH_CSV_HEADER
    assert lines[0] == "N,k,h,lambda,colouring,algorithm,trial,seed,rainbow_size,runtime_ms"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[:7] == ["25", "2", "1", "2", "sidon", "greedy", "0"]


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
