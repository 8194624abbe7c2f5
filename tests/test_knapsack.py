import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from _oracles import brute_force_lex, full_level_lex, per_problem_min_knapsack, subsets
from gapcg import knapsack
from gapcg.instance import GeneratorSpec, generate
from gapcg.knapsack import (KnapsackProblem, LexKnapsackProblem, lex_knapsack, min_knapsack,
                            min_knapsack_batch)


def enum_min(problem: KnapsackProblem):
    bits = subsets(problem.n)
    ok = bits @ problem.weight <= problem.capacity
    vals = bits @ problem.profit
    return float(vals[ok].min())


def check_capacity(problem, selection):
    assert problem.weight[selection].sum() <= problem.capacity


# ---------------------------------------------------------------- min_knapsack

def test_min_knapsack_frozen_example():
    # brute force over all 8 subsets gives value -5 via items {0, 1}
    sol = min_knapsack(KnapsackProblem([-2, -3, -1], [3, 4, 5], 7))
    assert sol.value == -5
    assert list(np.flatnonzero(sol.selection)) == [0, 1]


def test_min_knapsack_all_nonnegative_profits():
    sol = min_knapsack(KnapsackProblem([1.0, 0.0, 2.5], [1, 1, 1], 3))
    assert sol.value == 0.0
    assert not sol.selection.any()


def test_min_knapsack_item_exceeding_capacity():
    sol = min_knapsack(KnapsackProblem([-10.0], [9], 5))
    assert sol.value == 0.0
    assert not sol.selection.any()


def test_min_knapsack_zero_weight_items():
    sol = min_knapsack(KnapsackProblem([-1.5, 0.0, -0.5], [0, 0, 0], 0))
    assert sol.value == -2.0
    assert list(sol.selection) == [True, False, True]


def test_min_knapsack_matches_enumeration_seeded():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        n = int(rng.integers(1, 16))
        problem = KnapsackProblem(rng.normal(0, 5, n).round(4),
                                  rng.integers(0, 9, n), int(rng.integers(0, 51)))
        sol = min_knapsack(problem)
        check_capacity(problem, sol.selection)
        assert sol.value == pytest.approx(problem.profit[sol.selection].sum(), abs=1e-12)
        assert abs(sol.value - enum_min(problem)) <= 1e-9


def test_min_knapsack_capacity_monotone():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        profit = rng.normal(0, 3, n).round(3)
        weight = rng.integers(1, 8, n)
        cap = int(rng.integers(0, 30))
        lo = min_knapsack(KnapsackProblem(profit, weight, cap)).value
        hi = min_knapsack(KnapsackProblem(profit, weight, cap + int(rng.integers(1, 6)))).value
        assert hi <= lo + 1e-12


# ---------------------------------------------------------- min_knapsack_batch

@st.composite
def knapsack_batches(draw):
    """Up to six rows over a shared item count, single rows and the empty
    batch (which no reduction of the kernel may reject) included. Each row's
    profits are ties (repeated values, exact zeros), sevenths or normal
    floats (whose sums depend on the order they are added in), nonnegative
    (no candidate), or extremes (+-inf, +-1e308 and finite values: the inf
    arithmetic and the overflow of the DP). Weights include zeros and reach
    the row's capacity, so a heavy candidate makes the padding wide;
    capacities run from 0 to 200 and differ by row."""
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["tied", "sevenths", "normal", "no candidate",
                                           "extreme"]), min_size=m, max_size=m))
    profit = np.array([{"tied": rng.choice([-3.0, -2.5, -1.0, -0.5, 0.0, 1.0], n),
                        "sevenths": rng.integers(-140, 141, n) / 7,
                        "normal": rng.normal(-2, 8, n),
                        "no candidate": rng.uniform(0, 5, n),
                        "extreme": rng.choice([-np.inf, np.inf, -1e308, 1e308, -1.0, 0.0], n),
                        }[kind] for kind in kinds])
    capacity = np.array(draw(st.lists(st.one_of(st.just(0), st.integers(0, 30),
                                                st.integers(0, 200)),
                                      min_size=m, max_size=m)))
    heavy = draw(st.sampled_from(["small", "up to capacity"]))
    if heavy == "small":
        weight = rng.integers(0, 8, (m, n))
    else:
        weight = rng.integers(0, capacity[:, None] + 1, (m, n))
    return profit.reshape(m, n), weight, capacity


@given(batch=knapsack_batches(),
       group_bytes=st.sampled_from([1, 600, knapsack._GROUP_BYTES]))
def test_min_knapsack_batch_matches_min_knapsack_row_by_row(batch, group_bytes):
    # small DP byte budgets split the rows into groups, down to one row each
    profit, weight, capacity = batch
    with patch.object(knapsack, "_GROUP_BYTES", group_bytes):
        values, selection = min_knapsack_batch(profit, weight, capacity)
    assert selection.shape == profit.shape and len(values) == len(capacity)
    for r in range(len(capacity)):
        problem = KnapsackProblem(profit[r], weight[r], int(capacity[r]))
        ref = per_problem_min_knapsack(problem)
        one = min_knapsack(problem)  # the one-row case
        for value, sel in [(values[r], selection[r]), (one.value, one.selection)]:
            assert type(value) is float
            assert np.float64(value).tobytes() == np.float64(ref.value).tobytes()
            assert sel.tobytes() == ref.selection.tobytes()


def test_min_knapsack_batch_minus_inf_row_leaves_next_rows_pads_at_inf():
    # row 0 reaches -inf at its top capacity, where row 1's pads gather
    # from; +inf there plus -inf is NaN, which the DP must not keep
    profit = np.array([[-np.inf, -2.0, -np.inf, -np.inf], [-2.0, -1.0, -2.0, -np.inf]])
    weight = np.array([[4, 4, 4, 1], [1, 2, 3, 4]])
    values, selection = min_knapsack_batch(profit, weight, np.array([1, 4]))
    assert values == [-np.inf, -np.inf]
    assert selection.tolist() == [[False, False, False, True], [False, False, False, True]]


def test_min_knapsack_batch_memory_does_not_grow_with_rows():
    # 80 rows of 1,600 candidates at capacity ~240: one DP over all rows would
    # hold a 31 MB traceback table, 80 times one row's
    inst = generate(GeneratorSpec(80, 1600, seed=7))
    profit = -np.random.default_rng(0).uniform(1.0, 2.0, (80, 1600))
    tracemalloc.start()
    try:
        values, selection = min_knapsack_batch(profit, inst.resource, inst.capacity)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12e6
    for r in (0, 79):
        ref = per_problem_min_knapsack(KnapsackProblem(profit[r], inst.resource[r],
                                                       int(inst.capacity[r])))
        assert values[r] == ref.value and (selection[r] == ref.selection).all()


def test_min_knapsack_batch_rejects_bad_shapes_and_negatives():
    with pytest.raises(ValueError):
        min_knapsack_batch(np.zeros((2, 3)), np.zeros((2, 3), dtype=int), [1])
    with pytest.raises(ValueError):
        min_knapsack_batch(np.zeros((1, 3)), np.zeros((1, 2), dtype=int), [1])
    with pytest.raises(ValueError):
        min_knapsack_batch(np.zeros((1, 2)), [[1, -1]], [1])
    with pytest.raises(ValueError):
        min_knapsack_batch(np.zeros((1, 2)), [[1, 1]], [-1])
    for profit, weight, capacity in [([0.0, 1.0], [1], 1), ([0.0, 1.0], [1, -1], 1),
                                     ([0.0, 1.0], [1, 1], -1)]:
        with pytest.raises(ValueError):
            KnapsackProblem(profit, weight, capacity)


# ---------------------------------------------------------------- lex_knapsack

def lex_problem(sim, rc, w, cap, budget):
    return LexKnapsackProblem(sim, rc, w, cap, budget)


def test_lex_frozen_example():
    # brute force over all 8 subsets with lexicographic comparison
    res = lex_knapsack(lex_problem([1, 1, -1], [5, -4, -3], [2, 2, 2], 4, 0.0))
    assert res is not None
    sim, rc, sel = res
    assert sim == 1 and rc == -4.0
    assert list(np.flatnonzero(sel)) == [1]


def test_lex_unconstrained_budget():
    res = lex_knapsack(lex_problem([1, 1, 1], [2.0, -1.0, 3.0], [0, 0, 0], 0, np.inf))
    sim, rc, sel = res
    assert sim == 3 and rc == pytest.approx(4.0)
    assert sel.all()


def test_lex_infeasible_budget():
    assert lex_knapsack(lex_problem([1, 1], [3.0, 4.0], [1, 1], 2, -100.0)) is None


def test_lex_empty_problem():
    assert lex_knapsack(lex_problem([], [], [], 0, -1.0)) is None
    sim, rc, sel = lex_knapsack(lex_problem([], [], [], 0, 0.0))
    assert sim == 0 and rc == 0.0 and len(sel) == 0


def test_lex_infinite_budget_skips_unreachable_levels():
    # no selection scores 2, so the best admissible level is 1 via item 0
    res = lex_knapsack(lex_problem([1, 0], [1.0, 2.0], [1, 1], 2, np.inf))
    assert res[:2] == (1, 1.0) and list(res[2]) == [True, False]


@pytest.mark.parametrize("rc, weight, budget", [
    ([3.0, 2.0, -1.0], [5, 5, 1], np.nan),
    ([3.0, np.nan, -1.0], [5, 5, 1], 0.0),
    ([3.0, 2.0, -np.inf], [5, 5, 1], 0.0),
    ([3.0, 2.0], [5, 5, 1], 0.0),
    ([3.0, 2.0, -1.0], [5, 5], 0.0),
    ([3.0, 2.0, -1.0], [5, -5, 1], 0.0),
], ids=["nan-budget", "nan-rc", "inf-rc", "short-rc", "short-weight", "negative-weight"])
def test_lex_problem_rejects_nan_budget_and_non_finite_rc(rc, weight, budget):
    with pytest.raises(ValueError):
        LexKnapsackProblem([1, 1, -1], rc, weight, 4, budget)


@pytest.mark.parametrize("sim, ok", [
    ([1, 0, -1], True), ([], True), ([2, 0, 0], False), ([0, -2, 0], False),
    ([0, 0, np.iinfo(np.int64).min], False), ([np.iinfo(np.int64).max, 0, 0], False),
], ids=["unit", "empty", "two", "minus-two", "int64-min", "int64-max"])
def test_lex_problem_accepts_exactly_unit_scores(sim, ok):
    n = len(sim)
    if ok:
        assert LexKnapsackProblem(sim, [0.0] * n, [1] * n, 4, 0.0).n == n
    else:
        with pytest.raises(ValueError, match="sim entries"):
            LexKnapsackProblem(sim, [0.0] * n, [1] * n, 4, 0.0)


def test_brute_force_guard():
    with pytest.raises(ValueError):
        brute_force_lex(lex_problem([0] * 21, [0.0] * 21, [1] * 21, 5, 0.0))


def test_brute_force_empty():
    assert brute_force_lex(lex_problem([], [], [], 0, -0.5)) is None
    sim, rc, sel = brute_force_lex(lex_problem([], [], [], 0, 0.0))
    assert sim == 0 and rc == 0.0


def test_lex_matches_brute_force_seeded():
    rng = np.random.default_rng(77)
    for _ in range(1000):
        n = int(rng.integers(0, 13))
        problem = lex_problem(rng.integers(-1, 2, n), rng.normal(0, 5, n).round(4),
                              rng.integers(0, 8, n), int(rng.integers(0, 30)),
                              float(rng.normal(0, 4)))
        mine = lex_knapsack(problem)
        ref = brute_force_lex(problem)
        assert (mine is None) == (ref is None)
        if mine is not None:
            assert mine[0] == ref[0]
            assert abs(mine[1] - ref[1]) <= 1e-9
            check_capacity(problem, mine[2])
            assert problem.rc_coeff[mine[2]].sum() <= problem.rc_budget


@st.composite
def lex_problems(draw):
    """Up to 12 items with zero weights and ties; the budget lands below,
    at or above the minimum reduced cost over the capacity-feasible sets.
    Reduced costs are quarters, so every sum is exact and ties are real."""
    n = draw(st.integers(0, 12))
    sim = draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n))
    rc = [q / 4 for q in draw(st.lists(st.integers(-12, 12), min_size=n, max_size=n))]
    w = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    cap = draw(st.integers(0, 15))
    budget = enum_min(KnapsackProblem(rc, w, cap)) + draw(st.integers(-6, 30)) / 4
    return lex_problem(sim, rc, w, cap, budget)


@given(problem=lex_problems())
def test_lex_matches_brute_force_property(problem):
    mine = lex_knapsack(problem)
    ref = brute_force_lex(problem)
    assert (mine is None) == (ref is None)
    if mine is not None:
        sim, rc, sel = mine
        assert (sim, rc) == ref[:2]
        assert problem.sim[sel].sum() == sim and problem.rc_coeff[sel].sum() == rc
        check_capacity(problem, sel)
        assert rc <= problem.rc_budget


@st.composite
def workload_lex_problems(draw):
    """Problems at the size of the benchmark's ``mt`` calls: up to 60 items,
    scores mostly -1 (a template column covers few jobs), reduced costs of
    both signs with exact zeros, and a budget near the minimum reduced cost.
    Reduced costs are quarters, so every sum is exact."""
    n = draw(st.integers(0, 60))
    sim = draw(st.lists(st.sampled_from([-1, -1, -1, 0, 1]), min_size=n, max_size=n))
    quarters = st.one_of(st.just(0), st.integers(-40, 40))
    rc = [q / 4 for q in draw(st.lists(quarters, min_size=n, max_size=n))]
    w = draw(st.lists(st.integers(0, 25), min_size=n, max_size=n))
    cap = draw(st.integers(0, 150))
    budget = min_knapsack(KnapsackProblem(rc, w, cap)).value + draw(st.integers(-6, 30)) / 4
    return lex_problem(sim, rc, w, cap, budget)


@given(problem=workload_lex_problems())
def test_lex_matches_full_level_dp_property(problem):
    mine = lex_knapsack(problem)
    ref = full_level_lex(problem)
    assert (mine is None) == (ref is None)
    if mine is not None:
        assert (mine[0], mine[1], mine[2].tobytes()) == (ref[0], ref[1], ref[2].tobytes())


def test_lex_budget_monotone_in_best_sim():
    rng = np.random.default_rng(8)
    for _ in range(200):
        n = int(rng.integers(1, 10))
        sim = rng.integers(-1, 2, n)
        rc = rng.normal(0, 5, n).round(3)
        w = rng.integers(0, 6, n)
        cap = int(rng.integers(0, 20))
        b1 = float(rng.normal(0, 3))
        b2 = b1 + float(rng.random() * 5)
        r1 = lex_knapsack(lex_problem(sim, rc, w, cap, b1))
        r2 = lex_knapsack(lex_problem(sim, rc, w, cap, b2))
        if r1 is not None:
            assert r2 is not None
            assert r2[0] >= r1[0]


def test_lex_memory_stays_bounded_at_or_library_scale():
    # machine 0 of an 80 x 1600 instance with every item kept (scores +-1,
    # negative reduced costs): the widest score band the DP can meet
    inst = generate(GeneratorSpec(80, 1600, seed=7))
    rng = np.random.default_rng(0)
    problem = lex_problem(rng.choice([-1, 1], 1600), -rng.uniform(1.0, 2.0, 1600),
                          inst.resource[0], int(inst.capacity[0]), 0.0)
    tracemalloc.start()
    try:
        best_sim, rc, sel = lex_knapsack(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64e6
    check_capacity(problem, sel)
    assert problem.sim[sel].sum() == best_sim > 0 and rc < 0
