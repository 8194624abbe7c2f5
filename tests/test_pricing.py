import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from _oracles import (brute_force_lex, min_reduced_cost, per_machine_dantzig_price,
                      sequential_lt_price, similarity_class)
from conftest import FrozenPessoaState, random_instance
from gapcg import pricing
from gapcg.instance import GapInstance
from gapcg.knapsack import LexKnapsackProblem
from gapcg.pricing import (DEFAULT_DELTA, LT_ABSOLUTE_FLOOR, LT_MAX_ITERATIONS, PessoaState,
                           dantzig_price, dantzig_round, lt_price, lt_round, mt_price,
                           pessoa_round, reduced_cost_sum, similarity_vector)

EPS = 1e-6


def random_duals(rng, inst):
    pi = rng.normal(8, 6, inst.num_jobs).round(3)
    mu = rng.normal(0, 5, inst.num_machines).round(3)
    return pi, mu


def random_template(rng, inst):
    y = rng.random((inst.num_machines, inst.num_jobs))
    snap = rng.random(y.shape)
    y[snap < 0.35] = 0.0
    y[snap > 0.75] = 1.0
    return y


# ------------------------------------------------------------------ similarity

def test_similarity_class_table():
    delta = 1e-6
    cases = [(1.0, 1), (1 - 1e-7, 1), (0.5, 0), (1e-7, -1), (0.0, -1)]
    for y, expect in cases:
        assert similarity_class(y, delta) == expect


def test_similarity_boundaries_are_inclusive():
    delta = 0.1
    assert similarity_class(delta, delta) == 0          # [delta, 1-delta]
    assert similarity_class(1 - delta, delta) == 0
    assert similarity_class(np.nextafter(delta, 0), delta) == -1
    assert similarity_class(np.nextafter(1 - delta, 1), delta) == 1


def test_similarity_vector_matches_scalar():
    # random entries, then the cases of the two tests above at their deltas
    rng = np.random.default_rng(0)
    for delta in (0.2, 1e-6, 0.1):
        y = np.concatenate([rng.random(50), [1.0, 1 - 1e-7, 0.5, 1e-7, 0.0, delta, 1 - delta,
                                             np.nextafter(delta, 0), np.nextafter(1 - delta, 1)]])
        vec = similarity_vector(y, delta)
        assert all(vec[k] == similarity_class(float(y[k]), delta) for k in range(len(y)))
        # the driver classifies its (machines x jobs) template matrix in one call
        matrix = np.stack([y, rng.permutation(y), rng.permutation(y)])
        classes = similarity_vector(matrix, delta)
        assert classes.shape == matrix.shape and classes.dtype == np.int64
        assert all(classes[i, k] == similarity_class(float(matrix[i, k]), delta)
                   for i in range(3) for k in range(len(y)))


# ---------------------------------------------------------------- dantzig_price

def test_dantzig_zero_profit_no_column():
    inst = random_instance(0, m=1, n=4)
    pi = inst.cost[0].astype(float)  # all profits zero
    out = dantzig_price(inst, 0, pi, 0.0, EPS)
    assert out.selection is None
    assert out.dantzig_rc == pytest.approx(0.0)


def test_dantzig_single_improving_item():
    inst = random_instance(1, m=1, n=4)
    pi = np.zeros(4)
    pi = pi.copy()
    pi[2] = inst.cost[0, 2] + 1.0
    out = dantzig_price(inst, 0, pi, 0.0, EPS)
    assert out.dantzig_rc == pytest.approx(-1.0)
    assert list(np.flatnonzero(out.selection)) == [2]


def test_dantzig_completeness_vs_enumeration():
    rng = np.random.default_rng(11)
    for trial in range(300):
        inst = random_instance(1000 + trial, m=2, n=int(rng.integers(2, 9)))
        pi, mu = random_duals(rng, inst)
        for i in range(inst.num_machines):
            out = dantzig_price(inst, i, pi, float(mu[i]), EPS)
            ref, _ = min_reduced_cost(inst, i, pi)
            assert out.dantzig_rc == pytest.approx(ref - mu[i], abs=1e-9)
            assert (out.selection is None) == (out.dantzig_rc > -EPS)
            if out.selection is not None:
                assert reduced_cost_sum(inst.cost[i], pi, out.selection) <= mu[i] - EPS


def assert_same_outcome(out, ref):
    """Every :class:`PricingOutcome` field equal in value and type, the
    selection byte for byte."""
    for name in OUTCOME_FIELDS:
        mine, theirs = getattr(out, name), getattr(ref, name)
        assert type(mine) is type(theirs) and mine == theirs, name
    assert (out.selection is None) == (ref.selection is None)
    if ref.selection is not None:
        assert out.selection.tobytes() == ref.selection.tobytes()


@given(m=st.integers(1, 5), n=st.integers(2, 14), seed=st.integers(0, 2**16),
       phase_one=st.booleans())
def test_dantzig_round_matches_per_machine_dantzig_price_property(m, n, seed, phase_one):
    inst = random_instance(seed, m=m, n=n)
    if phase_one:
        inst = zero_cost(inst)
    rng = np.random.default_rng(seed)
    pi, mu = random_duals(rng, inst)
    if phase_one:
        pi, mu = np.abs(pi) / 8, mu / 8
    order = rng.permutation(m).tolist()
    got = dantzig_round(inst, order, pi, mu, EPS)
    assert [out.machine for out in got] == order
    for out, i in zip(got, order):
        ref = per_machine_dantzig_price(inst, i, pi, float(mu[i]), EPS)
        assert_same_outcome(out, ref)
        assert_same_outcome(dantzig_price(inst, i, pi, float(mu[i]), EPS), ref)


# -------------------------------------------------------------------- mt_price

def test_mt_flat_template_collapses_to_tiebreak():
    inst = random_instance(2, m=1, n=6)
    rng = np.random.default_rng(2)
    pi, _ = random_duals(rng, inst)
    y = np.full(inst.num_jobs, 0.5)
    base = dantzig_price(inst, 0, pi, 5.0, EPS)
    out = mt_price(inst, 0, similarity_vector(y, DEFAULT_DELTA), pi, 5.0, EPS)
    if out.selection is not None:
        rc = reduced_cost_sum(inst.cost[0], pi, out.selection) - 5.0
        assert rc == pytest.approx(base.dantzig_rc, abs=1e-9)
        assert out.similarity == 0


def test_mt_matches_brute_force_lex():
    rng = np.random.default_rng(3)
    for trial in range(200):
        inst = random_instance(2000 + trial, m=1, n=int(rng.integers(2, 10)))
        pi, mu = random_duals(rng, inst)
        f = similarity_vector(random_template(rng, inst)[0], 1e-6)
        out = mt_price(inst, 0, f, pi, float(mu[0]), EPS)
        if out.selection is None:
            continue
        ref = brute_force_lex(LexKnapsackProblem(f, inst.cost[0] - pi, inst.resource[0],
                                                 int(inst.capacity[0]), float(mu[0]) - EPS))
        assert ref is not None
        assert out.similarity == ref[0]
        rc = reduced_cost_sum(inst.cost[0], pi, out.selection)
        assert rc == pytest.approx(ref[1], abs=1e-9)


def test_mt_full_template_recovered_when_budget_allows():
    inst = random_instance(4, m=1, n=5)
    y = np.ones(inst.num_jobs)
    load = int(inst.resource[0].sum())
    if load <= inst.capacity[0]:
        pi = inst.cost[0] + 100.0
        out = mt_price(inst, 0, similarity_vector(y, DEFAULT_DELTA), pi, 0.0, EPS)
        assert out.selection.all()
        assert out.similarity == inst.num_jobs


# -------------------------------------------------------------------- lt_price

def test_lt_absent_when_dantzig_absent():
    inst = random_instance(5, m=1, n=5)
    alpha_warm = np.full(1, 0.5)
    out = lt_price(inst, 0, similarity_vector(np.zeros(5), DEFAULT_DELTA),
                   inst.cost[0].astype(float), 0.0, EPS, alpha_warm)
    assert out.selection is None
    assert out.dantzig_rc is not None


def test_lt_template_aligned_with_dantzig_column():
    inst = random_instance(6, m=1, n=6)
    rng = np.random.default_rng(6)
    pi = inst.cost[0] + rng.random(6).round(3) + 0.5  # every item improving
    base = dantzig_price(inst, 0, pi, 0.0, EPS)
    assert base.selection is not None
    f = similarity_vector(base.selection.astype(float), DEFAULT_DELTA)
    out = lt_price(inst, 0, f, pi, 0.0, EPS, np.full(1, 0.5))
    assert np.array_equal(out.selection, base.selection)


def test_lt_flat_template_reverts_to_dantzig():
    rng = np.random.default_rng(7)
    inst = random_instance(7, m=1, n=8)
    pi, _ = random_duals(rng, inst)
    base = dantzig_price(inst, 0, pi, 3.0, EPS)
    out = lt_price(inst, 0, similarity_vector(np.full(8, 0.5), DEFAULT_DELTA), pi, 3.0, EPS,
                   np.full(1, 0.5))
    if base.selection is None:
        assert out.selection is None
    else:
        rc_lt = reduced_cost_sum(inst.cost[0], pi, out.selection)
        rc_d = reduced_cost_sum(inst.cost[0], pi, base.selection)
        assert rc_lt == pytest.approx(rc_d, abs=1e-9)


def test_lt_against_mt_oracle():
    rng = np.random.default_rng(9)
    compared = 0
    for trial in range(200):
        inst = random_instance(4000 + trial, m=1, n=int(rng.integers(3, 10)))
        pi, mu = random_duals(rng, inst)
        f = similarity_vector(random_template(rng, inst)[0], DEFAULT_DELTA)
        alpha_warm = np.full(1, 0.5)
        lt = lt_price(inst, 0, f, pi, float(mu[0]), EPS, alpha_warm)
        mt = mt_price(inst, 0, f, pi, float(mu[0]), EPS)
        assert (lt.selection is None) == (mt.selection is None)
        if lt.selection is None:
            continue
        compared += 1
        assert reduced_cost_sum(inst.cost[0], pi, lt.selection) <= mu[0] - EPS
        assert lt.similarity <= mt.similarity
        if lt.proof_fired:
            assert lt.similarity == mt.similarity
        assert alpha_warm[0] > 0
    assert compared > 50


def test_lt_warm_start_updates():
    inst = random_instance(10, m=1, n=8)
    rng = np.random.default_rng(10)
    pi, mu = random_duals(rng, inst)
    alpha_warm = np.full(1, 0.5)
    f = similarity_vector(random_template(rng, inst)[0], DEFAULT_DELTA)
    out = lt_price(inst, 0, f, pi, float(mu[0]), EPS, alpha_warm)
    if out.selection is not None and not out.flagged:
        assert alpha_warm[0] == out.alpha_used


OUTCOME_FIELDS = ("machine", "dantzig_rc", "similarity", "alpha_used", "flagged",
                  "proof_fired")

lt_draws = given(m=st.integers(1, 5), n=st.integers(2, 14), seed=st.integers(0, 2**16),
                 phase_one=st.booleans(), fresh=st.booleans())


def lt_case(m, n, seed, phase_one, fresh):
    """A drawn LT pricing case: instance, duals, templates, machine order and
    warm weights."""
    inst = random_instance(seed, m=m, n=n)
    if phase_one:
        inst = zero_cost(inst)
    rng = np.random.default_rng(seed)
    pi, mu = random_duals(rng, inst)
    if phase_one:
        pi, mu = np.abs(pi) / 8, mu / 8
    templates = random_template(rng, inst)
    order = [int(i) for i in rng.permutation(m)]
    alpha_warm = np.full(m, 0.5) if fresh else rng.random(m) * 4
    return inst, pi, mu, templates, order, alpha_warm


def check_hull_walk(inst, i, y_i, pi, mu_i, warm, out, trace, cap=LT_MAX_ITERATIONS):
    """The invariants of machine i's hull walk, read from its trace."""
    budget = mu_i - EPS
    base = dantzig_price(inst, i, pi, mu_i, EPS).selection
    best = trace[0][4]                                  # the Dantzig column
    assert best[1] == reduced_cost_sum(inst.cost[i], pi, base)
    for k, (alpha, value, probe, other, member, stop) in enumerate(trace):
        assert member[1] <= budget                      # the member end clears the budget
        if other is None:                               # the warm probe, then the floor probe
            assert alpha == (warm if k == 0 else LT_ABSOLUTE_FLOOR)
            assert k == 0 or trace[0][2][1] <= budget
        else:                                           # a walk probe: the edge's tie weight
            assert other[1] > budget                    # the other end never clears it
            assert alpha == (other[0] - member[0]) / (other[1] - member[1])
        if probe[1] <= budget and (probe[0], -probe[1]) > (best[0], -best[1]):
            best = probe
        if k + 1 < len(trace):                          # the probe replaced its side's end
            assert stop is None
            assert trace[k + 1][3:5] == ((other, probe) if probe[1] <= budget
                                         else (probe, member))
    alpha, value, probe, other, member, stop = trace[-1]
    if stop == "proof":
        assert out.similarity >= math.floor(alpha * mu_i - value + 1e-9)
    elif stop == "hull":
        if other is None:                               # the most similar column is a member
            assert alpha <= LT_ABSOLUTE_FLOOR and probe[1] <= budget
        else:                                           # nothing lies strictly below the edge
            edge = alpha * member[1] - member[0]
            assert value >= edge - 1e-9 * (1.0 + abs(edge))
    else:
        assert stop == "cap" and len(trace) == cap
    assert out.proof_fired == (stop == "proof") and out.flagged == (stop == "cap")
    assert out.alpha_used == alpha
    # the best budget-clearing column seen: highest similarity, then lowest reduced cost
    assert out.similarity == int(similarity_vector(y_i, DEFAULT_DELTA) @ out.selection)
    assert (out.similarity, reduced_cost_sum(inst.cost[i], pi, out.selection)) == best


def hull_walks(cases: int):
    """LT rounds over seeded draws of :func:`lt_case`; yields each searching
    machine's ``(inst, i, template, pi, mu_i, warm, outcome, trace)``."""
    for seed in range(cases):
        inst, pi, mu, templates, order, alpha_warm = lt_case(1 + seed % 5, 2 + seed % 13,
                                                             seed, seed % 3 == 0,
                                                             seed % 2 == 0)
        warm = alpha_warm.copy()
        trace = {}
        got = lt_round(inst, order, similarity_vector(templates, DEFAULT_DELTA), pi, mu, EPS,
                       alpha_warm, trace=trace)
        for out, i in zip(got, order):
            if out.selection is None:
                assert trace[i] == [] and alpha_warm[i] == warm[i]
            else:
                assert alpha_warm[i] == out.alpha_used
                yield inst, i, templates[i], pi, float(mu[i]), float(warm[i]), out, trace[i]


def test_lt_hull_walk_invariants():
    stops = Counter()
    for *case, trace in hull_walks(400):
        check_hull_walk(*case, trace)
        stops[trace[-1][-1]] += 1
        stops["walk probes"] += sum(other is not None for _, _, _, other, _, _ in trace)
    # the draws reach both natural stop rules and walk along edges
    assert stops["hull"] >= 10 and stops["proof"] >= 100 and stops["walk probes"] >= 100
    assert stops["cap"] == 0


def test_lt_walk_cut_by_the_iteration_cap_is_flagged(monkeypatch):
    monkeypatch.setattr(pricing, "LT_MAX_ITERATIONS", 2)
    flagged = 0
    for *case, trace in hull_walks(200):
        check_hull_walk(*case, trace, cap=2)
        flagged += case[-1].flagged
    assert flagged >= 10


@lt_draws
def test_lt_round_matches_lt_price_property(m, n, seed, phase_one, fresh):
    inst, pi, mu, templates, order, alpha_warm = lt_case(m, n, seed, phase_one, fresh)
    classes = similarity_vector(templates, DEFAULT_DELTA)
    one_warm = alpha_warm.copy()
    trace = {}
    got = lt_round(inst, order, classes, pi, mu, EPS, alpha_warm, trace=trace)
    assert [out.machine for out in got] == order
    for out, i in zip(got, order):
        one_trace = []
        ref = lt_price(inst, i, classes[i], pi, float(mu[i]), EPS, one_warm, trace=one_trace)
        for name in OUTCOME_FIELDS:
            mine, theirs = getattr(out, name), getattr(ref, name)
            assert type(mine) is type(theirs) and mine == theirs, name
        assert (out.selection is None) == (ref.selection is None)
        if ref.selection is not None:
            assert out.selection.tobytes() == ref.selection.tobytes()
        assert trace.get(i, []) == one_trace
    assert alpha_warm.tobytes() == one_warm.tobytes()


def test_lt_round_batches_the_dantzig_round_then_each_probe_step(monkeypatch):
    calls = []
    batch = pricing.min_knapsack_batch

    def recording_batch(profit, weight, capacity):
        calls.append((profit.copy(), weight.copy(), capacity.copy()))
        return batch(profit, weight, capacity)

    monkeypatch.setattr(pricing, "min_knapsack_batch", recording_batch)
    walked = 0
    for seed in range(60):
        inst, pi, mu, templates, order, alpha_warm = lt_case(1 + seed % 5, 2 + seed % 13,
                                                             seed, seed % 3 == 0,
                                                             seed % 2 == 0)
        calls.clear()
        dantzig_round(inst, order, pi, mu, EPS)
        (base,) = calls
        assert base[0].tobytes() == (inst.cost[order] - pi).tobytes()
        assert base[1].tobytes() == inst.resource[order].tobytes()
        assert base[2].tobytes() == inst.capacity[order].tobytes()
        calls.clear()
        trace = {}
        lt_round(inst, order, similarity_vector(templates, DEFAULT_DELTA), pi, mu, EPS,
                 alpha_warm, trace=trace)
        assert calls[0][0].tobytes() == base[0].tobytes()
        # probe step s prices, in order, the machines whose walk reached it
        assert len(calls) == 1 + max(len(steps) for steps in trace.values())
        for step, (profit, weight, capacity) in enumerate(calls[1:]):
            rows = [i for i in order if len(trace[i]) > step]
            assert weight.tobytes() == inst.resource[rows].tobytes()
            assert capacity.tobytes() == inst.capacity[rows].tobytes()
            for k, i in enumerate(rows):
                minus_f = (-similarity_vector(templates[i], DEFAULT_DELTA)).astype(np.float64)
                alpha = trace[i][step][0]
                assert profit[k].tobytes() == (minus_f + alpha * (inst.cost[i] - pi)).tobytes()
        walked += len(calls) > 2
    assert walked >= 10


@lt_draws
def test_lt_hull_column_at_least_as_similar_as_bisection_property(m, n, seed, phase_one, fresh):
    inst, pi, mu, templates, order, alpha_warm = lt_case(m, n, seed, phase_one, fresh)
    classes = similarity_vector(templates, DEFAULT_DELTA)
    ref_warm = alpha_warm.copy()
    got = lt_round(inst, order, classes, pi, mu, EPS, alpha_warm)
    for out, i in zip(got, order):
        ref = sequential_lt_price(inst, i, templates[i], pi, float(mu[i]), EPS, ref_warm)
        assert (out.selection is None) == (ref.selection is None)
        if out.selection is None:
            continue
        assert reduced_cost_sum(inst.cost[i], pi, out.selection) <= mu[i] - EPS
        assert out.similarity >= ref.similarity
        if out.proof_fired:
            assert out.similarity == mt_price(inst, i, classes[i], pi, float(mu[i]),
                                              EPS).similarity


# ---------------------------------------------------------------- pessoa_round

def toyland():
    inst = random_instance(20, m=3, n=9)
    rng = np.random.default_rng(20)
    pi, mu = random_duals(rng, inst)
    pi = np.abs(pi)
    return inst, pi, mu


def test_pessoa_first_round_is_pure_dantzig():
    inst, pi, mu = toyland()
    state = PessoaState()
    outcomes, state, k = pessoa_round(state, inst, pi, mu, EPS, rmp_objective=100.0)
    assert k == 1
    for out in outcomes:
        ref = dantzig_price(inst, out.machine, pi, float(mu[out.machine]), EPS)
        assert out.dantzig_rc == pytest.approx(ref.dantzig_rc, abs=1e-12)
        if ref.selection is None:
            assert out.selection is None
        else:
            assert np.array_equal(out.selection, ref.selection)


def test_pessoa_zero_gradient_uses_convex_combination():
    inst, pi, mu = toyland()
    state = PessoaState(pi_hat=pi + 3.0, g_hat=np.zeros(inst.num_jobs), alpha=0.5,
                        last_rmp_objective=50.0)
    smoothed_target = 0.5 * (pi + 3.0) + 0.5 * pi
    outcomes, state, k = pessoa_round(state, inst, pi, mu, EPS, rmp_objective=49.0)
    if k == 1:  # accepted at the smoothed point
        for out in outcomes:
            assert out.dantzig_rc is None
            if out.selection is not None:
                rc = reduced_cost_sum(inst.cost[out.machine], pi, out.selection)
                assert rc <= mu[out.machine] - EPS
            ref = dantzig_price(inst, out.machine, smoothed_target, 1e9, EPS)
            if out.selection is not None:
                assert np.array_equal(out.selection, ref.selection)


def test_pessoa_alpha_update_rule():
    inst, pi, mu = toyland()
    state = PessoaState(pi_hat=pi - 1.0, g_hat=np.ones(inst.num_jobs), alpha=0.5,
                        last_rmp_objective=np.inf)
    pessoa_round(state, inst, pi, mu, EPS, rmp_objective=10.0)
    # agreement sign decides between 0.9a+0.1 and a-0.1
    assert state.alpha in (pytest.approx(0.55), pytest.approx(0.4))


def test_pessoa_alpha_update_agreement_case():
    # craft a round whose subgradient surely agrees with (pi_t - pi_hat)
    inst = random_instance(21, m=1, n=4)
    pi = np.zeros(4)  # nothing improves: minimizers empty, coverage zero, g = 1
    mu = np.array([-1.0])
    state = PessoaState(pi_hat=pi - 2.0, g_hat=np.ones(4), alpha=0.5,
                        last_rmp_objective=np.inf)
    pessoa_round(state, inst, pi, mu, EPS, rmp_objective=5.0)
    # g = 1 vector, pi_t - pi_hat = +2 vector: agreement > 0
    assert state.alpha == pytest.approx(0.9 * 0.5 + 0.1)


def test_pessoa_smoothed_duals_nonnegative_and_formula():
    rng = np.random.default_rng(30)
    from gapcg.pricing import _smoothed_duals
    for _ in range(200):
        n = 6
        pi_t = np.abs(rng.normal(5, 4, n))
        pi_hat = np.abs(rng.normal(5, 4, n))
        g_hat = rng.normal(0, 2, n)
        alpha = float(rng.random() * 0.999)
        out = _smoothed_duals(pi_t, pi_hat, g_hat, alpha, k=1)
        assert out is not None
        assert (out >= 0.0).all()
        # independent recomputation of the directional construction
        pi_k = alpha * pi_hat + (1 - alpha) * pi_t
        gap = pi_t - pi_hat
        if np.linalg.norm(g_hat) > 0 and np.linalg.norm(gap) > 0:
            pi_g = pi_hat + np.linalg.norm(gap) * g_hat / np.linalg.norm(g_hat)
            beta = gap @ (pi_g - pi_hat) / (np.linalg.norm(gap) * np.linalg.norm(pi_g - pi_hat))
            rho = beta * pi_g + (1 - beta) * pi_t
            expect = np.maximum(0.0, pi_hat + np.linalg.norm(pi_k - pi_hat)
                                * (rho - pi_hat) / np.linalg.norm(rho - pi_hat))
            assert np.allclose(out, expect, atol=1e-10)


def backtracking_toy():
    """Two machines and four jobs on which Pessoa's backtracking runs long."""
    return GapInstance(2, 4, cost=np.array([[10, 12, 15, 11], [14, 10, 13, 16]]),
                       resource=np.array([[3, 4, 5, 3], [4, 3, 4, 5]]),
                       capacity=np.array([8, 8]))


@pytest.mark.parametrize("level, k_used, alpha_after", [
    (30.0, 7, 0.9 * 0.95 + 0.1),  # accepted at a smoothed step
    (21.0, 10, 0.95 - 0.1),       # every smoothed step fails: the pure fallback
], ids=["smoothed-step-7", "pure-fallback"])
def test_pessoa_backtracking_prices_each_step_at_its_mixed_point(monkeypatch, level, k_used,
                                                                 alpha_after):
    inst = backtracking_toy()
    pi_t, mu = np.full(4, level), np.zeros(2)
    priced = []
    batch = pricing.min_knapsack_batch

    def recording_batch(profit, weight, capacity):
        priced.append(profit.copy())
        return batch(profit, weight, capacity)

    monkeypatch.setattr(pricing, "min_knapsack_batch", recording_batch)
    state = PessoaState(pi_hat=np.zeros(4), g_hat=np.zeros(4), alpha=0.95,
                        last_rmp_objective=math.inf)
    outcomes, state, k = pessoa_round(state, inst, pi_t, mu, EPS, rmp_objective=1.0)
    assert k == k_used and len(priced) == k_used
    # step k mixes alpha_k * pi_hat + (1 - alpha_k) * pi_t, alpha_k = 1 - k(1 - 0.95),
    # and step 10 prices the pure duals
    alphas = [max(0.0, 1.0 - step * (1.0 - 0.95)) for step in range(1, 10)] + [0.0]
    points = [(1.0 - a) * pi_t for a in alphas[:k_used]]
    for profit, point in zip(priced, points):
        assert np.allclose(profit, inst.cost - point, rtol=0.0, atol=1e-12)
    fallback = k_used == 10
    for out in outcomes:
        i = out.machine
        ref = dantzig_price(inst, i, points[-1], 1e9, EPS)
        assert out.selection is not None and np.array_equal(out.selection, ref.selection)
        assert reduced_cost_sum(inst.cost[i], pi_t, out.selection) <= mu[i] - EPS
        assert out.alpha_used == 0.95
        if fallback:
            assert out.dantzig_rc == dantzig_price(inst, i, pi_t, 0.0, EPS).dantzig_rc
        else:
            assert out.dantzig_rc is None
    assert state.alpha == pytest.approx(alpha_after, abs=1e-15)


def test_pessoa_frozen_alpha_stays_zero():
    inst, pi, mu = toyland()
    state = FrozenPessoaState()
    for shift in range(4):
        pessoa_round(state, inst, pi + shift, mu, EPS, rmp_objective=100.0 - shift)
        assert state.alpha == 0.0


# -------------------------------------------------------------- phase-1 variants

def zero_cost(inst):
    """The phase-one copy of an instance: every cost is zero."""
    return replace(inst, cost=np.zeros_like(inst.cost))


def test_phase1_zero_duals_never_price():
    inst = zero_cost(random_instance(22, m=2, n=6))
    pi = np.zeros(6)
    for i in range(2):
        out = dantzig_price(inst, i, pi, 0.0, EPS)
        assert out.selection is None  # rc is exactly -mu_i = 0: nothing improves
        assert out.dantzig_rc == pytest.approx(0.0)


def test_phase1_single_uncovered_job_selected():
    inst = zero_cost(random_instance(23, m=1, n=5))
    pi = np.zeros(5)
    pi[3] = 1.0
    out = dantzig_price(inst, 0, pi, 0.0, EPS)
    assert out.selection is not None and out.selection[3]
    assert out.dantzig_rc == pytest.approx(-1.0)


def test_phase1_lt_mt_dominance():
    rng = np.random.default_rng(24)
    compared = 0
    for trial in range(100):
        inst = zero_cost(random_instance(5000 + trial, m=1, n=8))
        pi = np.abs(rng.normal(1, 1, 8)).round(3)
        mu = float(rng.normal(-1, 1))
        f = similarity_vector(random_template(rng, inst)[0], DEFAULT_DELTA)
        lt = lt_price(inst, 0, f, pi, mu, EPS, np.full(1, 0.5))
        mt = mt_price(inst, 0, f, pi, mu, EPS)
        assert (lt.selection is None) == (mt.selection is None)
        if lt.selection is not None:
            compared += 1
            assert lt.similarity <= mt.similarity
            assert reduced_cost_sum(np.zeros(8), pi, lt.selection) <= mu - EPS
    assert compared > 20
