from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from _oracles import min_reduced_cost, per_machine_dantzig_price, sequential_lt_price
from conftest import FrozenPessoaState, random_instance
from gapcg.knapsack import LexKnapsackProblem, brute_force_lex
from gapcg.pricing import (LtState, PessoaState, dantzig_price, dantzig_round, lt_price,
                           lt_round, mt_price, pessoa_round, reduced_cost_sum,
                           similarity_class, similarity_vector)

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
    rng = np.random.default_rng(0)
    y = rng.random(50)
    vec = similarity_vector(y, 0.2)
    assert all(vec[k] == similarity_class(float(y[k]), 0.2) for k in range(50))


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
    out = mt_price(inst, 0, y, pi, 5.0, EPS)
    if out.selection is not None:
        rc = reduced_cost_sum(inst.cost[0], pi, out.selection) - 5.0
        assert rc == pytest.approx(base.dantzig_rc, abs=1e-9)
        assert out.similarity == 0


def test_mt_matches_brute_force_lex():
    rng = np.random.default_rng(3)
    for trial in range(200):
        inst = random_instance(2000 + trial, m=1, n=int(rng.integers(2, 10)))
        pi, mu = random_duals(rng, inst)
        y = random_template(rng, inst)[0]
        out = mt_price(inst, 0, y, pi, float(mu[0]), EPS)
        if out.selection is None:
            continue
        f = similarity_vector(y, 1e-6)
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
        out = mt_price(inst, 0, y, pi, 0.0, EPS)
        assert out.selection.all()
        assert out.similarity == inst.num_jobs


# -------------------------------------------------------------------- lt_price

def test_lt_absent_when_dantzig_absent():
    inst = random_instance(5, m=1, n=5)
    state = LtState.fresh(1)
    out = lt_price(inst, 0, np.zeros(5), inst.cost[0].astype(float), 0.0, EPS, state)
    assert out.selection is None
    assert out.dantzig_rc is not None


def test_lt_template_aligned_with_dantzig_column():
    inst = random_instance(6, m=1, n=6)
    rng = np.random.default_rng(6)
    pi = inst.cost[0] + rng.random(6).round(3) + 0.5  # every item improving
    base = dantzig_price(inst, 0, pi, 0.0, EPS)
    assert base.selection is not None
    out = lt_price(inst, 0, base.selection.astype(float), pi, 0.0, EPS, LtState.fresh(1))
    assert np.array_equal(out.selection, base.selection)


def test_lt_flat_template_reverts_to_dantzig():
    rng = np.random.default_rng(7)
    inst = random_instance(7, m=1, n=8)
    pi, _ = random_duals(rng, inst)
    base = dantzig_price(inst, 0, pi, 3.0, EPS)
    out = lt_price(inst, 0, np.full(8, 0.5), pi, 3.0, EPS, LtState.fresh(1))
    if base.selection is None:
        assert out.selection is None
    else:
        rc_lt = reduced_cost_sum(inst.cost[0], pi, out.selection)
        rc_d = reduced_cost_sum(inst.cost[0], pi, base.selection)
        assert rc_lt == pytest.approx(rc_d, abs=1e-9)


def test_lt_bisection_interval_invariants():
    rng = np.random.default_rng(8)
    seen_trace = False
    for trial in range(120):
        inst = random_instance(3000 + trial, m=1, n=8)
        pi, mu = random_duals(rng, inst)
        y = random_template(rng, inst)[0]
        trace = []
        out = lt_price(inst, 0, y, pi, float(mu[0]), EPS, LtState.fresh(1), trace=trace)
        if len(trace) < 2:
            continue
        seen_trace = True
        los = [t[1] for t in trace]
        ups = [t[2] for t in trace]
        assert all(a <= b + 1e-15 for a, b in zip(los, los[1:]))       # lo nondecreasing
        assert all(a >= b - 1e-15 for a, b in zip(ups, ups[1:]))       # up nonincreasing
        assert all(lo < up for lo, up, in zip(los, ups))
    assert seen_trace


def test_lt_against_mt_oracle():
    rng = np.random.default_rng(9)
    compared = 0
    for trial in range(200):
        inst = random_instance(4000 + trial, m=1, n=int(rng.integers(3, 10)))
        pi, mu = random_duals(rng, inst)
        y = random_template(rng, inst)[0]
        state = LtState.fresh(1)
        lt = lt_price(inst, 0, y, pi, float(mu[0]), EPS, state)
        mt = mt_price(inst, 0, y, pi, float(mu[0]), EPS)
        assert (lt.selection is None) == (mt.selection is None)
        if lt.selection is None:
            continue
        compared += 1
        assert reduced_cost_sum(inst.cost[0], pi, lt.selection) <= mu[0] - EPS
        assert lt.similarity <= mt.similarity
        if lt.proof_fired:
            assert lt.similarity == mt.similarity
        assert state.alpha_warm[0] > 0
    assert compared > 50


def test_lt_warm_start_updates():
    inst = random_instance(10, m=1, n=8)
    rng = np.random.default_rng(10)
    pi, mu = random_duals(rng, inst)
    state = LtState.fresh(1)
    out = lt_price(inst, 0, random_template(rng, inst)[0], pi, float(mu[0]), EPS, state)
    if out.selection is not None and not out.flagged:
        assert state.alpha_warm[0] == out.alpha_used


OUTCOME_FIELDS = ("machine", "dantzig_rc", "similarity", "alpha_used", "flagged",
                  "proof_fired")


@given(m=st.integers(1, 5), n=st.integers(2, 14), seed=st.integers(0, 2**16),
       phase_one=st.booleans(), fresh=st.booleans())
def test_lt_round_matches_sequential_lt_price_property(m, n, seed, phase_one, fresh):
    inst = random_instance(seed, m=m, n=n)
    if phase_one:
        inst = zero_cost(inst)
    rng = np.random.default_rng(seed)
    pi, mu = random_duals(rng, inst)
    if phase_one:
        pi, mu = np.abs(pi) / 8, mu / 8
    templates = random_template(rng, inst)
    order = [int(i) for i in rng.permutation(m)]
    state = LtState.fresh(m) if fresh else LtState(alpha_warm=rng.random(m) * 4)
    ref_state = LtState(alpha_warm=state.alpha_warm.copy())
    trace = {}
    got = lt_round(inst, order, templates, pi, mu, EPS, state, trace=trace)
    assert [out.machine for out in got] == order
    for out, i in zip(got, order):
        ref_trace = []
        ref = sequential_lt_price(inst, i, templates[i], pi, float(mu[i]), EPS, ref_state,
                                  trace=ref_trace)
        for name in OUTCOME_FIELDS:
            mine, theirs = getattr(out, name), getattr(ref, name)
            assert type(mine) is type(theirs) and mine == theirs, name
        assert (out.selection is None) == (ref.selection is None)
        if ref.selection is not None:
            assert out.selection.tobytes() == ref.selection.tobytes()
        assert trace.get(i, []) == ref_trace
    assert state.alpha_warm.tobytes() == ref_state.alpha_warm.tobytes()


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
        y = random_template(rng, inst)[0]
        lt = lt_price(inst, 0, y, pi, mu, EPS, LtState.fresh(1))
        mt = mt_price(inst, 0, y, pi, mu, EPS)
        assert (lt.selection is None) == (mt.selection is None)
        if lt.selection is not None:
            compared += 1
            assert lt.similarity <= mt.similarity
            assert reduced_cost_sum(np.zeros(8), pi, lt.selection) <= mu - EPS
    assert compared > 20
