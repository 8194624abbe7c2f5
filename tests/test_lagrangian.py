import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (grid_lagrangian_bound, looped_lr_evaluate, master_lp_optimum,
                      recomputing_two_loop)
from conftest import random_instance
from gapcg import lagrangian
from gapcg.instance import GapInstance, GeneratorSpec, generate
from gapcg.lagrangian import MAX_BACKTRACKS, _two_loop, certified_bound, lr_evaluate, lr_solve
from test_properties import small_instances


def test_zero_duals_positive_costs():
    inst = random_instance(1, m=2, n=6)  # costs >= 1
    value, grad, sels = lr_evaluate(inst, np.zeros(6))
    assert value == 0.0
    assert np.array_equal(grad, np.ones(6))
    assert not any(s.any() for s in sels)


def test_huge_duals_saturate_selection():
    inst = random_instance(2, m=2, n=6)
    value, grad, sels = lr_evaluate(inst, np.full(6, 1e6))
    # every machine packs as much as fits: some jobs covered multiple times
    assert (grad <= 1).all()
    assert grad.min() <= 1 - inst.num_machines + 1  # at least one double cover or better


def test_weak_duality_on_toys():
    rng = np.random.default_rng(3)
    for trial in range(15):
        inst = random_instance(100 + trial, m=2, n=7)
        ref = master_lp_optimum(inst)
        for _ in range(20):
            pi = rng.normal(5, 6, inst.num_jobs)
            value, _, _ = lr_evaluate(inst, pi)
            assert value <= ref + 1e-6


def test_concavity_probe():
    rng = np.random.default_rng(4)
    inst = random_instance(5, m=2, n=8)
    for _ in range(200):
        p1 = rng.normal(4, 5, 8)
        p2 = rng.normal(4, 5, 8)
        t = float(rng.random())
        mix, _, _ = lr_evaluate(inst, t * p1 + (1 - t) * p2)
        v1, _, _ = lr_evaluate(inst, p1)
        v2, _, _ = lr_evaluate(inst, p2)
        assert mix >= t * v1 + (1 - t) * v2 - 1e-9


def test_lr_solve_reaches_lp_bound_on_toy():
    inst = random_instance(6, m=2, n=6)
    best, best_pi, integer, trace = lr_solve(inst, time_limit=60)
    ref = master_lp_optimum(inst)
    assert best <= ref + 1e-6
    assert best == pytest.approx(ref, rel=1e-4, abs=1e-3)
    # best bound is the running maximum of the trace
    running = -np.inf
    for row in trace:
        running = max(running, row.value)
        assert row.best_bound == pytest.approx(running)


def test_lr_monotone_best_bound():
    inst = random_instance(7, m=3, n=9)
    _, _, _, trace = lr_solve(inst, time_limit=30)
    bests = [row.best_bound for row in trace]
    assert all(a <= b + 1e-12 for a, b in zip(bests, bests[1:]))


def test_lr_time_limit_zero():
    inst = random_instance(8, m=2, n=6)
    best, best_pi, integer, trace = lr_solve(inst, time_limit=0)
    value0, _, _ = lr_evaluate(inst, np.zeros(6))
    assert best == value0
    assert len(trace) == 1


def test_lr_immediate_optimum_at_zero():
    # one machine, one job, cost below zero never happens here: craft an
    # instance whose dual optimum sits at pi = 0 (zero gradient).
    inst = GapInstance(1, 1, cost=np.array([[-3]]), resource=np.array([[1]]),
                       capacity=np.array([1]))
    best, _, integer, trace = lr_solve(inst, time_limit=10)
    assert best == pytest.approx(-3.0)
    assert integer is not None
    assert len(trace) == 1  # zero gradient at the start: stop immediately


def g3_12_7():
    return generate(GeneratorSpec(num_machines=3, num_jobs=12, seed=7))


def test_lr_stops_after_three_consecutive_fallbacks(monkeypatch):
    monkeypatch.setattr(lagrangian, "ARMIJO", 1e9)  # no line-search step is ever accepted
    _, _, _, trace = lr_solve(g3_12_7(), time_limit=60)
    # the start, then three rounds of a full line search and one fallback probe
    assert len(trace) == 1 + 3 * (MAX_BACKTRACKS + 2) == 97


def test_lr_deadline_inside_the_line_search():
    _, _, _, trace = lr_solve(g3_12_7(), time_limit=1e-9)
    assert len(trace) == 2  # the start and the first line-search probe


def test_lr_deadline_after_an_accepted_step(monkeypatch):
    # a clock that passes the deadline only once the first step is accepted:
    # the deadline is set, then the line search checks it once
    ticks = iter([0.0, 0.0])
    monkeypatch.setattr(lagrangian, "time",
                        SimpleNamespace(perf_counter=lambda: next(ticks, math.inf)))
    best, _, _, trace = lr_solve(g3_12_7(), time_limit=60)
    assert len(trace) == 2 and trace[1].value > trace[0].value
    assert best == trace[1].value


def test_lr_ascends_along_the_gradient_when_the_direction_is_not_ascent(monkeypatch):
    directions = []

    def downhill(grad, memory):
        directions.append(grad)
        return -grad

    probes = []

    def recording_evaluate(inst, pi):
        out = lr_evaluate(inst, pi)
        probes.append((pi.copy(), out[1]))
        return out

    monkeypatch.setattr(lagrangian, "_two_loop", downhill)
    monkeypatch.setattr(lagrangian, "lr_evaluate", recording_evaluate)
    _, _, _, trace = lr_solve(g3_12_7(), time_limit=60)
    assert len(directions) > 5 and len(probes) == len(trace)
    for grad in directions:
        # the line search starts a full gradient step from the iterate whose gradient it is
        k = next(k for k, (_, g) in enumerate(probes) if g is grad)
        assert np.array_equal(probes[k + 1][0], probes[k][0] + grad)


@given(m=st.integers(1, 6), n=st.integers(1, 14), seed=st.integers(0, 2**16),
       scale=st.sampled_from([0.0, 1.0, 8.0, 40.0]))
def test_lr_evaluate_matches_machine_loop_property(m, n, seed, scale):
    inst = random_instance(seed, m=m, n=n)
    rng = np.random.default_rng(seed)
    pi = rng.normal(scale, 6, n).round(int(rng.integers(0, 4)))
    value, grad, sels = lr_evaluate(inst, pi)
    ref_value, ref_grad, ref_sels = looped_lr_evaluate(inst, pi)
    assert np.float64(value).tobytes() == np.float64(ref_value).tobytes()
    assert grad.dtype == ref_grad.dtype and grad.tobytes() == ref_grad.tobytes()
    assert len(sels) == len(ref_sels) == m
    assert all(a.tobytes() == b.tobytes() for a, b in zip(sels, ref_sels))


@given(n=st.integers(1, 30), pairs=st.integers(0, 40), seed=st.integers(0, 2**16),
       scale=st.sampled_from([1e-3, 1.0, 1e3]))
def test_two_loop_matches_recomputing_rho_property(n, pairs, seed, scale):
    # curvature pairs as lr_solve stores them: s . y > 1e-10, rho taken at append
    rng = np.random.default_rng(seed)
    memory = []
    for _ in range(pairs):
        s = rng.normal(0, scale, n)
        y = s * rng.uniform(0.1, 10, n) + rng.normal(0, 0.1 * scale, n)
        if float(s @ y) > 1e-10:
            memory.append((s, y))
    grad = rng.normal(0, 3, n)
    mine = _two_loop(grad, [(s, y, 1.0 / float(y @ s)) for s, y in memory])
    assert mine.tobytes() == recomputing_two_loop(grad, memory).tobytes()


# ------------------------------------------------------------- certified_bound

@settings(max_examples=300)
@given(inst=small_instances(), data=st.data())
def test_certified_bound_equals_the_python_integer_bound(inst, data):
    # duals off the grid, on it, and large enough to coarsen it
    duals = st.one_of(st.floats(-20, 20), st.integers(-20, 20).map(float),
                      st.floats(-1e9, 1e9), st.just(5e-324))
    pi = np.array(data.draw(st.lists(duals, min_size=inst.num_jobs, max_size=inst.num_jobs)))
    assert certified_bound(inst, pi) == grid_lagrangian_bound(inst, pi)


def test_certified_bound_is_none_where_no_grid_is_exact():
    inst = random_instance(3, m=2, n=6)
    assert certified_bound(inst, np.full(6, 2.0**50)) is None
    assert certified_bound(inst, np.full(6, 2.0**45)) is not None
