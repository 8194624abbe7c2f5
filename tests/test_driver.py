import math

import numpy as np
import pytest

from _oracles import master_lp_optimum
from gapcg.driver import Bounds, CgConfig, run, run_lr, update_bounds
from gapcg.instance import (GapInstance, GeneratorSpec,
                            InfeasibleInstanceError, generate)
from gapcg.pricing import PricingOutcome
from gapcg.simplex import SimplexSolver


def outcome(machine, rc):
    return PricingOutcome(machine=machine, selection=None, dantzig_rc=rc)


# --------------------------------------------------------------- update_bounds

def test_update_bounds_all_nonnegative_rc():
    b = update_bounds(Bounds(), [outcome(0, 0.3), outcome(1, 0.0)], 100.0, False)
    assert b.rc_sum == 0.0
    assert b.lb_raw == 100.0
    assert b.lb_int == 100


def test_update_bounds_float_dust_guard():
    b = update_bounds(Bounds(), [outcome(0, 0.0)], 99.0000000001, False)
    assert b.lb_int == 99  # ceil(99.0000000001 - 1e-9)


def test_update_bounds_min_with_zero():
    b = update_bounds(Bounds(), [outcome(0, -1.5), outcome(1, 0.3)], 50.0, False)
    assert b.rc_sum == pytest.approx(-1.5)
    assert b.lb_raw == pytest.approx(48.5)
    assert b.lb_int == 49


def test_update_bounds_smoothed_rounds_are_noops():
    before = Bounds(rc_sum=-2.0, lb_raw=10.0, lb_int=10)
    after = update_bounds(before, [], 99.0, True)
    assert after is before


def test_update_bounds_keeps_running_maximum():
    b = Bounds(lb_raw=95.0, lb_int=95)
    b = update_bounds(b, [outcome(0, -10.0)], 100.0, False)
    assert b.lb_raw == 95.0  # 100 - 10 = 90 does not beat 95


# ------------------------------------------------------------------------- run

def dominated_instance():
    # machine 0 fits and undercuts everything: integral optimum is forced
    cost = np.array([[1, 1, 1, 1], [9, 9, 9, 9]])
    resource = np.array([[1, 1, 1, 1], [1, 1, 1, 1]])
    return GapInstance(2, 4, cost, resource, np.array([4, 4]), name="dominated")


@pytest.mark.parametrize("method", ["dantzig", "pessoa", "lt", "mt"])
def test_dominated_instance_terminates_integral(method):
    rep = run(dominated_instance(), CgConfig(pricing_method=method, time_limit=30))
    assert rep.status in ("optimal", "rc_converged", "gap_closed")
    assert rep.ub == 4
    assert rep.lb_int == 4


def test_unassignable_instance_raises():
    inst = GapInstance(2, 2, cost=np.ones((2, 2)), resource=np.full((2, 2), 7),
                       capacity=np.array([3, 3]))
    with pytest.raises(InfeasibleInstanceError):
        run(inst, CgConfig(pricing_method="dantzig"))


def test_run_lr_raises_when_no_cover_exists():
    # each job fits on either machine alone, but a machine holds only one job
    inst = GapInstance(2, 3, cost=np.ones((2, 3)), resource=np.full((2, 3), 2),
                       capacity=np.array([2, 2]))
    with pytest.raises(InfeasibleInstanceError):
        run_lr(inst, CgConfig(time_limit=60))


def test_unknown_method_rejected(toy_3x12):
    with pytest.raises(ValueError):
        run(toy_3x12, CgConfig(pricing_method="steepest-edge"))


@pytest.mark.parametrize("method", ["dantzig", "pessoa", "lt", "mt"])
def test_methods_agree_with_enumeration_oracle(method, toy_3x12):
    ref = master_lp_optimum(toy_3x12)
    rep = run(toy_3x12, CgConfig(pricing_method=method, time_limit=60))
    assert rep.lb_int == math.ceil(ref - 1e-9)
    assert rep.final_objective == pytest.approx(ref, abs=1e-6)


def test_run_lr_matches_cg_lb(toy_3x12):
    ref = master_lp_optimum(toy_3x12)
    rep = run_lr(toy_3x12, CgConfig(time_limit=60))
    assert rep.lb_int == math.ceil(ref - 1e-9)
    assert rep.status in ("rc_converged", "gap_closed")


def test_trace_invariants(toy_3x12):
    rep = run(toy_3x12, CgConfig(pricing_method="lt", time_limit=60))
    phase2 = [r for r in rep.rows if r.phase == "2"]
    objectives = [r.rmp_objective for r in phase2]
    assert all(a >= b - 1e-7 for a, b in zip(objectives, objectives[1:]))  # non-increasing
    final = rep.final_objective
    for r in phase2:
        if r.lb_raw is not None:
            assert r.lb_raw <= final + 1e-6  # valid-bound invariant
    phase1 = [r.rmp_objective for r in rep.rows if r.phase == "1"]
    assert all(a >= b - 1e-9 for a, b in zip(phase1, phase1[1:]))  # artificial sum sinks
    assert rep.max_rc_margin <= 0.0  # every added column satisfied the budget
    assert rep.columns_audited == rep.total_columns_added


def test_total_pivots_counts_every_master_pivot(toy_3x12, monkeypatch):
    returned = []  # (solver, pivots) of every solve and retirement
    for name in ("solve", "retire_columns"):
        def counting(self, *args, _original=getattr(SimplexSolver, name), **kwargs):
            pivots = _original(self, *args, **kwargs)
            returned.append((self, pivots))
            return pivots
        monkeypatch.setattr(SimplexSolver, name, counting)
    rep = run(toy_3x12, CgConfig(pricing_method="dantzig"))
    assert len({id(lp) for lp, _ in returned}) == 1  # dantzig builds no compact LP
    assert rep.total_pivots == sum(p for _, p in returned)


def test_time_limit_zero_stops_in_phase1(toy_3x12):
    rep = run(toy_3x12, CgConfig(pricing_method="dantzig", time_limit=0.0))
    assert rep.status == "time_limit"


def test_seed_changes_machine_order_not_result(toy_3x12):
    ref = master_lp_optimum(toy_3x12)
    values = set()
    for seed in (0, 1, 2):
        rep = run(toy_3x12, CgConfig(pricing_method="dantzig", time_limit=60, seed=seed))
        values.add(rep.lb_int)
    assert values == {math.ceil(ref - 1e-9)}


def test_management_audit_records_clean_resolves(toy_3x12):
    rep = run(toy_3x12, CgConfig(pricing_method="dantzig", time_limit=60,
                                 audit_column_management=True))
    for audit in rep.management_audits:
        assert audit.pivots == 0
        assert abs(audit.objective_delta) <= 1e-7


def test_negative_costs_agree_with_oracle():
    inst = generate(GeneratorSpec(num_machines=2, num_jobs=9, cost_range=(-15, 10),
                                  resource_range=(1, 8), capacity_slack=0.9, seed=42))
    ref = math.ceil(master_lp_optimum(inst) - 1e-9)
    for method in ("dantzig", "pessoa", "lt", "mt"):
        rep = run(inst, CgConfig(pricing_method=method, time_limit=60))
        assert rep.lb_int == ref
    assert run_lr(inst, CgConfig(time_limit=60)).lb_int == ref


@pytest.mark.parametrize("method", ["dantzig", "pessoa", "lt", "mt"])
def test_negative_costs_match_partition_optimum(method):
    # covering a job twice would pay its negative cost twice: the cover
    # master alone bounds this toy at -10, below the optimum -8
    inst = GapInstance(2, 3, cost=np.array([[-1, -2, -3], [-3, -2, -1]]),
                       resource=np.full((2, 3), 2), capacity=np.array([4, 4]))
    rep = run(inst, CgConfig(pricing_method=method, time_limit=60))
    assert rep.lb_int == rep.ub == -8


def test_lr_closes_a_zero_gap_at_zero_cost():
    # the optimum costs 0, so the relative gap test alone cannot fire
    inst = GapInstance(2, 3, cost=np.array([[0, 5, 5], [5, 0, 0]]),
                       resource=np.ones((2, 3), dtype=int), capacity=np.array([3, 3]))
    rep = run_lr(inst, CgConfig(time_limit=60))
    assert rep.lb_int == rep.ub == 0
    assert rep.status == "gap_closed"
    assert run(inst, CgConfig(pricing_method="dantzig", time_limit=60)).status == "gap_closed"


def test_uniform_costs_maximal_degeneracy():
    inst = generate(GeneratorSpec(num_machines=3, num_jobs=24, cost_range=(5, 5),
                                  resource_range=(2, 9), capacity_slack=0.9, seed=7))
    for method in ("dantzig", "pessoa", "lt", "mt"):
        rep = run(inst, CgConfig(pricing_method=method, time_limit=60))
        assert rep.status != "time_limit"
        assert rep.lb_int == 120  # 24 jobs x cost 5, cover is tight here


def test_zero_weight_jobs():
    inst = GapInstance(2, 6,
                       cost=np.array([[3, 1, 4, 1, 5, 9], [2, 6, 5, 3, 5, 8]]),
                       resource=np.array([[0, 2, 0, 3, 1, 2], [1, 0, 2, 0, 2, 1]]),
                       capacity=np.array([4, 4]), name="zero-w")
    ref = math.ceil(master_lp_optimum(inst) - 1e-9)
    for method in ("dantzig", "lt", "mt"):
        assert run(inst, CgConfig(pricing_method=method, time_limit=30)).lb_int == ref


def test_master_infeasible_despite_assignable_jobs():
    # slack 0.7 makes the fractional capacity split insufficient for a cover
    inst = generate(GeneratorSpec(num_machines=4, num_jobs=32, cost_range=(10, 50),
                                  resource_range=(5, 25), capacity_slack=0.7, seed=302))
    from gapcg.rmp import MasterInfeasibleError
    with pytest.raises(MasterInfeasibleError):
        run(inst, CgConfig(pricing_method="lt", time_limit=60))


def test_run_is_deterministic(toy_3x12):
    rep1 = run(toy_3x12, CgConfig(pricing_method="lt", time_limit=60))
    rep2 = run(toy_3x12, CgConfig(pricing_method="lt", time_limit=60))
    key1 = [(r.iteration, r.phase, r.rmp_objective, r.columns_added, r.pivots) for r in rep1.rows]
    key2 = [(r.iteration, r.phase, r.rmp_objective, r.columns_added, r.pivots) for r in rep2.rows]
    assert key1 == key2
