import math
import statistics
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from _oracles import lp_columns, master_lp_optimum, pool_columns
from conftest import margin_audit, random_instance, removal_audit
from gapcg import driver, lagrangian, pricing, simplex
from gapcg.driver import CgConfig, RunReport, run, run_lr, update_bounds
from gapcg.instance import (GapInstance, GeneratorSpec,
                            InfeasibleInstanceError, generate)
from gapcg.lagrangian import CEIL_GUARD, LrTraceRow
from gapcg.pricing import PricingOutcome
from gapcg.rmp import ColumnPool
from gapcg.simplex import DeadlineError, SimplexSolver


def outcome(machine, rc):
    return PricingOutcome(machine=machine, selection=None, dantzig_rc=rc)


# --------------------------------------------------------------- update_bounds

def uncertified():
    raise AssertionError("certify asked although the float ceiling did not rise")


def test_update_bounds_all_nonnegative_rc():
    rep = RunReport("toy", "dantzig")
    assert update_bounds(rep, [outcome(0, 0.3), outcome(1, 0.0)], 100.0,
                         lambda: 1000, 0) == 0.0
    assert rep.lb_raw == 100.0
    assert rep.lb_int == 100


def test_update_bounds_float_dust_guard():
    rep = RunReport("toy", "dantzig")
    update_bounds(rep, [outcome(0, 0.0)], 99.0000000001, lambda: 1000, 0)
    assert rep.lb_int == 99  # ceil(99.0000000001 - 1e-9)


def test_update_bounds_min_with_zero():
    rep = RunReport("toy", "dantzig")
    assert update_bounds(rep, [outcome(0, -1.5), outcome(1, 0.3)], 50.0,
                         lambda: 1000, 0) == pytest.approx(-1.5)
    assert rep.lb_raw == pytest.approx(48.5)
    assert rep.lb_int == 49  # the float ceiling caps a higher certified value


def test_update_bounds_keeps_running_maximum():
    rep = RunReport("toy", "dantzig", lb_raw=95.0, lb_int=95)
    update_bounds(rep, [outcome(0, -10.0)], 100.0, uncertified, 0)
    assert rep.lb_raw == 95.0  # 100 - 10 = 90 does not beat 95
    assert rep.lb_int == 95


def test_update_bounds_takes_the_certified_value_below_the_float_ceiling():
    rep = RunReport("toy", "dantzig", lb_raw=95.0, lb_int=95)
    update_bounds(rep, [outcome(0, 0.0)], 100.0000001, lambda: 100, 0)
    assert rep.lb_raw == 100.0000001 and rep.lb_int == 100
    update_bounds(rep, [outcome(0, 0.0)], 100.5, lambda: 100, 0)  # ceiling 101, certified 100
    assert rep.lb_raw == 100.5 and rep.lb_int == 100
    update_bounds(rep, [outcome(0, 0.0)], 100.5, lambda: 99, 0)  # never below the last bound
    assert rep.lb_int == 100
    update_bounds(rep, [outcome(0, 0.0)], 100.5, lambda: None, 0)  # nothing certified
    assert rep.lb_int == 100
    first = RunReport("toy", "dantzig")
    update_bounds(first, [outcome(0, 0.0)], 7.5, lambda: None, 0)
    assert first.lb_raw == 7.5 and first.lb_int is None
    update_bounds(first, [outcome(0, 0.0)], 7.5, lambda: 12, -5)  # 12 on the shifted costs
    assert first.lb_int == 7


LARGE_SCALES = [(GeneratorSpec(6, 60, seed=seed), k) for seed in (7, 8) for k in (8, 14, 20)]


@pytest.mark.parametrize("method", ["dantzig", "mt"])
@pytest.mark.parametrize("spec, k", [
    *LARGE_SCALES, (GeneratorSpec(6, 60, cost_range=(100_000, 1_000_000), seed=9), 0),
], ids=[*(f"G(6,60,{spec.seed})x2^{k}" for spec, k in LARGE_SCALES), "G(6,60,9)-costs-1e5-1e6"])
def test_integer_bound_stays_at_or_below_the_run_s_own_cost_at_large_scales(method, spec, k):
    # the float bound rounds up past the integer optimum at these scales;
    # the certified bound does not
    inst = generate(spec)
    rep = run(replace(inst, cost=inst.cost * 2**k), CgConfig(pricing_method=method))
    assert rep.ub is not None and rep.lb_int <= rep.ub
    assert rep.gap_percent >= 0.0


@pytest.mark.parametrize("method", ["dantzig", "pessoa", "lt", "mt"])
def test_a_run_past_the_certifiable_cost_scale_ends_without_an_integer_bound(method):
    # a valid instance whose cost size reaches 2^52: no grid keeps the
    # knapsack sums exact, so lb_int is never set and pricing alone ends the run
    inst = generate(GeneratorSpec(3, 12, seed=0))
    big = replace(inst, cost=inst.cost * -(-2**52 // int(inst.cost.max(axis=0).sum())))
    rep = run(big, CgConfig(pricing_method=method))
    assert rep.status == "optimal" and rep.ub is not None
    assert rep.lb_int is None and rep.gap_percent is None


def test_pessoa_round_whose_columns_the_pool_holds_prices_the_true_duals_next():
    # at this scale a held column's float reduced cost clears the budget, so
    # a smoothed round accepts only duplicates and adds nothing
    inst = generate(GeneratorSpec(3, 12, seed=1))
    big = replace(inst, cost=inst.cost * 2**24)
    rep = run(big, CgConfig(pricing_method="pessoa"))
    rows = [r for r in rep.rows if r.phase == "2"]
    assert any(r.rc_sum is None and r.columns_added == 0 for r in rows[:-1])
    assert rep.status in ("optimal", "rc_converged", "gap_closed") and rep.lb_int <= rep.ub
    assert rep.lb_int == run(big, CgConfig(pricing_method="dantzig")).lb_int


def test_pessoa_rows_fold_only_true_dual_rounds_into_the_bound():
    rep = run(generate(GeneratorSpec(num_machines=6, num_jobs=60, seed=7)),
              CgConfig(pricing_method="pessoa"))
    phase2 = [r for r in rep.rows if r.phase == "2"]
    assert sum(r.rc_sum is None for r in phase2) > 0  # smoothed rounds
    lb_raw, lb_int = -math.inf, None
    for row in phase2:
        if row.rc_sum is None:
            assert row.lb_raw == (None if lb_raw == -math.inf else lb_raw)
            assert row.lb_int == lb_int
        else:
            assert row.lb_raw == max(lb_raw, row.rmp_objective + row.rc_sum)
        lb_raw = -math.inf if row.lb_raw is None else row.lb_raw
        lb_int = row.lb_int
    for row in rep.rows:
        assert row.lb_int == (None if row.lb_raw is None else math.ceil(row.lb_raw - 1e-9))


@pytest.mark.parametrize("inst", [generate(GeneratorSpec(6, 60, seed=7)),
                                  generate(GeneratorSpec(4, 24, seed=3)),
                                  *(random_instance(seed, m=3, n=10) for seed in range(4))],
                         ids=["g6x60-7", "g4x24-3", *(f"random-{seed}" for seed in range(4))])
def test_pessoa_center_is_the_best_lagrangian_point_it_priced(monkeypatch, inst):
    # after every round the center's stored bound and subgradient are those of
    # an independent evaluation there, and the stored bound never falls
    centers = []
    pessoa_round = pricing.pessoa_round

    def recorded(state, priced, pi_t, mu, eps):
        result = pessoa_round(state, priced, pi_t, mu, eps)
        centers.append((priced, state.pi_hat.copy(), state.center_bound, state.g_hat.copy()))
        return result

    monkeypatch.setattr(pricing, "pessoa_round", recorded)
    run(inst, CgConfig(pricing_method="pessoa"))
    assert centers
    best = -math.inf
    for priced, pi_hat, center_bound, g_hat in centers:
        value, subgradient, _ = lagrangian.lr_evaluate(priced, pi_hat)
        assert center_bound == value
        assert np.array_equal(g_hat, subgradient)
        assert center_bound >= best
        best = center_bound


@pytest.mark.parametrize("method", ["dantzig", "pessoa", "lt", "mt"])
def test_alpha_columns_are_the_round_s_outcome_weights(monkeypatch, method):
    # a priced row's alpha columns are the min, the sum-over-count mean and
    # the max of its outcomes' alpha_used; Pessoa's is the mixing weight
    # that its round leaves, and Dantzig and MT report none
    rounds = []  # per pricing round: its outcomes, and Pessoa's weight after it
    price = driver._price

    def spied(inst, cfg, eps, sol, templates, phase1, state):
        outcomes = price(inst, cfg, eps, sol, templates, phase1, state)
        rounds.append((outcomes, state.alpha if method == "pessoa" and not phase1 else None))
        return outcomes

    monkeypatch.setattr(driver, "_price", spied)
    rep = run(generate(GeneratorSpec(4, 24, seed=3)), CgConfig(pricing_method=method))
    assert len(rep.rows) - len(rounds) in (0, 1)  # a run may end before pricing its last row
    weighted = 0
    for k, row in enumerate(rep.rows):
        outcomes, alpha_after = rounds[k] if k < len(rounds) else ([], None)
        used = [out.alpha_used for out in outcomes if out.alpha_used is not None]
        stats = (row.alpha_min, row.alpha_avg, row.alpha_max)
        if not used:
            assert stats == (None, None, None)
            continue
        assert method in ("lt", "pessoa")
        assert stats == (min(used), sum(used) / len(used), max(used))
        if alpha_after is not None:
            assert len(used) == len(outcomes)
            assert (row.alpha_min, row.alpha_max) == (alpha_after, alpha_after)
            # the mean of equal weights, summed in float
            assert row.alpha_avg == pytest.approx(alpha_after, rel=1e-12, abs=1e-15)
        weighted += 1
    assert (weighted > 0) == (method in ("lt", "pessoa"))


@pytest.mark.parametrize("seed", [7, 8])
def test_pessoa_needs_fewer_rows_than_dantzig_over_labelings(seed):
    # smoothing exists to save iterations on degenerate masters; judged by the
    # median over labelings 0-3, and every run proves the same bound
    inst = generate(GeneratorSpec(6, 60, seed=seed))
    median_rows, bounds = {}, set()
    for method in ("dantzig", "pessoa"):
        reports = [run(inst, CgConfig(pricing_method=method, seed=label)) for label in range(4)]
        median_rows[method] = statistics.median(len(rep.rows) for rep in reports)
        bounds |= {rep.lb_int for rep in reports}
    assert median_rows["pessoa"] < median_rows["dantzig"]
    assert len(bounds) == 1 and None not in bounds


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


@pytest.mark.parametrize("field, value, message", [
    ("pricing_method", "steepest-edge", "pricing method"),
    ("epsilon", math.nan, "epsilon"),
    ("epsilon", -1.0, "epsilon"),
    ("epsilon", 0.0, "epsilon"),
    ("epsilon", 1e-12, "epsilon"),
    ("epsilon", math.inf, "epsilon"),
    ("time_limit", math.nan, "time_limit"),
    ("time_limit", -1.0, "time_limit"),
    ("time_limit", 0.0, "time_limit"),
    ("mip_gap", math.nan, "mip_gap"),
    ("mip_gap", -0.1, "mip_gap"),
    ("age_threshold", 0, "age_threshold"),
    ("template_delta", math.nan, "delta"),
    ("template_delta", 0.6, "delta"),
    ("seed", -1, "seed"),
])
@pytest.mark.parametrize("method", ["dantzig", "lt", "lr"])
def test_invalid_config_rejected_before_any_solve(monkeypatch, method, field, value, message):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before rejecting the configuration")

    for module, name in [(driver.rmp, "build_and_solve"), (driver.rmp, "solve_compact_lp"),
                         (driver.lagrangian, "lr_solve")]:
        monkeypatch.setattr(module, name, no_solve)
    inst = generate(GeneratorSpec(3, 12, seed=3))
    with pytest.raises(ValueError, match=message):
        run(inst, CgConfig(**{"pricing_method": method, field: value}))


@pytest.mark.parametrize("field, value", [
    ("seed", 1.5), ("seed", None), ("seed", "3"),
    ("age_threshold", 1.5), ("age_threshold", "2"),
    ("epsilon", "1e-6"), ("epsilon", None), ("time_limit", "60"), ("mip_gap", [0.1]),
    ("template_delta", "0.1"),
])
def test_config_of_the_wrong_type_rejected(field, value):
    with pytest.raises(TypeError, match=f"^{field} must be"):
        CgConfig(pricing_method="dantzig", **{field: value})


def test_config_takes_numpy_numbers(toy_3x12):
    cfg = CgConfig(pricing_method="dantzig", seed=np.int64(2), age_threshold=np.int32(4),
                   epsilon=np.float64(1e-6), time_limit=np.float32(60))
    plain = CgConfig(pricing_method="dantzig", seed=2, age_threshold=4, time_limit=60)
    assert run(toy_3x12, cfg).lb_int == run(toy_3x12, plain).lb_int


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
    with margin_audit() as margins:
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
    assert len(margins) == rep.total_columns_added
    assert max(margins) <= 0.0  # every added column satisfied the budget


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


def test_master_lp_carries_only_live_columns(monkeypatch):
    phases = []

    class CheckedPool(ColumnPool):
        def sync(self):
            super().sync()
            in_lp = lp_columns(self)
            assert set(in_lp) == set(pool_columns(self))
            assert all(col.lp == j for col, j in in_lp.items())
            assert self.lp.n == len(in_lp) + len(self.surplus) + len(self.artificial)
            if self.phase == 1:
                assert len(self.artificial) == self.inst.num_jobs
            else:  # each basic artificial pivots out for its surplus column
                assert self.artificial == []
            phases.append(self.phase)

    monkeypatch.setattr(driver, "ColumnPool", CheckedPool)
    rep = run(generate(GeneratorSpec(num_machines=6, num_jobs=60, seed=7)),
              CgConfig(pricing_method="dantzig"))
    assert sum(r.columns_removed for r in rep.rows) > 0
    assert phases.count(2) > 1


@pytest.mark.parametrize("method", ["lt", "mt"])
def test_time_limit_stops_the_compact_lp(toy_3x12, monkeypatch, method):
    # a solve reads the clock at each refactorization, here after every pivot
    monkeypatch.setattr(simplex, "_REFACTOR_EVERY", 1)
    raised = []
    solve_compact_lp = driver.rmp.solve_compact_lp

    def recording(*args):
        try:
            return solve_compact_lp(*args)
        except DeadlineError as exc:
            raised.append(exc)
            raise

    monkeypatch.setattr(driver.rmp, "solve_compact_lp", recording)
    rep = run(toy_3x12, CgConfig(pricing_method=method, time_limit=1e-9))
    assert rep.status == "time_limit" and rep.rows == []
    assert len(raised) == 1  # the compact LP stopped, not only the first master solve


def test_time_limit_stops_a_stalled_master_solve(monkeypatch):
    # at costs x 2^16 dantzig's master stalls inside one solve; with the pivot
    # limit lowered to 400,000, a solve that does not check the deadline
    # raises "pivot limit exceeded" some seconds past the 2-s limit
    monkeypatch.setattr(simplex, "_MAX_PIVOTS", 400_000)
    inst = generate(GeneratorSpec(num_machines=6, num_jobs=60, seed=7))
    inst = replace(inst, cost=inst.cost * 2 ** 16)
    t0 = time.perf_counter()
    rep = run(inst, CgConfig(pricing_method="dantzig", time_limit=2.0))
    assert time.perf_counter() - t0 <= 3.0
    assert rep.status == "time_limit" and rep.rows[-1].phase == "2"


def test_deadline_passed_while_pricing_ends_after_the_priced_row(toy_3x12, monkeypatch):
    # the clock jumps past the deadline inside the first phase-two round, so
    # only the check after the round can see it
    now = [0.0]
    dantzig_round = pricing.dantzig_round

    def jumping_round(inst, *args, **kwargs):
        if inst.cost.any():  # phase one prices a zero-cost copy
            now[0] = math.inf
        return dantzig_round(inst, *args, **kwargs)

    # the master's solves read the same clock as the driver
    clock = SimpleNamespace(perf_counter=lambda: now[0])
    monkeypatch.setattr(driver, "time", clock)
    monkeypatch.setattr(simplex, "time", clock)
    monkeypatch.setattr(pricing, "dantzig_round", jumping_round)
    rep = run(toy_3x12, CgConfig(pricing_method="dantzig"))
    assert rep.status == "time_limit"
    last = rep.rows[-1]
    assert last.phase == "2" and last.rc_sum is not None and last.columns_added > 0


def test_round_without_columns_ends_optimal_above_the_rc_tolerance():
    # with a budget of 2 the last true-dual round finds reduced costs that
    # sum below -1e-6, yet no machine clears its budget
    rep = run(generate(GeneratorSpec(num_machines=6, num_jobs=60, seed=7)),
              CgConfig(pricing_method="dantzig", epsilon=2.0))
    assert rep.status == "optimal"
    last = rep.rows[-1]
    assert last.phase == "2" and last.columns_added == 0
    assert last.rc_sum <= -driver.RC_CONVERGENCE_TOL


@pytest.mark.parametrize("method", ["lt", "pessoa"])
def test_a_round_that_closes_the_gap_ends_gap_closed(method):
    # the last priced round lifts lb_int to ub = 470, which is also the
    # master objective: the gap, checked first, names the end
    rep = run(generate(GeneratorSpec(num_machines=4, num_jobs=24, seed=3)),
              CgConfig(pricing_method=method))
    assert rep.status == "gap_closed" and rep.lb_int == rep.ub == 470
    last = rep.rows[-1]
    assert last.rc_sum is not None and last.columns_added > 0


@pytest.mark.parametrize("seed, method, lb_int, ub", [(11, "dantzig", 485, 603),
                                                      (5, "lt", 500, 534)])
def test_bound_at_the_master_objective_ends_rc_converged_with_an_open_gap(seed, method,
                                                                          lb_int, ub):
    rep = run(generate(GeneratorSpec(num_machines=4, num_jobs=24, seed=seed)),
              CgConfig(pricing_method=method))
    assert rep.status == "rc_converged"
    assert (rep.lb_int, rep.ub) == (lb_int, ub)
    assert rep.lb_int >= rep.final_objective - CEIL_GUARD


@pytest.mark.parametrize("method", ["mt", "dantzig"])
def test_a_run_ends_soon_after_its_time_limit(method):
    # the longest steps at 20 x 200 are mt's pricing round (0.20 s on a
    # 2-core machine) and dantzig's master solve between two reads of the
    # clock (0.12 s); the bound allows about 2.5 times the longer one
    inst = generate(GeneratorSpec(num_machines=20, num_jobs=200, seed=7))
    t0 = time.perf_counter()
    rep = run(inst, CgConfig(pricing_method=method, time_limit=1.0))
    assert rep.status == "time_limit"
    assert time.perf_counter() - t0 <= 1.5


@pytest.mark.parametrize("method", ["dantzig", "pessoa", "lt", "mt"])
@pytest.mark.parametrize("epsilon", [1.5, 2.0])
def test_phase_one_prices_below_its_unit_costs_at_any_epsilon(method, epsilon):
    # phase-one reduced costs are in units of one uncovered job, so a budget
    # above 1 would stall phase one on this feasible instance
    inst = generate(GeneratorSpec(num_machines=3, num_jobs=12, seed=0))
    default = run(inst, CgConfig(pricing_method=method))
    with margin_audit() as margins:
        rep = run(inst, CgConfig(pricing_method=method, epsilon=epsilon))
    assert any(r.phase == "2" for r in rep.rows)
    assert rep.status in ("optimal", "rc_converged", "gap_closed")
    assert rep.lb_int <= default.lb_int
    assert max(margins) <= 0.0


@pytest.mark.parametrize("method, delta", [("lt", -0.1), ("mt", 0.6), ("lt", 0.0)])
def test_template_delta_outside_zero_to_half_rejected(toy_3x12, method, delta):
    with pytest.raises(ValueError, match="delta"):
        run(toy_3x12, CgConfig(pricing_method=method, template_delta=delta))


def test_time_limit_zero_stops_in_phase1(toy_3x12):
    rep = run(toy_3x12, CgConfig(pricing_method="dantzig", time_limit=1e-9))
    assert rep.status == "time_limit"


def test_lr_time_limit_is_reported(toy_3x12):
    rep = run(toy_3x12, CgConfig(pricing_method="lr", time_limit=1e-9))
    assert rep.status == "time_limit" and rep.method == "lr"
    assert len(rep.rows) == 2  # the start and the first line-search probe


def test_lr_reports_a_closed_gap_before_the_clock(toy_3x12, monkeypatch):
    # the last evaluation ends past the limit, yet its bound meets the integer cost
    cost = int(toy_3x12.cost.min(axis=0).sum())
    assignment = toy_3x12.cost.argmin(axis=0)
    trace = [LrTraceRow(0, cost - 3.5, cost - 3.5, 0.5), LrTraceRow(1, cost, cost, 2.0)]
    monkeypatch.setattr(driver.lagrangian, "lr_solve",
                        lambda inst, time_limit: (float(cost), None, (assignment, cost), trace))
    rep = run_lr(toy_3x12, CgConfig(pricing_method="lr", time_limit=1.0))
    assert rep.lb_int == rep.ub == cost
    assert rep.status == "gap_closed"


def test_seed_relabels_the_instance_not_the_bound(toy_3x12):
    ref = master_lp_optimum(toy_3x12)
    values = set()
    for seed in (0, 1, 2):
        rep = run(toy_3x12, CgConfig(pricing_method="dantzig", time_limit=60, seed=seed))
        values.add(rep.lb_int)
    assert values == {math.ceil(ref - 1e-9)}


def test_unpriced_rows_print_no_rc_sum(toy_3x12):
    # a row that stopped before pricing has no round whose rc_sum it could print
    unpriced = []
    for inst in (toy_3x12, generate(GeneratorSpec(num_machines=4, num_jobs=24, seed=3))):
        for method in ("dantzig", "pessoa", "lt", "mt"):
            rep = run(inst, CgConfig(pricing_method=method, time_limit=60))
            unpriced += [row for row in rep.rows if row.pricing_time == 0]
    assert unpriced and all(row.rc_sum is None for row in unpriced)


def test_management_audit_records_clean_resolves(toy_3x12):
    with removal_audit() as audits:
        rep = run(toy_3x12, CgConfig(pricing_method="dantzig", time_limit=60))
    assert len(audits) == sum(r.columns_removed > 0 for r in rep.rows) > 0
    for pivots, objective_change in audits:
        assert pivots == 0
        assert abs(objective_change) <= 1e-7


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


@pytest.mark.parametrize("method", ["dantzig", "pessoa", "lt", "mt"])
def test_bounds_that_meet_at_zero_print_a_zero_gap(method):
    inst = GapInstance(2, 4, cost=np.zeros((2, 4), dtype=int),
                       resource=np.ones((2, 4), dtype=int), capacity=np.array([4, 4]))
    rep = run(inst, CgConfig(pricing_method=method, time_limit=60))
    assert rep.status == "optimal" and rep.lb_int == rep.ub == 0
    assert rep.gap_percent == 0.0 and rep.summary().gap_percent == 0.0
    assert replace(rep, lb_int=-3).gap_percent is None  # below ub = 0: no relative gap


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
    with pytest.raises(InfeasibleInstanceError):
        run(inst, CgConfig(pricing_method="lt", time_limit=60))


def test_run_is_deterministic(toy_3x12):
    rep1 = run(toy_3x12, CgConfig(pricing_method="lt", time_limit=60))
    rep2 = run(toy_3x12, CgConfig(pricing_method="lt", time_limit=60))
    key1 = [(r.iteration, r.phase, r.rmp_objective, r.columns_added, r.pivots) for r in rep1.rows]
    key2 = [(r.iteration, r.phase, r.rmp_objective, r.columns_added, r.pivots) for r in rep2.rows]
    assert key1 == key2
