"""Column-generation driver: one loop for both phases, bounds, termination.

``run`` executes the full loop for one instance and pricing method and
returns a :class:`RunReport` with one row per iteration. Phase one is the
same loop, priced against a zero-cost copy of the instance, until
``rmp.build_and_solve`` hands the master to phase two; each row takes its
phase from ``master.phase``. ``run_lr`` wraps the Lagrangian baseline into
the same report shape; ``run`` dispatches to it for ``"lr"``.

Bounds bookkeeping: whenever an iteration priced with the true duals, the
sum of negative minimum reduced costs added to the master objective is a
valid lower bound on the master optimum; with integer costs its ceiling is
a valid integer bound. Smoothed rounds leave the bounds untouched.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import lagrangian, pricing, rmp
from .instance import GapInstance, require_valid
from .pricing import DEFAULT_DELTA, LtState, PessoaState, PricingOutcome
from .rmp import AGE_POLICIES, ColumnPool, MasterLp

RC_CONVERGENCE_TOL = 1e-6
CEIL_GUARD = 1e-9


@dataclass
class CgConfig:
    pricing_method: str = "lt"
    epsilon: float = 1e-6
    time_limit: float = 600.0
    mip_gap: float = 1e-5  # 0.001 percent
    age_policy_override: tuple[float, float, float] | None = None
    template_delta: float = DEFAULT_DELTA
    seed: int = 0


@dataclass
class Bounds:
    rc_sum: float = 0.0
    lb_raw: float = -math.inf
    lb_int: int | None = None
    ub: int | None = None


@dataclass
class IterRow:
    iteration: int
    phase: str
    rmp_objective: float | None
    lb_raw: float | None
    lb_int: int | None
    ub: int | None
    rc_sum: float | None
    columns_added: int
    columns_removed: int
    pivots: int
    rmp_time: float
    pricing_time: float
    alpha_min: float | None = None
    alpha_avg: float | None = None
    alpha_max: float | None = None


@dataclass
class RunReport:
    instance: str
    method: str
    rows: list[IterRow] = field(default_factory=list)
    status: str = "unknown"
    lb_raw: float = -math.inf
    lb_int: int | None = None
    ub: int | None = None
    final_objective: float | None = None
    integral_final: bool = False
    gap_percent: float | None = None
    phase1_iterations: int = 0
    total_pivots: int = 0
    total_columns_added: int = 0
    total_rmp_time: float = 0.0
    total_pricing_time: float = 0.0
    max_rc_margin: float = -math.inf   # max over added columns of rc - (mu - eps)

    def finish(self):
        self.phase1_iterations = sum(r.phase == "1" for r in self.rows)
        self.total_pivots = sum(r.pivots for r in self.rows)
        self.total_columns_added = sum(r.columns_added for r in self.rows)
        self.total_rmp_time = sum(r.rmp_time for r in self.rows)
        self.total_pricing_time = sum(r.pricing_time for r in self.rows)
        if self.ub is not None and self.lb_int is not None and self.ub != 0:
            self.gap_percent = 100.0 * (self.ub - self.lb_int) / abs(self.ub)


def update_bounds(bounds: Bounds, outcomes: list[PricingOutcome],
                  rmp_objective: float, duals_were_smoothed: bool) -> Bounds:
    """Fold one pricing round into the bounds; smoothed rounds are no-ops."""
    if duals_were_smoothed:
        return bounds
    rc_sum = 0.0
    for out in outcomes:
        if out.dantzig_rc is None:
            raise ValueError("true-dual round lacks a dantzig_rc value")
        rc_sum += min(out.dantzig_rc, 0.0)
    lb_raw = max(bounds.lb_raw, rmp_objective + rc_sum)
    lb_int = math.ceil(lb_raw - CEIL_GUARD) if math.isfinite(lb_raw) else None
    return replace(bounds, rc_sum=rc_sum, lb_raw=lb_raw, lb_int=lb_int)


def _gap_closed(bounds: Bounds, mip_gap: float) -> bool:
    if bounds.ub is None or bounds.lb_int is None:
        return False
    slack = bounds.ub - bounds.lb_int
    return slack <= 0 or slack < mip_gap * abs(bounds.ub)


def _alpha_stats(values):
    values = [v for v in values if v is not None]
    if not values:
        return None, None, None
    return min(values), sum(values) / len(values), max(values)


def _price(inst: GapInstance, cfg: CgConfig, sol, templates: np.ndarray | None,
           phase1: bool, order, state):
    """One pricing round; returns (outcomes, smoothed, alpha_values).

    ``state`` is the method's warm-start record (:class:`LtState`,
    :class:`PessoaState` or None). Phase-one Pessoa prices like Dantzig.
    """
    method = cfg.pricing_method
    if method == "pessoa" and not phase1:
        outcomes, _, _ = pricing.pessoa_round(state, inst, sol.pi, sol.mu, cfg.epsilon,
                                              rmp_objective=sol.objective)
        return outcomes, any(o.dantzig_rc is None for o in outcomes), [state.alpha]
    if method == "lt":
        outcomes = pricing.lt_round(inst, order, templates, sol.pi, sol.mu, cfg.epsilon,
                                    state, cfg.template_delta)
        return outcomes, False, [out.alpha_used for out in outcomes]
    if method == "mt":
        outcomes = [pricing.mt_price(inst, i, templates[i], sol.pi, float(sol.mu[i]),
                                     cfg.epsilon, delta=cfg.template_delta) for i in order]
    else:
        outcomes = [pricing.dantzig_price(inst, i, sol.pi, float(sol.mu[i]), cfg.epsilon)
                    for i in order]
    return outcomes, False, []


def run(inst: GapInstance, cfg: CgConfig) -> RunReport:
    """Full column-generation run; see the module docstring for the loop."""
    method = cfg.pricing_method
    if method == "lr":
        return run_lr(inst, cfg)
    if method not in AGE_POLICIES:
        raise ValueError(f"unknown pricing method {method!r}")
    require_valid(inst)
    # every assignment pays each job once, so shifting a job's costs to a
    # zero minimum keeps the optimal assignments and makes the cover master
    # exact; reports add the offset back
    shift = np.minimum(inst.cost.min(axis=0), 0)
    offset = int(shift.sum())
    inst = replace(inst, cost=inst.cost - shift)

    run_report = RunReport(instance=inst.name, method=method)
    deadline = time.perf_counter() + cfg.time_limit
    rng = np.random.default_rng(cfg.seed)
    order = [int(i) for i in rng.permutation(inst.num_machines)]

    pool = ColumnPool(inst)
    master = MasterLp(inst)
    bounds = Bounds()
    state = (LtState.fresh(inst.num_machines) if method == "lt" else
             PessoaState() if method == "pessoa" else None)
    coefficients = (cfg.age_policy_override if cfg.age_policy_override is not None
                    else AGE_POLICIES[method])
    tau = rmp.age_threshold(coefficients, inst)

    if method in ("lt", "mt") and not 0.0 <= cfg.template_delta <= 0.5:
        raise ValueError("delta must lie in [0, 0.5]")
    templates = rmp.solve_compact_lp(inst) if method in ("lt", "mt") else None
    zero_cost = replace(inst, cost=np.zeros_like(inst.cost))  # phase one prices against it

    def insert_columns(outcomes, sol, priced):
        # canonical insertion order: the run's machine permutation, whatever
        # order the pricing dispatch produced the outcomes in
        by_machine = {out.machine: out for out in outcomes}
        added = 0
        for i in order:
            selection = by_machine[i].selection
            if selection is None or pool.add(i, selection) is None:
                continue
            added += 1
            rc = pricing.reduced_cost_sum(priced.cost[i], sol.pi, selection)
            run_report.max_rc_margin = max(run_report.max_rc_margin,
                                           rc - (float(sol.mu[i]) - cfg.epsilon))
        return added

    def add_row(sol, rmp_time, added=0, removed=0, pricing_time=0.0, alphas=(),
                smoothed=False):
        # bounds stay at their defaults in phase one; rc_sum is only printed
        # for a round priced with the true duals
        rc_sum = None if phase == "1" or smoothed else bounds.rc_sum
        run_report.rows.append(IterRow(
            it, phase, objective,
            bounds.lb_raw if math.isfinite(bounds.lb_raw) else None,
            bounds.lb_int, bounds.ub, rc_sum, added, removed, sol.pivots,
            rmp_time, pricing_time, *_alpha_stats(alphas)))

    it = 0
    status = None
    while status is None:
        it += 1
        pool.iteration = it
        t0 = time.perf_counter()
        sol = rmp.build_and_solve(pool, master)
        rmp_time = time.perf_counter() - t0
        phase = str(master.phase)
        priced = zero_cost if phase == "1" else inst
        # phase-one rows report the artificial sum, phase two the true scale
        objective = sol.objective + offset if phase == "2" else sol.objective
        run_report.final_objective = objective
        if phase == "2":
            integral = rmp.extract_integer_solution(sol, pool)
            run_report.integral_final = integral is not None
            if integral is not None and (bounds.ub is None or integral[1] + offset < bounds.ub):
                bounds = replace(bounds, ub=integral[1] + offset)
        # stop checks on what the solve alone tells; the bound checks never
        # fire in phase one, where the bounds are still unset
        if _gap_closed(bounds, cfg.mip_gap):
            status = "gap_closed"
        elif bounds.lb_int is not None and bounds.lb_int >= objective - CEIL_GUARD:
            status = "rc_converged"
        elif time.perf_counter() > deadline:
            status = "time_limit"
        if status is not None:
            add_row(sol, rmp_time)
            break
        if templates is not None and (phase == "2" or it > 1):
            templates = rmp.project_primal(sol, pool)
        t0 = time.perf_counter()
        outcomes, smoothed, alphas = _price(priced, cfg, sol, templates, phase == "1",
                                            order, state)
        pricing_time = time.perf_counter() - t0
        if phase == "2":
            bounds = update_bounds(bounds, outcomes, objective, smoothed)
        removed = rmp.manage_columns(pool, sol, tau)
        added = insert_columns(outcomes, sol, priced)
        add_row(sol, rmp_time, added, removed, pricing_time, alphas, smoothed)
        if phase == "1":
            if added == 0:
                raise rmp.MasterInfeasibleError(
                    f"phase one stalled at objective {sol.objective:.6g}")
        elif not smoothed and abs(bounds.rc_sum) < RC_CONVERGENCE_TOL:
            status = "optimal"
        elif not smoothed and bounds.lb_int is not None and bounds.lb_int >= objective - CEIL_GUARD:
            status = "rc_converged"
        elif _gap_closed(bounds, cfg.mip_gap):
            status = "gap_closed"
        elif added == 0:
            if smoothed:
                raise AssertionError("smoothed round accepted but added no columns")
            status = "optimal"
        elif time.perf_counter() > deadline:
            status = "time_limit"

    run_report.status = status
    run_report.lb_raw = bounds.lb_raw
    run_report.lb_int = bounds.lb_int
    run_report.ub = bounds.ub
    run_report.finish()
    return run_report


def run_lr(inst: GapInstance, cfg: CgConfig) -> RunReport:
    """Lagrangian baseline wrapped into the common report shape."""
    require_valid(inst)
    t0 = time.perf_counter()
    best_bound, _, integer, trace = lagrangian.lr_solve(inst, cfg.time_limit)
    elapsed = time.perf_counter() - t0
    out = RunReport(instance=inst.name, method="lr")
    for row in trace:
        lb_int = math.ceil(row.best_bound - CEIL_GUARD)
        out.rows.append(IterRow(row.evaluation, "lr", None, row.best_bound,
                                lb_int, None, None, 0, 0, 0, 0.0, 0.0))
    out.lb_raw = best_bound
    out.lb_int = math.ceil(best_bound - CEIL_GUARD) if math.isfinite(best_bound) else None
    out.ub = integer[1] if integer is not None else None
    out.integral_final = integer is not None
    out.final_objective = best_bound
    if elapsed >= cfg.time_limit:
        out.status = "time_limit"
    elif _gap_closed(Bounds(lb_int=out.lb_int, ub=out.ub), cfg.mip_gap):
        out.status = "gap_closed"
    else:
        out.status = "rc_converged"
    out.finish()
    out.total_pricing_time = elapsed
    return out
