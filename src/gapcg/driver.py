"""Column-generation driver: one loop for both phases, bounds, termination.

``run`` executes the full loop for one instance and pricing method and
returns a :class:`RunReport` with one row per iteration. It first relabels
the instance by ``CgConfig.seed`` and then prices machines in label order.
Phase one is the same loop, priced against a zero-cost copy of the
instance, until ``rmp.build_and_solve`` hands the master to phase two. The
column pool owns the master LP, so each row takes its phase from
``pool.phase``. ``run_lr`` wraps the Lagrangian baseline, relabeled alike,
into the same report shape; ``run`` dispatches to it for ``"lr"``.

Bounds bookkeeping: the report holds the running bounds. Whenever a
phase-two round priced with the true duals, the sum of negative minimum
reduced costs added to the master objective is a lower bound on the master
optimum, ``lb_raw``. Computed in float it can round up past an integer, so
``lb_int`` rises only as far as both its ceiling and the exact integer
Lagrangian bound at the round's duals (``lagrangian.certified_bound``)
allow. Smoothed rounds leave the bounds untouched. Phase one prices in units of
one uncovered job, so its budget is at most ``RC_CONVERGENCE_TOL``.
"""

from __future__ import annotations

import math
import numbers
import operator
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import lagrangian, pricing, rmp
from .instance import GapInstance, InfeasibleInstanceError, relabel, validate
from .lagrangian import CEIL_GUARD, integer_bound
from .pricing import DEFAULT_DELTA, PessoaState, PricingOutcome
from .rmp import AGE_POLICIES, ColumnPool
from .simplex import PRICE_TOL

RC_CONVERGENCE_TOL = 1e-6
# a smaller budget lets a column the master already holds clear it, and
# pricing then returns a duplicate that the pool refuses
MIN_EPSILON = PRICE_TOL


@dataclass
class CgConfig:
    pricing_method: str = "lt"
    epsilon: float = 1e-6
    time_limit: float = 600.0
    mip_gap: float = 1e-5  # 0.001 percent
    age_threshold: int | None = None  # None: the method's policy, rmp.age_threshold
    template_delta: float = DEFAULT_DELTA
    seed: int = 0  # the labeling, see instance.relabel; 0 keeps the instance's own

    def __post_init__(self):
        """Reject, before any solve, every value that ``run`` cannot honour:
        a field of the wrong type with TypeError, a value out of range with
        ValueError. ``seed`` and ``age_threshold`` take any integer type that
        ``operator.index`` accepts, numpy's among them."""
        for name in ("epsilon", "time_limit", "mip_gap", "template_delta"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real):
                raise TypeError(f"{name} must be a real number, not {type(value).__name__}")
        _require_integer("seed", self.seed)
        if self.age_threshold is not None:  # None: the method's policy
            _require_integer("age_threshold", self.age_threshold)
        for ok, message in [
            (self.pricing_method in (*AGE_POLICIES, "lr"),
             f"unknown pricing method {self.pricing_method!r}"),
            (MIN_EPSILON <= self.epsilon < math.inf,
             f"epsilon must be finite and at least the pricing tolerance {MIN_EPSILON:g}"),
            (0.0 < self.time_limit <= math.inf, "time_limit must be a number > 0"),
            (0.0 <= self.mip_gap < math.inf, "mip_gap must be a finite number >= 0"),
            (self.age_threshold is None or self.age_threshold >= 1,
             "age_threshold must be at least 1"),
            (0.0 <= self.template_delta <= 0.5, "delta must lie in [0, 0.5]"),
            (self.seed >= 0, "seed must be at least 0"),
        ]:
            if not ok:
                raise ValueError(message)


def _require_integer(name: str, value) -> None:
    try:
        operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, not {type(value).__name__}") from None


@dataclass
class IterRow:
    """One row of the ``run`` TSV: its fields are the columns after
    ``instance`` and ``method``, in order. ``status`` and ``gap_percent``
    are set on the summary row only; new columns are appended."""
    iteration: int | None
    phase: str
    rmp_objective: float | None = None
    lb_raw: float | None = None
    lb_int: int | None = None
    ub: int | None = None
    rc_sum: float | None = None
    columns_added: int = 0
    columns_removed: int | None = 0
    pivots: int = 0
    rmp_time: float = 0.0
    pricing_time: float = 0.0
    alpha_min: float | None = None
    alpha_avg: float | None = None
    alpha_max: float | None = None
    status: str | None = None
    gap_percent: float | None = None


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

    def summary(self) -> IterRow:
        """The run's totals as the last row of its TSV."""
        return IterRow(iteration=None, phase="summary", rmp_objective=self.final_objective,
                       lb_raw=_finite(self.lb_raw), lb_int=self.lb_int, ub=self.ub,
                       columns_added=self.total_columns_added, columns_removed=None,
                       pivots=self.total_pivots, rmp_time=self.total_rmp_time,
                       pricing_time=self.total_pricing_time, status=self.status,
                       gap_percent=self.gap_percent)


def _finite(x: float) -> float | None:
    return x if math.isfinite(x) else None


def update_bounds(report: RunReport, outcomes: list[PricingOutcome],
                  rmp_objective: float, certify, offset: int) -> float:
    """Fold a round priced at the true duals into the report's lower bound;
    returns the round's sum of negative reduced costs.

    ``lb_raw`` takes the float sum. Where its ceiling would raise ``lb_int``,
    ``certify()`` gives the exact integer bound at the round's duals on the
    shifted instance (None where it cannot), ``offset`` unshifts it, and
    ``lb_int`` rises to the lower of the two: at a large cost scale the
    float sum can round up past an integer that the true bound reaches.
    """
    rc_sum = 0.0
    for out in outcomes:  # not sum(), which compensates from Python 3.12 on
        if out.dantzig_rc is None:
            raise ValueError("true-dual round lacks a dantzig_rc value")
        rc_sum += min(out.dantzig_rc, 0.0)
    report.lb_raw = max(report.lb_raw, rmp_objective + rc_sum)
    ceiling = integer_bound(report.lb_raw)
    if ceiling is not None and (report.lb_int is None or ceiling > report.lb_int):
        certified = certify()
        if certified is not None:
            raised = min(ceiling, certified + offset)
            report.lb_int = raised if report.lb_int is None else max(report.lb_int, raised)
    return rc_sum


def _gap_closed(report: RunReport, mip_gap: float) -> bool:
    if report.ub is None or report.lb_int is None:
        return False
    slack = report.ub - report.lb_int
    return slack <= 0 or slack < mip_gap * abs(report.ub)


def _alpha_stats(values):
    values = [v for v in values if v is not None]
    if not values:
        return None, None, None
    return min(values), sum(values) / len(values), max(values)


def _price(inst: GapInstance, cfg: CgConfig, eps: float, sol,
           templates: np.ndarray | None, phase1: bool, state):
    """One pricing round at budget ``eps``; returns (outcomes, smoothed, alpha_values).

    ``state`` is the method's warm start: LT's per-machine weights, the
    :class:`PessoaState`, or None. LT and MT classify the whole template
    matrix here, once per round. Phase-one Pessoa prices like Dantzig.
    """
    method, machines = cfg.pricing_method, range(inst.num_machines)
    if method == "pessoa" and not phase1:
        outcomes, _, _ = pricing.pessoa_round(state, inst, sol.pi, sol.mu, eps,
                                              rmp_objective=sol.objective)
        return outcomes, any(o.dantzig_rc is None for o in outcomes), [state.alpha]
    if method in ("lt", "mt"):
        classes = pricing.similarity_vector(templates, cfg.template_delta)
    if method == "lt":
        outcomes = pricing.lt_round(inst, machines, classes, sol.pi, sol.mu, eps, state)
        return outcomes, False, [out.alpha_used for out in outcomes]
    if method == "mt":
        outcomes = [pricing.mt_price(inst, i, classes[i], sol.pi, float(sol.mu[i]), eps)
                    for i in machines]
    else:
        outcomes = pricing.dantzig_round(inst, machines, sol.pi, sol.mu, eps)
    return outcomes, False, []


def run(inst: GapInstance, cfg: CgConfig) -> RunReport:
    """Full column-generation run; see the module docstring for the loop."""
    method = cfg.pricing_method
    if method == "lr":
        return run_lr(inst, cfg)
    validate(inst)
    inst = relabel(inst, cfg.seed)
    # every assignment pays each job once, so shifting a job's costs to a
    # zero minimum keeps the optimal assignments and makes the cover master
    # exact; reports add the offset back
    shift = np.minimum(inst.cost.min(axis=0), 0)
    offset = int(shift.sum())
    inst = replace(inst, cost=inst.cost - shift)

    report = RunReport(instance=inst.name, method=method)
    deadline = time.perf_counter() + cfg.time_limit

    pool = ColumnPool(inst)
    state = (np.full(inst.num_machines, 0.5) if method == "lt" else
             PessoaState() if method == "pessoa" else None)
    tau = (cfg.age_threshold if cfg.age_threshold is not None
           else rmp.age_threshold(method, inst))

    templates = rmp.solve_compact_lp(inst) if method in ("lt", "mt") else None
    zero_cost = replace(inst, cost=np.zeros_like(inst.cost))  # phase one prices against it

    it = 0
    status = None
    while status is None:
        it += 1
        pool.iteration = it
        t0 = time.perf_counter()
        sol = rmp.build_and_solve(pool)
        rmp_time = time.perf_counter() - t0
        phase = str(pool.phase)
        # phase-one rows report the artificial sum, phase two the true scale
        objective = sol.objective + offset if phase == "2" else sol.objective
        report.final_objective = objective
        if phase == "2":
            integral = rmp.extract_integer_solution(sol, pool)
            report.integral_final = integral is not None
            if integral is not None and (report.ub is None or integral[1] + offset < report.ub):
                report.ub = integral[1] + offset
        # stop checks on what the solve alone tells; the bound checks never
        # fire in phase one, where the bounds are still unset
        if _gap_closed(report, cfg.mip_gap):
            status = "gap_closed"
        elif report.lb_int is not None and report.lb_int >= objective - CEIL_GUARD:
            status = "rc_converged"
        elif time.perf_counter() > deadline:
            status = "time_limit"
        added = removed = 0
        pricing_time, alphas, smoothed, rc_sum = 0.0, [], False, None
        if status is None:
            if templates is not None and it > 1:
                templates = rmp.project_primal(sol, pool)
            priced, eps = ((zero_cost, min(cfg.epsilon, RC_CONVERGENCE_TOL)) if phase == "1"
                           else (inst, cfg.epsilon))
            t0 = time.perf_counter()
            outcomes, smoothed, alphas = _price(priced, cfg, eps, sol, templates,
                                                phase == "1", state)
            pricing_time = time.perf_counter() - t0
            if phase == "2" and not smoothed:
                rc_sum = update_bounds(report, outcomes, objective,
                                       lambda: lagrangian.certified_bound(inst, sol.pi), offset)
            removed = rmp.manage_columns(pool, sol, tau)
            for out in outcomes:
                i, selection = out.machine, out.selection
                if selection is None or pool.add(i, selection) is None:
                    continue
                added += 1
                rc = pricing.reduced_cost_sum(priced.cost[i], sol.pi, selection)
                report.max_rc_margin = max(report.max_rc_margin,
                                           rc - (float(sol.mu[i]) - eps))
        report.rows.append(IterRow(
            it, phase, objective, _finite(report.lb_raw),
            report.lb_int, report.ub, rc_sum,
            added, removed, sol.pivots, rmp_time, pricing_time, *_alpha_stats(alphas)))
        if status is not None:
            break
        if phase == "1":
            if added == 0:
                raise InfeasibleInstanceError(
                    f"phase one stalled at objective {sol.objective:.6g}")
        elif rc_sum is not None and abs(rc_sum) < RC_CONVERGENCE_TOL:
            status = "optimal"
        elif report.lb_int is not None and report.lb_int >= objective - CEIL_GUARD:
            status = "rc_converged"
        elif _gap_closed(report, cfg.mip_gap):
            status = "gap_closed"
        elif added == 0 and smoothed:
            # at a large cost scale a held column's float reduced cost can
            # clear the budget, so smoothing accepts a duplicate the pool
            # refuses: price the true duals next round
            state.alpha = 0.0
        elif added == 0:
            status = "optimal"
        elif time.perf_counter() > deadline:
            status = "time_limit"

    report.status = status
    report.finish()
    return report


def run_lr(inst: GapInstance, cfg: CgConfig) -> RunReport:
    """Lagrangian baseline wrapped into the common report shape."""
    validate(inst)
    inst = relabel(inst, cfg.seed)
    t0 = time.perf_counter()
    best_bound, _, integer, trace = lagrangian.lr_solve(inst, cfg.time_limit)
    elapsed = time.perf_counter() - t0
    out = RunReport(instance=inst.name, method="lr")
    for row in trace:
        out.rows.append(IterRow(row.evaluation, "lr", lb_raw=row.best_bound,
                                lb_int=integer_bound(row.best_bound)))
    out.lb_raw = best_bound
    out.lb_int = integer_bound(best_bound)
    out.ub = integer[1] if integer is not None else None
    out.integral_final = integer is not None
    out.final_objective = best_bound
    if elapsed >= cfg.time_limit:
        out.status = "time_limit"
    elif _gap_closed(out, cfg.mip_gap):
        out.status = "gap_closed"
    else:
        out.status = "rc_converged"
    out.finish()
    out.total_pricing_time = elapsed
    return out
