"""Pricing strategies for the column-generation loop.

Four strategies map master duals (and, for the template pair, a target
vector per machine) to candidate columns:

* ``dantzig_round``  - plain minimum reduced cost, every machine in one
  batched knapsack call; ``dantzig_price`` is its one-machine case.
* ``pessoa_round``   - directional dual smoothing with adaptive mixing and
  a limited backtracking search over smoothing intensities; falls back to
  plain pricing when smoothing finds nothing. Each attempt prices every
  machine in one batched knapsack call.
* ``lt_round``       - heuristic template pricing: a Lagrangian scalarization
  of (similarity, reduced cost) tuned by bisection on the trade-off weight,
  all machines bisecting in lockstep over batched knapsack calls;
  ``lt_price`` is its one-machine case.
* ``mt_price``       - exact template pricing via the lexicographic knapsack,
  one machine at a time, after a per-machine ``min_knapsack`` base step.

Every strategy only ever returns columns whose reduced cost under the true
duals clears ``mu_i - eps``; the heuristics differ in which such column they
prefer. Phase one prices against a copy of the instance whose costs are
all zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .knapsack import (KnapsackProblem, LexKnapsackProblem, lex_knapsack, min_knapsack,
                       min_knapsack_batch)

DEFAULT_DELTA = 1e-6
LT_MAX_ITERATIONS = 64
LT_RELATIVE_GAP = 1e-3
LT_ABSOLUTE_FLOOR = 1e-9


@dataclass(eq=False)
class PricingOutcome:
    machine: int
    selection: np.ndarray | None  # bool mask over jobs; None: no good column
    dantzig_rc: float | None = None
    similarity: int | None = None
    alpha_used: float | None = None
    flagged: bool = False
    proof_fired: bool = False  # LT only: similarity optimality was certified


@dataclass(eq=False)
class PessoaState:
    pi_hat: np.ndarray | None = None
    g_hat: np.ndarray | None = None
    alpha: float = 0.0
    last_rmp_objective: float = math.inf


@dataclass(eq=False)
class LtState:
    alpha_warm: np.ndarray = field(default_factory=lambda: np.array([]))

    @classmethod
    def fresh(cls, num_machines: int) -> "LtState":
        return cls(alpha_warm=np.full(num_machines, 0.5))


def similarity_class(y_j: float, delta: float) -> int:
    """Classify a template entry: +1 near one, -1 near zero, 0 in between."""
    if y_j > 1.0 - delta:
        return 1
    if y_j < delta:
        return -1
    return 0


def similarity_vector(y, delta: float) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    return np.where(y > 1.0 - delta, 1, np.where(y < delta, -1, 0)).astype(np.int64)


def reduced_cost_sum(cost_row, pi, selection) -> float:
    """Shared reduced-cost accumulation so pricing and audits agree exactly."""
    return float((np.asarray(cost_row, dtype=np.float64) - pi)[selection].sum())


def dantzig_round(inst, machines, pi, mu, eps: float) -> list[PricingOutcome]:
    """Minimum reduced-cost column of each of ``machines``, absent where none
    is good; outcomes in that order. One :func:`min_knapsack_batch` call
    prices every machine, row for row bit-identical to :func:`min_knapsack`."""
    rows = list(machines)
    values, selections = min_knapsack_batch(inst.cost[rows] - pi, inst.resource[rows],
                                            inst.capacity[rows])
    outcomes = []
    for k, i in enumerate(rows):
        rc = values[k] - float(mu[i])
        outcomes.append(PricingOutcome(machine=i, selection=None if rc > -eps else selections[k],
                                       dantzig_rc=rc))
    return outcomes


def dantzig_price(inst, i: int, pi, mu_i: float, eps: float) -> PricingOutcome:
    """:func:`dantzig_round` on machine i alone."""
    (out,) = dantzig_round(inst, [i], pi, {i: mu_i}, eps)
    return out


def mt_price(inst, i: int, y_i, pi, mu_i: float, eps: float,
             delta: float = DEFAULT_DELTA) -> PricingOutcome:
    """Exact template pricing: maximize similarity over the good columns,
    break ties by minimum reduced cost."""
    rc_coeff = inst.cost[i] - pi
    base = min_knapsack(KnapsackProblem(rc_coeff, inst.resource[i], int(inst.capacity[i])))
    dantzig_rc = base.value - mu_i
    if dantzig_rc > -eps:
        return PricingOutcome(machine=i, selection=None, dantzig_rc=dantzig_rc)
    f = similarity_vector(y_i, delta)
    res = lex_knapsack(LexKnapsackProblem(f, rc_coeff, inst.resource[i],
                                          int(inst.capacity[i]), mu_i - eps))
    if res is None:  # the minimum-rc column itself fits the budget
        raise AssertionError("lex search empty although a good column exists")
    best_sim, _, sel = res
    return PricingOutcome(machine=i, selection=sel, dantzig_rc=dantzig_rc,
                          similarity=int(best_sim))


def _lt_search(inst, i: int, y_i, pi, mu_i: float, eps: float, state: LtState | None,
               delta: float, trace: list | None):
    """Machine i's side of :func:`lt_round`, as a coroutine: it yields each
    profit row it wants minimized, receives that knapsack's ``(value,
    selection)`` and returns the machine's :class:`PricingOutcome`."""
    rc_coeff = inst.cost[i] - pi
    base_value, base_selection = yield rc_coeff
    dantzig_rc = base_value - mu_i
    if dantzig_rc > -eps:
        return PricingOutcome(machine=i, selection=None, dantzig_rc=dantzig_rc)
    f = similarity_vector(y_i, delta)
    minus_f = (-f).astype(np.float64)
    budget = mu_i - eps
    lo, up = 0.0, math.inf
    alpha = float(state.alpha_warm[i]) if state is not None else 0.5
    best = None  # (sim, rc, selection) with max sim then min rc
    proof_fired = False
    for _ in range(LT_MAX_ITERATIONS):
        value, x = yield minus_f + alpha * rc_coeff
        rc_x = float(np.add.reduce(rc_coeff[x]))  # ndarray.sum without its wrapper
        sim_x = int(f @ x)
        member = rc_x <= budget
        if trace is not None:
            trace.append((alpha, lo, up, member))
        if member:
            up = alpha
            if best is None or sim_x > best[0] or (sim_x == best[0] and rc_x < best[1]):
                best = (sim_x, rc_x, x)
        else:
            lo = alpha
        if best is not None:
            sim_cap = math.floor(alpha * mu_i - value + 1e-9)
            if best[0] >= sim_cap:
                proof_fired = True
                break
        if math.isfinite(up):
            if lo > 0.0 and (up - lo) / lo <= LT_RELATIVE_GAP:
                break
            if lo == 0.0 and up <= LT_ABSOLUTE_FLOOR:
                break
            alpha = (lo + up) / 2.0
        else:
            alpha = 2.0 * alpha
    if best is None:
        # Bisection exhausted without confirming membership even though the
        # minimum-rc column qualifies: fall back to it so the loop progresses.
        return PricingOutcome(machine=i, selection=base_selection, dantzig_rc=dantzig_rc,
                              similarity=int(f[base_selection].sum()), flagged=True)
    sim, _, sel = best
    if state is not None:
        state.alpha_warm[i] = up
    return PricingOutcome(machine=i, selection=sel, dantzig_rc=dantzig_rc,
                          similarity=int(sim), alpha_used=up, proof_fired=proof_fired)


def lt_round(inst, machines, templates, pi, mu, eps: float, state: LtState | None = None,
             delta: float = DEFAULT_DELTA, trace: dict | None = None) -> list[PricingOutcome]:
    """Heuristic template pricing of ``machines``; outcomes in that order.

    For a trade-off weight ``alpha`` machine i's subproblem minimizes
    ``-similarity + alpha * reduced_cost`` over its feasible selections.
    Bisection finds the smallest alpha whose minimizer clears the reduced-cost
    budget, warm-started per machine from the previous round. The best
    budget-clearing selection seen is returned; when the search proves its
    similarity optimal, it matches :func:`mt_price`. ``templates[i]`` and
    ``mu[i]`` are machine i's target vector and dual. The searches run in
    lockstep, one :func:`min_knapsack_batch` call per step over the machines
    still searching; machines share nothing, so each outcome is that of a
    search on its own. ``trace``, when given, maps a machine to the list that
    receives its ``(alpha, lo, up, member)`` tuple per bisection step.
    """
    searches = {i: _lt_search(inst, i, templates[i], pi, float(mu[i]), eps, state, delta,
                              None if trace is None else trace.setdefault(i, []))
                for i in machines}
    profits = {i: next(search) for i, search in searches.items()}
    outcomes = {}
    rows = None
    while profits:
        if rows is None:  # the searching machines changed
            rows = list(profits)
            weight, capacity = inst.resource[rows], inst.capacity[rows]
        values, selections = min_knapsack_batch(np.array([profits[i] for i in rows]),
                                                weight, capacity)
        for k, i in enumerate(rows):
            try:
                profits[i] = searches[i].send((values[k], selections[k]))
            except StopIteration as done:
                del profits[i]
                outcomes[i] = done.value
                rows = None
    return [outcomes[i] for i in machines]


def lt_price(inst, i: int, y_i, pi, mu_i: float, eps: float,
             state: LtState | None = None, delta: float = DEFAULT_DELTA,
             trace: list | None = None) -> PricingOutcome:
    """:func:`lt_round` on machine i alone, ``trace`` being its step list."""
    (out,) = lt_round(inst, [i], {i: y_i}, pi, {i: mu_i}, eps, state, delta,
                      None if trace is None else {i: trace})
    return out


def _smoothed_duals(pi_t, pi_hat, g_hat, alpha_k: float, k: int):
    """Smoothing target for backtracking step k; None marks pure duals."""
    if alpha_k <= 0.0:
        return None
    pi_k = alpha_k * pi_hat + (1.0 - alpha_k) * pi_t
    if k != 1:
        return pi_k
    g_norm = float(np.linalg.norm(g_hat))
    gap = pi_t - pi_hat
    gap_norm = float(np.linalg.norm(gap))
    if g_norm <= 0.0 or gap_norm <= 0.0:
        return pi_k
    pi_g = pi_hat + gap_norm * g_hat / g_norm
    beta = float(gap @ (pi_g - pi_hat)) / (gap_norm * float(np.linalg.norm(pi_g - pi_hat)))
    rho = beta * pi_g + (1.0 - beta) * pi_t
    dev = rho - pi_hat
    dev_norm = float(np.linalg.norm(dev))
    if dev_norm <= 0.0:
        return pi_k
    pk_norm = float(np.linalg.norm(pi_k - pi_hat))
    return np.maximum(0.0, pi_hat + pk_norm * dev / dev_norm)


def pessoa_round(state: PessoaState, inst, pi_t, mu, eps: float,
                 rmp_objective: float = math.inf):
    """One full smoothing round across all machines.

    Tries smoothing intensities k = 1..9 (k = 1 additionally bends the
    smoothed point toward the stored subgradient direction when available),
    then reverts to pure duals. A round is accepted as soon as one machine's
    minimizer clears the true reduced-cost budget; only the machines that
    clear it contribute columns. Returns ``(outcomes, state, k_used)``;
    ``dantzig_rc`` is populated only on rounds priced with the pure duals.
    """
    pi_t = np.asarray(pi_t, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    if state.pi_hat is None:
        state.pi_hat = pi_t.copy()
        state.g_hat = np.zeros_like(pi_t)
    ni = inst.num_machines

    def price_all(pi_price):
        values, sels = min_knapsack_batch(inst.cost - pi_price, inst.resource, inst.capacity)
        true_rc = np.array([reduced_cost_sum(inst.cost[i], pi_t, sels[i]) - mu[i]
                            for i in range(ni)])
        return values, sels, true_rc

    k_used = None
    pure_round = False
    for k in range(1, 10):
        alpha_k = max(0.0, 1.0 - k * (1.0 - state.alpha))
        pi_tilde = _smoothed_duals(pi_t, state.pi_hat, state.g_hat, alpha_k, k)
        pure = pi_tilde is None
        values, sels, true_rc = price_all(pi_t if pure else pi_tilde)
        k_used = k
        pure_round = pure
        if (true_rc <= -eps).any():
            break
        if pure:  # weaker smoothing cannot help once pure duals failed
            break
    else:
        k_used = 10
    if k_used == 10:  # all smoothed attempts failed: revert to pure duals
        values, sels, true_rc = price_all(pi_t)
        pure_round = True

    outcomes = [PricingOutcome(machine=i, selection=sels[i] if true_rc[i] <= -eps else None,
                               dantzig_rc=float(values[i] - mu[i]) if pure_round else None,
                               alpha_used=state.alpha)
                for i in range(ni)]
    g_round = 1.0 - sels.sum(axis=0)
    agreement = float(g_round @ (pi_t - state.pi_hat)) > 0.0
    improved = rmp_objective < state.last_rmp_objective - 1e-9
    if improved:
        state.pi_hat = pi_t.copy()
        state.g_hat = g_round
    if agreement:
        state.alpha = min(0.9999, 0.9 * state.alpha + 0.1)
    else:
        state.alpha = max(0.0, state.alpha - 0.1)
    state.last_rmp_objective = rmp_objective
    return outcomes, state, k_used
