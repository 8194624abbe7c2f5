"""Pricing strategies for the column-generation loop.

Four strategies map master duals (and, for the template pair, the template
classes of each machine) to candidate columns:

* ``dantzig_round``  - plain minimum reduced cost, every machine in one
  batched knapsack call, which also opens ``lt_round``; ``dantzig_price``
  is its one-machine case.
* ``pessoa_round``   - directional dual smoothing with adaptive mixing and
  a limited backtracking search over smoothing intensities; falls back to
  plain pricing when smoothing finds nothing. Each attempt prices every
  machine in one batched knapsack call.
* ``lt_round``       - heuristic template pricing: from its Dantzig column,
  each machine that has a good one walks the lower convex hull of its
  (reduced cost, -similarity) points to the edge that crosses the budget,
  in lockstep over batched knapsack calls; ``lt_price`` prices one machine.
* ``mt_price``       - exact template pricing via the lexicographic knapsack,
  one machine at a time, after a base step that is ``min_knapsack``, the
  batched kernel's one-row case.

Every strategy only ever returns columns whose reduced cost under the true
duals clears ``mu_i - eps``; the heuristics differ in which such column they
prefer. Phase one prices against a copy of the instance whose costs are
all zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .knapsack import (KnapsackProblem, LexKnapsackProblem, lex_knapsack, min_knapsack,
                       min_knapsack_batch)

DEFAULT_DELTA = 1e-6
LT_MAX_ITERATIONS = 64
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


def similarity_vector(y, delta: float) -> np.ndarray:
    """Classify each entry of a template vector or matrix: +1 near one, -1 near zero."""
    y = np.asarray(y, dtype=np.float64)
    return np.where(y > 1.0 - delta, 1, np.where(y < delta, -1, 0)).astype(np.int64)


def reduced_cost_sum(cost_row, pi, selection) -> float:
    """Shared reduced-cost accumulation so pricing and audits agree exactly."""
    return float(np.add.reduce((np.asarray(cost_row, dtype=np.float64) - pi)[selection]))


def dantzig_round(inst, machines, pi, mu, eps: float) -> list[PricingOutcome]:
    """Minimum reduced-cost column of each of ``machines``, absent where none
    is good; outcomes in that order. One :func:`min_knapsack_batch` call
    prices every machine."""
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


def mt_price(inst, i: int, classes_i, pi, mu_i: float, eps: float) -> PricingOutcome:
    """Exact template pricing: maximize similarity to the template classes
    ``classes_i`` over the good columns, break ties by minimum reduced cost."""
    rc_coeff = inst.cost[i] - pi
    base = min_knapsack(KnapsackProblem(rc_coeff, inst.resource[i], int(inst.capacity[i])))
    dantzig_rc = base.value - mu_i
    if dantzig_rc > -eps:
        return PricingOutcome(machine=i, selection=None, dantzig_rc=dantzig_rc)
    res = lex_knapsack(LexKnapsackProblem(classes_i, rc_coeff, inst.resource[i],
                                          int(inst.capacity[i]), mu_i - eps))
    if res is None:  # the minimum-rc column itself fits the budget
        raise AssertionError("lex search empty although a good column exists")
    best_sim, _, sel = res
    return PricingOutcome(machine=i, selection=sel, dantzig_rc=dantzig_rc,
                          similarity=int(best_sim))


def _lt_search(inst, base: PricingOutcome, f, pi, mu_i: float, eps: float,
               alpha_warm: np.ndarray, trace: list | None):
    """Machine ``base.machine``'s walk from its Dantzig outcome ``base`` under its template
    classes ``f``, as a coroutine: it yields each profit row it wants minimized, receives
    that knapsack's ``(value, selection)`` and returns its :class:`PricingOutcome`."""
    i = base.machine
    rc_coeff = inst.cost[i] - pi
    minus_f = (-f).astype(np.float64)
    budget = mu_i - eps

    def point(x):  # (similarity, reduced cost, selection); add.reduce is ndarray.sum unwrapped
        return int(f @ x), float(np.add.reduce(rc_coeff[x])), x

    member_end = best = point(base.selection)
    other_end = None  # the non-member endpoint, once a probe has found one
    alpha = float(alpha_warm[i])
    for step in range(1, LT_MAX_ITERATIONS + 1):
        value, x = yield minus_f + alpha * rc_coeff
        probe = point(x)
        member = probe[1] <= budget
        if member and (probe[0] > best[0] or (probe[0] == best[0] and probe[1] < best[1])):
            best = probe
        edge = alpha * member_end[1] - member_end[0]  # at a tie weight, both ends' value
        if best[0] >= math.floor(alpha * mu_i - value + 1e-9):
            stop = "proof"
        elif other_end is not None and value >= edge - 1e-9 * (1.0 + abs(edge)):
            stop = "hull"  # no column lies strictly below the edge
        elif other_end is None and member and alpha <= LT_ABSOLUTE_FLOOR:
            stop = "hull"  # the most similar column clears the budget: no edge crosses it
        elif step == LT_MAX_ITERATIONS:
            stop = "cap"
        else:
            stop = None
        if trace is not None:
            trace.append((alpha, value, probe[:2], None if other_end is None else other_end[:2],
                          member_end[:2], stop))
        if stop is not None:
            break
        if member:
            member_end = probe
        else:
            other_end = probe
        if other_end is None:
            alpha = LT_ABSOLUTE_FLOOR
        else:
            alpha = (other_end[0] - member_end[0]) / (other_end[1] - member_end[1])
    alpha_warm[i] = alpha
    sim, _, sel = best
    return PricingOutcome(machine=i, selection=sel, dantzig_rc=base.dantzig_rc, similarity=sim,
                          alpha_used=alpha, flagged=stop == "cap", proof_fired=stop == "proof")


def lt_round(inst, machines, classes, pi, mu, eps: float, alpha_warm: np.ndarray,
             trace: dict | None = None) -> list[PricingOutcome]:
    """Heuristic template pricing of ``machines``; outcomes in that order.

    A machine without a good column in :func:`dantzig_round` keeps that
    outcome. For a trade-off weight ``alpha`` each other machine i minimizes
    ``-similarity + alpha * reduced_cost`` over its feasible selections, whose
    minimizers are the vertices of the lower convex hull of the
    ``(reduced_cost, -similarity)`` points. The search walks that hull
    (Handler & Zang's dual search for constrained shortest paths) between a
    member end that clears the budget ``mu[i] - eps``, first the Dantzig
    column, and a non-member end. It probes the previous round's weight,
    then ``LT_ABSOLUTE_FLOOR`` while no non-member is known, then the weight
    at which the two ends tie; each minimizer replaces the end on its side
    of the budget. It stops when no point lies strictly below the edge (or
    the floor probe is a member), when the similarity bound proves the best
    column optimal (``proof_fired``; it then matches :func:`mt_price`), or
    after ``LT_MAX_ITERATIONS`` probes (``flagged``), and returns the best
    budget-clearing column seen, highest similarity then lowest reduced
    cost. The last probed weight is ``alpha_used`` and, in ``alpha_warm[i]``,
    the next warm start.

    ``classes[i]`` and ``mu[i]`` are machine i's template classes and dual.
    The walks run in lockstep, one :func:`min_knapsack_batch` call per
    step over the machines still walking; machines share nothing, so each
    outcome is that of a search on its own. ``trace``, when given, maps a
    machine to the list that receives one ``(alpha, value, probe, other end,
    member end, stop)`` tuple per probe: points are ``(sim, rc)``, the ends
    those held when the probe was chosen (no other end yet: None), and
    ``stop`` None or the rule that ended the walk, ``"hull"``, ``"proof"``
    or ``"cap"``.
    """
    outcomes = dantzig_round(inst, machines, pi, mu, eps)
    searches = {}
    for out in outcomes:
        i = out.machine
        steps = None if trace is None else trace.setdefault(i, [])
        if out.selection is not None:
            searches[i] = _lt_search(inst, out, classes[i], pi, float(mu[i]), eps,
                                     alpha_warm, steps)
    profits = {i: next(search) for i, search in searches.items()}
    walked = {}
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
                walked[i] = done.value
                rows = None
    return [walked.get(out.machine, out) for out in outcomes]


def lt_price(inst, i: int, classes_i, pi, mu_i: float, eps: float, alpha_warm: np.ndarray,
             trace: list | None = None) -> PricingOutcome:
    """:func:`lt_round` on machine i alone, ``trace`` being its step list."""
    (out,) = lt_round(inst, [i], {i: classes_i}, pi, {i: mu_i}, eps, alpha_warm,
                      None if trace is None else {i: trace})
    return out


def _smoothed_duals(pi_t, pi_hat, g_hat, alpha_k: float, k: int):
    """Smoothing target for backtracking step k; None marks pure duals."""
    if alpha_k <= 0.0:
        return None
    pi_k = alpha_k * pi_hat + (1.0 - alpha_k) * pi_t
    if k != 1:
        return pi_k
    # math.sqrt(v.dot(v)) is what np.linalg.norm(v) computes for a 1-D float64 v
    g_norm = math.sqrt(g_hat.dot(g_hat))
    gap = pi_t - pi_hat
    gap_norm = math.sqrt(gap.dot(gap))
    if g_norm <= 0.0 or gap_norm <= 0.0:
        return pi_k
    pi_g = pi_hat + gap_norm * g_hat / g_norm
    to_g = pi_g - pi_hat
    beta = float(gap @ to_g) / (gap_norm * math.sqrt(to_g.dot(to_g)))
    rho = beta * pi_g + (1.0 - beta) * pi_t
    dev = rho - pi_hat
    dev_norm = math.sqrt(dev.dot(dev))
    if dev_norm <= 0.0:
        return pi_k
    to_k = pi_k - pi_hat
    pk_norm = math.sqrt(to_k.dot(to_k))
    return np.maximum(0.0, pi_hat + pk_norm * dev / dev_norm)


def pessoa_round(state: PessoaState, inst, pi_t, mu, eps: float,
                 rmp_objective: float = math.inf):
    """One full smoothing round across all machines.

    Step k < 10 smooths with ``alpha_k = max(0, 1 - k (1 - alpha))`` (k = 1
    also bends toward the stored subgradient direction when available);
    step 10, like any step with ``alpha_k = 0``, prices the pure duals. The
    round stops at the first pure step or the first step at which some
    machine clears the true reduced-cost budget; only those machines
    contribute columns. Returns ``(outcomes, state, k_used)``; ``dantzig_rc``
    is populated only on rounds priced with the pure duals.
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

    for k_used in range(1, 11):
        alpha_k = max(0.0, 1.0 - k_used * (1.0 - state.alpha)) if k_used < 10 else 0.0
        pi_tilde = _smoothed_duals(pi_t, state.pi_hat, state.g_hat, alpha_k, k_used)
        pure = pi_tilde is None
        values, sels, true_rc = price_all(pi_t if pure else pi_tilde)
        if pure or (true_rc <= -eps).any():  # every later step would price pure duals too
            break

    outcomes = [PricingOutcome(machine=i, selection=sels[i] if true_rc[i] <= -eps else None,
                               dantzig_rc=float(values[i] - mu[i]) if pure else None,
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
