"""Lagrangian-relaxation baseline over the same knapsack kernel.

Dualizing the cover rows decomposes the problem into one knapsack per
machine: ``L(pi) = sum(pi) + sum_i min_knapsack(c_i - pi)``; one
``min_knapsack_batch`` call solves all of them per evaluation. The concave,
piecewise-linear dual function is maximized by limited-memory quasi-Newton
ascent with a backtracking line search; every dual-function evaluation
(line-search probes included) counts as one iteration for reporting parity
with the column-generation loop. :func:`certified_bound` evaluates the same
``L`` exactly, at duals rounded onto a binary grid, and :func:`integer_bound`
rounds a float bound up to the integer it proves; the driver uses both.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from .instance import InfeasibleInstanceError, cheapest_assignment
# min_knapsack stays bound here: perfbench/spans.py patches lagrangian.min_knapsack by name
from .knapsack import min_knapsack, min_knapsack_batch  # noqa: F401

MEMORY = 256
ARMIJO = 1e-4
MAX_BACKTRACKS = 30
FALLBACK_STEP = 1e-8
CONVERGENCE_TOL = 1e-6
CEIL_GUARD = 1e-9  # float error may carry a bound this far past an integer


@dataclass
class LrTraceRow:
    evaluation: int
    value: float
    best_bound: float
    seconds: float  # since lr_solve started, read as the evaluation ends


def lr_evaluate(inst, pi):
    """``L(pi)``, its subgradient and the (m, n) mask of the per-machine selections:
    the one evaluation of ``L``, for LR, Pessoa smoothing and certification."""
    pi = np.asarray(pi, dtype=np.float64)
    values, selections = min_knapsack_batch(inst.cost - pi, inst.resource, inst.capacity)
    value = float(pi.sum())
    for machine_value in values:  # machine by machine, the order the sum is defined in
        value += machine_value
    return value, 1.0 - selections.sum(axis=0), selections


def integer_bound(value: float) -> int | None:
    """The integer bound that the float lower bound ``value`` proves; None if not finite."""
    return math.ceil(value - CEIL_GUARD) if math.isfinite(value) else None


def certified_bound(inst, pi) -> int | None:
    """An integer lower bound on every assignment's cost, computed exactly:
    the ceiling of ``L(pi')``, where ``pi'`` is ``pi`` rounded down onto the
    grid ``2^-s``.

    Any duals give a Lagrangian bound, so ``pi'`` does too. ``s`` is the
    largest exponent at which ``sum_j (max_i |c_ij| + ceil|pi_j| + 1)``,
    times ``2^s``, stays below ``2^52``; every partial sum of a machine's
    profits ``c_i - pi'`` is then a float multiple of ``2^-s`` that the
    kernel adds exactly, so :func:`lr_evaluate` at ``pi'`` selects each
    machine's exact minimum. ``L(pi')`` is summed over those selections in
    integers over ``2^s``. None when no ``s >= 0`` qualifies.
    """
    pi = np.asarray(pi, dtype=np.float64)
    size = (int(np.abs(inst.cost).max(axis=0).sum()) + int(np.ceil(np.abs(pi)).sum())
            + len(pi))
    s = 52 - size.bit_length()
    if s < 0:
        return None
    scaled = np.floor(np.ldexp(pi, s))
    _, _, selections = lr_evaluate(inst, np.ldexp(scaled, -s))
    grid_profit = inst.cost * (1 << s) - scaled.astype(np.int64)  # c - pi', times 2^s
    total = int(scaled.sum()) + sum(np.where(selections, grid_profit, 0).sum(axis=1).tolist())
    return -(-total >> s)


def _two_loop(grad, memory):
    """Quasi-Newton ascent direction H*grad from the stored ``(s, y, rho)``
    triples, ``rho = 1 / (y . s)`` computed once when the pair is stored."""
    q = grad.copy()
    scratch = np.empty_like(q)  # a*y and (a-b)*s, one at a time
    alphas = []
    for s, y, rho in reversed(memory):
        a = rho * float(s @ q)
        q -= np.multiply(a, y, out=scratch)
        alphas.append(a)
    if memory:
        s, y, _ = memory[-1]
        q *= float(s @ y) / float(y @ y)
    for (s, y, rho), a in zip(memory, reversed(alphas)):
        b = rho * float(y @ q)
        q += np.multiply(a - b, s, out=scratch)
    return q


def lr_solve(inst, time_limit: float = 600.0):
    """Maximize the dual bound; returns (best_bound, best_pi, integer, trace).

    ``integer`` is ``(assignment, cost)`` when some probe's selections
    partitioned the jobs exactly, else None. Terminates when the change in
    the dual value between accepted iterates drops below 1e-6, when the
    subgradient vanishes, or when an evaluation ends past the time limit. Raises
    :class:`InfeasibleInstanceError` once the integer bound exceeds
    ``sum_j max_i c_ij``, which every assignment costs at most.
    """
    start = time.perf_counter()
    worst_assignment = int(inst.cost.max(axis=0).sum())
    trace: list[LrTraceRow] = []
    pi = np.zeros(inst.num_jobs)
    memory = deque(maxlen=MEMORY)  # curvature pairs (s, y, rho)
    best_bound, best_pi, integer_solution = -np.inf, None, None

    def probe(point):
        nonlocal best_bound, best_pi, integer_solution
        value, grad, sels = lr_evaluate(inst, point)
        bound = integer_bound(value)
        if bound is not None and bound > worst_assignment:
            raise InfeasibleInstanceError(
                f"Lagrangian bound {value:.6g} exceeds the cost {worst_assignment} "
                "of any assignment: no feasible assignment exists")
        if value > best_bound:
            best_bound, best_pi = value, point.copy()
        if not grad.any():
            found = cheapest_assignment(inst, range(inst.num_machines), sels)
            if integer_solution is None or found[1] < integer_solution[1]:
                integer_solution = found
        trace.append(LrTraceRow(len(trace) + 1, value, best_bound, time.perf_counter() - start))
        return value, grad

    value, grad = probe(pi)
    if time_limit <= 0:
        return best_bound, best_pi, integer_solution, trace
    last_accepted_value = value
    consecutive_fallbacks = 0
    while True:
        if not grad.any():
            break  # stationary: dual optimum (and an exact partition)
        gnorm2 = float(grad @ grad)
        direction = _two_loop(grad, memory)
        if float(direction @ grad) <= 0.0:
            direction = grad.copy()
        step = 1.0
        accepted = False
        cand_pi = cand_value = cand_grad = None
        for _ in range(MAX_BACKTRACKS + 1):
            cand_pi = pi + step * direction
            cand_value, cand_grad = probe(cand_pi)
            if trace[-1].seconds > time_limit:
                return best_bound, best_pi, integer_solution, trace
            if cand_value >= value + ARMIJO * step * gnorm2:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            # nonsmooth kink: take a tiny safeguarded gradient step, drop the
            # curvature history, and give the plain gradient a fresh chance
            memory.clear()
            cand_pi = pi + FALLBACK_STEP * grad
            cand_value, cand_grad = probe(cand_pi)
            consecutive_fallbacks += 1
        s = cand_pi - pi
        y = -(cand_grad - grad)  # curvature pair for the concave objective
        if float(s @ y) > 1e-10:
            memory.append((s, y, 1.0 / float(y @ s)))
        pi, value, grad = cand_pi, cand_value, cand_grad
        if accepted:
            delta = value - last_accepted_value
            last_accepted_value = value
            consecutive_fallbacks = 0
            if abs(delta) < CONVERGENCE_TOL:
                break
        elif consecutive_fallbacks >= 3:
            break  # repeated kinks: the ascent has stalled for good
        if trace[-1].seconds > time_limit:
            break
    return best_bound, best_pi, integer_solution, trace
