"""Independent reference computations used across the test suite.

Everything here is deliberately implemented without touching the package's
solver paths: column enumeration is plain bit arithmetic and the master LP
reference goes through scipy's HiGHS interface. The frozen copies of earlier
kernels (:func:`full_level_lex`, :class:`DenseSimplexReference`,
:func:`sequential_lt_price`, :func:`looped_lr_evaluate`) are the references
their faster rewrites must match bit for bit.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linprog

from gapcg.knapsack import KnapsackProblem, min_knapsack
from gapcg.pricing import (DEFAULT_DELTA, LT_ABSOLUTE_FLOOR, LT_MAX_ITERATIONS,
                           LT_RELATIVE_GAP, PricingOutcome, similarity_vector)
from gapcg.simplex import SimplexError, UnboundedError


def subsets(n: int) -> np.ndarray:
    """All 2^n selections as a boolean matrix, one row per subset mask."""
    masks = np.arange(2**n, dtype=np.int64)
    return ((masks[:, None] >> np.arange(n)) & 1).astype(bool)


def feasible_columns(inst, machine: int) -> np.ndarray:
    """Every capacity-feasible selection for one machine (n <= 16)."""
    assert inst.num_jobs <= 16, "full enumeration limited to 16 jobs"
    bits = subsets(inst.num_jobs)
    ok = bits @ inst.resource[machine] <= inst.capacity[machine]
    return bits[ok]


def min_reduced_cost(inst, machine: int, pi, cost_row=None):
    """Exhaustive minimum of sum((c - pi) x) over the machine's feasible set."""
    cols = feasible_columns(inst, machine)
    if cost_row is None:
        cost_row = inst.cost[machine]
    vals = cols @ (np.asarray(cost_row, dtype=float) - pi)
    k = int(np.argmin(vals))
    return float(vals[k]), cols[k]


def _enumerated_master(inst):
    """Every feasible column with its cost, plus the machine convexity rows."""
    cols, costs, owners = [], [], []
    for i in range(inst.num_machines):
        for bits in feasible_columns(inst, i):
            cols.append(bits.astype(float))
            costs.append(float(inst.cost[i][bits].sum()))
            owners.append(i)
    cols = np.array(cols)
    a_conv = np.zeros((inst.num_machines, len(cols)))
    a_conv[owners, np.arange(len(cols))] = 1.0
    return cols, np.array(costs), a_conv


def master_lp(inst):
    """Cover-form master LP over every enumerated column; HiGHS's raw result."""
    cols, costs, a_conv = _enumerated_master(inst)
    return linprog(costs, A_ub=-cols.T, b_ub=-np.ones(inst.num_jobs),
                   A_eq=a_conv, b_eq=np.ones(inst.num_machines), method="highs")


def partition_master_lp(inst):
    """:func:`master_lp` with the job rows as equalities; HiGHS's raw result.

    It equals the cover form when costs are nonnegative; with negative costs
    the cover form may cover a job twice and fall below it.
    """
    cols, costs, a_conv = _enumerated_master(inst)
    return linprog(costs, A_eq=np.vstack([cols.T, a_conv]),
                   b_eq=np.ones(inst.num_jobs + inst.num_machines), method="highs")


def master_lp_optimum(inst, return_duals: bool = False):
    """Optimum of :func:`master_lp`, which must solve."""
    res = master_lp(inst)
    assert res.status == 0, f"oracle master LP failed: {res.message}"
    if return_duals:
        return float(res.fun), res.ineqlin.marginals, res.eqlin.marginals
    return float(res.fun)


def compact_lp_optimum(inst):
    """Cover-form compact LP relaxation solved by HiGHS."""
    ni, nj = inst.num_machines, inst.num_jobs
    nv = ni * nj
    c = inst.cost.astype(float).ravel()
    a_cover = np.zeros((nj, nv))
    for i in range(ni):
        for j in range(nj):
            a_cover[j, i * nj + j] = 1.0
    a_cap = np.zeros((ni, nv))
    for i in range(ni):
        a_cap[i, i * nj: (i + 1) * nj] = inst.resource[i]
    res = linprog(c, A_ub=np.vstack([-a_cover, a_cap]),
                  b_ub=np.concatenate([-np.ones(nj), inst.capacity.astype(float)]),
                  bounds=[(0, 1)] * nv, method="highs")
    assert res.status == 0, f"oracle compact LP failed: {res.message}"
    return float(res.fun)


def full_level_lex(p):
    """``knapsack.lex_knapsack`` as it was before the band restriction.

    It keeps every item that fits, spans all 2n+1 score levels and stores a
    dense boolean ``take`` table: the reference the banded DP must match.
    Best (max score, then min reduced cost) selection within the budget.

    Returns ``(best_sim, rc, selection)`` or ``None`` when no capacity-
    feasible selection meets the reduced-cost budget. The downward scan over
    score levels also covers the case where the top level's minimum reduced
    cost narrowly misses the budget: the next admissible level is returned.
    """
    n = p.n
    fit = np.flatnonzero(p.weight <= p.capacity)
    cap = int(min(p.capacity, p.weight[fit].sum())) if fit.size else 0
    levels = 2 * n + 1  # score in [-n, +n], stored at offset +n
    g = np.full((levels, cap + 1), np.inf)
    g[n, :] = 0.0
    take = np.zeros((fit.size, levels, cap + 1), dtype=bool)
    for k, j in enumerate(fit):
        f = int(p.sim[j])
        w = int(p.weight[j])
        r = float(p.rc_coeff[j])
        with_item = np.full_like(g, np.inf)
        dst_lo, dst_hi = max(0, f), levels - 1 + min(0, f)
        with_item[dst_lo : dst_hi + 1, w:] = g[dst_lo - f : dst_hi - f + 1, : cap + 1 - w] + r
        better = with_item < g
        take[k] = better
        g = np.where(better, with_item, g)
    for level in range(levels - 1, -1, -1):
        if g[level, cap] > p.rc_budget:
            continue
        sel = np.zeros(n, dtype=bool)
        lv, w = level, cap
        for k in range(fit.size - 1, -1, -1):
            if take[k, lv, w]:
                j = int(fit[k])
                sel[j] = True
                lv -= int(p.sim[j])
                w -= int(p.weight[j])
        rc = float(p.rc_coeff[sel].sum())
        if rc > p.rc_budget:  # DP value hit the budget only through rounding
            continue
        return level - n, rc, sel
    return None



def sequential_lt_price(inst, i: int, y_i, pi, mu_i: float, eps: float,
                        state=None, delta: float = DEFAULT_DELTA,
                        trace: list | None = None) -> PricingOutcome:
    """``pricing.lt_price`` as it was before the lockstep bisection.

    One machine, one ``min_knapsack`` call per bisection step: the reference
    that ``pricing.lt_round`` must match outcome for outcome.
    """
    rc_coeff = inst.cost[i] - pi
    weights = inst.resource[i]
    cap = int(inst.capacity[i])
    base = min_knapsack(KnapsackProblem(rc_coeff, weights, cap))
    dantzig_rc = base.value - mu_i
    if dantzig_rc > -eps:
        return PricingOutcome(machine=i, selection=None, dantzig_rc=dantzig_rc)
    f = similarity_vector(y_i, delta)
    budget = mu_i - eps
    lo, up = 0.0, math.inf
    alpha = float(state.alpha_warm[i]) if state is not None else 0.5
    best = None  # (sim, rc, selection) with max sim then min rc
    proof_fired = False
    for _ in range(LT_MAX_ITERATIONS):
        scalarized = min_knapsack(KnapsackProblem(-f + alpha * rc_coeff, weights, cap))
        x = scalarized.selection
        rc_x = float(rc_coeff[x].sum())
        sim_x = int(f[x].sum())
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
            sim_cap = math.floor(alpha * mu_i - scalarized.value + 1e-9)
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
        sel = base.selection
        return PricingOutcome(machine=i, selection=sel, dantzig_rc=dantzig_rc,
                              similarity=int(f[sel].sum()), flagged=True)
    sim, _, sel = best
    if state is not None:
        state.alpha_warm[i] = up
    return PricingOutcome(machine=i, selection=sel, dantzig_rc=dantzig_rc,
                          similarity=int(sim), alpha_used=up, proof_fired=proof_fired)


def looped_lr_evaluate(inst, pi):
    """``lagrangian.lr_evaluate`` as it was before the batched kernel: one
    ``min_knapsack`` call per machine. Dual function value, subgradient, and
    the per-machine selections."""
    pi = np.asarray(pi, dtype=np.float64)
    value = float(pi.sum())
    coverage = np.zeros(inst.num_jobs)
    selections = []
    for i in range(inst.num_machines):
        sol = min_knapsack(KnapsackProblem(inst.cost[i] - pi, inst.resource[i],
                                           int(inst.capacity[i])))
        value += sol.value
        coverage += sol.selection
        selections.append(sol.selection)
    return value, 1.0 - coverage, selections

# tolerances of DenseSimplexReference, frozen at their values when it was copied
_PRICE_TOL = 1e-9
_PIVOT_TOL = 1e-9
_FEAS_TOL = 1e-7
_REFACTOR_EVERY = 256
_MAX_PIVOTS = 5_000_000


class DenseSimplexReference:
    """``simplex.SimplexSolver`` as it was before column compaction.

    It keeps every sealed column, updates the basis inverse through a masked
    copy and prices through ``argmax`` over a masked copy of the reduced
    costs: the reference the trimmed solver must match bit for bit while no
    ``compact()`` call renumbers the columns.
    """
    def __init__(self, b):
        self.b = np.asarray(b, dtype=np.float64)
        self.m = len(self.b)
        cap = 64
        self._A = np.zeros((self.m, cap))
        self.cost = np.zeros(cap)
        self.basic = np.zeros(cap, dtype=bool)
        self.sealed = np.zeros(cap, dtype=bool)
        self.n = 0
        self.basis: np.ndarray | None = None
        self._binv: np.ndarray | None = None
        self._xb: np.ndarray | None = None

    # ------------------------------------------------------------------ model

    def _grow(self, need: int):
        cap = self._A.shape[1]
        if need <= cap:
            return
        new_cap = max(need, 2 * cap)
        for name in ("cost", "basic", "sealed"):
            old = getattr(self, name)
            fresh = np.zeros(new_cap, dtype=old.dtype)
            fresh[: self.n] = old[: self.n]
            setattr(self, name, fresh)
        A = np.zeros((self.m, new_cap))
        A[:, : self.n] = self._A[:, : self.n]
        self._A = A

    def add_column(self, entries: np.ndarray, cost: float) -> int:
        self._grow(self.n + 1)
        j = self.n
        self._A[:, j] = entries
        self.cost[j] = cost
        self.n += 1
        return j

    def set_cost(self, j: int, cost: float):
        self.cost[j] = cost

    def seal_column(self, j: int):
        """Pin column j at zero: it will never be priced into the basis again."""
        if self.basic[j] and self._xb is not None:
            r = int(np.flatnonzero(self.basis == j)[0])
            if abs(self._xb[r]) > _FEAS_TOL:
                raise SimplexError("cannot seal a basic column with nonzero value")
        self.sealed[j] = True

    def set_basis(self, cols):
        basis = np.asarray(cols, dtype=np.int64)
        if len(basis) != self.m:
            raise SimplexError(f"basis needs {self.m} columns, got {len(basis)}")
        self.basis = basis
        self.basic[: self.n] = False
        self.basic[basis] = True
        self._refactor()

    def is_basic(self, j: int) -> bool:
        return bool(self.basic[j])

    def values(self) -> np.ndarray:
        x = np.zeros(self.n)
        x[self.basis] = self._xb
        return x

    def value(self, j: int) -> float:
        if not self.basic[j]:
            return 0.0
        r = int(np.flatnonzero(self.basis == j)[0])
        return float(self._xb[r])

    def duals(self) -> np.ndarray:
        return self.cost[self.basis] @ self._binv

    def objective(self) -> float:
        return float(self.cost[self.basis] @ self._xb)

    # ------------------------------------------------------------------ solve

    def _refactor(self):
        B = self._A[:, self.basis]
        try:
            self._binv = np.linalg.inv(B)
        except np.linalg.LinAlgError as exc:
            raise SimplexError("singular basis") from exc
        xb = self._binv @ self.b
        if (xb < -_FEAS_TOL).any():
            raise SimplexError(f"warm basis infeasible (min {xb.min():.3e})")
        np.clip(xb, 0.0, None, out=xb)
        self._xb = xb

    def _reduced_costs(self) -> np.ndarray:
        y = self.cost[self.basis] @ self._binv
        return self.cost[: self.n] - y @ self._A[:, : self.n]

    def retire_columns(self, cols, candidates) -> int:
        """Swap zero-valued ``cols`` out of the basis, then seal them at cost 0.

        Refactorizes first, so no rounding drift steers the swaps. A basic
        column leaves in a degenerate pivot for the unsealed nonbasic
        candidate with the largest pivot element in its row; one that cannot
        leave stays basic, sealed at zero. Returns the swap count.
        """
        self._refactor()
        retiring = set(cols)
        pivots = 0
        for r in range(self.m):
            if int(self.basis[r]) not in retiring:
                continue
            if abs(self._xb[r]) > _FEAS_TOL:
                raise SimplexError("cannot retire a basic column with nonzero value")
            row = self._binv[r]
            best, best_val = None, 1e-7
            for j in candidates:
                if self.basic[j] or self.sealed[j]:
                    continue
                val = abs(float(row @ self._A[:, j]))
                if val > best_val:
                    best, best_val = j, val
            if best is not None:
                self._apply_pivot(r, best, self._binv @ self._A[:, best])
                self._xb[r] = 0.0
                pivots += 1
        for j in retiring:
            self.cost[j] = 0.0
            self.seal_column(j)
        return pivots

    def _apply_pivot(self, r: int, e: int, u: np.ndarray):
        piv = u[r]
        self._binv[r, :] /= piv
        others = np.arange(self.m) != r
        self._binv[others, :] -= np.outer(u[others], self._binv[r, :])
        self.basic[self.basis[r]] = False
        self.basis[r] = e
        self.basic[e] = True

    def solve(self) -> int:
        """Run primal simplex from the current basis; returns pivots performed."""
        if self.basis is None:
            raise SimplexError("no starting basis")
        self._refactor()
        pivots = 0
        degenerate_run = 0
        bland = False
        while True:
            rc = self._reduced_costs()
            elig = ~self.basic[: self.n] & ~self.sealed[: self.n] & (rc < -_PRICE_TOL)
            if not elig.any():
                break
            if bland:
                e = int(np.flatnonzero(elig)[0])
            else:
                e = int(np.argmax(np.where(elig, -rc, 0.0)))
            d = self._binv @ self._A[:, e]
            ratios = np.full(self.m, np.inf)
            pos = d > _PIVOT_TOL
            ratios[pos] = self._xb[pos] / d[pos]
            # a sealed column that is still basic must not rise above zero
            neg = (d < -_PIVOT_TOL) & self.sealed[self.basis]
            ratios[neg] = (0.0 - self._xb[neg]) / (-d[neg])
            t = float(ratios.min(initial=np.inf))
            if not np.isfinite(t):
                raise UnboundedError("LP is unbounded")
            t = max(t, 0.0)
            cand = np.flatnonzero(ratios <= t + 1e-9)
            r = int(cand[np.argmax(np.abs(d[cand]))])
            if abs(d[r]) < 1e-11:
                self._refactor()
                bland = True
                continue
            self._xb -= t * d
            self._apply_pivot(r, e, d)
            self._xb[r] = t
            pivots += 1
            if t <= 1e-11:
                degenerate_run += 1
                if degenerate_run > 50 + 2 * self.m:
                    bland = True
            else:
                degenerate_run = 0
                bland = False
            if pivots % _REFACTOR_EVERY == 0:
                self._refactor()
            if pivots >= _MAX_PIVOTS:
                raise SimplexError("pivot limit exceeded")
        return pivots
