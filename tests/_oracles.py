"""Independent reference computations used across the test suite.

Everything here is deliberately implemented without touching the package's
solver paths: column enumeration is plain bit arithmetic and the master LP
reference goes through scipy's HiGHS interface; :func:`brute_force_lex`
enumerates every selection for ``lex_knapsack``, and :func:`similarity_class`
is the scalar rule that ``similarity_vector`` vectorizes. The frozen copies
of earlier kernels (:func:`per_problem_min_knapsack`, :func:`full_level_lex`,
:class:`DenseSimplexReference`, :func:`per_machine_dantzig_price`,
:func:`looped_lr_evaluate`, :func:`recomputing_two_loop`,
:func:`pool_walk_project_primal`, :func:`repair_loop_assignment`), LP builders
(:class:`PerColumnMasterLp`, :func:`per_column_compact_lp`) and masters
(:class:`ReconcilingMasterLp`) are the references their rewrites must match
bit for bit. :func:`sequential_lt_price`, the bisection that LT pricing used
before its hull walk, is the floor that the walk's similarity must reach, and
:func:`grid_lagrangian_bound` recomputes the certified integer bound with
Python integers.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

from gapcg.knapsack import KnapsackProblem, KnapsackSolution
from gapcg.pricing import DEFAULT_DELTA, PricingOutcome, similarity_vector
from gapcg.rmp import RmpSolution
from gapcg.simplex import FEAS_TOL, SimplexError, SimplexSolver, UnboundedError


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


def pool_columns(pool) -> list:
    """Every column of ``pool``, machine by machine, each in insertion order."""
    return [col for cols in pool.columns for col in cols.values()]


def lp_columns(pool) -> dict:
    """Every pool column that owns an LP column, mapped to its LP index, in
    ascending LP index order."""
    return {col: j for j, col in enumerate(pool._owner) if col is not None}


def per_problem_min_knapsack(p: KnapsackProblem) -> KnapsackSolution:
    """``knapsack.min_knapsack`` as it was before it became the one-row case
    of ``min_knapsack_batch``: its own DP over one problem, frozen. It is the
    reference that the batch kernel must match row for row, bit for bit.

    Only strictly negative profits can help, so the DP runs over that
    candidate set; zero-weight negative-profit items are taken up front.
    """
    n = p.n
    selection = np.zeros(n, dtype=bool)
    selection[(p.weight == 0) & (p.profit < 0)] = True
    cand = np.flatnonzero((p.profit < 0) & (p.weight > 0) & (p.weight <= p.capacity))
    # the inf arithmetic of +-inf and +-1e308 profits is meant: two -1e308
    # profits overflow to -inf, and -inf stays -inf
    with np.errstate(over="ignore", invalid="ignore"):
        if cand.size:
            cap = int(min(p.capacity, p.weight[cand].sum()))
            dp = np.zeros(cap + 1)
            take = np.zeros((cand.size, cap + 1), dtype=bool)
            for k, j in enumerate(cand):
                w = int(p.weight[j])
                with_item = dp[: cap + 1 - w] + p.profit[j]
                better = with_item < dp[w:]  # strict: ties resolve to not-selected
                take[k, w:] = better
                np.copyto(dp[w:], with_item, where=better)
            w = cap
            for k in range(cand.size - 1, -1, -1):
                if take[k, w]:
                    j = int(cand[k])
                    selection[j] = True
                    w -= int(p.weight[j])
        value = float(p.profit[selection].sum())
    return KnapsackSolution(value=value, selection=selection)


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


def similarity_class(y_j: float, delta: float) -> int:
    """Classify a template entry: +1 near one, -1 near zero, 0 in between."""
    if y_j > 1.0 - delta:
        return 1
    if y_j < delta:
        return -1
    return 0


def brute_force_lex(p):
    """Exhaustive reference for ``knapsack.lex_knapsack``; rejects n > 20.

    Exact ties in (score, reduced cost) resolve to the lexicographically
    smallest selection bit-vector.
    """
    n = p.n
    if n > 20:
        raise ValueError("brute_force_lex is limited to n <= 20")
    if n == 0:
        if p.rc_budget < 0:
            return None
        return 0, 0.0, np.zeros(0, dtype=bool)
    bits = subsets(n)
    feasible = bits @ p.weight <= p.capacity
    rcs = bits @ p.rc_coeff
    sims = bits @ p.sim
    best = None
    for idx in np.flatnonzero(feasible & (rcs <= p.rc_budget)):
        key = (-int(sims[idx]), float(rcs[idx]), tuple(bits[idx].astype(int)))
        if best is None or key < best[0]:
            best = (key, idx)
    if best is None:
        return None
    idx = best[1]
    return int(sims[idx]), float(rcs[idx]), bits[idx].copy()


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


# The bisection's constants, kept here so that the reference below stays fixed
# whatever ``gapcg.pricing`` uses.
LT_MAX_ITERATIONS = 64
LT_RELATIVE_GAP = 1e-3
LT_ABSOLUTE_FLOOR = 1e-9


def sequential_lt_price(inst, i: int, y_i, pi, mu_i: float, eps: float,
                        alpha_warm=None, delta: float = DEFAULT_DELTA,
                        trace: list | None = None) -> PricingOutcome:
    """``pricing.lt_price`` as it was before the lockstep bisection.

    One machine, one per-problem knapsack call per bisection step over the
    trade-off weight. The hull walk that replaced it must return a column
    that clears the budget with at least this search's similarity.
    """
    rc_coeff = inst.cost[i] - pi
    weights = inst.resource[i]
    cap = int(inst.capacity[i])
    base = per_problem_min_knapsack(KnapsackProblem(rc_coeff, weights, cap))
    dantzig_rc = base.value - mu_i
    if dantzig_rc > -eps:
        return PricingOutcome(machine=i, selection=None, dantzig_rc=dantzig_rc)
    f = similarity_vector(y_i, delta)
    budget = mu_i - eps
    lo, up = 0.0, math.inf
    alpha = float(alpha_warm[i]) if alpha_warm is not None else 0.5
    best = None  # (sim, rc, selection) with max sim then min rc
    proof_fired = False
    for _ in range(LT_MAX_ITERATIONS):
        scalarized = per_problem_min_knapsack(KnapsackProblem(-f + alpha * rc_coeff, weights,
                                                              cap))
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
    if alpha_warm is not None:
        alpha_warm[i] = up
    return PricingOutcome(machine=i, selection=sel, dantzig_rc=dantzig_rc,
                          similarity=int(sim), alpha_used=up, proof_fired=proof_fired)


def per_machine_dantzig_price(inst, i: int, pi, mu_i: float, eps: float) -> PricingOutcome:
    """``pricing.dantzig_price`` as it was before the batched Dantzig round:
    one :func:`per_problem_min_knapsack` call for machine i, the reference that
    ``pricing.dantzig_round`` must match outcome for outcome."""
    sol = per_problem_min_knapsack(KnapsackProblem(inst.cost[i] - pi, inst.resource[i],
                                                   int(inst.capacity[i])))
    rc = sol.value - mu_i
    if rc > -eps:
        return PricingOutcome(machine=i, selection=None, dantzig_rc=rc)
    return PricingOutcome(machine=i, selection=sol.selection, dantzig_rc=rc)


def repair_loop_assignment(inst, machines, masks):
    """The per-job repair loop of ``rmp.extract_integer_solution``, frozen:
    column by column, job by job, a strictly cheaper machine takes the job.
    ``instance.cheapest_assignment`` must match it bit for bit."""
    assignment = np.full(inst.num_jobs, -1, dtype=np.int64)
    for i, jobs in zip(machines, masks):
        for j in np.flatnonzero(jobs):
            if assignment[j] == -1 or inst.cost[i, j] < inst.cost[assignment[j], j]:
                assignment[j] = i
    if (assignment == -1).any():
        return None
    ub = int(inst.cost[assignment, np.arange(inst.num_jobs)].sum())
    return assignment, ub


def looped_lr_evaluate(inst, pi):
    """``lagrangian.lr_evaluate`` as it was before the batched kernel: one
    :func:`per_problem_min_knapsack` call per machine. Dual function value,
    subgradient, and the per-machine selections."""
    pi = np.asarray(pi, dtype=np.float64)
    value = float(pi.sum())
    coverage = np.zeros(inst.num_jobs)
    selections = []
    for i in range(inst.num_machines):
        sol = per_problem_min_knapsack(KnapsackProblem(inst.cost[i] - pi, inst.resource[i],
                                                       int(inst.capacity[i])))
        value += sol.value
        coverage += sol.selection
        selections.append(sol.selection)
    return value, 1.0 - coverage, selections


def grid_lagrangian_bound(inst, pi) -> int:
    """``lagrangian.certified_bound`` in Python integers, by enumeration.

    ``pi`` is rounded down onto the grid ``2^-s`` with the exponent rule
    that function documents, every value is an integer over ``2^s``, and
    each machine's minimum is taken over all its feasible columns (n <= 16).
    Returns the ceiling of ``L`` at that grid point.
    """
    fractions = [Fraction(x) for x in np.asarray(pi, dtype=np.float64).tolist()]
    size = (sum(max(abs(int(c)) for c in job_costs) for job_costs in inst.cost.T)
            + sum(math.ceil(abs(x)) + 1 for x in fractions))
    s = 52 - size.bit_length()
    assert s >= 0, "costs or duals too large for the grid"
    scale = 1 << s
    num = [math.floor(x * scale) for x in fractions]
    total = sum(num)
    for i in range(inst.num_machines):
        costs = [int(c) * scale - nj for c, nj in zip(inst.cost[i].tolist(), num)]
        total += min(sum(c for c, x in zip(costs, col) if x)
                     for col in feasible_columns(inst, i).tolist())
    return -(-total // scale)


def recomputing_two_loop(grad, memory):
    """``lagrangian._two_loop`` as it recomputed ``rho = 1 / (y . s)`` for
    every stored ``(s, y)`` pair on every call, frozen."""
    q = grad.copy()
    alphas = []
    for s, y in reversed(memory):
        rho = 1.0 / float(y @ s)
        a = rho * float(s @ q)
        q -= a * y
        alphas.append((rho, a, s, y))
    if memory:
        s, y = memory[-1]
        q *= float(s @ y) / float(y @ y)
    for rho, a, s, y in reversed(alphas):
        b = rho * float(y @ q)
        q += (a - b) * s
    return q


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


class PerColumnMasterLp:
    """The master LP that ``rmp.ColumnPool`` owns, as it was once built one
    ``add_column`` call per column.

    ``__init__``, ``_entries`` and ``ensure_basis`` are the frozen copies;
    ``sync`` keeps only the loop that adds pool columns, the one part of it
    a first sync runs. The LP is a :class:`DenseSimplexReference`, so
    ``lp`` holds what the block-built master must hand its first ``solve``.
    """

    def __init__(self, inst):
        self.inst = inst
        nj, ni = inst.num_jobs, inst.num_machines
        self.lp = DenseSimplexReference(np.ones(nj + ni))
        self.phase = 1
        self.surplus = []
        self.artificial = []  # +e_j, relaxes an uncovered row
        for j in range(nj):
            e = np.zeros(nj + ni)
            e[j] = -1.0
            self.surplus.append(self.lp.add_column(e, 0.0))
        for j in range(nj):
            e = np.zeros(nj + ni)
            e[j] = 1.0
            self.artificial.append(self.lp.add_column(e, 1.0))
        self.lp_col = {}

    def _entries(self, col) -> np.ndarray:
        nj, ni = self.inst.num_jobs, self.inst.num_machines
        e = np.zeros(nj + ni)
        e[: nj][col.jobs] = 1.0
        e[nj + col.machine] = 1.0
        return e

    def sync(self, pool):
        for col in pool_columns(pool):
            if col not in self.lp_col:
                cost = 0.0 if self.phase == 1 else float(col.cost)
                self.lp_col[col] = self.lp.add_column(self._entries(col), cost)

    def ensure_basis(self, pool):
        if self.lp.basis is not None:
            return
        nj, ni = self.inst.num_jobs, self.inst.num_machines
        anchors = []
        coverage = np.zeros(nj)
        for i in range(ni):
            if not pool.columns[i]:
                raise ValueError(f"machine {i} has no column to anchor its convexity row")
            empty = min(pool.columns[i].values(), key=lambda c: int(c.jobs.sum()))
            anchors.append(self.lp_col[empty])
            coverage += empty.jobs
        # an over-covered row starts on its surplus column, at value coverage - 1
        basis = [self.surplus[j] if coverage[j] > 1 else self.artificial[j] for j in range(nj)]
        self.lp.set_basis(basis + anchors)


def per_column_compact_lp(inst) -> DenseSimplexReference:
    """The compact LP of ``rmp.solve_compact_lp`` as its first ``solve`` sees
    it, built by the frozen per-column loops: x_ij, then the slacks, then the
    artificials, each through its own ``add_column`` call."""
    nj, ni = inst.num_jobs, inst.num_machines
    b = np.concatenate([np.ones(nj), inst.capacity.astype(np.float64)])
    lp = DenseSimplexReference(b)
    x_cols = np.empty((ni, nj), dtype=np.int64)
    for i in range(ni):
        for j in range(nj):
            e = np.zeros(nj + ni)
            e[j] = 1.0
            e[nj + i] = float(inst.resource[i, j])
            x_cols[i, j] = lp.add_column(e, 0.0)
    slacks = []
    for i in range(ni):
        e = np.zeros(nj + ni)
        e[nj + i] = 1.0
        slacks.append(lp.add_column(e, 0.0))
    arts = []
    for j in range(nj):
        e = np.zeros(nj + ni)
        e[j] = 1.0
        arts.append(lp.add_column(e, 1.0))
    lp.set_basis(arts + slacks)
    return lp


def pool_walk_project_primal(sol, pool) -> np.ndarray:
    """``rmp.project_primal`` as it walked the whole pool, looking each
    column up in the solution, frozen."""
    inst = pool.inst
    y = np.zeros((inst.num_machines, inst.num_jobs))
    for col in pool_columns(pool):
        weight = sol.lam.get(col, 0.0)
        if weight > 0.0:
            y[col.machine][col.jobs] += weight
    if y.max(initial=0.0) > 1.0 + 1e-7:
        raise AssertionError(f"projected entry {y.max():.9f} above 1")
    return np.clip(y, 0.0, 1.0)


class ReconcilingMasterLp:
    """The master LP kept apart from the column pool, reconciled at each sync.

    A frozen copy of the master that held its own ``lp_col`` mirror of the
    pool and walked the whole pool at every sync to add the new columns and
    seal the dropped ones; :func:`reconciling_build_and_solve` is its solve.
    The master the pool owns must reproduce it bit for bit.
    """

    def __init__(self, inst):
        self.inst = inst
        nj, ni = inst.num_jobs, inst.num_machines
        self.lp = SimplexSolver(np.ones(nj + ni))
        self.phase = 1
        # -e_j and +e_j are written into zeros: negating +e_j would give -0.0
        block = np.zeros((nj + ni, nj))
        np.fill_diagonal(block, -1.0)
        self.surplus = self.lp.add_columns(block, 0.0).tolist()
        np.fill_diagonal(block, 1.0)
        self.artificial = self.lp.add_columns(block, 1.0).tolist()  # relaxes an uncovered row
        self.lp_col = {}

    def sync(self, pool):
        """Add the pool's new columns and drop its dead ones; the first call sets the basis."""
        nj = self.inst.num_jobs
        new = [col for col in pool_columns(pool) if col not in self.lp_col]
        if new:
            block = np.zeros((nj + self.inst.num_machines, len(new)))
            block[:nj] = np.array([col.jobs for col in new]).T
            block[nj + np.array([col.machine for col in new]), np.arange(len(new))] = 1.0
            costs = 0.0 if self.phase == 1 else [col.cost for col in new]
            self.lp_col.update(zip(new, self.lp.add_columns(block, costs).tolist()))
        live = set(pool_columns(pool))
        for col in [c for c in self.lp_col if c not in live]:
            self.lp.seal_column(self.lp_col.pop(col))
        if self.lp.basis is None:
            firsts = [next(iter(cols.values()), None) for cols in pool.columns]
            seeds = [col for col in firsts if col is not None and not col.jobs.any()]
            if len(seeds) < self.inst.num_machines:
                raise ValueError("a machine lost its seeded empty column before the first solve")
            self.lp.set_basis(self.artificial + [self.lp_col[col] for col in seeds])
        remap = self.lp.compact()
        if len(remap) == self.lp.n:
            return
        self.lp_col = {col: int(remap[j]) for col, j in self.lp_col.items()}
        self.surplus = [int(remap[j]) for j in self.surplus]
        # a retired artificial stays until it leaves the basis
        self.artificial = [int(remap[j]) for j in self.artificial if remap[j] >= 0]

    def to_phase2(self) -> int:
        """Drop the artificials, install true costs, keep the basis warm."""
        indices = list(self.lp_col.values())
        pivots = self.lp.retire_columns(self.artificial, indices + self.surplus)
        self.lp.cost[indices] = [col.cost for col in self.lp_col]
        self.phase = 2
        return pivots

    def extract(self, pivots: int) -> RmpSolution:
        nj = self.inst.num_jobs
        y = self.lp.duals()
        x = self.lp.values()
        basic = self.lp.basic
        lam = {col: float(x[j]) for col, j in self.lp_col.items() if basic[j]}
        return RmpSolution(objective=self.lp.objective(), lam=lam,
                           pi=y[:nj].copy(), mu=y[nj:].copy(), pivots=pivots)


def reconciling_build_and_solve(pool, master: ReconcilingMasterLp) -> RmpSolution:
    """The two-argument master solve of :class:`ReconcilingMasterLp`, frozen."""
    if master.inst is not pool.inst:
        raise ValueError("master belongs to a different instance than the pool")
    master.sync(pool)
    pivots = master.lp.solve()
    if master.phase == 1 and master.lp.objective() < FEAS_TOL:
        pivots += master.to_phase2()
        pivots += master.lp.solve()
    return master.extract(pivots)
