"""Independent reference computations used across the test suite.

Everything here is deliberately implemented without touching the package's
solver paths: column enumeration is plain bit arithmetic and the master LP
reference goes through scipy's HiGHS interface.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog


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
