"""Exact 0/1 knapsack kernels shared by every pricing strategy.

Three dynamic programs over integer capacities with real objective values:

* :func:`min_knapsack` minimizes a linear profit subject to one capacity
  constraint. Items with nonnegative profit are never selected (ties at
  zero resolve to not-selected), so the empty selection is the worst case.
* :func:`min_knapsack_batch` solves one such problem per row of an (m, n)
  batch, one DP over item positions per group of rows (groups bound the
  traceback memory), row for row bit-identical to :func:`min_knapsack`:
  whole rounds (LT steps, LR and Pessoa) use it.
* :func:`lex_knapsack` maximizes a per-item score in {-1, 0, +1} subject
  to the capacity constraint and an upper budget on the reduced-cost sum,
  breaking ties among score-optimal selections by minimum reduced cost.
  It runs a DP over (capacity, score level) states storing the minimum
  reduced cost per state, then scans score levels downward for the first
  level whose minimum fits the budget. Items that can never help (score
  <= 0 and reduced cost >= 0) are dropped, only the reachable score band
  is stored, and each item keeps its ``take`` bits packed, so the memory is
  about items x band x capacity / 8 bytes.

:func:`brute_force_lex` is the exhaustive reference used as a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(eq=False)
class KnapsackProblem:
    profit: np.ndarray    # real objective coefficients
    weight: np.ndarray    # nonnegative integers
    capacity: int

    def __post_init__(self):
        self.profit = np.asarray(self.profit, dtype=np.float64)
        self.weight = np.asarray(self.weight, dtype=np.int64)
        if self.profit.shape != self.weight.shape:
            raise ValueError("profit and weight must have equal length")
        if (self.weight < 0).any() or self.capacity < 0:
            raise ValueError("weights and capacity must be nonnegative")

    @property
    def n(self) -> int:
        return len(self.profit)


@dataclass(eq=False)
class LexKnapsackProblem:
    sim: np.ndarray        # per-item scores in {-1, 0, +1}
    rc_coeff: np.ndarray   # per-item reduced-cost coefficients
    weight: np.ndarray
    capacity: int
    rc_budget: float

    def __post_init__(self):
        self.sim = np.asarray(self.sim, dtype=np.int64)
        self.rc_coeff = np.asarray(self.rc_coeff, dtype=np.float64)
        self.weight = np.asarray(self.weight, dtype=np.int64)
        if not (len(self.sim) == len(self.rc_coeff) == len(self.weight)):
            raise ValueError("sim, rc_coeff and weight must have equal length")
        if self.sim.min(initial=0) < -1 or self.sim.max(initial=0) > 1:
            raise ValueError("sim entries must lie in {-1, 0, +1}")
        if not np.isfinite(self.rc_coeff).all():
            raise ValueError("rc_coeff entries must be finite")
        if np.isnan(self.rc_budget):
            raise ValueError("rc_budget must not be NaN")
        if (self.weight < 0).any() or self.capacity < 0:
            raise ValueError("weights and capacity must be nonnegative")

    @property
    def n(self) -> int:
        return len(self.sim)


@dataclass(eq=False)
class KnapsackSolution:
    value: float
    selection: np.ndarray  # bool mask


def min_knapsack(p: KnapsackProblem) -> KnapsackSolution:
    """Minimize ``profit . x`` over 0/1 selections with ``weight . x <= capacity``.

    Only strictly negative profits can help, so the DP runs over that
    candidate set; zero-weight negative-profit items are taken up front.
    """
    n = p.n
    selection = np.zeros(n, dtype=bool)
    selection[(p.weight == 0) & (p.profit < 0)] = True
    cand = np.flatnonzero((p.profit < 0) & (p.weight > 0) & (p.weight <= p.capacity))
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
    return KnapsackSolution(value=float(p.profit[selection].sum()), selection=selection)


_TAKE_CELLS = 1 << 22  # traceback cells (one byte each) one batched DP pass may hold


def min_knapsack_batch(profit, weight, capacity):
    """:func:`min_knapsack` on every row of ``profit[m, n]`` and ``weight[m, n]``.

    Returns a list of m values and an (m, n) selection mask; row r of both is
    bit-identical to ``min_knapsack`` on row r. One DP over item positions
    serves a group of consecutive rows: step k offers each row its k-th
    candidate in item order, gathering ``dp[c - w]`` from a row padded with
    +inf, and a row out of candidates gets +inf profit, which improves no
    cell. A group's traceback table (steps x rows x capped capacity) stays
    within ``_TAKE_CELLS`` unless one row alone needs more, so a call holds
    about that much more than one :func:`min_knapsack` call, whatever m is.
    """
    profit = np.asarray(profit, dtype=np.float64)
    weight = np.asarray(weight, dtype=np.int64)
    capacity = np.asarray(capacity, dtype=np.int64)
    m = len(capacity)
    if profit.ndim != 2 or profit.shape != weight.shape or len(profit) != m:
        raise ValueError("profit and weight must be (m, n) and capacity (m,)")
    if (weight < 0).any() or (capacity < 0).any():
        raise ValueError("weights and capacity must be nonnegative")
    selection = (weight == 0) & (profit < 0)
    cand = (profit < 0) & (weight > 0) & (weight <= capacity[:, None])
    count = cand.sum(axis=1)
    caps = np.minimum(capacity, np.where(cand, weight, 0).sum(axis=1))
    row_cells = int(count.max(initial=0)) * (int(caps.max(initial=0)) + 1)
    group_rows = max(1, _TAKE_CELLS // max(row_cells, 1))
    for start in range(0, m, group_rows):
        group = slice(start, start + group_rows)
        _batch_dp(profit[group], weight[group], cand[group], count[group], caps[group],
                  selection[group])
    return [float(profit[r][selection[r]].sum()) for r in range(m)], selection


def _batch_dp(profit, weight, cand, count, caps, selection):
    """The DP and traceback of :func:`min_knapsack_batch` on one group of
    rows; marks the chosen candidates in ``selection``."""
    steps = int(count.max(initial=0))
    if not steps:
        return
    rows = np.arange(len(count))
    order = np.argsort(~cand, axis=1, kind="stable")[:, :steps]  # candidates first
    live = np.arange(steps) < count[:, None]
    p = np.where(live, profit[rows[:, None], order], np.inf)
    w = np.where(live, weight[rows[:, None], order], 0)
    width = int(caps.max()) + 1
    table = np.zeros((len(rows), 2 * width - 1))  # row r: +inf padding, then dp[r, :width]
    table[:, : width - 1] = np.inf
    dp = table[:, width - 1 :]
    cells = (rows * (2 * width - 1) + width - 1)[:, None] + np.arange(width)
    take = np.empty((steps, len(rows), width), dtype=bool)
    for k in range(steps):
        with_item = table.take(cells - w[:, k, None]) + p[:, k, None]
        np.less(with_item, dp, out=take[k])  # strict: ties resolve to not-selected
        np.copyto(dp, with_item, where=take[k])
    items, weights = order.tolist(), w.tolist()
    for r, (c, kr) in enumerate(zip(caps.tolist(), count.tolist())):
        for k in range(kr - 1, -1, -1):
            if take[k, r, c]:
                selection[r, items[r][k]] = True
                c -= weights[r][k]


def lex_knapsack(p: LexKnapsackProblem):
    """Best (max score, then min reduced cost) selection within the budget.

    Returns ``(best_sim, rc, selection)`` or ``None`` when no capacity-
    feasible selection meets the reduced-cost budget. The downward scan over
    score levels also covers the case where the top level's minimum reduced
    cost narrowly misses the budget: the next admissible level is returned.

    Items with score <= 0 and reduced cost >= 0 are dropped, as are items
    heavier than the capacity: removing such an item from a selection keeps
    it feasible, does not lower its score and does not raise its reduced
    cost. After k kept items only the score band ``[-neg_k, +pos_k]`` is
    reachable, so each item updates just that band in place and keeps its
    destination band's ``take`` bits packed, eight capacities to a byte.
    """
    n = p.n
    keep = np.flatnonzero((p.weight <= p.capacity) & ((p.sim > 0) | (p.rc_coeff < 0)))
    sims, weights = p.sim[keep].tolist(), p.weight[keep].tolist()
    cap = int(min(p.capacity, sum(weights)))
    neg = sims.count(-1)
    g = np.full((neg + sims.count(1) + 1, cap + 1), np.inf)  # row neg + s holds score s
    g[neg, :] = 0.0
    lo = hi = neg  # reachable rows so far
    take = []  # per item: first destination row, packed bits over columns w..cap
    for f, w, r in zip(sims, weights, p.rc_coeff[keep].tolist()):
        with_item = g[lo : hi + 1, : cap + 1 - w] + r
        dst = g[lo + f : hi + f + 1, w:]
        better = with_item < dst  # strict: ties resolve to not-selected
        np.copyto(dst, with_item, where=better)
        take.append((lo + f, np.packbits(better, axis=1)))
        lo, hi = min(lo, lo + f), max(hi, hi + f)
    for row in range(hi, lo - 1, -1):
        if g[row, cap] > p.rc_budget:
            continue
        sel = np.zeros(n, dtype=bool)
        lv, c = row, cap
        for k in range(keep.size - 1, -1, -1):
            first, bits = take[k]
            band_row, col = lv - first, c - weights[k]
            if (0 <= band_row < bits.shape[0] and col >= 0
                    and bits[band_row, col >> 3] >> (7 - (col & 7)) & 1):
                sel[keep[k]] = True
                lv -= sims[k]
                c = col
        rc = float(p.rc_coeff[sel].sum())
        if rc > p.rc_budget:  # DP value hit the budget only through rounding
            continue
        return row - neg, rc, sel
    return None


def brute_force_lex(p: LexKnapsackProblem):
    """Exhaustive reference for :func:`lex_knapsack`; rejects n > 20.

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
    masks = np.arange(2**n, dtype=np.int64)
    bits = ((masks[:, None] >> np.arange(n)) & 1).astype(bool)
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
