"""Exact 0/1 knapsack kernels shared by every pricing strategy.

Three dynamic programs over integer capacities with real objective values:

* :func:`min_knapsack` minimizes a linear profit subject to one capacity
  constraint. Items with nonnegative profit are never selected (ties at
  zero resolve to not-selected), so the empty selection is the worst case.
* :func:`min_knapsack_batch` solves one such problem per row of an (m, n)
  batch, row for row bit-identical to :func:`min_knapsack`: whole rounds
  (Dantzig, LT steps, LR and Pessoa) use it. One DP over item positions
  serves a group of rows; its table is one flat array of rows padded with
  +inf, so a DP step is four numpy calls over contiguous memory (a window
  gather, a per-cell profit add, the take bits, ``np.fmin``). Byte budgets
  bound the take bits a group holds and the per-cell profits it writes at
  a time.
* :func:`lex_knapsack` maximizes a per-item score in {-1, 0, +1} subject
  to the capacity constraint and an upper budget on the reduced-cost sum,
  breaking ties among score-optimal selections by minimum reduced cost.
  It runs a DP over (capacity, score level) states storing the minimum
  reduced cost per state, then scans score levels downward for the first
  level whose minimum fits the budget. Items that can never help (score
  <= 0 and reduced cost >= 0) are dropped, only the reachable score band
  is stored, and each item keeps its ``take`` bits packed, so the memory is
  about items x band x capacity / 8 bytes.
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


_GROUP_BYTES = 1 << 22  # take bytes (one per step and table cell) a group of rows may hold
_PROFIT_BYTES = 1 << 16  # per-cell profits a group holds at a time, one step's at least


def min_knapsack_batch(profit, weight, capacity):
    """:func:`min_knapsack` on every row of ``profit[m, n]`` and ``weight[m, n]``.

    Returns a list of m values and an (m, n) selection mask; row r of both is
    bit-identical to ``min_knapsack`` on row r. One DP over item positions
    serves a group of consecutive rows: step k offers each row its k-th
    candidate in item order, and a row out of candidates gets +inf profit,
    which improves no cell. The group's DP is one flat table, row after row,
    each row ``pad`` cells of +inf (``pad`` the largest candidate weight)
    followed by its capacities ``0..width-1``. A step runs four numpy calls
    over the whole table, pads included: it gathers each row's window
    shifted down by the row's weight, so a capacity cell c reads
    ``dp[c - w]`` (a pad when c < w); adds a per-cell profit, +inf on the
    pads, which keeps them +inf whatever the window brought in; records
    ``with_item < dp`` as the take bit; and keeps the minimum with
    ``np.fmin``. That minimum is the one :func:`min_knapsack` keeps: strict
    ties keep ``dp``, no -0.0 arises (every candidate profit is below zero
    and ``dp`` starts at +0.0), and ``fmin`` ignores the NaN that +inf plus
    a -inf profit gives, where ``np.minimum`` would spread it. The traceback
    walks integer offsets into the take bits. A group's take bytes (one per
    step and cell) stay within ``_GROUP_BYTES`` unless one row alone needs
    more, and its per-cell profits are written ``_PROFIT_BYTES`` at a time,
    so a call holds about that much more than one :func:`min_knapsack`
    call, whatever m is.
    """
    profit = np.asarray(profit, dtype=np.float64)
    weight = np.asarray(weight, dtype=np.int64)
    capacity = np.asarray(capacity, dtype=np.int64)
    m = len(capacity)
    if profit.ndim != 2 or profit.shape != weight.shape or len(profit) != m:
        raise ValueError("profit and weight must be (m, n) and capacity (m,)")
    # ufunc reductions are ndarray.any, sum and max without their Python wrappers
    if np.logical_or.reduce(weight < 0, axis=None) or np.logical_or.reduce(capacity < 0):
        raise ValueError("weights and capacity must be nonnegative")
    negative = profit < 0
    selection = negative & (weight == 0)  # taken up front
    cand = weight <= capacity[:, None]
    cand &= negative
    cand ^= selection  # the others that fit
    count = np.add.reduce(cand, axis=1)
    live_weight = weight * cand
    caps = np.minimum(capacity, np.add.reduce(live_weight, axis=1))
    steps = int(np.maximum.reduce(count, initial=0))
    row_cells = steps * (int(np.maximum.reduce(live_weight, axis=None, initial=0))
                         + int(np.maximum.reduce(caps, initial=0)) + 1)
    group_rows = max(1, _GROUP_BYTES // max(row_cells, 1))
    # the inf arithmetic is meant, as in min_knapsack; +inf plus -inf gives
    # the NaN that fmin ignores
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, m if steps else 0, group_rows):  # no DP without a candidate
            group = slice(start, start + group_rows)
            _batch_dp(profit[group], weight[group], cand[group], count[group], caps[group],
                      selection[group], steps)
        return ([float(np.add.reduce(row[sel])) for row, sel in zip(profit, selection)],
                selection)


def _batch_dp(profit, weight, cand, count, caps, selection, steps):
    """The DP and traceback of :func:`min_knapsack_batch` on one group of
    rows, ``steps`` steps; marks the chosen candidates in ``selection``."""
    rows, n = profit.shape
    order = (~cand).argsort(axis=1, kind="stable")[:, :steps].T  # candidates first
    live = np.arange(steps)[:, None] < count
    row = np.arange(rows)
    w = np.where(live, weight[row, order], 0)  # (steps, rows)
    pad, width = int(np.maximum.reduce(w, axis=None)), int(np.maximum.reduce(caps)) + 1
    stride = pad + width
    cells = rows * stride
    # one more pad in front, for row 0's windows to reach into
    flat = np.full(pad + cells, np.inf)
    table = flat[pad:].reshape(rows, stride)
    table[:, pad:] = 0.0
    windows = np.ndarray((pad + cells - stride + 1, stride), buffer=flat,
                         strides=flat.strides * 2)
    starts = (row * stride + pad) - w  # step k, row r: the window of dp[c - w]
    # per-cell profits, +inf on the pads, for up to `chunk` steps at a time
    chunk = max(1, _PROFIT_BYTES // (8 * cells))
    p = np.full((min(chunk, steps), rows, stride), np.inf)
    step_profit = np.where(live, profit[row, order], np.inf)[:, :, None]
    take = np.empty((steps, rows, stride), dtype=bool)
    for first in range(0, steps, chunk):
        block = slice(first, first + chunk)
        profits = step_profit[block]
        p[: len(profits), :, pad:] = profits
        for start, add, bit in zip(starts[block], p, take[block]):
            with_item = windows[start]
            with_item += add
            np.less(with_item, table, out=bit)  # strict: ties resolve to not-selected
            np.fmin(table, with_item, out=table)
    bits = memoryview(take.reshape(-1))
    chosen = []
    for r, (c, kr, items, weights) in enumerate(zip(caps.tolist(), count.tolist(),
                                                    order.T.tolist(), w.T.tolist())):
        at = (kr - 1) * cells + r * stride + pad + c
        for k in range(kr - 1, -1, -1):
            if bits[at]:
                chosen.append(r * n + items[k])
                at -= weights[k]
            at -= cells
    selection.flat[chosen] = True


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
