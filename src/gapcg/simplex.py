"""Dense primal revised simplex in standard form.

A small LP engine purpose-built for the masters in this package. Rows are
equalities ``A x = b`` over columns ``x >= 0``. It supports adding columns
in blocks, warm starts from the previous basis, sealing and retiring
columns (pinning them at zero so they never price again), per-solve pivot
counts and dual extraction. The basis inverse is kept densely, refactorized
by every ``solve`` and ``retire_columns`` call and every ``_REFACTOR_EVERY``
pivots, and updated in place by a rank-1 step in between. Pricing follows
Dantzig's rule. After more than ``_BLAND_AFTER + 2 m`` degenerate pivots in
a row, Bland's rule guards against cycling until a pivot makes progress:
the lowest-index improving column enters, and of the ratio-test ties the
row whose basic column has the lowest index leaves. Keeping the inverse
from one solve to the next instead changes bounds and statuses of whole
runs, so the refactorization at the start of each solve stays.

A solve allocates its scratch vectors and the m x m outer-product buffer
once and writes into them at every pivot. It prices with a copy of the
costs that reads +inf on the basic and sealed columns, which may not enter,
and keeps it, the basic costs and the sealed basic rows up to date pivot by
pivot; the ratio rule for sealed basic columns runs only while there is one.
Given a deadline, a solve reads the clock after every pivot and raises
:class:`DeadlineError` once it has passed.

The LP stores exactly its columns: a C-ordered m x n matrix, whose width
is n, and n costs and n sealed flags. Column indices are stable until
:meth:`SimplexSolver.compact`, which drops the sealed nonbasic columns,
shifts the survivors down in order and returns the old-to-new index map;
a caller holding column indices must remap them.
"""

from __future__ import annotations

import math
import time

import numpy as np

PRICE_TOL = 1e-9
_PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7  # a basic value within it of zero is zero; rmp ends phase one by it too
_REFACTOR_EVERY = 256
_BLAND_AFTER = 50  # degenerate pivots in a row, plus two per row, before Bland's rule
_MAX_PIVOTS = 5_000_000


class SimplexError(RuntimeError):
    pass


class UnboundedError(SimplexError):
    pass


class DeadlineError(SimplexError):
    """A solve passed its deadline; the basis is feasible, not optimal."""


class SimplexSolver:
    def __init__(self, b, columns: np.ndarray | None = None, costs=0.0):
        """An LP over the rows ``A x = b``, empty or starting on ``columns``.

        ``columns`` is an (m x k) block with costs ``costs``. A C-ordered
        float64 block becomes the column storage itself, not a copy: the
        caller hands it over and must not write to it again.
        """
        self.b = np.asarray(b, dtype=np.float64)
        self.m = len(self.b)
        self._A = (np.zeros((self.m, 0)) if columns is None
                   else np.ascontiguousarray(columns, dtype=np.float64))
        self.cost = np.full(self.n, costs, dtype=np.float64)
        self.sealed = np.zeros(self.n, dtype=bool)
        self.basis: np.ndarray | None = None
        self._binv: np.ndarray | None = None
        self._xb: np.ndarray | None = None

    # ------------------------------------------------------------------ model

    @property
    def n(self) -> int:
        """The number of columns: the width of the column storage."""
        return self._A.shape[1]

    def add_columns(self, entries: np.ndarray, costs) -> np.ndarray:
        """Append the columns of an (m x k) block; returns their indices."""
        n, k = self.n, entries.shape[1]
        # concatenate does not promise C order, and y @ A rounds by the order
        self._A = np.ascontiguousarray(np.concatenate((self._A, entries), axis=1))
        self.cost = np.concatenate((self.cost, np.full(k, costs, dtype=np.float64)))
        self.sealed = np.concatenate((self.sealed, np.zeros(k, dtype=bool)))
        return np.arange(n, n + k)

    @property
    def basic(self) -> np.ndarray:
        """A fresh mask over the columns, True on those in ``basis``."""
        mask = np.zeros(self.n, dtype=bool)
        if self.basis is not None:
            mask[self.basis] = True
        return mask

    def seal_column(self, j: int):
        """Pin column j at zero: it will never be priced into the basis again."""
        if self._xb is not None and (np.abs(self._xb[self.basis == j]) > FEAS_TOL).any():
            raise SimplexError("cannot seal a basic column with nonzero value")
        self.sealed[j] = True

    def compact(self) -> np.ndarray:
        """Drop every sealed nonbasic column, keeping the others in order.

        Returns the old-to-new index map, -1 for a dropped column. The basis
        is renumbered; its inverse and values do not change.
        """
        kept = ~self.sealed | self.basic
        remap = np.where(kept, np.cumsum(kept) - 1, -1)
        if not kept.all():
            # compress keeps C order, where A[:, kept] would return Fortran order
            self._A = np.compress(kept, self._A, axis=1)
            self.cost, self.sealed = self.cost[kept], self.sealed[kept]
            if self.basis is not None:
                self.basis = remap[self.basis]
        return remap

    def set_basis(self, cols):
        basis = np.asarray(cols, dtype=np.int64)
        if len(basis) != self.m:
            raise SimplexError(f"basis needs {self.m} columns, got {len(basis)}")
        self.basis = basis
        self._refactor()

    def values(self) -> np.ndarray:
        x = np.zeros(self.n)
        x[self.basis] = self._xb
        return x

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
        if (xb < -FEAS_TOL).any():
            raise SimplexError(f"warm basis infeasible (min {xb.min():.3e})")
        np.clip(xb, 0.0, None, out=xb)
        self._xb = xb

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
            if abs(self._xb[r]) > FEAS_TOL:
                raise SimplexError("cannot retire a basic column with nonzero value")
            row = self._binv[r]
            basic = self.basic
            best, best_val = None, 1e-7
            for j in candidates:
                if basic[j] or self.sealed[j]:
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

    def _apply_pivot(self, r: int, e: int, u: np.ndarray, outer: np.ndarray | None = None):
        # a separate multiply and subtract gives every entry the rounding of
        # the textbook update a - u_i * row_j; row r is then written back.
        # ``outer``, when given, is an m x m buffer for the outer product
        row = self._binv[r] / u[r]
        self._binv -= np.multiply.outer(u, row, out=outer)
        self._binv[r] = row
        self.basis[r] = e

    def solve(self, deadline: float | None = None) -> int:
        """Run primal simplex from the current basis; returns pivots performed.

        ``deadline``, a ``time.perf_counter()`` reading, is checked after
        every pivot; past it the solve raises :class:`DeadlineError`.
        """
        if self.basis is None:
            raise SimplexError("no starting basis")
        self._refactor()
        m, n = self.m, self.n
        A, cost, sealed, basis = self._A, self.cost, self.sealed, self.basis
        binv, xb = self._binv, self._xb
        # per-solve state: pricing costs, +inf where a column may not enter,
        # the basic costs, and the rows whose basic column is sealed
        price = np.where(self.basic | sealed, np.inf, cost)
        cb = cost[basis]
        sealed_basic = sealed[basis]
        n_sealed_basic = int(sealed_basic.sum())
        # scratch, written with out= at every pivot
        y, rc, elig = np.empty(m), np.empty(n), np.empty(n, dtype=bool)
        d, ratios, absd, td = np.empty(m), np.empty(m), np.empty(m), np.empty(m)
        pos, near = np.empty(m, dtype=bool), np.empty(m, dtype=bool)
        outer = np.empty((m, m))
        pivots = 0
        degenerate_run = 0
        bland = False
        while True:
            np.matmul(cb, binv, out=y)
            np.matmul(y, A, out=rc)
            np.subtract(price, rc, out=rc)
            if bland:
                np.less(rc, -PRICE_TOL, out=elig)
                e = int(elig.argmax())  # the lowest eligible index
                if not elig[e]:
                    break
            else:
                # argmin keeps the lowest index among ties
                e = int(rc.argmin())
                if not rc[e] < -PRICE_TOL:
                    break
            np.matmul(binv, A[:, e], out=d)
            ratios.fill(np.inf)
            np.greater(d, _PIVOT_TOL, out=pos)
            np.divide(xb, d, out=ratios, where=pos)
            if n_sealed_basic:
                # a sealed column that is still basic must not rise above zero
                neg = (d < -_PIVOT_TOL) & sealed_basic
                ratios[neg] = (0.0 - xb[neg]) / (-d[neg])
            t = float(np.minimum.reduce(ratios))  # ndarray.min without its Python wrapper
            if not math.isfinite(t):
                raise UnboundedError("LP is unbounded")
            t = max(t, 0.0)
            # every ratio-test tie has |d| > _PIVOT_TOL
            np.less_equal(ratios, t + 1e-9, out=near)
            if bland:  # the tie whose basic column has the lowest index
                r = int(np.where(near, basis, n).argmin())
            else:  # the first row of largest |d| among the ties
                np.abs(d, out=absd)
                r = int(np.multiply(absd, near, out=absd).argmax())
            xb -= np.multiply(t, d, out=td)
            leaving = basis[r]
            self._apply_pivot(r, e, d, outer)
            xb[r] = t
            price[leaving] = np.inf if sealed[leaving] else cost[leaving]
            price[e] = np.inf
            cb[r] = cost[e]
            if sealed_basic[r]:
                sealed_basic[r] = False
                n_sealed_basic -= 1
            pivots += 1
            if t <= 1e-11:
                degenerate_run += 1
                if degenerate_run > _BLAND_AFTER + 2 * m:
                    bland = True
            else:
                degenerate_run = 0
                bland = False
            if pivots % _REFACTOR_EVERY == 0:
                self._refactor()
                binv, xb = self._binv, self._xb
            if deadline is not None and time.perf_counter() > deadline:
                raise DeadlineError(f"deadline passed after {pivots} pivots")
            if pivots >= _MAX_PIVOTS:
                raise SimplexError("pivot limit exceeded")
        return pivots
