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
once and writes into them at every pivot. It keeps the mask of columns that
may not enter (basic or sealed), the basic costs and the sealed basic rows
up to date pivot by pivot; the ratio rule for sealed basic columns runs only
while there is one.

Column indices are stable until :meth:`SimplexSolver.compact`, which drops
the sealed nonbasic columns, shifts the survivors down in order and returns
the old-to-new index map; a caller holding column indices must remap them.
"""

from __future__ import annotations

import math

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


class SimplexSolver:
    def __init__(self, b, columns: np.ndarray | None = None, costs=0.0):
        """An LP over the rows ``A x = b``, empty or starting on ``columns``.

        ``columns`` is an (m x k) block with costs ``costs``. A C-ordered
        float64 block becomes the column storage itself, not a copy: the
        caller hands it over and must not write to it again.
        """
        self.b = np.asarray(b, dtype=np.float64)
        self.m = len(self.b)
        if columns is None:
            self._A = np.zeros((self.m, 64))
            self.n = 0
        else:
            self._A = np.ascontiguousarray(columns, dtype=np.float64)
            self.n = self._A.shape[1]
        cap = self._A.shape[1]
        self.cost = np.zeros(cap)
        self.cost[: self.n] = costs
        self.basic = np.zeros(cap, dtype=bool)
        self.sealed = np.zeros(cap, dtype=bool)
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

    def add_columns(self, entries: np.ndarray, costs) -> np.ndarray:
        """Append the columns of an (m x k) block; returns their indices."""
        n, k = self.n, entries.shape[1]
        self._grow(n + k)
        self._A[:, n : n + k] = entries
        self.cost[n : n + k] = costs
        self.n += k
        return np.arange(n, n + k)

    def set_cost(self, j, cost):
        """Set the cost of column ``j``, or of each column in an index array."""
        self.cost[j] = cost

    def seal_column(self, j: int):
        """Pin column j at zero: it will never be priced into the basis again."""
        if self.basic[j] and self._xb is not None:
            r = int(np.flatnonzero(self.basis == j)[0])
            if abs(self._xb[r]) > FEAS_TOL:
                raise SimplexError("cannot seal a basic column with nonzero value")
        self.sealed[j] = True

    def compact(self) -> np.ndarray:
        """Drop every sealed nonbasic column, keeping the others in order.

        Returns the old-to-new index map, -1 for a dropped column. The basis
        is renumbered; its inverse and values do not change.
        """
        n = self.n
        kept = np.flatnonzero(~self.sealed[:n] | self.basic[:n])
        k = len(kept)
        remap = np.full(n, -1, dtype=np.int64)
        remap[kept] = np.arange(k)
        if k < n:
            # the columns before the first dropped one keep their places
            first = int(np.argmin(remap))  # the first -1
            moved = kept[first:]
            self._A[:, first:k] = self._A[:, moved]
            # freed slots must read nonbasic and unsealed when reused
            for arr in (self.cost, self.basic, self.sealed):
                arr[first:k] = arr[moved]
                arr[k:n] = 0
            if self.basis is not None:
                self.basis = remap[self.basis]
            self.n = k
        return remap

    def set_basis(self, cols):
        basis = np.asarray(cols, dtype=np.int64)
        if len(basis) != self.m:
            raise SimplexError(f"basis needs {self.m} columns, got {len(basis)}")
        self.basis = basis
        self.basic[: self.n] = False
        self.basic[basis] = True
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

    def _apply_pivot(self, r: int, e: int, u: np.ndarray, outer: np.ndarray | None = None):
        # a separate multiply and subtract gives every entry the rounding of
        # the textbook update a - u_i * row_j; row r is then written back.
        # ``outer``, when given, is an m x m buffer for the outer product
        row = self._binv[r] / u[r]
        self._binv -= np.multiply.outer(u, row, out=outer)
        self._binv[r] = row
        self.basic[self.basis[r]] = False
        self.basis[r] = e
        self.basic[e] = True

    def solve(self) -> int:
        """Run primal simplex from the current basis; returns pivots performed."""
        if self.basis is None:
            raise SimplexError("no starting basis")
        self._refactor()
        m, n = self.m, self.n
        A, cost, sealed, basis = self._A[:, :n], self.cost[:n], self.sealed, self.basis
        binv, xb = self._binv, self._xb
        # per-solve state: columns that may not enter, basic costs, and the
        # rows whose basic column is sealed
        skip = self.basic[:n] | sealed[:n]
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
            np.subtract(cost, rc, out=rc)
            np.copyto(rc, 0.0, where=skip)
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
            skip[leaving] = sealed[leaving]
            skip[e] = True
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
            if pivots >= _MAX_PIVOTS:
                raise SimplexError("pivot limit exceeded")
        return pivots
