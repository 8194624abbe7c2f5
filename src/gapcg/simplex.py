"""Dense primal revised simplex in standard form.

A small LP engine purpose-built for the masters in this package. Rows are
equalities ``A x = b`` over columns ``x >= 0``. It supports incremental
column addition, warm starts from the previous basis, sealing columns
(pinning them at zero so they never price again), per-solve pivot counts
and dual extraction. The basis inverse is kept densely and refactorized
every ``_REFACTOR_EVERY`` pivots; Dantzig pricing with a Bland fallback
guards against cycling on degenerate bases.
"""

from __future__ import annotations

import numpy as np

_PRICE_TOL = 1e-9
_PIVOT_TOL = 1e-9
_FEAS_TOL = 1e-7
_REFACTOR_EVERY = 256
_MAX_PIVOTS = 5_000_000


class SimplexError(RuntimeError):
    pass


class UnboundedError(SimplexError):
    pass


class SimplexSolver:
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

        A basic column leaves in a degenerate pivot for the unsealed
        nonbasic candidate with the largest pivot element in its row; one
        that cannot leave stays basic, sealed at zero until it leaves.
        Returns the number of swaps.
        """
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
