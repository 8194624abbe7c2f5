"""Dense bounded-variable primal revised simplex.

A small LP engine purpose-built for the masters in this package. Rows are
equalities ``A x = b`` with per-column bounds ``0 <= x_j <= ub_j``. It
supports incremental column addition, warm starts from the previous basis,
sealing columns (pinning them at zero so they never price again), per-solve
pivot counts and dual extraction. The basis inverse is kept densely and
refactorized periodically; Dantzig pricing with a Bland fallback guards
against cycling on degenerate bases.
"""

from __future__ import annotations

import numpy as np

AT_LB, AT_UB, BASIC = 0, 1, 2

_PRICE_TOL = 1e-9
_PIVOT_TOL = 1e-9
_FEAS_TOL = 1e-7


class SimplexError(RuntimeError):
    pass


class UnboundedError(SimplexError):
    pass


class SimplexSolver:
    def __init__(self, b, refactor_every: int = 256):
        self.b = np.asarray(b, dtype=np.float64)
        self.m = len(self.b)
        self.refactor_every = refactor_every
        cap = 64
        self._A = np.zeros((self.m, cap))
        self.cost = np.zeros(cap)
        self.ub = np.zeros(cap)
        self.state = np.zeros(cap, dtype=np.int8)
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
        for name in ("cost", "ub", "state", "sealed"):
            old = getattr(self, name)
            fresh = np.zeros(new_cap, dtype=old.dtype)
            fresh[: self.n] = old[: self.n]
            setattr(self, name, fresh)
        A = np.zeros((self.m, new_cap))
        A[:, : self.n] = self._A[:, : self.n]
        self._A = A

    def add_column(self, entries: np.ndarray, cost: float, ub: float = np.inf) -> int:
        self._grow(self.n + 1)
        j = self.n
        self._A[:, j] = entries
        self.cost[j] = cost
        self.ub[j] = ub
        self.state[j] = AT_LB
        self.n += 1
        return j

    def set_cost(self, j: int, cost: float):
        self.cost[j] = cost

    def seal_column(self, j: int):
        """Pin column j at zero: it will never be priced into the basis again."""
        if self.state[j] == AT_UB:
            raise SimplexError("cannot seal a column sitting at a positive bound")
        if self.state[j] == BASIC and self._xb is not None:
            r = int(np.flatnonzero(self.basis == j)[0])
            if abs(self._xb[r]) > _FEAS_TOL:
                raise SimplexError("cannot seal a basic column with nonzero value")
        self.ub[j] = 0.0
        self.sealed[j] = True

    def set_basis(self, cols):
        basis = np.asarray(cols, dtype=np.int64)
        if len(basis) != self.m:
            raise SimplexError(f"basis needs {self.m} columns, got {len(basis)}")
        self.basis = basis
        self.state[: self.n][self.state[: self.n] == BASIC] = AT_LB
        self.state[basis] = BASIC
        self._refactor()

    def is_basic(self, j: int) -> bool:
        return self.state[j] == BASIC

    def values(self) -> np.ndarray:
        x = np.zeros(self.n)
        at_ub = np.flatnonzero((self.state[: self.n] == AT_UB))
        x[at_ub] = self.ub[at_ub]
        x[self.basis] = self._xb
        return x

    def value(self, j: int) -> float:
        if self.state[j] == BASIC:
            r = int(np.flatnonzero(self.basis == j)[0])
            return float(self._xb[r])
        if self.state[j] == AT_UB:
            return float(self.ub[j])
        return 0.0

    def duals(self) -> np.ndarray:
        return self.cost[self.basis] @ self._binv

    def objective(self) -> float:
        obj = float(self.cost[self.basis] @ self._xb)
        at_ub = np.flatnonzero(self.state[: self.n] == AT_UB)
        if at_ub.size:
            obj += float(self.cost[at_ub] @ self.ub[at_ub])
        return obj

    # ------------------------------------------------------------------ solve

    def _rhs_effective(self) -> np.ndarray:
        rhs = self.b.copy()
        at_ub = np.flatnonzero((self.state[: self.n] == AT_UB) & (self.ub[: self.n] > 0))
        if at_ub.size:
            rhs -= self._A[:, at_ub] @ self.ub[at_ub]
        return rhs

    def _refactor(self):
        B = self._A[:, self.basis]
        try:
            self._binv = np.linalg.inv(B)
        except np.linalg.LinAlgError as exc:
            raise SimplexError("singular basis") from exc
        xb = self._binv @ self._rhs_effective()
        if (xb < -_FEAS_TOL).any():
            raise SimplexError(f"warm basis infeasible (min {xb.min():.3e})")
        np.clip(xb, 0.0, None, out=xb)
        self._xb = xb

    def _reduced_costs(self) -> np.ndarray:
        y = self.cost[self.basis] @ self._binv
        return self.cost[: self.n] - y @ self._A[:, : self.n]

    def force_pivot(self, r: int, e: int) -> bool:
        """Degenerate swap: bring nonbasic column e into basis row r at value 0.

        Only legal when the current basic variable in row r sits at zero.
        Returns False when the pivot element is numerically unusable.
        """
        if abs(self._xb[r]) > _FEAS_TOL:
            raise SimplexError("force_pivot requires a zero-valued leaving variable")
        if self.state[e] != AT_LB:
            raise SimplexError("force_pivot entering column must sit at its lower bound")
        u = self._binv @ self._A[:, e]
        if abs(u[r]) < 1e-9:
            return False
        leaving = int(self.basis[r])
        self._apply_pivot(r, e, u)
        self.state[leaving] = AT_LB
        self._xb[r] = 0.0
        return True

    def retire_columns(self, cols, candidates) -> int:
        """Swap zero-valued ``cols`` out of the basis, then seal them at cost 0.

        A basic column leaves for the unsealed lower-bound candidate with the
        largest pivot element in its row; one that cannot leave stays basic,
        sealed at zero until it leaves. Returns the number of swaps.
        """
        retiring = set(cols)
        pivots = 0
        for r in range(self.m):
            if int(self.basis[r]) not in retiring:
                continue
            row = self._binv[r]
            best, best_val = None, 1e-7
            for j in candidates:
                if self.state[j] != AT_LB or self.sealed[j]:
                    continue
                val = abs(float(row @ self._A[:, j]))
                if val > best_val:
                    best, best_val = j, val
            if best is not None and self.force_pivot(r, best):
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
        self.basis[r] = e
        self.state[e] = BASIC

    def solve(self, max_pivots: int = 5_000_000) -> int:
        """Run primal simplex from the current basis; returns pivots performed."""
        if self.basis is None:
            raise SimplexError("no starting basis")
        self._refactor()
        pivots = 0
        degenerate_run = 0
        bland = False
        while True:
            rc = self._reduced_costs()
            state = self.state[: self.n]
            elig_lb = (state == AT_LB) & ~self.sealed[: self.n] & (rc < -_PRICE_TOL) & (self.ub[: self.n] > 0)
            elig_ub = (state == AT_UB) & (rc > _PRICE_TOL)
            if not elig_lb.any() and not elig_ub.any():
                break
            if bland:
                e = int(np.flatnonzero(elig_lb | elig_ub)[0])
            else:
                score = np.where(elig_lb, -rc, 0.0) + np.where(elig_ub, rc, 0.0)
                e = int(np.argmax(score))
            from_lb = state[e] == AT_LB
            u = self._binv @ self._A[:, e]
            d = u if from_lb else -u
            ratios = np.full(self.m, np.inf)
            ub_b = self.ub[self.basis]
            pos = d > _PIVOT_TOL
            ratios[pos] = self._xb[pos] / d[pos]
            neg = (d < -_PIVOT_TOL) & np.isfinite(ub_b)
            ratios[neg] = (ub_b[neg] - self._xb[neg]) / (-d[neg])
            t_rows = float(ratios.min()) if self.m else np.inf
            t_flip = float(self.ub[e])
            if not np.isfinite(min(t_rows, t_flip)):
                raise UnboundedError("LP is unbounded")
            if t_flip <= t_rows:
                # entering variable traverses its whole range: bound flip
                self._xb -= t_flip * d
                self.state[e] = AT_UB if from_lb else AT_LB
                step = t_flip
            else:
                t = max(t_rows, 0.0)
                cand = np.flatnonzero(ratios <= t + 1e-9)
                r = int(cand[np.argmax(np.abs(d[cand]))])
                if abs(u[r]) < 1e-11:
                    self._refactor()
                    bland = True
                    continue
                leaving = int(self.basis[r])
                leaving_state = AT_LB if d[r] > 0 else AT_UB
                self._xb -= t * d
                self._apply_pivot(r, e, u)
                self.state[leaving] = leaving_state
                self._xb[r] = t if from_lb else self.ub[e] - t
                step = t
            pivots += 1
            if step <= 1e-11:
                degenerate_run += 1
                if degenerate_run > 50 + 2 * self.m:
                    bland = True
            else:
                degenerate_run = 0
                bland = False
            if pivots % self.refactor_every == 0:
                self._refactor()
            if pivots >= max_pivots:
                raise SimplexError("pivot limit exceeded")
        return pivots
