"""Restricted master problem: column pool, LP solves, and column management.

The master is kept in cover form: one >= 1 row per job plus one convexity
row per machine, with a surplus column on every cover row. Feasibility is
bootstrapped without big-M costs via one artificial column per cover row
whose sum is minimized (phase one). The starting basis holds the emptiest
column of each machine; a row those anchors cover more than once starts on
its surplus column, every other row on its artificial. Within the
:func:`build_and_solve` call whose phase-one objective reaches zero, the
artificials are pivoted out and sealed and the true column costs installed
(phase two). :class:`MasterLp` owns the LP, keyed by :class:`Column` object,
and keeps its basis warm; a solution holds duals, pivots and basic values.

The LP carries only live columns: after sealing the columns of dropped
pool entries, every :meth:`MasterLp.sync` compacts the LP, which drops each
sealed nonbasic column (a retired artificial too, once it has left the
basis) and renumbers the rest. The LP indices held in ``lp_col``,
``surplus`` and ``artificial`` change there and nowhere else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .instance import GapInstance, InfeasibleInstanceError, validate
from .simplex import SimplexSolver

PHASE1_TOL = 1e-7

AGE_POLICIES = {
    "dantzig": (0.081875, 0.0, 1.0),
    "pessoa": (0.0, 0.3, 1.0),
    "lt": (0.00044, 0.0405, 1.0),
    # exact template pricing reuses the heuristic-template retention curve
    "mt": (0.00044, 0.0405, 1.0),
}


class MasterInfeasibleError(RuntimeError):
    """Phase one stalled at a positive objective: no cover exists."""


@dataclass(eq=False)
class Column:
    machine: int
    jobs: np.ndarray  # bool mask over jobs
    cost: int
    age: int

    def key(self) -> bytes:
        return self.jobs.tobytes()


@dataclass(eq=False)
class RmpSolution:
    objective: float
    lam: dict[Column, float]  # basic pool columns -> value, zeros included
    pi: np.ndarray            # cover duals, one per job
    mu: np.ndarray            # convexity duals, one per machine
    pivots: int


class ColumnPool:
    """Per-machine column collections plus the iteration clock for ages."""

    def __init__(self, inst: GapInstance):
        self.inst = inst
        self.columns: list[list[Column]] = [[] for _ in range(inst.num_machines)]
        self.iteration = 0
        self._keys: list[set[bytes]] = [set() for _ in range(inst.num_machines)]
        for i in range(inst.num_machines):
            # the empty assignment is always feasible and anchors the
            # convexity row before any real column exists
            self.add(i, np.zeros(inst.num_jobs, dtype=bool))

    def add(self, machine: int, jobs: np.ndarray) -> Column | None:
        """Insert a column; returns None when the same bit-vector already exists."""
        jobs = np.ascontiguousarray(jobs, dtype=bool)
        key = jobs.tobytes()
        if key in self._keys[machine]:
            return None
        load = int(self.inst.resource[machine][jobs].sum())
        if load > self.inst.capacity[machine]:
            raise ValueError(f"column violates capacity of machine {machine}")
        col = Column(machine=machine, jobs=jobs,
                     cost=int(self.inst.cost[machine][jobs].sum()),
                     age=self.iteration)
        self.columns[machine].append(col)
        self._keys[machine].add(key)
        return col

    def iter_columns(self):
        for cols in self.columns:
            yield from cols

    def size(self) -> int:
        return sum(len(cols) for cols in self.columns)

    def drop(self, col: Column):
        self.columns[col.machine].remove(col)
        self._keys[col.machine].discard(col.key())


class MasterLp:
    """The master LP of one instance, kept warm across successive solves."""

    def __init__(self, inst: GapInstance):
        self.inst = inst
        nj, ni = inst.num_jobs, inst.num_machines
        self.lp = SimplexSolver(np.ones(nj + ni))
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
        self.lp_col: dict[Column, int] = {}

    def _entries(self, col: Column) -> np.ndarray:
        nj, ni = self.inst.num_jobs, self.inst.num_machines
        e = np.zeros(nj + ni)
        e[: nj][col.jobs] = 1.0
        e[nj + col.machine] = 1.0
        return e

    def sync(self, pool: ColumnPool):
        live = set()
        for col in pool.iter_columns():
            live.add(col)
            if col not in self.lp_col:
                cost = 0.0 if self.phase == 1 else float(col.cost)
                self.lp_col[col] = self.lp.add_column(self._entries(col), cost)
        for col in [c for c in self.lp_col if c not in live]:
            self.lp.seal_column(self.lp_col.pop(col))
        remap = self.lp.compact()
        if len(remap) == self.lp.n:
            return
        self.lp_col = {col: int(remap[j]) for col, j in self.lp_col.items()}
        self.surplus = [int(remap[j]) for j in self.surplus]
        # a retired artificial stays until it leaves the basis
        self.artificial = [int(remap[j]) for j in self.artificial if remap[j] >= 0]

    def ensure_basis(self, pool: ColumnPool):
        if self.lp.basis is not None:
            return
        nj, ni = self.inst.num_jobs, self.inst.num_machines
        anchors = []
        coverage = np.zeros(nj)
        for i in range(ni):
            if not pool.columns[i]:
                raise MasterInfeasibleError(f"machine {i} has no column to anchor its convexity row")
            empty = min(pool.columns[i], key=lambda c: int(c.jobs.sum()))
            anchors.append(self.lp_col[empty])
            coverage += empty.jobs
        # an over-covered row starts on its surplus column, at value coverage - 1
        basis = [self.surplus[j] if coverage[j] > 1 else self.artificial[j] for j in range(nj)]
        self.lp.set_basis(basis + anchors)

    def to_phase2(self, pool: ColumnPool) -> int:
        """Drop the artificials, install true costs, keep the basis warm."""
        pivots = self.lp.retire_columns(self.artificial,
                                        list(self.lp_col.values()) + self.surplus)
        for col in pool.iter_columns():
            self.lp.set_cost(self.lp_col[col], float(col.cost))
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


def build_and_solve(pool: ColumnPool, master: MasterLp | None = None) -> RmpSolution:
    """Solve the master over the pool's columns and return duals and pivots.

    Phase one minimizes the artificial-variable sum, column costs ignored; a
    phase-one solve that ends below ``PHASE1_TOL`` retires the artificials and
    returns the phase-two solution (``master.phase`` tells which).
    Passing the same ``master`` across calls reuses the previous basis;
    without one, a fresh master is built for this call. ``master`` must
    belong to ``pool.inst``.
    """
    if master is None:
        master = MasterLp(pool.inst)
    elif master.inst is not pool.inst:
        raise ValueError("master belongs to a different instance than the pool")
    master.sync(pool)
    master.ensure_basis(pool)
    pivots = master.lp.solve()
    if master.phase == 1 and master.lp.objective() < PHASE1_TOL:
        pivots += master.to_phase2(pool)
        pivots += master.lp.solve()
    return master.extract(pivots)


def project_primal(sol: RmpSolution, pool: ColumnPool) -> np.ndarray:
    """Project the master solution onto per-machine job-fraction vectors in [0, 1]."""
    inst = pool.inst
    y = np.zeros((inst.num_machines, inst.num_jobs))
    for col in pool.iter_columns():
        weight = sol.lam.get(col, 0.0)
        if weight > 0.0:
            y[col.machine][col.jobs] += weight
    if y.max(initial=0.0) > 1.0 + 1e-7:
        raise AssertionError(f"projected entry {y.max():.9f} above 1")
    return np.clip(y, 0.0, 1.0)


def manage_columns(pool: ColumnPool, sol: RmpSolution, tau: int) -> int:
    """Refresh basis-membership ages, then drop columns older than ``tau``.

    Basic columns get age ``pool.iteration`` first, so they are never
    removed; returns the number of removals.
    """
    if tau < 1:
        raise ValueError("tau must be at least 1")
    t = pool.iteration
    for col in sol.lam:
        col.age = t
    stale = [col for col in pool.iter_columns() if col.age < t - tau]
    for col in stale:
        pool.drop(col)
    return len(stale)


def age_threshold(coefficients: tuple[float, float, float], inst: GapInstance) -> int:
    """Retention window from a policy polynomial ``(a2, a1, a0)`` in the ratio."""
    a2, a1, a0 = coefficients
    r = inst.ratio
    value = a2 * r * r + a1 * r + a0
    return max(1, math.ceil(value - 1e-9))


def solve_compact_lp(inst: GapInstance) -> np.ndarray:
    """LP relaxation of the compact assignment model, partition form.

    Returns the optimal fractional assignment matrix ``x[i, j] >= 0``, whose
    entries for each job sum to one (so none exceeds one); it seeds the
    phase-one templates.
    """
    validate(inst)
    nj, ni = inst.num_jobs, inst.num_machines
    b = np.concatenate([np.ones(nj), inst.capacity.astype(np.float64)])
    lp = SimplexSolver(b)
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
    lp.solve()
    if lp.objective() > PHASE1_TOL:
        raise InfeasibleInstanceError(
            f"compact LP infeasible (artificial sum {lp.objective():.6g})")
    lp.retire_columns(arts, [int(j) for j in x_cols.ravel()] + slacks)
    for i in range(ni):
        for j in range(nj):
            lp.set_cost(int(x_cols[i, j]), float(inst.cost[i, j]))
    lp.solve()
    values = lp.values()
    return np.clip(values[x_cols.ravel()].reshape(ni, nj), 0.0, 1.0)


def extract_integer_solution(sol: RmpSolution, pool: ColumnPool):
    """Recover an assignment when the master solution is integral.

    Over-covered jobs go to the cheapest selecting machine; the repair only
    frees capacity. Returns ``(assignment, upper_bound)`` or ``None`` when
    any variable is meaningfully fractional or some job is uncovered.
    """
    inst = pool.inst
    chosen = []
    for col, value in sol.lam.items():
        if value > 0.5:
            if abs(value - 1.0) > 1e-6:
                return None
            chosen.append(col)
        elif value > 1e-6:
            return None
    assignment = np.full(inst.num_jobs, -1, dtype=np.int64)
    for col in chosen:
        for j in np.flatnonzero(col.jobs):
            i = col.machine
            if assignment[j] == -1 or inst.cost[i, j] < inst.cost[assignment[j], j]:
                assignment[j] = i
    if (assignment == -1).any():
        return None
    ub = int(inst.cost[assignment, np.arange(inst.num_jobs)].sum())
    return assignment, ub
