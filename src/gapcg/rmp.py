"""Restricted master problem: column pool, LP solves, and column management.

The master is kept in cover form: one >= 1 row per job plus one convexity
row per machine, with a surplus column on every cover row. Feasibility is
bootstrapped without big-M costs via one artificial column per cover row
whose sum is minimized (phase one), starting from every cover row on its
artificial and each machine on its seeded empty column. Within the
:func:`build_and_solve` call whose phase-one objective reaches zero, the
artificials are pivoted out and sealed and the true column costs installed
(phase two). :class:`ColumnPool` owns both the columns and the LP, keyed by
:class:`Column` object, and keeps its basis warm; a solution holds duals,
pivots and basic values.

The LP carries only live columns: :meth:`ColumnPool.drop` seals a dropped
column's LP column at once, and every :meth:`ColumnPool.sync` adds the
columns added since the last sync, in pool order, and compacts the LP, which
drops each sealed nonbasic column (a retired artificial too, once it has
left the basis) and renumbers the rest. The LP indices held in ``lp_col``
and ``artificial`` change there and nowhere else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter

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
    """Per-machine column collections, the iteration clock for ages, and the
    master LP over the columns, kept warm across successive solves."""

    def __init__(self, inst: GapInstance):
        self.inst = inst
        nj, ni = inst.num_jobs, inst.num_machines
        self.columns: list[list[Column]] = [[] for _ in range(ni)]
        self.iteration = 0
        self._keys: list[set[bytes]] = [set() for _ in range(ni)]
        self.lp = SimplexSolver(np.ones(nj + ni))
        self.phase = 1
        # -e_j and +e_j are written into zeros: negating +e_j would give -0.0
        block = np.zeros((nj + ni, nj))
        np.fill_diagonal(block, -1.0)
        # the surplus columns come first and are never sealed, so no
        # compaction moves them
        self.surplus = self.lp.add_columns(block, 0.0).tolist()
        np.fill_diagonal(block, 1.0)
        self.artificial = self.lp.add_columns(block, 1.0).tolist()  # relaxes an uncovered row
        self.lp_col: dict[Column, int] = {}  # in ascending LP index order
        self._owner: list[Column | None] = [None] * self.lp.n  # lp_col inverted; None: no column
        self._unsynced: dict[Column, None] = {}  # added since the last sync, in order
        for i in range(ni):
            # the empty assignment is always feasible and anchors the
            # convexity row before any real column exists
            self.add(i, np.zeros(nj, dtype=bool))

    def add(self, machine: int, jobs: np.ndarray) -> Column | None:
        """Insert a column; returns None when the same bit-vector already exists."""
        jobs = np.ascontiguousarray(jobs, dtype=bool)
        key = jobs.tobytes()
        if key in self._keys[machine]:
            return None
        load = int(np.add.reduce(self.inst.resource[machine][jobs]))
        if load > self.inst.capacity[machine]:
            raise ValueError(f"column violates capacity of machine {machine}")
        col = Column(machine=machine, jobs=jobs,
                     cost=int(np.add.reduce(self.inst.cost[machine][jobs])),
                     age=self.iteration)
        self.columns[machine].append(col)
        self._keys[machine].add(key)
        self._unsynced[col] = None
        return col

    def size(self) -> int:
        return sum(len(cols) for cols in self.columns)

    def drop(self, col: Column):
        """Remove a column; its LP column, if any, is sealed at once."""
        if col in self.lp_col:
            j = self.lp_col[col]
            self.lp.seal_column(j)
            del self.lp_col[col]
            self._owner[j] = None
        else:
            self._unsynced.pop(col, None)
        self.columns[col.machine].remove(col)
        self._keys[col.machine].discard(col.key())

    def sync(self):
        """Add the new columns to the LP and compact it; the first call sets the basis."""
        nj = self.inst.num_jobs
        # each machine's columns sit in the pool in the order they were added
        new = sorted(self._unsynced, key=attrgetter("machine"))
        self._unsynced.clear()
        if new:
            block = np.zeros((nj + self.inst.num_machines, len(new)))
            block[:nj] = np.array([col.jobs for col in new]).T
            block[nj + np.array([col.machine for col in new]), np.arange(len(new))] = 1.0
            costs = 0.0 if self.phase == 1 else [col.cost for col in new]
            self.lp_col.update(zip(new, self.lp.add_columns(block, costs).tolist()))
            self._owner.extend(new)
        if self.lp.basis is None:
            seeds = [cols[0] for cols in self.columns if cols and not cols[0].jobs.any()]
            if len(seeds) < self.inst.num_machines:
                raise ValueError("a machine lost its seeded empty column before the first solve")
            self.lp.set_basis(self.artificial + [self.lp_col[col] for col in seeds])
        remap = self.lp.compact()
        if len(remap) == self.lp.n:
            return
        self._owner = [self._owner[j] for j in np.flatnonzero(remap >= 0).tolist()]
        self.lp_col = {col: j for j, col in enumerate(self._owner) if col is not None}
        # a retired artificial stays until it leaves the basis
        self.artificial = [int(remap[j]) for j in self.artificial if remap[j] >= 0]

    def to_phase2(self) -> int:
        """Drop the artificials, install true costs, keep the basis warm."""
        indices = list(self.lp_col.values())
        pivots = self.lp.retire_columns(self.artificial, indices + self.surplus)
        self.lp.set_cost(indices, [col.cost for col in self.lp_col])
        self.phase = 2
        return pivots

    def extract(self, pivots: int) -> RmpSolution:
        nj = self.inst.num_jobs
        y = self.lp.duals()
        x = self.lp.values()
        # ascending LP index, the order project_primal sums in
        owners = [(self._owner[j], j) for j in np.sort(self.lp.basis).tolist()]
        lam = {col: float(x[j]) for col, j in owners if col is not None}
        return RmpSolution(objective=self.lp.objective(), lam=lam,
                           pi=y[:nj].copy(), mu=y[nj:].copy(), pivots=pivots)


def build_and_solve(pool: ColumnPool) -> RmpSolution:
    """Solve the master over the pool's columns and return duals and pivots.

    Phase one minimizes the artificial-variable sum, column costs ignored; a
    phase-one solve that ends below ``PHASE1_TOL`` retires the artificials and
    returns the phase-two solution (``pool.phase`` tells which). The pool's
    LP keeps its basis warm from one call to the next.
    """
    pool.sync()
    pivots = pool.lp.solve()
    if pool.phase == 1 and pool.lp.objective() < PHASE1_TOL:
        pivots += pool.to_phase2()
        pivots += pool.lp.solve()
    return pool.extract(pivots)


def project_primal(sol: RmpSolution, pool: ColumnPool) -> np.ndarray:
    """Project the master solution onto per-machine job-fraction vectors in [0, 1]."""
    inst = pool.inst
    y = np.zeros((inst.num_machines, inst.num_jobs))
    for col, weight in sol.lam.items():
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
    oldest = t - tau
    stale = [col for cols in pool.columns for col in cols if col.age < oldest]
    for col in stale:
        pool.drop(col)
    return len(stale)


def age_threshold(method: str, inst: GapInstance) -> int:
    """Retention window of ``method``'s age policy: the ceiling, at least 1, of
    its polynomial ``a2 r^2 + a1 r + a0`` in the job/machine ratio ``r``."""
    a2, a1, a0 = AGE_POLICIES[method]
    r = inst.ratio
    return max(1, math.ceil(a2 * r * r + a1 * r + a0 - 1e-9))


def solve_compact_lp(inst: GapInstance) -> np.ndarray:
    """LP relaxation of the compact assignment model, partition form.

    Returns the optimal fractional assignment matrix ``x[i, j] >= 0``, whose
    entries for each job sum to one (so none exceeds one); it seeds the
    phase-one templates.
    """
    validate(inst)
    nj, ni = inst.num_jobs, inst.num_machines
    # x_ij at column i * nj + j, then the machine slacks and the job artificials
    nx = ni * nj
    x = np.arange(nx)
    block = np.zeros((nj + ni, nx + ni + nj))
    block[x % nj, x] = 1.0
    block[nj + x // nj, x] = inst.resource.ravel()
    np.fill_diagonal(block[nj:, nx:], 1.0)
    np.fill_diagonal(block[:nj, nx + ni:], 1.0)
    # the solver keeps the block as its column storage, so it is not held twice
    lp = SimplexSolver(np.concatenate([np.ones(nj), inst.capacity.astype(np.float64)]),
                       block, np.repeat([0.0, 1.0], [nx + ni, nj]))
    cols = list(range(lp.n))
    x_cols, slacks, arts = cols[:nx], cols[nx: nx + ni], cols[nx + ni:]
    lp.set_basis(arts + slacks)
    lp.solve()
    if lp.objective() > PHASE1_TOL:
        raise InfeasibleInstanceError(
            f"compact LP infeasible (artificial sum {lp.objective():.6g})")
    lp.retire_columns(arts, x_cols + slacks)
    lp.set_cost(x_cols, inst.cost.ravel())
    lp.solve()
    return np.clip(lp.values()[x_cols].reshape(ni, nj), 0.0, 1.0)


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
