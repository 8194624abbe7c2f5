"""Restricted master problem: column pool, LP solves, and column management.

The master is kept in cover form: one >= 1 row per job plus one convexity
row per machine, with a surplus column on every cover row. Feasibility is
bootstrapped without big-M costs via one artificial column per cover row
whose sum is minimized (phase one), starting from every cover row on its
artificial and each machine on its seeded empty column. Within the
:func:`build_and_solve` call whose phase-one objective reaches zero, the
artificials are pivoted out and sealed and the true column costs installed
(phase two). :class:`ColumnPool` owns the columns, one dict per machine
keyed by the job bit-string, and the LP, whose basis it keeps warm; a
solution holds duals, pivots and basic values.

The LP carries only live columns: :meth:`ColumnPool.drop` seals a dropped
column's LP column at once, and every :meth:`ColumnPool.sync` adds the
pool columns not yet in the LP, in pool order, and compacts the LP, which
drops each sealed nonbasic column (a retired artificial too, once it has
left the basis) and renumbers the rest. The LP index ``Column.lp`` changes
there and nowhere else. The surplus and artificial columns come first, so no
compaction moves them while ``artificial`` lists them, in phase one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import GapInstance, InfeasibleInstanceError, cheapest_assignment, validate
from .simplex import FEAS_TOL, SimplexSolver

@dataclass(eq=False)
class Column:
    machine: int
    jobs: np.ndarray  # bool mask over jobs
    cost: int
    age: int
    lp: int | None = None  # its LP column, set by ColumnPool.sync; None: not in the LP


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
        # per machine, insertion-ordered and keyed by the job bit-string
        self.columns: list[dict[bytes, Column]] = [{} for _ in range(ni)]
        self.iteration = 0
        self.lp = SimplexSolver(np.ones(nj + ni))
        # -e_j and +e_j are written into zeros: negating +e_j would give -0.0
        block = np.zeros((nj + ni, nj))
        np.fill_diagonal(block, -1.0)
        # the surplus columns come first and are never sealed, so no
        # compaction moves them
        self.surplus = self.lp.add_columns(block, 0.0).tolist()
        np.fill_diagonal(block, 1.0)
        self.artificial = self.lp.add_columns(block, 1.0).tolist()  # relaxes an uncovered row
        self._owner: list[Column | None] = [None] * self.lp.n  # LP index -> column, or None
        for i in range(ni):
            # the empty assignment is always feasible and anchors the
            # convexity row before any real column exists
            self.add(i, np.zeros(nj, dtype=bool))

    def add(self, machine: int, jobs: np.ndarray) -> Column | None:
        """Insert a column; returns None when the same bit-vector already exists."""
        jobs = np.ascontiguousarray(jobs, dtype=bool)
        if not 0 <= machine < self.inst.num_machines or jobs.shape != (self.inst.num_jobs,):
            raise ValueError(f"machine {machine}, job mask {jobs.shape}: not in the instance")
        key = jobs.tobytes()
        cols = self.columns[machine]
        if key in cols:
            return None
        load = int(np.add.reduce(self.inst.resource[machine][jobs]))
        if load > self.inst.capacity[machine]:
            raise ValueError(f"column violates capacity of machine {machine}")
        col = cols[key] = Column(machine=machine, jobs=jobs,
                                 cost=int(np.add.reduce(self.inst.cost[machine][jobs])),
                                 age=self.iteration)
        return col

    def size(self) -> int:
        return sum(len(cols) for cols in self.columns)

    @property
    def phase(self) -> int:
        """1 while the artificials are in the LP, 2 once :meth:`to_phase2` retired them."""
        return 1 if self.artificial else 2

    def drop(self, col: Column):
        """Remove a column; its LP column, if any, is sealed at once."""
        cols, key = self.columns[col.machine], col.jobs.tobytes()
        if cols.get(key) is not col:  # dropped before: an equal column added since stays
            raise KeyError(f"machine {col.machine}: column no longer in the pool")
        if col.lp is not None:
            self.lp.seal_column(col.lp)
            self._owner[col.lp] = col.lp = None
        del cols[key]

    def sync(self):
        """Add the new columns to the LP and compact it; the first call sets the basis."""
        nj = self.inst.num_jobs
        # machine-major, each machine's columns in the order they were added
        new = [col for cols in self.columns for col in cols.values() if col.lp is None]
        if new:
            block = np.zeros((nj + self.inst.num_machines, len(new)))
            block[:nj] = np.array([col.jobs for col in new]).T
            block[nj + np.array([col.machine for col in new]), np.arange(len(new))] = 1.0
            costs = 0.0 if self.phase == 1 else [col.cost for col in new]
            for col, j in zip(new, self.lp.add_columns(block, costs).tolist()):
                col.lp = j
            self._owner.extend(new)
        if self.lp.basis is None:
            seeds = [cols.get(bytes(nj)) for cols in self.columns]  # the all-zero key
            if None in seeds:
                raise ValueError("a machine lost its seeded empty column before the first solve")
            self.lp.set_basis(self.artificial + [col.lp for col in seeds])
        remap = self.lp.compact()
        if len(remap) == self.lp.n:
            return
        self._owner = [self._owner[j] for j in np.flatnonzero(remap >= 0).tolist()]
        for j, col in enumerate(self._owner):
            if col is not None:
                col.lp = j

    def to_phase2(self) -> int:
        """Drop the artificials, install true costs, keep the basis warm."""
        live = [col for col in self._owner if col is not None]  # in LP order
        indices = [col.lp for col in live]
        pivots = self.lp.retire_columns(self.artificial, indices + self.surplus)
        self.artificial = []  # the LP's sealed mask alone records them now
        self.lp.cost[indices] = [col.cost for col in live]
        return pivots

    def extract(self, pivots: int) -> RmpSolution:
        nj = self.inst.num_jobs
        y = self.lp.duals()
        x = self.lp.values()
        # ascending LP index, the order project_primal sums in
        owners = [self._owner[j] for j in np.sort(self.lp.basis).tolist()]
        lam = {col: float(x[col.lp]) for col in owners if col is not None}
        return RmpSolution(objective=self.lp.objective(), lam=lam,
                           pi=y[:nj].copy(), mu=y[nj:].copy(), pivots=pivots)


def build_and_solve(pool: ColumnPool, deadline: float | None = None) -> RmpSolution:
    """Solve the master over the pool's columns and return duals and pivots.

    Phase one minimizes the artificial-variable sum, column costs ignored; a
    phase-one solve that ends below ``FEAS_TOL``, the LP's own zero, retires
    the artificials and returns the phase-two solution (``pool.phase`` tells
    which). The pool's LP keeps its basis warm from one call to the next.
    Each solve gets ``deadline`` and raises ``DeadlineError`` past it.
    """
    pool.sync()
    pivots = pool.lp.solve(deadline)
    if pool.phase == 1 and pool.lp.objective() < FEAS_TOL:
        pivots += pool.to_phase2()
        pivots += pool.lp.solve(deadline)
    return pool.extract(pivots)


def project_primal(sol: RmpSolution, pool: ColumnPool) -> np.ndarray:
    """Project the master solution onto per-machine job-fraction vectors in [0, 1]."""
    inst = pool.inst
    y = np.zeros((inst.num_machines, inst.num_jobs))
    for col, weight in sol.lam.items():
        if weight > 0.0:
            y[col.machine][col.jobs] += weight
    if y.max(initial=0.0) > 1.0 + FEAS_TOL:
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
    stale = [col for cols in pool.columns for col in cols.values() if col.age < oldest]
    for col in stale:
        pool.drop(col)
    return len(stale)


def solve_compact_lp(inst: GapInstance, deadline: float | None = None) -> np.ndarray:
    """LP relaxation of the compact assignment model, partition form.

    Returns the optimal fractional assignment matrix ``x[i, j] >= 0``, whose
    entries for each job sum to one (so none exceeds one); it seeds the
    phase-one templates. Both solves get ``deadline`` and raise
    ``DeadlineError`` past it.
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
    lp.solve(deadline)
    if lp.objective() > FEAS_TOL:
        raise InfeasibleInstanceError(
            f"compact LP infeasible (artificial sum {lp.objective():.6g})")
    lp.retire_columns(arts, x_cols + slacks)
    lp.cost[x_cols] = inst.cost.ravel()
    lp.solve(deadline)
    return np.clip(lp.values()[x_cols].reshape(ni, nj), 0.0, 1.0)


def extract_integer_solution(sol: RmpSolution, pool: ColumnPool):
    """Recover an assignment when the master solution is integral.

    Over-covered jobs go to the cheapest selecting machine, the first in
    ``sol.lam`` order on a tie (:func:`instance.cheapest_assignment`).
    Returns ``(assignment, upper_bound)`` or ``None`` when any variable is
    meaningfully fractional or some job is uncovered.
    """
    chosen = []
    for col, value in sol.lam.items():
        if value > 0.5:
            if abs(value - 1.0) > 1e-6:
                return None
            chosen.append(col)
        elif value > 1e-6:
            return None
    return cheapest_assignment(pool.inst, [col.machine for col in chosen],
                               [col.jobs for col in chosen])
