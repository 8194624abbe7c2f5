"""Restricted master problem: column pool, LP solves, and column management.

The master is kept in cover form: one >= 1 row per job plus one convexity
row per machine. Feasibility is bootstrapped without big-M costs via
artificial variables on the cover rows whose sum is minimized (phase one);
once that objective reaches zero the artificials are pivoted out, removed,
and the true column costs installed (phase two). The LP engine lives behind
this module's interface and exposes duals, basic status, warm starts and
pivot counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .instance import GapInstance, InfeasibleInstanceError, require_valid
from .pricing import TemplateSet
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
    id: int

    def key(self) -> bytes:
        return self.jobs.tobytes()


@dataclass(eq=False)
class RmpSolution:
    objective: float
    lam: dict[int, float]          # column id -> primal value
    pi: np.ndarray                 # cover duals, one per job
    mu: np.ndarray                 # convexity duals, one per machine
    pivots: int
    phase1_objective: float | None = None
    basic_ids: set[int] = field(default_factory=set)


class ColumnPool:
    """Per-machine column collections plus the iteration clock for ages."""

    def __init__(self, inst: GapInstance):
        self.inst = inst
        self.columns: list[list[Column]] = [[] for _ in range(inst.num_machines)]
        self.iteration = 0
        self._next_id = 0
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
                     age=self.iteration, id=self._next_id)
        self._next_id += 1
        self.columns[machine].append(col)
        self._keys[machine].add(key)
        return col

    def iter_columns(self):
        for cols in self.columns:
            yield from cols

    def by_id(self) -> dict[int, Column]:
        return {col.id: col for col in self.iter_columns()}

    def size(self) -> int:
        return sum(len(cols) for cols in self.columns)

    def drop(self, col: Column):
        self.columns[col.machine].remove(col)
        self._keys[col.machine].discard(col.key())


class _MasterLp:
    """LP backend state bound to one instance and one column pool lineage."""

    def __init__(self, inst: GapInstance):
        self.inst = inst
        nj, ni = inst.num_jobs, inst.num_machines
        self.lp = SimplexSolver(np.ones(nj + ni))
        self.phase = 1
        self.surplus = []
        self.art_minus = []  # +e_j, relaxes an uncovered row
        self.art_plus = []   # -e_j, absorbs forced over-cover
        for j in range(nj):
            e = np.zeros(nj + ni)
            e[j] = -1.0
            self.surplus.append(self.lp.add_column(e, 0.0))
        for j in range(nj):
            e = np.zeros(nj + ni)
            e[j] = 1.0
            self.art_minus.append(self.lp.add_column(e, 1.0))
        for j in range(nj):
            e = np.zeros(nj + ni)
            e[j] = -1.0
            self.art_plus.append(self.lp.add_column(e, 1.0))
        self.lp_col: dict[int, int] = {}
        self.col_id_of_lp: dict[int, int] = {}

    def _entries(self, col: Column) -> np.ndarray:
        nj, ni = self.inst.num_jobs, self.inst.num_machines
        e = np.zeros(nj + ni)
        e[: nj][col.jobs] = 1.0
        e[nj + col.machine] = 1.0
        return e

    def sync(self, pool: ColumnPool):
        live = set()
        for col in pool.iter_columns():
            live.add(col.id)
            if col.id not in self.lp_col:
                cost = 0.0 if self.phase == 1 else float(col.cost)
                j = self.lp.add_column(self._entries(col), cost)
                self.lp_col[col.id] = j
                self.col_id_of_lp[j] = col.id
        for cid in [c for c in self.lp_col if c not in live]:
            j = self.lp_col.pop(cid)
            del self.col_id_of_lp[j]
            self.lp.seal_column(j)

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
            anchors.append(self.lp_col[empty.id])
            coverage += empty.jobs
        basis = []
        for j in range(nj):
            basis.append(self.art_plus[j] if coverage[j] > 1 else self.art_minus[j])
        basis.extend(anchors)
        self.lp.set_basis(basis)

    def to_phase2(self, pool: ColumnPool) -> int:
        """Drop the artificials, install true costs, keep the basis warm."""
        pivots = self.lp.retire_columns(self.art_minus + self.art_plus,
                                        list(self.lp_col.values()) + self.surplus)
        for col in pool.iter_columns():
            self.lp.set_cost(self.lp_col[col.id], float(col.cost))
        self.phase = 2
        return pivots

    def extract(self, pool: ColumnPool, pivots: int, phase1: bool) -> RmpSolution:
        nj = self.inst.num_jobs
        y = self.lp.duals()
        lam = {cid: self.lp.value(j) for cid, j in self.lp_col.items()}
        basic = {cid for cid, j in self.lp_col.items() if self.lp.is_basic(j)}
        return RmpSolution(objective=self.lp.objective(), lam=lam,
                           pi=y[:nj].copy(), mu=y[nj:].copy(), pivots=pivots,
                           phase1_objective=self.lp.objective() if phase1 else None,
                           basic_ids=basic)


class RmpWarmHandle:
    """Opaque warm-start handle passed between successive master solves."""

    def __init__(self):
        self.master: _MasterLp | None = None


def build_and_solve(pool: ColumnPool, inst: GapInstance, mode: str,
                    warm: RmpWarmHandle | None = None) -> RmpSolution:
    """Solve the master over the pool's columns and return duals and pivots.

    ``mode`` is ``"phase1"`` (minimize the artificial-variable sum, column
    costs ignored) or ``"phase2"`` (true costs; runs the phase transition
    first if needed). Passing the same ``warm`` handle across calls reuses
    the previous basis.
    """
    if mode not in ("phase1", "phase2"):
        raise ValueError(f"unknown mode {mode!r}")
    handle = warm if warm is not None else RmpWarmHandle()
    if handle.master is None:
        handle.master = _MasterLp(inst)
    master = handle.master
    if master.inst is not inst and (master.inst.num_jobs != inst.num_jobs
                                    or master.inst.num_machines != inst.num_machines):
        raise ValueError("warm handle belongs to a different instance")
    master.sync(pool)
    master.ensure_basis(pool)
    if mode == "phase1":
        if master.phase != 1:
            raise RuntimeError("master already moved past phase one")
        pivots = master.lp.solve()
        return master.extract(pool, pivots, phase1=True)
    pivots = 0
    if master.phase == 1:
        pivots += master.lp.solve()
        if master.lp.objective() > PHASE1_TOL:
            raise MasterInfeasibleError(
                f"phase-one objective {master.lp.objective():.6g} > 0: no feasible cover")
        pivots += master.to_phase2(pool)
    pivots += master.lp.solve()
    return master.extract(pool, pivots, phase1=False)


def project_primal(sol: RmpSolution, pool: ColumnPool,
                   delta: float = 1e-6) -> TemplateSet:
    """Project the master solution onto per-machine job-fraction vectors."""
    inst = pool.inst
    y = np.zeros((inst.num_machines, inst.num_jobs))
    for col in pool.iter_columns():
        weight = sol.lam.get(col.id, 0.0)
        if weight > 0.0:
            y[col.machine][col.jobs] += weight
    if y.max(initial=0.0) > 1.0 + 1e-7:
        raise AssertionError(f"projected entry {y.max():.9f} above 1")
    return TemplateSet(y=y, delta=delta)


def manage_columns(pool: ColumnPool, sol: RmpSolution, tau: int) -> int:
    """Refresh basis-membership ages, then drop columns older than ``tau``.

    Basic columns get age ``pool.iteration`` first, so they are never
    removed; returns the number of removals.
    """
    if tau < 1:
        raise ValueError("tau must be at least 1")
    t = pool.iteration
    by_id = pool.by_id()
    for cid in sol.basic_ids:
        if cid in by_id:
            by_id[cid].age = t
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
    """LP relaxation of the compact assignment model, cover form.

    Returns the optimal fractional assignment matrix ``x[i, j] in [0, 1]``;
    used to seed the initial phase-one template.
    """
    require_valid(inst)
    nj, ni = inst.num_jobs, inst.num_machines
    b = np.concatenate([np.ones(nj), inst.capacity.astype(np.float64)])
    lp = SimplexSolver(b)
    x_cols = np.empty((ni, nj), dtype=np.int64)
    for i in range(ni):
        for j in range(nj):
            e = np.zeros(nj + ni)
            e[j] = 1.0
            e[nj + i] = float(inst.resource[i, j])
            x_cols[i, j] = lp.add_column(e, 0.0, ub=1.0)
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
    by_id = pool.by_id()
    chosen = []
    for cid, value in sol.lam.items():
        if value > 0.5:
            if abs(value - 1.0) > 1e-6:
                return None
            chosen.append(by_id[cid])
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
