import itertools
import math
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (PerColumnMasterLp, ReconcilingMasterLp, compact_lp_optimum, lp_columns,
                      per_column_compact_lp, pool_columns, pool_walk_project_primal,
                      reconciling_build_and_solve)
from gapcg import rmp
from gapcg.driver import CgConfig, run
from gapcg.instance import GapInstance, GeneratorSpec, InfeasibleInstanceError, generate
from gapcg.rmp import (Column, ColumnPool, age_threshold, build_and_solve, extract_integer_solution,
                       manage_columns, project_primal, solve_compact_lp)
from gapcg.simplex import SimplexError, SimplexSolver
from test_properties import small_instances


def make_pool(inst, columns):
    """Pool with the seeded empty columns plus the given (machine, jobs) pairs."""
    pool = ColumnPool(inst)
    for machine, jobs in columns:
        pool.add(machine, np.asarray(jobs, dtype=bool))
    return pool


def covering_pool(inst, seed=0, extras=0):
    """Pool holding a first-fit partition of the jobs plus random extras."""
    pool = ColumnPool(inst)
    remaining = inst.capacity.astype(float).copy()
    members = [np.zeros(inst.num_jobs, dtype=bool) for _ in range(inst.num_machines)]
    for j in np.argsort(-inst.resource.max(axis=0)):
        order = np.argsort(-(remaining - inst.resource[:, j]))
        placed = False
        for i in order:
            if inst.resource[i, j] <= remaining[i]:
                members[i][j] = True
                remaining[i] -= inst.resource[i, j]
                placed = True
                break
        assert placed, "first-fit failed; pick another fixture seed"
    for i, jobs in enumerate(members):
        pool.add(i, jobs)
    rng = np.random.default_rng(seed)
    while extras > 0:
        i = int(rng.integers(inst.num_machines))
        jobs = rng.random(inst.num_jobs) < 0.3
        while inst.resource[i][jobs].sum() > inst.capacity[i]:
            live = np.flatnonzero(jobs)
            jobs[live[int(rng.integers(len(live)))]] = False
        if pool.add(i, jobs) is not None:
            extras -= 1
    return pool


def single_machine_instance():
    return GapInstance(1, 3, cost=np.array([[2, 3, 4]]),
                       resource=np.array([[1, 1, 1]]), capacity=np.array([3]))


# ------------------------------------------------------------- build_and_solve

def test_single_machine_forced_basis():
    inst = single_machine_instance()
    pool = make_pool(inst, [(0, [1, 1, 1])])
    sol = build_and_solve(pool)
    assert pool.phase == 2  # the covering solve handed off in the same call
    assert sol.objective == pytest.approx(9.0)
    full = [c for c in pool_columns(pool) if c.jobs.all()][0]
    assert sol.lam.get(full, 0.0) == pytest.approx(1.0)


def test_empty_pool_phase1_objective_is_num_jobs():
    inst = single_machine_instance()
    pool = ColumnPool(inst)  # only the seeded empty column
    sol = build_and_solve(pool)
    assert sol.objective == pytest.approx(3.0)
    # phase-one duals price uncovered jobs at one
    assert sol.pi == pytest.approx(np.ones(3))


def test_uncoverable_pool_stays_in_phase1():
    inst = single_machine_instance()
    pool = ColumnPool(inst)
    sol = build_and_solve(pool)
    assert pool.phase == 1
    assert sol.objective == pytest.approx(3.0)


def vertex_enumeration_oracle(inst, pool):
    """Enumerate bases of the cover master over the pool's columns.

    Returns (objective, set of optimal-basis dual vectors).
    """
    nj, ni = inst.num_jobs, inst.num_machines
    m = nj + ni
    cols = []   # (entries, cost)
    for col in pool_columns(pool):
        e = np.zeros(m)
        e[:nj][col.jobs] = 1.0
        e[nj + col.machine] = 1.0
        cols.append((e, float(col.cost)))
    for j in range(nj):  # surplus columns for the cover rows
        e = np.zeros(m)
        e[j] = -1.0
        cols.append((e, 0.0))
    b = np.ones(m)
    best, best_duals = math.inf, []
    for basis in itertools.combinations(range(len(cols)), m):
        B = np.array([cols[j][0] for j in basis]).T
        if abs(np.linalg.det(B)) < 1e-9:
            continue
        x = np.linalg.solve(B, b)
        if (x < -1e-9).any():
            continue
        val = float(np.dot([cols[j][1] for j in basis], x))
        y = np.array([cols[j][1] for j in basis]) @ np.linalg.inv(B)
        rc = np.array([cols[j][1] - y @ cols[j][0] for j in range(len(cols))])
        if (rc < -1e-9).any():
            continue  # not an optimal basis
        if val < best - 1e-9:
            best, best_duals = val, [y]
        elif abs(val - best) <= 1e-9:
            best_duals.append(y)
    assert best < math.inf
    return best, best_duals


def test_two_machine_toy_matches_vertex_oracle(toy_2x3):
    pool = make_pool(toy_2x3, [
        (0, [1, 1, 0]), (0, [0, 1, 1]), (1, [1, 0, 0]), (1, [0, 0, 1]),
    ])
    sol = build_and_solve(pool)
    ref_obj, ref_duals = vertex_enumeration_oracle(toy_2x3, pool)
    assert sol.objective == pytest.approx(ref_obj, abs=1e-9)
    duals = np.concatenate([sol.pi, sol.mu])
    assert any(np.allclose(duals, y, atol=1e-7) for y in ref_duals)


@pytest.mark.parametrize("machine, jobs", [
    (0, [1, 0]), (0, [1, 0, 0, 0]), (0, [[1, 0, 0]]), (0, [[1, 0, 0], [0, 1, 0]]), (0, 1),
    (-1, [1, 0, 0]), (2, [1, 0, 0]),
], ids=["short", "long", "row", "matrix", "scalar", "machine-negative", "machine-past-the-end"])
def test_add_rejects_a_column_outside_the_instance(toy_2x3, machine, jobs):
    pool = ColumnPool(toy_2x3)
    with pytest.raises(ValueError, match="not in the instance"):
        pool.add(machine, np.asarray(jobs, dtype=bool))
    assert pool.size() == toy_2x3.num_machines


def test_a_second_drop_leaves_an_equal_column_added_since_in_place(toy_3x12):
    pool = ColumnPool(toy_3x12)
    jobs = np.arange(toy_3x12.num_jobs) == 0
    col = pool.add(0, jobs)
    pool.drop(col)
    again = pool.add(0, jobs)
    with pytest.raises(KeyError):
        pool.drop(col)
    assert pool.columns[0][jobs.tobytes()] is again
    build_and_solve(pool)
    assert again in lp_columns(pool)


def test_first_solve_needs_every_seeded_empty_column(toy_2x3):
    pool = make_pool(toy_2x3, [(0, [1, 1, 0]), (1, [1, 0, 0])])
    pool.drop(pool.columns[1][bytes(3)])  # the seeded empty column's key
    with pytest.raises(ValueError, match="seeded empty column"):
        build_and_solve(pool)


def test_solution_invariants(toy_3x12):
    pool = covering_pool(toy_3x12, extras=10)
    sol = build_and_solve(pool)
    per_machine = {}
    for col in pool_columns(pool):
        per_machine.setdefault(col.machine, 0.0)
        per_machine[col.machine] += sol.lam.get(col, 0.0)
    for total in per_machine.values():
        assert total == pytest.approx(1.0, abs=1e-7)
    assert all(v >= -1e-9 for v in sol.lam.values())
    assert (sol.pi >= -1e-9).all()
    # strong duality on the cover master
    assert sol.pi.sum() + sol.mu.sum() == pytest.approx(sol.objective, abs=1e-6)


# -------------------------------------------------------------- project_primal

def test_project_primal_integral(toy_2x3):
    pool = make_pool(toy_2x3, [(0, [1, 1, 0]), (1, [0, 0, 1])])
    sol = build_and_solve(pool)
    templates = project_primal(sol, pool)
    assert templates.shape == (2, 3)
    assert templates.min() >= 0.0 and templates.max() <= 1.0
    # integral solution: templates equal the chosen bit-vectors
    for col in pool_columns(pool):
        if sol.lam.get(col, 0.0) > 0.5:
            assert np.allclose(templates[col.machine], col.jobs.astype(float))


def test_project_primal_convex_combination(toy_2x3):
    pool = make_pool(toy_2x3, [(0, [1, 1, 0]), (0, [0, 1, 1]),
                               (1, [1, 0, 0]), (1, [0, 0, 1])])
    sol = build_and_solve(pool)
    # recompute by hand
    expect = np.zeros((2, 3))
    for col in pool_columns(pool):
        expect[col.machine] += sol.lam.get(col, 0.0) * col.jobs
    templates = project_primal(sol, pool)
    assert np.allclose(templates, np.clip(expect, 0, 1), atol=1e-9)
    cover = templates.sum(axis=0)
    assert (cover >= 1 - 1e-6).all()


@pytest.mark.parametrize("method", ["lt", "mt"])
def test_project_primal_matches_pool_walk(method, monkeypatch):
    # the basic columns of one machine come in pool order, so each row sums
    # its weights in the order the walk over the whole pool did
    inst = generate(GeneratorSpec(num_machines=6, num_jobs=60, seed=7))
    compared = []
    project = rmp.project_primal

    def checked(sol, pool):
        templates = project(sol, pool)
        assert templates.tobytes() == pool_walk_project_primal(sol, pool).tobytes()
        compared.append(templates)
        return templates

    monkeypatch.setattr(rmp, "project_primal", checked)
    run(inst, CgConfig(pricing_method=method))
    assert compared


# -------------------------------------------------------------- manage_columns

PATTERNS = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0]]


def make_aged_pool(inst, ages):
    pool = ColumnPool(inst)
    pool.iteration = 10
    cols = []
    for pattern, age in zip(PATTERNS, ages):
        col = pool.add(0, np.asarray(pattern, dtype=bool))
        col.age = age
        cols.append(col)
    return pool, cols


def test_manage_columns_interval(toy_2x3):
    pool, cols = make_aged_pool(toy_2x3, [10, 9, 7, 6])
    fake = type("S", (), {"lam": {}})()
    removed = manage_columns(pool, fake, tau=3)
    # retain ages {10, 9, 7}; the empty seeds carry age 0 and go too
    ages = sorted(c.age for c in pool_columns(pool))
    assert 6 not in ages
    assert {10, 9, 7}.issubset(set(ages))
    assert removed == 1 + 2  # the age-6 column plus both age-0 empty seeds


def test_manage_columns_large_tau_keeps_everything(toy_2x3):
    pool, _ = make_aged_pool(toy_2x3, [10, 9, 7, 6])
    fake = type("S", (), {"lam": {}})()
    assert manage_columns(pool, fake, tau=10) == 0


def test_manage_columns_basic_are_refreshed(toy_2x3):
    pool, cols = make_aged_pool(toy_2x3, [1, 1, 1, 1])
    fake = type("S", (), {"lam": {c: 0.0 for c in cols}})()
    assert manage_columns(pool, fake, tau=3) == 2  # only the two empty seeds go
    assert all(c.age == 10 for c in cols)


def test_manage_columns_rejects_bad_tau(toy_2x3):
    pool, _ = make_aged_pool(toy_2x3, [5])
    with pytest.raises(ValueError):
        manage_columns(pool, type("S", (), {"lam": {}})(), tau=0)


# --------------------------------------------------------------- age_threshold

def test_age_threshold_paper_policies():
    inst20 = GapInstance(1, 20, np.ones((1, 20)), np.ones((1, 20)), np.array([20]))
    inst10 = GapInstance(1, 10, np.ones((1, 10)), np.ones((1, 10)), np.array([10]))
    inst80 = GapInstance(1, 80, np.ones((1, 80)), np.ones((1, 80)), np.array([80]))
    assert age_threshold("dantzig", inst20) == 34
    assert age_threshold("pessoa", inst10) == 4
    assert age_threshold("lt", inst80) == 8


# -------------------------------------------------------------- solve_compact_lp

def test_compact_lp_single_machine_all_fit():
    inst = GapInstance(1, 4, cost=np.array([[1, 2, 3, 4]]),
                       resource=np.array([[1, 1, 1, 1]]), capacity=np.array([10]))
    x = solve_compact_lp(inst)
    assert np.allclose(x, 1.0)


def test_compact_lp_matches_reference(toy_2x3, toy_3x12):
    for inst in (toy_2x3, toy_3x12):
        x = solve_compact_lp(inst)
        value = float((inst.cost * x).sum())
        assert value == pytest.approx(compact_lp_optimum(inst), abs=1e-6)
        assert (x.sum(axis=0) >= 1 - 1e-7).all()
        assert ((inst.resource * x).sum(axis=1) <= inst.capacity + 1e-7).all()


def test_compact_lp_unassignable_job_raises():
    inst = GapInstance(2, 2, cost=np.ones((2, 2)), resource=np.full((2, 2), 9),
                       capacity=np.array([5, 5]))
    with pytest.raises(InfeasibleInstanceError):
        solve_compact_lp(inst)


def test_compact_lp_holds_its_column_block_once():
    # G(12,120,7): a 132 x 1572 float64 block, 1.66 MB; the solver stores it
    # as its own columns, so the peak stays below the block plus a copy
    inst = generate(GeneratorSpec(num_machines=12, num_jobs=120, seed=7))
    rows = inst.num_jobs + inst.num_machines
    block_bytes = 8 * rows * (inst.num_machines * inst.num_jobs + rows)
    tracemalloc.start()
    try:
        solve_compact_lp(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert block_bytes <= peak < 2 * block_bytes


# ----------------------------------------------------- extract_integer_solution

def test_extract_integral_partition(toy_2x3):
    pool = make_pool(toy_2x3, [(0, [1, 1, 0]), (1, [0, 0, 1])])
    sol = build_and_solve(pool)
    res = extract_integer_solution(sol, pool)
    assert res is not None
    assignment, ub = res
    assert ub == pytest.approx(sol.objective)
    assert list(assignment) == [0, 0, 1]


def test_extract_fractional_returns_none(toy_2x3):
    fake_cols = make_pool(toy_2x3, [(0, [1, 1, 0]), (0, [0, 1, 1])])
    cols = [c for c in pool_columns(fake_cols) if c.jobs.any()]
    lam = {c: 0.0 for c in pool_columns(fake_cols)}
    lam[cols[0]] = 0.5
    lam[cols[1]] = 0.5
    sol = type("S", (), {"lam": lam})()
    assert extract_integer_solution(sol, fake_cols) is None


def test_extract_overcover_repair():
    # both machines pick job 0; repair assigns it to the cheaper machine
    inst = GapInstance(2, 3, cost=np.array([[5, 1, 9], [2, 8, 1]]),
                       resource=np.ones((2, 3), dtype=int), capacity=np.array([3, 3]))
    pool = make_pool(inst, [(0, [1, 1, 0]), (1, [1, 0, 1])])
    cols = {tuple(c.jobs): c for c in pool_columns(pool)}
    lam = {c: 0.0 for c in pool_columns(pool)}
    lam[cols[(True, True, False)]] = 1.0
    lam[cols[(True, False, True)]] = 1.0
    sol = type("S", (), {"lam": lam})()
    assignment, ub = extract_integer_solution(sol, pool)
    assert assignment[0] == 1  # cost 2 beats cost 5
    # recomputation oracle: cost of the repaired assignment
    assert ub == 2 + 1 + 1
    # never above the raw (double-counting) column cost total
    assert ub <= (5 + 1) + (2 + 1)


def test_extract_overcover_tie_goes_to_the_first_column_in_lam_order():
    # job 0 costs 4 on both machines: the column listed first in lam keeps it
    inst = GapInstance(2, 3, cost=np.array([[4, 1, 9], [4, 8, 1]]),
                       resource=np.ones((2, 3), dtype=int), capacity=np.array([3, 3]))
    pool = make_pool(inst, [(0, [1, 1, 0]), (1, [1, 0, 1])])
    cols = {tuple(c.jobs): c for c in pool_columns(pool)}
    on_0, on_1 = cols[(True, True, False)], cols[(True, False, True)]
    for first, second in [(on_0, on_1), (on_1, on_0)]:
        sol = type("S", (), {"lam": {first: 1.0, second: 1.0}})()
        assignment, ub = extract_integer_solution(sol, pool)
        assert assignment.tolist() == [first.machine, 0, 1]
        assert ub == 4 + 1 + 1


# ------------------------------------------------------------------ LP builders

@pytest.fixture
def first_solve(monkeypatch):
    """Bytes of the columns, costs and basis that each simplex solve starts from."""
    seen = []
    solve = SimplexSolver.solve

    def recording(self, *args):
        seen.append(lp_bytes(self))
        return solve(self, *args)

    monkeypatch.setattr(SimplexSolver, "solve", recording)
    return seen


def lp_bytes(lp):
    # tobytes tells -0.0 from 0.0 and sees any change of column order
    return lp._A[:, : lp.n].tobytes(), lp.cost[: lp.n].tobytes(), lp.basis.tobytes()


@pytest.mark.parametrize("pool_of", [
    lambda inst: ColumnPool(inst),
    lambda inst: make_pool(inst, [(i % 3, np.arange(12) % 6 == i) for i in range(5)]),
], ids=["seeded", "extra-columns"])
def test_master_lp_matches_per_column_build(toy_3x12, pool_of, first_solve):
    pool = pool_of(toy_3x12)
    build_and_solve(pool)
    reference = PerColumnMasterLp(toy_3x12)
    reference.sync(pool)
    reference.ensure_basis(pool)
    assert first_solve[0] == lp_bytes(reference.lp)


@pytest.mark.parametrize("inst", [
    generate(GeneratorSpec(num_machines=3, num_jobs=12, seed=7)),
    generate(GeneratorSpec(num_machines=12, num_jobs=120, seed=7)),
    GapInstance(2, 4, cost=np.array([[-3, 5, 0, -1], [2, -4, 6, 1]]),
                resource=np.array([[0, 2, 0, 3], [1, 0, 0, 2]]), capacity=np.array([3, 2])),
], ids=["G(3,12,7)", "G(12,120,7)", "zero-resource-negative-cost"])
def test_compact_lp_matches_per_column_build(inst, first_solve):
    solve_compact_lp(inst)
    assert first_solve[0] == lp_bytes(per_column_compact_lp(inst))


# ------------------------------------------------------------ warm-start safety

def test_resolve_after_removal_is_pivot_free(toy_3x12):
    inst = toy_3x12
    pool = covering_pool(inst, seed=1, extras=25)
    pool.iteration = 5
    sol = build_and_solve(pool)
    removed = manage_columns(pool, sol, tau=1)
    assert removed > 0
    sol2 = build_and_solve(pool)
    assert sol2.pivots == 0
    assert sol2.objective == pytest.approx(sol.objective, abs=1e-7)


def test_drop_seals_at_once_and_the_next_sync_compacts(toy_3x12):
    pool = covering_pool(toy_3x12, seed=1, extras=25)
    pool.iteration = 5
    build_and_solve(pool)
    sol = build_and_solve(pool)  # its sync compacts the retired artificials away
    assert pool.phase == 2 and pool.artificial == []
    in_lp, n = lp_columns(pool), pool.lp.n
    removed = manage_columns(pool, sol, tau=1)
    dropped = [col for col in in_lp if col not in lp_columns(pool)]
    assert removed == len(dropped) > 0
    assert all(pool.lp.sealed[in_lp[col]] for col in dropped)
    assert pool.lp.n == n
    pool.sync()
    assert pool.lp.n == n - removed
    # a column added and dropped between two syncs never enters the LP
    col = pool.add(0, np.arange(toy_3x12.num_jobs) == 0)
    assert col is not None
    pool.drop(col)
    pool.sync()
    assert pool.lp.n == n - removed
    assert col not in lp_columns(pool) and col.lp is None


def test_phase_one_compaction_keeps_every_artificial_in_its_slot(toy_3x12, monkeypatch):
    inst = toy_3x12
    nj, ni = inst.num_jobs, inst.num_machines
    pool = ColumnPool(inst)
    slots = list(pool.artificial)
    entries = np.vstack([np.eye(nj), np.zeros((ni, nj))])

    def artificials_in_place():
        return (pool.artificial == slots and (pool.lp._A[:, slots] == entries).all()
                and (pool.lp.cost[slots] == 1.0).all() and not pool.lp.sealed[slots].any())

    # no column covers the last job, so the master stays in phase one
    rng = np.random.default_rng(4)
    for _ in range(30):
        i = int(rng.integers(ni))
        jobs = np.zeros(nj, dtype=bool)
        jobs[rng.choice(nj - 1, size=2, replace=False)] = True
        if inst.resource[i][jobs].sum() <= inst.capacity[i]:
            pool.add(i, jobs)
    sol = build_and_solve(pool)
    assert pool.phase == 1 and artificials_in_place()
    pool.iteration = 5
    assert manage_columns(pool, sol, tau=1) > 0
    n = pool.lp.n
    build_and_solve(pool)  # its sync compacts the dropped columns away
    assert pool.phase == 1 and pool.lp.n < n and artificials_in_place()

    retired = []
    retire_columns = SimplexSolver.retire_columns

    def recording(lp, cols, candidates):
        retired.append(list(cols))
        return retire_columns(lp, cols, candidates)

    monkeypatch.setattr(SimplexSolver, "retire_columns", recording)
    for cols in covering_pool(inst).columns:  # a first-fit partition of the jobs
        for col in cols.values():
            pool.add(col.machine, col.jobs)
    build_and_solve(pool)
    assert pool.phase == 2 and retired == [slots]
    assert pool.lp.sealed[slots].all() and pool.artificial == []


def test_drop_that_cannot_seal_leaves_the_pool_unchanged(toy_3x12):
    pool = covering_pool(toy_3x12, seed=1, extras=25)
    sol = build_and_solve(pool)
    col = next(col for col, value in sol.lam.items() if value > 1e-6)
    with pytest.raises(SimplexError):
        pool.drop(col)
    assert col in pool.columns[col.machine].values() and col in lp_columns(pool)
    assert pool.add(col.machine, col.jobs) is None
    size = pool.size()
    with pytest.raises(ValueError, match="capacity"):
        pool.add(0, np.ones(toy_3x12.num_jobs, dtype=bool))
    assert pool.size() == size


def test_a_dropped_basic_column_leaves_the_solution_and_the_pool(toy_3x12):
    pool = covering_pool(toy_3x12, seed=1, extras=25)
    sol = build_and_solve(pool)
    col = next(col for col, value in sol.lam.items() if value == 0.0)
    j = col.lp
    pool.drop(col)
    assert pool.lp.basic[j] and pool.lp.sealed[j]
    assert col not in pool.extract(0).lam
    pool.sync()  # a sealed column stays in the LP while it is basic
    assert col not in lp_columns(pool) and len(lp_columns(pool)) == pool.size()
    sol = build_and_solve(pool)
    assert col not in sol.lam and col not in lp_columns(pool)
    assert list(sol.lam) == [c for c, k in lp_columns(pool).items() if pool.lp.basic[k]]


# ------------------------------------------------ the frozen reconciling master

def float_bytes(value):
    return np.float64(value).tobytes()


@contextmanager
def reconciled_solves():
    """Solve the frozen :class:`ReconcilingMasterLp` beside every master solve.

    Each ``rmp.build_and_solve`` call of the runs inside is followed by a
    solve of the frozen master over the same pool; both must leave the same
    LP bytes and sealed columns and return the same objective, duals, pivots
    and basic values, keys in the same order, bit for bit. Yields a list
    that receives one entry per compared solve.
    """
    compared = []
    frozen = {}  # pool -> the reconciling master that follows it
    build_and_solve = rmp.build_and_solve

    def checked(pool, *args):
        sol = build_and_solve(pool, *args)
        if pool not in frozen:
            frozen[pool] = ReconcilingMasterLp(pool.inst)
        master = frozen[pool]
        ref = reconciling_build_and_solve(pool, master)
        lp = pool.lp
        assert lp_bytes(lp) == lp_bytes(master.lp)
        assert lp.sealed[: lp.n].tobytes() == master.lp.sealed[: master.lp.n].tobytes()
        assert float_bytes(sol.objective) == float_bytes(ref.objective)
        assert sol.pi.tobytes() == ref.pi.tobytes()
        assert sol.mu.tobytes() == ref.mu.tobytes()
        assert sol.pivots == ref.pivots
        assert list(sol.lam) == list(ref.lam)
        assert (np.array(list(sol.lam.values())).tobytes()
                == np.array(list(ref.lam.values())).tobytes())
        compared.append(sol)
        return sol

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rmp, "build_and_solve", checked)
        yield compared


@pytest.mark.parametrize("method", ["dantzig", "pessoa", "lt", "mt"])
def test_master_matches_reconciling_master(method):
    inst = generate(GeneratorSpec(num_machines=6, num_jobs=60, seed=7))
    with reconciled_solves() as compared:
        rep = run(inst, CgConfig(pricing_method=method))
    assert len(compared) == len(rep.rows)
    assert sum(r.columns_removed for r in rep.rows) > 0


@pytest.mark.parametrize("method", ["dantzig", "pessoa", "lt", "mt"])
@settings(max_examples=40)
@given(inst=small_instances(), tau=st.integers(1, 3))
def test_master_matches_reconciling_master_property(method, inst, tau):
    # short retention windows, so that columns leave the pool often
    cfg = CgConfig(pricing_method=method, time_limit=60, age_threshold=tau)
    with reconciled_solves():
        try:
            run(inst, cfg)
        except InfeasibleInstanceError:
            pass


def add_new_column(pool, machine):
    """Add to ``machine`` the first one-job column that fits and is not in the pool."""
    inst = pool.inst
    for j in range(inst.num_jobs):
        if inst.resource[machine, j] <= inst.capacity[machine]:
            col = pool.add(machine, np.arange(inst.num_jobs) == j)
            if col is not None:
                return col
    raise AssertionError(f"machine {machine} has no new one-job column")


def test_columns_added_out_of_machine_order_match_reconciling_master(toy_3x12):
    # the sync takes the new columns machine by machine, each machine's in
    # the order they were added, whatever order the machines came in
    pool = covering_pool(toy_3x12, seed=1, extras=25)
    with reconciled_solves() as compared:
        rmp.build_and_solve(pool)
        assert pool.phase == 2
        added = [add_new_column(pool, machine) for machine in (2, 0, 1, 0)]
        rmp.build_and_solve(pool)
    assert len(compared) == 2
    assert sorted(added, key=lambda col: col.lp) == [added[1], added[3], added[2], added[0]]
