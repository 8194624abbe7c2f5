import itertools
import math

import numpy as np
import pytest

from _oracles import compact_lp_optimum
from gapcg.instance import GapInstance, InfeasibleInstanceError
from gapcg.rmp import (AGE_POLICIES, Column, ColumnPool,
                       MasterInfeasibleError, MasterLp, age_threshold,
                       build_and_solve, extract_integer_solution,
                       manage_columns, project_primal, solve_compact_lp)


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
    sol = build_and_solve(pool, "phase2")
    assert sol.objective == pytest.approx(9.0)
    full = [c for c in pool.iter_columns() if c.jobs.all()][0]
    assert sol.lam[full.id] == pytest.approx(1.0)


def test_empty_pool_phase1_objective_is_num_jobs():
    inst = single_machine_instance()
    pool = ColumnPool(inst)  # only the seeded empty column
    sol = build_and_solve(pool, "phase1")
    assert sol.objective == pytest.approx(3.0)
    # phase-one duals price uncovered jobs at one
    assert sol.pi == pytest.approx(np.ones(3))


def test_phase2_on_uncoverable_pool_raises():
    inst = single_machine_instance()
    pool = ColumnPool(inst)
    with pytest.raises(MasterInfeasibleError):
        build_and_solve(pool, "phase2")


def test_master_of_another_instance_is_rejected(toy_2x3):
    twin = GapInstance(2, 3, toy_2x3.cost, toy_2x3.resource, toy_2x3.capacity)
    with pytest.raises(ValueError):
        build_and_solve(ColumnPool(toy_2x3), "phase1", MasterLp(twin))


def vertex_enumeration_oracle(inst, pool):
    """Enumerate bases of the cover master over the pool's columns.

    Returns (objective, set of optimal-basis dual vectors).
    """
    nj, ni = inst.num_jobs, inst.num_machines
    m = nj + ni
    cols = []   # (entries, cost)
    for col in pool.iter_columns():
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


@pytest.mark.parametrize("drop_empty", [False, True],
                         ids=["empty-anchors", "over-covered-start"])
def test_two_machine_toy_matches_vertex_oracle(toy_2x3, drop_empty):
    pool = make_pool(toy_2x3, [
        (0, [1, 1, 0]), (0, [0, 1, 1]), (1, [1, 0, 0]), (1, [0, 0, 1]),
    ])
    if drop_empty:
        # the anchors become [1, 1, 0] and [1, 0, 0]: job 0 starts covered twice
        for col in [c for c in pool.iter_columns() if not c.jobs.any()]:
            pool.drop(col)
    sol = build_and_solve(pool, "phase2")
    ref_obj, ref_duals = vertex_enumeration_oracle(toy_2x3, pool)
    assert sol.objective == pytest.approx(ref_obj, abs=1e-9)
    duals = np.concatenate([sol.pi, sol.mu])
    assert any(np.allclose(duals, y, atol=1e-7) for y in ref_duals)


def test_solution_invariants(toy_3x12):
    pool = covering_pool(toy_3x12, extras=10)
    sol = build_and_solve(pool, "phase2", MasterLp(toy_3x12))
    per_machine = {}
    for col in pool.iter_columns():
        per_machine.setdefault(col.machine, 0.0)
        per_machine[col.machine] += sol.lam[col.id]
    for total in per_machine.values():
        assert total == pytest.approx(1.0, abs=1e-7)
    assert all(v >= -1e-9 for v in sol.lam.values())
    assert (sol.pi >= -1e-9).all()
    # strong duality on the cover master
    assert sol.pi.sum() + sol.mu.sum() == pytest.approx(sol.objective, abs=1e-6)


# -------------------------------------------------------------- project_primal

def test_project_primal_integral(toy_2x3):
    pool = make_pool(toy_2x3, [(0, [1, 1, 0]), (1, [0, 0, 1])])
    sol = build_and_solve(pool, "phase2")
    templates = project_primal(sol, pool)
    ids = {c.key(): c for c in pool.iter_columns()}
    assert templates.y.shape == (2, 3)
    assert templates.y.min() >= 0.0 and templates.y.max() <= 1.0
    # integral solution: templates equal the chosen bit-vectors
    for col in pool.iter_columns():
        if sol.lam[col.id] > 0.5:
            assert np.allclose(templates.y[col.machine], col.jobs.astype(float))


def test_project_primal_convex_combination(toy_2x3):
    pool = make_pool(toy_2x3, [(0, [1, 1, 0]), (0, [0, 1, 1]),
                               (1, [1, 0, 0]), (1, [0, 0, 1])])
    sol = build_and_solve(pool, "phase2")
    # recompute by hand
    expect = np.zeros((2, 3))
    for col in pool.iter_columns():
        expect[col.machine] += sol.lam[col.id] * col.jobs
    templates = project_primal(sol, pool)
    assert np.allclose(templates.y, np.clip(expect, 0, 1), atol=1e-9)
    cover = templates.y.sum(axis=0)
    assert (cover >= 1 - 1e-6).all()


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
    fake = type("S", (), {"basic_ids": set()})()
    removed = manage_columns(pool, fake, tau=3)
    # retain ages {10, 9, 7}; the empty seeds carry age 0 and go too
    ages = sorted(c.age for c in pool.iter_columns())
    assert 6 not in ages
    assert {10, 9, 7}.issubset(set(ages))
    assert removed == 1 + 2  # the age-6 column plus both age-0 empty seeds


def test_manage_columns_large_tau_keeps_everything(toy_2x3):
    pool, _ = make_aged_pool(toy_2x3, [10, 9, 7, 6])
    fake = type("S", (), {"basic_ids": set()})()
    assert manage_columns(pool, fake, tau=10) == 0


def test_manage_columns_basic_are_refreshed(toy_2x3):
    pool, cols = make_aged_pool(toy_2x3, [1, 1, 1, 1])
    fake = type("S", (), {"basic_ids": {c.id for c in cols}})()
    assert manage_columns(pool, fake, tau=3) == 2  # only the two empty seeds go
    assert all(c.age == 10 for c in cols)


def test_manage_columns_rejects_bad_tau(toy_2x3):
    pool, _ = make_aged_pool(toy_2x3, [5])
    with pytest.raises(ValueError):
        manage_columns(pool, type("S", (), {"basic_ids": set()})(), tau=0)


# --------------------------------------------------------------- age_threshold

def test_age_threshold_paper_policies():
    inst20 = GapInstance(1, 20, np.ones((1, 20)), np.ones((1, 20)), np.array([20]))
    inst10 = GapInstance(1, 10, np.ones((1, 10)), np.ones((1, 10)), np.array([10]))
    inst80 = GapInstance(1, 80, np.ones((1, 80)), np.ones((1, 80)), np.array([80]))
    assert age_threshold(AGE_POLICIES["dantzig"], inst20) == 34
    assert age_threshold(AGE_POLICIES["pessoa"], inst10) == 4
    assert age_threshold(AGE_POLICIES["lt"], inst80) == 8


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


# ----------------------------------------------------- extract_integer_solution

def test_extract_integral_partition(toy_2x3):
    pool = make_pool(toy_2x3, [(0, [1, 1, 0]), (1, [0, 0, 1])])
    sol = build_and_solve(pool, "phase2")
    res = extract_integer_solution(sol, pool)
    assert res is not None
    assignment, ub = res
    assert ub == pytest.approx(sol.objective)
    assert list(assignment) == [0, 0, 1]


def test_extract_fractional_returns_none(toy_2x3):
    fake_cols = make_pool(toy_2x3, [(0, [1, 1, 0]), (0, [0, 1, 1])])
    ids = [c.id for c in fake_cols.iter_columns() if c.jobs.any()]
    lam = {c.id: 0.0 for c in fake_cols.iter_columns()}
    lam[ids[0]] = 0.5
    lam[ids[1]] = 0.5
    sol = type("S", (), {"lam": lam})()
    assert extract_integer_solution(sol, fake_cols) is None


def test_extract_overcover_repair():
    # both machines pick job 0; repair assigns it to the cheaper machine
    inst = GapInstance(2, 3, cost=np.array([[5, 1, 9], [2, 8, 1]]),
                       resource=np.ones((2, 3), dtype=int), capacity=np.array([3, 3]))
    pool = make_pool(inst, [(0, [1, 1, 0]), (1, [1, 0, 1])])
    cols = {tuple(c.jobs): c for c in pool.iter_columns()}
    lam = {c.id: 0.0 for c in pool.iter_columns()}
    lam[cols[(True, True, False)].id] = 1.0
    lam[cols[(True, False, True)].id] = 1.0
    sol = type("S", (), {"lam": lam})()
    assignment, ub = extract_integer_solution(sol, pool)
    assert assignment[0] == 1  # cost 2 beats cost 5
    # recomputation oracle: cost of the repaired assignment
    assert ub == 2 + 1 + 1
    # never above the raw (double-counting) column cost total
    assert ub <= (5 + 1) + (2 + 1)


# ------------------------------------------------------------ warm-start safety

def test_resolve_after_removal_is_pivot_free(toy_3x12):
    inst = toy_3x12
    pool = covering_pool(inst, seed=1, extras=25)
    master = MasterLp(inst)
    pool.iteration = 5
    sol = build_and_solve(pool, "phase2", master)
    removed = manage_columns(pool, sol, tau=1)
    assert removed > 0
    sol2 = build_and_solve(pool, "phase2", master)
    assert sol2.pivots == 0
    assert sol2.objective == pytest.approx(sol.objective, abs=1e-7)
