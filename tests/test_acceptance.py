"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The heavyweight column-generation runs are shared through
module-scoped fixtures; every run they produce is registered so the
trace-wide validity and soundness criteria really cover all of them.
"""

import math
import statistics
import time

import numpy as np
import pytest

from _oracles import brute_force_lex, master_lp_optimum, similarity_class, subsets
from conftest import FrozenPessoaState, removal_audit
from gapcg.cli import rolling_geomean, select_tau
from gapcg.driver import CgConfig, run, run_lr
from gapcg.instance import GeneratorSpec, generate
from gapcg.knapsack import KnapsackProblem, LexKnapsackProblem, lex_knapsack, min_knapsack
from gapcg.pricing import DEFAULT_DELTA, lt_price, mt_price, reduced_cost_sum, similarity_vector
from gapcg import driver as driver_module
from gapcg.rmp import ColumnPool, age_threshold

EPS = 1e-6

# feasibility-screened generator seeds (instances verified to converge)
TOY_SHAPES = [(2, 6, 0), (2, 8, 1), (3, 9, 2), (3, 12, 3), (2, 10, 4), (3, 10, 5),
              (2, 6, 6), (2, 8, 7), (3, 9, 8), (3, 12, 9), (2, 10, 10), (3, 10, 11),
              (2, 6, 12), (2, 8, 13), (3, 9, 14), (3, 12, 15), (2, 10, 16),
              (3, 10, 17), (2, 8, 19), (3, 9, 20)]
BIG_SHAPES = [(3, 30, 100), (4, 40, 101), (5, 50, 102), (3, 36, 103), (4, 48, 104),
              (5, 60, 105), (3, 42, 106), (4, 44, 107), (5, 55, 108), (3, 33, 109),
              (3, 30, 110), (4, 40, 111), (5, 50, 112), (3, 36, 113), (4, 48, 114),
              (5, 60, 115), (3, 42, 116), (4, 44, 117), (5, 55, 118), (3, 33, 119),
              (3, 30, 120), (4, 40, 121), (5, 50, 122), (3, 36, 123), (4, 48, 124),
              (5, 60, 125), (3, 42, 126), (4, 44, 127), (5, 55, 128), (3, 33, 129)]


def toy_instance(m, n, seed):
    return generate(GeneratorSpec(num_machines=m, num_jobs=n, cost_range=(1, 20),
                                  resource_range=(1, 10), capacity_slack=0.9, seed=seed))


def big_instance(m, n, seed):
    return generate(GeneratorSpec(num_machines=m, num_jobs=n, cost_range=(10, 50),
                                  resource_range=(5, 25), capacity_slack=0.8, seed=seed))


ALL_REPORTS = []
REMOVAL_AUDITS = []  # (pivots, objective change) of every post-removal re-solve


def tracked_run(inst, cfg):
    report = run(inst, cfg)
    ALL_REPORTS.append(report)
    return report


@pytest.fixture(scope="module")
def toy_results():
    """Every CG method plus LR on the 20 enumerable toys."""
    t0 = time.perf_counter()
    results = {}
    for m, n, seed in TOY_SHAPES:
        inst = toy_instance(m, n, seed)
        oracle = master_lp_optimum(inst)
        per_method = {}
        for method in ("dantzig", "pessoa", "lt", "mt"):
            with removal_audit() as audits:
                per_method[method] = tracked_run(inst, CgConfig(
                    pricing_method=method, time_limit=60))
            REMOVAL_AUDITS.extend(audits)
        lr_report = run_lr(inst, CgConfig(time_limit=60))
        ALL_REPORTS.append(lr_report)
        per_method["lr"] = lr_report
        results[(m, n, seed)] = (oracle, per_method)
    return time.perf_counter() - t0, results


@pytest.fixture(scope="module")
def big_results():
    """Dantzig and LT on the 30 degenerate generated instances."""
    t0 = time.perf_counter()
    results = {}
    for m, n, seed in BIG_SHAPES:
        inst = big_instance(m, n, seed)
        pair = {}
        for method in ("dantzig", "lt"):
            with removal_audit() as audits:
                pair[method] = tracked_run(inst, CgConfig(
                    pricing_method=method, time_limit=120))
            REMOVAL_AUDITS.extend(audits)
        results[(m, n, seed)] = pair
    return time.perf_counter() - t0, results


# ---------------------------------------------------------------- criterion 1

def test_criterion_01_knapsack_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240201)
    for _ in range(1000):
        n = int(rng.integers(1, 16))
        problem = KnapsackProblem(rng.normal(0, 5, n).round(4),
                                  rng.integers(0, 9, n), int(rng.integers(0, 51)))
        sol = min_knapsack(problem)
        bits = subsets(n)
        ok = bits @ problem.weight <= problem.capacity
        best = float((bits @ problem.profit)[ok].min())
        assert abs(sol.value - best) <= 1e-9
        assert problem.weight[sol.selection].sum() <= problem.capacity
    rng = np.random.default_rng(20240202)
    for _ in range(1000):
        n = int(rng.integers(0, 13))
        problem = LexKnapsackProblem(rng.integers(-1, 2, n), rng.normal(0, 5, n).round(4),
                                     rng.integers(0, 8, n), int(rng.integers(0, 30)),
                                     float(rng.normal(0, 4)))
        mine = lex_knapsack(problem)
        ref = brute_force_lex(problem)
        assert (mine is None) == (ref is None)
        if mine is not None:
            assert mine[0] == ref[0]
            assert abs(mine[1] - ref[1]) <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 1 PASS: 2x1000 knapsack problems match exhaustive "
          f"oracles exactly ({elapsed:.1f}s < 30s)")


# ---------------------------------------------------------------- criterion 2

def test_criterion_02_master_lp_agreement(toy_results):
    elapsed, results = toy_results
    for key, (oracle, per_method) in results.items():
        expect = math.ceil(oracle - 1e-9)
        for method, report in per_method.items():
            assert report.lb_int == expect, (key, method, report.lb_int, expect)
    assert elapsed < 300.0
    print(f"\nACCEPTANCE 2 PASS: 20 toys x 5 methods all reach lb_int = "
          f"ceil(enumerated master LP optimum) ({elapsed:.0f}s < 5min)")


# ---------------------------------------------------------------- criterion 3
# (defined before 4 but consuming both fixtures so it sees every run)

def test_criterion_03_bound_validity(toy_results, big_results):
    rows_checked = 0
    for report in ALL_REPORTS:
        final = report.final_objective
        assert final is not None
        for row in report.rows:
            if row.lb_raw is not None:
                assert row.lb_raw <= final + 1e-6, (report.instance, report.method, row)
                rows_checked += 1
    assert rows_checked > 1000
    print(f"\nACCEPTANCE 3 PASS: every recorded lb_raw over {len(ALL_REPORTS)} runs "
          f"({rows_checked} rows) is a valid lower bound")


# ---------------------------------------------------------------- criterion 4

def test_criterion_04_pricing_soundness(toy_results, big_results):
    audited = 0
    for report in ALL_REPORTS:
        if report.method == "lr":
            continue
        if report.total_columns_added:
            assert report.max_rc_margin <= 0.0, (report.instance, report.method,
                                                 report.max_rc_margin)
        audited += report.total_columns_added
    assert audited > 1000
    print(f"\nACCEPTANCE 4 PASS: {audited} added columns all satisfy the "
          f"reduced-cost budget under their iteration's true duals")


# ---------------------------------------------------------------- criterion 5

class _LoggingPool(ColumnPool):
    sink = None

    def add(self, machine, jobs):
        col = super().add(machine, jobs)
        if col is not None and _LoggingPool.sink is not None:
            _LoggingPool.sink.append((self.iteration, machine, col.jobs.tobytes()))
        return col


def _run_with_column_log(inst, cfg):
    log = []
    _LoggingPool.sink = log
    try:
        report = run(inst, cfg)
    finally:
        _LoggingPool.sink = None
    return report, log


def test_criterion_05_pessoa_degeneration(monkeypatch):
    monkeypatch.setattr(driver_module, "ColumnPool", _LoggingPool)
    monkeypatch.setattr(driver_module, "PessoaState", FrozenPessoaState)
    for seed in (11, 12, 13, 14, 15):
        inst = toy_instance(3, 18, seed)
        same_tau = age_threshold("dantzig", inst)  # shared so only pricing differs
        rep_d, log_d = _run_with_column_log(inst, CgConfig(
            pricing_method="dantzig", time_limit=60, age_threshold=same_tau))
        rep_p, log_p = _run_with_column_log(inst, CgConfig(
            pricing_method="pessoa", time_limit=60, age_threshold=same_tau))
        assert log_d == log_p, f"seed {seed}: column sequences diverged"
        assert len(rep_d.rows) == len(rep_p.rows)
        ALL_REPORTS.extend([rep_d, rep_p])
    print("\nACCEPTANCE 5 PASS: frozen-alpha smoothing reproduces plain "
          "pricing column-for-column on 5 seeded instances")


# ---------------------------------------------------------------- criterion 6

def test_criterion_06_similarity_table():
    cases = [(1.0, 1), (1 - 1e-7, 1), (0.5, 0), (1e-7, -1), (0.0, -1)]
    for y, expect in cases:
        assert similarity_class(y, 1e-6) == expect, (y, expect)
    print("\nACCEPTANCE 6 PASS: all five classification cases at delta=1e-6")


# ---------------------------------------------------------------- criterion 7

def test_criterion_07_mt_dominance_and_lt_feasibility():
    rng = np.random.default_rng(20240707)
    compared = proofs = 0
    for trial in range(200):
        n = int(rng.integers(3, 13))
        inst = generate(GeneratorSpec(num_machines=1, num_jobs=n, cost_range=(1, 20),
                                      resource_range=(1, 10), capacity_slack=0.9,
                                      seed=9000 + trial))
        pi = rng.normal(8, 6, n).round(3)
        mu = float(rng.normal(0, 5))
        y = rng.random(n)
        snap = rng.random(n)
        y[snap < 0.35] = 0.0
        y[snap > 0.75] = 1.0
        f = similarity_vector(y, DEFAULT_DELTA)
        lt = lt_price(inst, 0, f, pi, mu, EPS, np.full(1, 0.5))
        mt = mt_price(inst, 0, f, pi, mu, EPS)
        assert (lt.selection is None) == (mt.selection is None)
        if lt.selection is None:
            continue
        compared += 1
        assert mt.similarity >= lt.similarity, (trial, lt.similarity, mt.similarity)
        assert reduced_cost_sum(inst.cost[0], pi, lt.selection) <= mu - EPS
        if lt.proof_fired:
            proofs += 1
            assert lt.similarity == mt.similarity, trial
    assert compared >= 50
    assert proofs >= 10
    print(f"\nACCEPTANCE 7 PASS: {compared} priced inputs, MT >= LT similarity "
          f"throughout, LT always budget-feasible, {proofs} optimality proofs all tight")


# ---------------------------------------------------------------- criterion 8

def test_criterion_08_degeneracy_direction(big_results):
    elapsed, results = big_results
    assert elapsed < 7200.0
    ppc_wins = iter_wins = integral = 0
    total = len(results)
    for key, pair in results.items():
        d, lt = pair["dantzig"], pair["lt"]
        ppc_d = d.total_pivots / max(d.total_columns_added, 1)
        ppc_l = lt.total_pivots / max(lt.total_columns_added, 1)
        if ppc_l < ppc_d:
            ppc_wins += 1
        if len(lt.rows) <= len(d.rows):
            iter_wins += 1
        # integral in the paper's sense: the run produced an integer solution
        if lt.ub is not None:
            integral += 1
    assert ppc_wins >= 0.8 * total, f"pivots-per-column wins {ppc_wins}/{total}"
    assert integral >= 0.9 * total, f"integral runs {integral}/{total}"
    assert iter_wins >= 0.7 * total, f"iteration wins {iter_wins}/{total}"
    print(f"\nACCEPTANCE 8 PASS: over {total} degenerate instances LT beats "
          f"plain pricing on pivots/column {ppc_wins}/{total}, finds integer "
          f"solutions {integral}/{total}, needs fewer iterations {iter_wins}/{total}")


# ---------------------------------------------------------------- criterion 9

def test_criterion_09_phase1_quality(big_results):
    _, results = big_results
    gaps = {"dantzig": [], "lt": []}
    for pair in results.values():
        for method in ("dantzig", "lt"):
            rep = pair[method]
            optimum = rep.final_objective
            handoff = next(r.rmp_objective for r in rep.rows if r.phase == "2")
            gaps[method].append(100.0 * (handoff - optimum) / optimum)
    med_d = statistics.median(gaps["dantzig"])
    med_lt = statistics.median(gaps["lt"])
    assert med_lt < med_d, (med_lt, med_d)
    print(f"\nACCEPTANCE 9 PASS: median phase-one handoff gap {med_lt:.2f}% (template) "
          f"vs {med_d:.2f}% (plain)")


# --------------------------------------------------------------- criterion 10

def test_criterion_10_column_management_safety(toy_results, big_results):
    for pivots, objective_change in REMOVAL_AUDITS:
        assert pivots == 0, (pivots, objective_change)
        assert abs(objective_change) <= 1e-7, (pivots, objective_change)
    assert len(REMOVAL_AUDITS) > 100
    print(f"\nACCEPTANCE 10 PASS: {len(REMOVAL_AUDITS)} re-solves after the removed "
          f"columns left the LP all kept the objective (<=1e-7) with zero pivots")


# --------------------------------------------------------------- criterion 11

def test_criterion_11_sweep_rule():
    # five constructed profiles with hand-computed selections
    profiles = [
        # (taus, times, window, expected)
        ([5, 10, 20, 30, 40], [10.0, 3.0, 3.01, 3.2, 9.0], 3, 20),
        ([1, 2, 3], [4.0, 4.0, 4.0], 3, 1),                       # flat: smallest
        ([10, 20, 30], [101.05, 101.0, 100.4], 1, 10),            # 1 percent tie
        ([10, 20, 30], [10.9, 10.3, 10.0], 1, 10),                # 1 second tie
        ([10, 20, 30, 40], [200.0, 150.0, 99.0, 98.5], 1, 30),    # no tie at all
    ]
    for taus, times, window, expected in profiles:
        smoothed = rolling_geomean(times, window)
        assert select_tau(taus, smoothed) == expected, (taus, times, expected)
    # hand evaluation of the first profile's smoothing, frozen numbers
    sm = rolling_geomean([10.0, 3.0, 3.01, 3.2, 9.0], 3)
    assert sm[1] == pytest.approx(4.4865, abs=1e-3)
    assert sm[2] == pytest.approx(3.0683, abs=1e-3)
    print("\nACCEPTANCE 11 PASS: 5 synthetic sweep profiles reproduce the "
          "hand-computed threshold selections")
