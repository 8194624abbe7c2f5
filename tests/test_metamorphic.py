"""Metamorphic tests: transforms of an instance whose effect on its optimum
and master LP bound is known must move ``lb_int`` by exactly that much.

The seed relabels the jobs and machines (``instance.relabel``). A degenerate
master has many optimal bases, so the labeling may move a run's iterations,
pivots, status and incumbent, but not its integer lower bound. Adding k_j to
job j's cost on every machine adds k_j to every assignment, so it moves the
optimum and the master bound by the sum of the k_j.

Besides two generated instances, the relabeling check runs over the small
instances of the property tests, which reach negative costs, cost ties,
zero weights, zero capacities and infeasible instances.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings

from gapcg.driver import CgConfig, run
from gapcg.instance import GeneratorSpec, InfeasibleInstanceError, generate
from test_properties import small_instances

CG_METHODS = ("dantzig", "pessoa", "lt", "mt")
SEEDS = (0, 1, 2, 3)


INSTANCES = pytest.mark.parametrize(
    "spec", [GeneratorSpec(6, 60, seed=7), GeneratorSpec(4, 24, seed=3)], ids=["g6x60", "g4x24"])


@INSTANCES
def test_relabeling_keeps_the_integer_bound(spec):
    inst = generate(spec)
    runs = {(method, seed): run(inst, CgConfig(pricing_method=method, seed=seed))
            for method in CG_METHODS for seed in SEEDS}
    bound = runs["dantzig", 0].lb_int
    assert bound is not None
    for (method, seed), rep in runs.items():
        assert rep.status != "time_limit"
        assert rep.lb_int == bound, (method, seed)
        assert rep.ub is None or rep.ub >= rep.lb_int, (method, seed)
    # the seed reaches the run: some labeling moves the iterations or pivots
    assert len({(len(rep.rows), rep.total_pivots) for rep in runs.values()}) > len(CG_METHODS)
    for seed in SEEDS:
        assert run(inst, CgConfig(pricing_method="lr", seed=seed)).lb_int <= bound


@settings(max_examples=100)
@given(inst=small_instances())
def test_relabeling_keeps_the_integer_bound_of_small_instances(inst):
    bounds = {}
    for method in CG_METHODS:
        for seed in SEEDS:
            try:
                rep = run(inst, CgConfig(pricing_method=method, seed=seed, time_limit=60))
            except InfeasibleInstanceError:
                bounds[method, seed] = "infeasible"
                continue
            assert rep.lb_int is not None and rep.status != "time_limit", (method, seed)
            assert rep.ub is None or rep.ub >= rep.lb_int, (method, seed)
            bounds[method, seed] = rep.lb_int
    assert len(set(bounds.values())) == 1, bounds
    bound = bounds["dantzig", 0]
    if bound != "infeasible":
        for seed in SEEDS:
            assert run(inst, CgConfig(pricing_method="lr", seed=seed)).lb_int <= bound, seed


@INSTANCES
def test_per_job_cost_shift_moves_the_integer_bound_by_its_sum(spec):
    inst = generate(spec)
    bounds = {method: run(inst, CgConfig(pricing_method=method)).lb_int for method in CG_METHODS}
    rng = np.random.default_rng(0)
    # the second draw makes some costs negative, which the driver shifts back
    for low, high in ((0, 20), (-30, 30)):
        k = rng.integers(low, high, size=inst.num_jobs, endpoint=True)
        shifted = replace(inst, cost=inst.cost + k)
        for method in CG_METHODS:
            rep = run(shifted, CgConfig(pricing_method=method))
            assert rep.lb_int == bounds[method] + k.sum(), (method, low, high)
        lr = run(shifted, CgConfig(pricing_method="lr"))
        assert lr.lb_int - k.sum() <= bounds["dantzig"], (low, high)
