"""Metamorphic tests: transforms of an instance whose effect on its optimum
and master LP bound is known must move ``lb_int`` by exactly that much.

The seed relabels the jobs and machines (``instance.relabel``). A degenerate
master has many optimal bases, so the labeling may move a run's iterations,
pivots, status and incumbent, but not its integer lower bound. Adding k_j to
job j's cost on every machine adds k_j to every assignment, so it moves the
optimum and the master bound by the sum of the k_j.
"""

from dataclasses import replace

import numpy as np
import pytest

from gapcg.driver import CgConfig, run
from gapcg.instance import GeneratorSpec, generate

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
