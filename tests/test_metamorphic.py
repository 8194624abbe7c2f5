"""Metamorphic tests: transforms of an instance that leave its optimum and
its master LP bound unchanged must leave ``lb_int`` unchanged too.

The seed relabels the jobs and machines (``instance.relabel``). A degenerate
master has many optimal bases, so the labeling may move a run's iterations,
pivots, status and incumbent, but not its integer lower bound.
"""

import pytest

from gapcg.driver import CgConfig, run
from gapcg.instance import GeneratorSpec, generate

CG_METHODS = ("dantzig", "pessoa", "lt", "mt")
SEEDS = (0, 1, 2, 3)


@pytest.mark.parametrize("spec", [GeneratorSpec(6, 60, seed=7), GeneratorSpec(4, 24, seed=3)],
                         ids=["g6x60", "g4x24"])
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
