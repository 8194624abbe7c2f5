"""Property tests: full column generation against the enumerated master.

Every instance is small enough to enumerate each machine's feasible
columns, so HiGHS solves the complete partition master
(``_oracles.partition_master_lp``) as the reference. The strategy reaches
negative costs, cost ties, zero weights and zero capacities.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import partition_master_lp
from gapcg.driver import CgConfig, run
from gapcg.instance import GapInstance, InfeasibleInstanceError
from gapcg.rmp import MasterInfeasibleError


@st.composite
def small_instances(draw):
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 7))
    cost = draw(st.lists(st.integers(-6, 6), min_size=m * n, max_size=m * n))
    resource = draw(st.lists(st.integers(0, 4), min_size=m * n, max_size=m * n))
    capacity = draw(st.lists(st.integers(0, 9), min_size=m, max_size=m))
    return GapInstance(m, n, np.reshape(cost, (m, n)), np.reshape(resource, (m, n)),
                       np.array(capacity))


@pytest.mark.parametrize("method", ["dantzig", "pessoa", "lt", "mt"])
@settings(max_examples=200, derandomize=True, deadline=None)
@given(inst=small_instances())
def test_cg_bound_matches_enumerated_master(method, inst):
    ref = partition_master_lp(inst)
    cfg = CgConfig(pricing_method=method, time_limit=60)
    if ref.status == 2:  # no fractional cover exists
        with pytest.raises((InfeasibleInstanceError, MasterInfeasibleError)):
            run(inst, cfg)
        return
    assert ref.status == 0, ref.message
    assert run(inst, cfg).lb_int == math.ceil(ref.fun - 1e-9)
