import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# every property test draws the same examples on every run, with no
# per-example deadline: a full column-generation example can take seconds
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")

from _oracles import pool_columns
from gapcg import driver, rmp
from gapcg.instance import GapInstance, GeneratorSpec, generate


@pytest.fixture
def toy_2x3():
    """Two machines, three jobs, hand-checkable."""
    return GapInstance(
        num_machines=2, num_jobs=3,
        cost=np.array([[4, 3, 3], [2, 5, 4]]),
        resource=np.array([[2, 2, 2], [2, 2, 2]]),
        capacity=np.array([4, 4]),
        name="toy-2x3",
    )


@pytest.fixture
def toy_3x12():
    return generate(GeneratorSpec(num_machines=3, num_jobs=12, cost_range=(1, 20),
                                  resource_range=(1, 10), capacity_slack=0.9, seed=3))


def random_instance(seed: int, m: int = 3, n: int = 10) -> GapInstance:
    return generate(GeneratorSpec(num_machines=m, num_jobs=n, cost_range=(1, 20),
                                  resource_range=(1, 10), capacity_slack=0.9, seed=seed))


@contextmanager
def removal_audit():
    """Re-solve the master after every column removal of the runs inside.

    The audit first syncs the pool, so the dropped columns have left the
    LP, and checks that none of them is still there. It yields a list that
    receives one ``(pivots, objective change)`` pair per re-solve; removing
    nonbasic columns from an optimal LP should need no pivot.
    """
    audits = []
    manage_columns = rmp.manage_columns

    def audited(pool, sol, tau):
        kept_before = set(pool_columns(pool))
        removed = manage_columns(pool, sol, tau)
        if removed:
            dropped = kept_before - set(pool_columns(pool))
            pool.sync()
            assert dropped.isdisjoint(pool.lp_col)
            before = pool.lp.objective()
            pivots = pool.lp.solve()
            audits.append((pivots, pool.lp.objective() - before))
        return removed

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rmp, "manage_columns", audited)
        yield audits


class FrozenPessoaState(driver.PessoaState):
    """Pessoa smoothing whose mixing weight stays at 0, so it prices like
    Dantzig; patch it over ``driver.PessoaState`` to apply it to a run."""

    @property
    def alpha(self):
        return 0.0

    @alpha.setter
    def alpha(self, value):
        pass
