import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# every property test draws the same examples on every run, with no
# per-example deadline: a full column-generation example can take seconds
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")

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
