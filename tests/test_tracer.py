"""The benchmark's layer tracer (``perfbench/spans.py``) over every method.

The tracer wraps pricing, knapsack and Lagrangian functions by name and
reads their results in count hooks. This runs one cell of each of the five
methods on a 3 x 12 instance with the tracer installed: every cell must
finish with a passing status, and uninstalling must restore every patched
attribute.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import spans  # noqa: E402
from conftest import random_instance  # noqa: E402
from gapcg import driver  # noqa: E402

METHODS = ("dantzig", "pessoa", "lt", "mt", "lr")


@pytest.mark.parametrize("method", METHODS)
def test_every_method_runs_under_the_tracer(method):
    inst = random_instance(12, m=3, n=12)
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in spans.TARGETS]
    with spans.Tracer() as tracer:
        tracer.cell = method
        report = driver.run(inst, driver.CgConfig(pricing_method=method))
    assert report.status in ("optimal", "rc_converged", "gap_closed")
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)
    assert not any(hasattr(fn, spans.WRAPPED_MARK) for _, _, fn in originals)
    names = {span[0] for span in tracer.spans}
    assert "driver.run" in names
    spans.layer_metrics(tracer.spans)
