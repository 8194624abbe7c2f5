"""The package surface: each name has one public path, in its module.

``import gapcg`` loads the seven solver modules (``cli`` is the command
line's and loads on its own) and binds nothing else but ``__version__``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import gapcg

SOLVER_MODULES = ["driver", "instance", "knapsack", "lagrangian", "pricing", "rmp", "simplex"]


def test_import_binds_only_the_solver_modules_and_the_version():
    # a fresh interpreter, so that no module another test imported counts
    code = ("import json, sys, gapcg; print(json.dumps(["
            "sorted(m for m in sys.modules if m.split('.')[0] == 'gapcg'), "
            "sorted(n for n in vars(gapcg) if not n.startswith('_')), gapcg.__version__]))")
    env = dict(os.environ, PYTHONPATH=str(Path(gapcg.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    loaded, public, version = json.loads(out)
    assert loaded == ["gapcg", *(f"gapcg.{name}" for name in SOLVER_MODULES)]
    assert public == SOLVER_MODULES
    assert version == gapcg.__version__
