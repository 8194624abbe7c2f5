"""Golden-output guard for the ``run`` and ``bench`` TSVs.

Every case runs the command line in-process on fixed generated instances
and compares its TSV byte for byte with ``tests/golden/<case>.tsv`` after
masking the timing columns (``rmp_time``, ``pricing_time``, ``total_time``).
The cases cover phase-one rows, the ``optimal`` and ``gap_closed``
statuses, and ``error:`` rows of an infeasible file; ``tests/test_driver.py``
pins ``rc_converged``, which no case here ends with.

The fixtures were written once, from the repository root, by::

    PYTHONPATH=src:tests python -c "import pathlib, tempfile, test_golden as g; \
        [pathlib.Path('tests/golden', c + '.tsv').write_text(g.render(c, pathlib.Path(tempfile.mkdtemp()))) for c in g.CASES]"
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gapcg
from gapcg.cli import main
from gapcg.instance import GeneratorSpec, generate, serialize

GOLDEN = Path(__file__).parent / "golden"
METHODS = ("dantzig", "pessoa", "lt", "mt", "lr")
TIMING = ("rmp_time", "pricing_time", "total_time")
INSTANCES = {
    "g3x12.txt": lambda: serialize(generate(GeneratorSpec(3, 12, seed=7))),
    "g4x24.txt": lambda: serialize(generate(GeneratorSpec(4, 24, seed=3))),
    "infeasible.txt": lambda: "1 2\n1 1\n9 9\n3\n",
}
CASES = [f"run-{Path(name).stem}-{method}" for name in ("g3x12.txt", "g4x24.txt")
         for method in METHODS] + ["bench"]


def mask_timing(text: str) -> str:
    """Replace every non-empty timing cell by ``*``."""
    header, *rows = text.splitlines()
    masked = {k for k, col in enumerate(header.split("\t")) if col in TIMING}
    out = [header]
    for row in rows:
        cells = row.split("\t")
        out.append("\t".join("*" if k in masked and c != "-" else c
                             for k, c in enumerate(cells)))
    return "\n".join(out) + "\n"


def render(case: str, workdir: Path) -> str:
    """Masked TSV the command line writes for one case."""
    paths = {}
    for name, text in INSTANCES.items():
        paths[name] = workdir / name
        paths[name].write_text(text())
    out = workdir / f"{case}.tsv"
    if case == "bench":
        argv = ["bench", *(str(p) for p in paths.values()),
                "--methods", ",".join(METHODS), "--seeds", "0,1"]
    else:
        _, stem, method = case.split("-")
        argv = ["run", str(paths[f"{stem}.txt"]), "--method", method, "--seed", "0"]
    assert main([*argv, "--output", str(out)]) == 0
    return mask_timing(out.read_text())


@pytest.mark.parametrize("case", CASES)
def test_tsv_matches_golden(case, tmp_path):
    assert render(case, tmp_path) == (GOLDEN / f"{case}.tsv").read_text()


def test_bench_pool_matches_serial(tmp_path):
    path = tmp_path / "g3x12.txt"
    path.write_text(INSTANCES["g3x12.txt"]())

    def bench(workers: int) -> str:
        out = tmp_path / f"bench-{workers}.tsv"
        assert main(["bench", str(path), "--methods", ",".join(METHODS), "--seeds", "0,1",
                     "--workers", str(workers), "--output", str(out)]) == 0
        return mask_timing(out.read_text())

    assert bench(2) == bench(1)


# The command line run with hypothesis, scipy and pytest unimportable: a
# meta-path finder refuses them, after checking that it does.
NUMPY_ONLY = """
import sys

class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in ("hypothesis", "scipy", "pytest"):
            raise ModuleNotFoundError(f"no module named {name!r}", name=name)

sys.meta_path.insert(0, Refuse())
try:
    import scipy
except ModuleNotFoundError:
    pass
else:
    sys.exit("scipy is still importable")
from gapcg.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_run_needs_only_numpy(tmp_path):
    # the test oracles and their dependencies stay out of the package
    path, out = tmp_path / "g3x12.txt", tmp_path / "run.tsv"
    path.write_text(INSTANCES["g3x12.txt"]())
    env = dict(os.environ, PYTHONPATH=str(Path(gapcg.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", NUMPY_ONLY, "run", str(path), "--method", "mt",
                           "--seed", "0", "--output", str(out)],
                          env=env, cwd=tmp_path, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert mask_timing(out.read_text()) == (GOLDEN / "run-g3x12-mt.tsv").read_text()
