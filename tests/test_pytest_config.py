import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x != x


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_does_not_abort_the_session(tmp_path):
    # reporting a failing example imports libcst, whose import warns; under
    # the suite's warning filters that must not end the session early
    (tmp_path / "test_probe.py").write_text(PROBE)
    done = subprocess.run([sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
                           "-p", "no:cacheprovider", "-q", "test_probe.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
