"""Self-test of the benchmark harness on tiny instances.

    python3 -m pytest -q perfbench/test_harness.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import pytest  # noqa: E402

import harness  # noqa: E402
import spans  # noqa: E402
from checks import HighsCache, check_pass  # noqa: E402
from gapcg import cli, instance  # noqa: E402

METHODS = ("dantzig", "pessoa", "lt", "mt", "lr")
TINY = {"methods": ("mt", "lr"), "size": (3, 12), "instances": 2}


def installed_wrappers():
    """Span names of tracer wrappers currently bound on any patch target."""
    return [getattr(getattr(owner, attr), spans.WRAPPED_MARK)
            for owner, attr, _, _ in spans.TARGETS
            if hasattr(getattr(owner, attr), spans.WRAPPED_MARK)]


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setitem(harness.WORKLOADS, "tiny", TINY)
    return HighsCache(tmp_path / "highs.json", 5.0)


def test_every_metric_is_emitted_with_its_unit(tiny):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, group in ((False, "end_to_end"), (True, "per_layer")):
        result, _, _ = harness.measure("tiny", 7, 0.0, trace, tiny)
        assert result["correct"] and result["failed"] == 0
        expected = {m["name"]: m["unit"] for m in spec[group]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
        if not trace:
            assert all(v["value"] > 0 for v in result["metrics"].values())


def test_untraced_runs_have_no_wrapper_and_tracing_restores(tiny, monkeypatch):
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in spans.TARGETS]
    seen = []
    run_cell = harness.run_cell

    def spy(inst, method):
        seen.append(installed_wrappers())
        return run_cell(inst, method)

    monkeypatch.setattr(harness, "run_cell", spy)
    result, _, tracer = harness.measure("tiny", 7, 0.0, True, tiny)
    cells = len(TINY["methods"]) * TINY["instances"]
    assert seen[:-cells] and all(w == [] for w in seen[:-cells])
    assert all(len(w) == len(originals) for w in seen[-cells:])
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)
    assert installed_wrappers() == []
    names = {span[0] for span in tracer.spans}
    assert {"driver.run", "driver.run_lr", "knapsack.min", "knapsack.lex",
            "simplex.solve", "lagrangian.lr_evaluate", "instance.parse"} <= names
    assert result["metrics"]["trace.coverage"]["value"] >= 0.9


def test_cells_match_gapcg_bench(tmp_path):
    inst = harness.build_instances([(3, 12, 0)], 7)["G(3,12,S+0)"]
    path = tmp_path / "tiny.txt"
    path.write_text(instance.serialize(inst), encoding="utf-8")
    out = tmp_path / "bench.tsv"
    assert cli.main(["bench", str(path), "--methods", ",".join(METHODS),
                     "--output", str(out)]) == 0
    header, *lines = out.read_text(encoding="utf-8").splitlines()
    rows = [dict(zip(header.split("\t"), line.split("\t"))) for line in lines]
    rows = [row for row in rows if row["instance"] != "GEOMEAN"]
    assert [row["method"] for row in rows] == list(METHODS)
    for row in rows:
        report, _ = harness.run_cell(inst, row["method"])
        mine = harness.summary(report)
        assert row["status"] == mine["status"]
        assert int(row["iterations"]) == mine["iterations"]
        assert int(row["total_pivots"]) == mine["pivots"]
        for field in ("lb_int", "ub"):
            assert row[field] == ("-" if mine[field] is None else str(mine[field]))


def test_check_flags_bound_disagreement(tiny):
    instances = harness.build_instances([(3, 12, 0)], 7)
    cells = [("G(3,12,S+0)", m) for m in METHODS]
    reports = [harness.run_cell(instances[key], m)[0] for key, m in cells]
    assert check_pass(cells, reports, instances, tiny) == [None] * len(cells)
    reports[0].lb_int += 1
    reasons = check_pass(cells, reports, instances, tiny)
    assert all(r and "disagree" in r for r in reasons[:4])
    reports[0].lb_int -= 1
    reports[4].lb_int += 1
    assert "above CG" in check_pass(cells, reports, instances, tiny)[4]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "wide-mixed",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
