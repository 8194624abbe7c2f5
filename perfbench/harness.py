"""Time-to-bound benchmark of gapcg's pricing methods.

A workload is a fixed list of cells, one ``(instance, method)`` pair each,
run in this process one cell at a time (a closed loop, no workers) through
the public API (``driver.run`` / ``driver.run_lr``) with the ``gapcg bench``
default configuration. Instances are ``generate(GeneratorSpec(m, n,
seed=S+k))`` with the default ranges, where ``S`` is ``--seed``; each goes
through ``serialize`` and ``parse`` before it is solved.

The workload is repeated while one more pass still fits in ``--seconds``
(at least one pass always runs). Times are rescaled to reference machine
speed (see ``speed.py``). Figures are trimmed means over the instances of a
pass, then medians over passes. After timing, the passes are checked for correctness (see
``checks.py``). With ``--trace 1`` one more pass runs under the layer tracer
(see ``spans.py``) and the per-layer metrics are printed instead of the
end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it
holds the environment and per-cell details, which are also written to
``.perfbench/`` in the checkout, next to the trace spans and the HiGHS
bound cache.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from gapcg import driver, instance

import speed
from checks import HighsCache, check_pass
from spans import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

DEFAULT_SEED = 7
SETUP_REPEATS = 9
HIGHS_TIME_CAP = 1.0
BENCH_CONFIG_SEED = 0  # the `gapcg bench --seeds` default

# Each workload runs its two methods on `instances` instances
# generate(GeneratorSpec(m, n, seed=S+k)), k = 0 .. instances-1, instance by
# instance. Eight, seven and six instances per run keep the spread of the
# end-to-end figures across seeds small (see README).
WORKLOADS = {
    "degenerate-master": {"methods": ("dantzig", "pessoa"), "size": (6, 60), "instances": 8},
    "exact-template": {"methods": ("mt", "lt"), "size": (6, 60), "instances": 7},
    "wide-mixed": {"methods": ("lt", "lr"), "size": (12, 120), "instances": 6},
}

END_TO_END_UNITS = {
    "setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB", "cg_iterations": "count", "pivots": "count", "ok_share": "ratio",
}

PER_LAYER_UNITS = {
    "simplex.solve_s": "s", "simplex.solve_calls": "count", "simplex.pivots": "count",
    "simplex.us_per_pivot": "us", "simplex.width_peak": "columns",
    "simplex.sealed_share": "ratio",
    "rmp.master_s": "s", "rmp.compact_lp_s": "s", "rmp.columns_s": "s",
    "rmp.pool_peak": "columns", "rmp.columns_removed": "count",
    "pricing.dantzig.s": "s", "pricing.pessoa.s": "s", "pricing.lt.s": "s",
    "pricing.mt.s": "s", "pricing.dantzig.calls": "count", "pricing.pessoa.calls": "count",
    "pricing.lt.calls": "count", "pricing.mt.calls": "count", "pricing.yield": "1/call",
    "pricing.lt.proof_rate": "ratio", "pricing.lt.flagged": "count",
    "pricing.lt.knapsacks_per_call": "1/call", "pricing.pessoa.k_mean": "k",
    "knapsack.min.s": "s", "knapsack.min.calls": "count",
    "knapsack.min.cells": "cells-computed", "knapsack.min.ns_per_cell": "ns/cell",
    "knapsack.lex.s": "s", "knapsack.lex.calls": "count",
    "knapsack.lex.cells": "cells-computed", "knapsack.lex.ns_per_cell": "ns/cell",
    "knapsack.lex.take_mb_peak": "MB-computed",
    "lagrangian.evaluate_s": "s", "lagrangian.evaluations": "count",
    "lagrangian.ascent_s": "s", "instance.load_s": "s", "driver.self_s": "s",
    "trace.coverage": "ratio", "trace.overhead": "ratio",
}


def import_seconds() -> float:
    """Normalized import time of the package in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import gapcg; "
            "t = time.perf_counter() - t; import speed; "
            "print(speed.normalize(t, [speed.probe(), speed.probe()]))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def instance_key(spec) -> str:
    m, n, k = spec
    return f"G({m},{n},S+{k})"


def build_instances(specs, seed: int) -> dict:
    """generate -> serialize -> parse for every instance of a workload."""
    out = {}
    for spec in specs:
        m, n, k = spec
        generated = instance.generate(instance.GeneratorSpec(m, n, seed=seed + k))
        (parsed,) = instance.parse(instance.serialize(generated))
        parsed.name = generated.name
        out[instance_key(spec)] = parsed
    return out


def cell_config(method: str) -> driver.CgConfig:
    """The `gapcg bench` default configuration of one cell."""
    return driver.CgConfig(pricing_method="lt" if method == "lr" else method,
                           seed=BENCH_CONFIG_SEED)


def run_cell(inst, method: str):
    """(report or error text, seconds) of one cell."""
    solve = driver.run_lr if method == "lr" else driver.run
    cfg = cell_config(method)
    t0 = time.perf_counter()
    try:
        report = solve(inst, cfg)
    except Exception as exc:  # a failing cell is counted, not fatal
        return f"error:{type(exc).__name__}: {exc}", time.perf_counter() - t0
    return report, time.perf_counter() - t0


def run_pass(cells, instances, tracer: Tracer | None = None) -> dict:
    """Run every cell once; `seconds` are wall times at reference speed."""
    gc.collect()
    reports, seconds, wall = [], [], []
    t0, cpu0 = time.perf_counter(), time.process_time()
    for key, method in cells:
        if tracer is not None:
            tracer.cell = f"{key}/{method}"
        before = speed.probe()
        report, dt = run_cell(instances[key], method)
        seconds.append(speed.normalize(dt, [before, speed.probe()]))
        reports.append(report)
        wall.append(dt)
    return {"wall": time.perf_counter() - t0, "cpu": time.process_time() - cpu0,
            "reports": reports, "seconds": seconds, "wall_seconds": wall}


def summary(report) -> dict:
    """The figures of a cell that must repeat exactly from pass to pass."""
    if isinstance(report, str):
        return {"error": report}
    return {"status": report.status, "iterations": len(report.rows),
            "pivots": report.total_pivots, "lb_int": report.lb_int, "ub": report.ub}


def environment(workload: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
            "machine": platform.machine(), "workload": workload, "seed": seed}


def measure(name: str, seed: int, seconds: float, trace: bool, highs: HighsCache):
    """Run one workload; returns (result object, details, tracer or None)."""
    workload = WORKLOADS[name]
    specs = [(*workload["size"], k) for k in range(workload["instances"])]
    cells = [(instance_key(spec), method) for spec in specs for method in workload["methods"]]

    setups = []
    for _ in range(SETUP_REPEATS):
        before = speed.probe()
        t0 = time.perf_counter()
        instances = build_instances(specs, seed)
        build = speed.normalize(time.perf_counter() - t0, [before, speed.probe()])
        setups.append(build + import_seconds())

    passes = []
    t_start = time.perf_counter()
    while True:
        passes.append(run_pass(cells, instances))
        if time.perf_counter() - t_start + passes[-1]["wall"] > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    tracer = traced = None
    if trace:
        with Tracer() as tracer:
            tracer.cell = "setup"
            build_instances(specs, seed)
            traced = run_pass(cells, instances, tracer)

    # Pass 1 is checked against the bounds and HiGHS. Every pass, the traced
    # one included, must also repeat pass 1's figures exactly.
    first = passes[0]["reports"]
    expected = [summary(r) for r in first]
    verdicts = check_pass(cells, first, instances, highs)
    reasons = [None] * len(cells)
    failed = attempted = 0
    for p in passes + ([traced] if traced else []):
        for k, report in enumerate(p["reports"]):
            reason = verdicts[k] or (None if summary(report) == expected[k]
                                     else "figures did not repeat across passes")
            reasons[k] = reasons[k] or reason
            failed += reason is not None
            attempted += 1

    # Every figure is a trimmed mean over the workload's instances of a
    # per-instance total: the lowest and the highest instance are dropped, so
    # that one pathological instance cannot swing a run.
    def instance_mean(values):
        per_instance = dict.fromkeys((key for key, _ in cells), 0.0)
        for (key, _), value in zip(cells, values):
            per_instance[key] += value
        totals = sorted(per_instance.values())
        return statistics.mean(totals[1:-1] if len(totals) > 2 else totals)

    def median_seconds(method=None):
        return statistics.median(
            instance_mean(s if method in (None, meth) else 0.0
                          for (_, meth), s in zip(cells, p["seconds"]))
            for p in passes)

    def count(field):
        return instance_mean(0 if isinstance(r, str) or r.method == "lr" else field(r)
                             for r in first)

    e2e = {
        "setup_s": statistics.median(setups),
        "solve_s": median_seconds(),
        "peak_rss_mb": peak_rss_mb,
        "cg_iterations": count(lambda r: len(r.rows)),
        "pivots": count(lambda r: r.total_pivots),
        "ok_share": 1.0 - failed / attempted,
    }
    if trace:
        values = layer_metrics(tracer.spans)
        untraced = statistics.median(sum(p["seconds"]) for p in passes)
        values["trace.overhead"] = sum(traced["seconds"]) / untraced - 1.0
        metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    details = {
        "method_solve_s": {m: median_seconds(m) for m in workload["methods"]},
        "samples": {"setup": len(setups), "untraced_passes": len(passes),
                    "traced_passes": int(trace)},
        "setup_s": setups,
        "pass_wall_s": [p["wall"] for p in passes],
        "pass_cpu_s": [p["cpu"] for p in passes],
        "traced_wall_s": traced["wall"] if traced else None,
        "end_to_end": e2e,
        "cells": [dict(cell=f"{key}/{method}", instance=instances[key].name,
                       seconds=[p["seconds"][k] for p in passes],
                       wall_seconds=[p["wall_seconds"][k] for p in passes],
                       failure=reasons[k], **expected[k])
                  for k, (key, method) in enumerate(cells)],
    }
    return result, details, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    OUT.mkdir(exist_ok=True)
    result, details, tracer = measure(args.workload, args.seed, args.seconds,
                                      bool(args.trace),
                                      HighsCache(OUT / "highs-cache.json", HIGHS_TIME_CAP))
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    details["environment"] = environment(args.workload, args.seed)
    if tracer is not None:
        details["spans"] = f".perfbench/spans-{tag}.json.gz"
        tracer.dump(ROOT / details["spans"])
    (OUT / f"result-{tag}.json").write_text(
        json.dumps({"details": details, "result": result}, indent=1), encoding="utf-8")
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0
