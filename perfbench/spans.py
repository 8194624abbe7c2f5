"""Outside-in layer trace for the benchmark.

The tracer replaces public functions of the gapcg modules with thin
wrappers that record one span per call (name, cell id, parent span, start,
end) plus a few counts taken from the call's arguments and result. Nothing
in the package itself is edited: every patched attribute is restored by
:meth:`Tracer.uninstall`.

Patching targets the names the callers actually look up. ``pricing`` and
``lagrangian`` import ``min_knapsack``/``lex_knapsack`` by name, so the
knapsack wrappers replace those bindings; patching ``gapcg.knapsack`` alone
would time nothing.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import defaultdict

from gapcg import driver, instance, lagrangian, pricing, rmp, simplex

WRAPPED_MARK = "__perfbench_span__"


def _min_cells(args, result):
    """DP cells of one ``min_knapsack`` call, computed from its arguments."""
    p = args[0]
    cand = (p.profit < 0) & (p.weight > 0) & (p.weight <= p.capacity)
    count = int(cand.sum())
    if not count:
        return {"cells": 0}
    cap = min(p.capacity, int(p.weight[cand].sum()))
    return {"cells": count * (cap + 1)}


def _lex_cells(args, result):
    """DP cells (= bytes of the ``take`` table) of one ``lex_knapsack`` call."""
    p = args[0]
    fit = p.weight <= p.capacity
    count = int(fit.sum())
    cap = min(p.capacity, int(p.weight[fit].sum())) if count else 0
    return {"cells": count * (2 * p.n + 1) * (cap + 1)}


def _simplex_stats(args, result):
    lp = args[0]
    return {"pivots": int(result), "n": lp.n, "sealed": int(lp.sealed[: lp.n].sum())}


def _pool_size(args, result):
    return {"pool": args[0].size()}


def _removed(args, result):
    return {"removed": int(result)}


def _outcome(args, result):
    return {"columns": int(result.selection is not None),
            "proof": int(result.proof_fired), "flagged": int(result.flagged)}


def _pessoa_outcome(args, result):
    outcomes, _, k_used = result
    return {"columns": sum(o.selection is not None for o in outcomes), "k": k_used}


# (owner, attribute, span name, count hook) for every wrapped callable.
TARGETS = [
    (instance, "generate", "instance.generate", None),
    (instance, "serialize", "instance.serialize", None),
    (instance, "parse", "instance.parse", None),
    (driver, "run", "driver.run", None),
    (driver, "run_lr", "driver.run_lr", None),
    (rmp, "build_and_solve", "rmp.build_and_solve", _pool_size),
    (rmp, "solve_compact_lp", "rmp.solve_compact_lp", None),
    (rmp, "project_primal", "rmp.project_primal", None),
    (rmp, "manage_columns", "rmp.manage_columns", _removed),
    (rmp, "extract_integer_solution", "rmp.extract_integer_solution", None),
    (rmp.ColumnPool, "add", "rmp.ColumnPool.add", None),
    (simplex.SimplexSolver, "solve", "simplex.solve", _simplex_stats),
    (pricing, "dantzig_price", "pricing.dantzig", _outcome),
    (pricing, "lt_price", "pricing.lt", _outcome),
    (pricing, "mt_price", "pricing.mt", _outcome),
    (pricing, "pessoa_round", "pricing.pessoa", _pessoa_outcome),
    (pricing, "min_knapsack", "knapsack.min", _min_cells),
    (pricing, "lex_knapsack", "knapsack.lex", _lex_cells),
    (lagrangian, "min_knapsack", "knapsack.min", _min_cells),
    (lagrangian, "lr_solve", "lagrangian.lr_solve", None),
    (lagrangian, "lr_evaluate", "lagrangian.lr_evaluate", None),
]


class Tracer:
    """Span recorder; spans stay in memory until :meth:`dump`.

    A span is ``[name, cell, parent, start, end, counts]`` where ``parent``
    indexes ``spans`` (-1 for a root) and ``counts`` is a dict or None.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.cell: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, fn, name, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, self.cell, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if hook is not None:
                span[5] = hook(args, result)
            return result

        setattr(wrapper, WRAPPED_MARK, name)
        return wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, hook in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, hook))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def dump(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "cell", "parent", "start", "end", "counts"],
                       "spans": self.spans}, fh)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer figures of one traced pass; see README for definitions.

    Self time is a span's duration minus the durations of its direct
    children. Metrics of a layer the workload never enters read 0.
    """
    child_time = [0.0] * len(spans)
    for name, _, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    calls = defaultdict(int)
    sums = defaultdict(float)
    peaks = defaultdict(float)
    last_master = {}  # cell -> counts of its last master solve
    coverage = []
    lt_knapsacks = 0
    for k, (name, cell, parent, start, end, counts) in enumerate(spans):
        dur = end - start
        self_s[name] += dur - child_time[k]
        total_s[name] += dur
        calls[name] += 1
        if counts:
            for key, value in counts.items():
                sums[f"{name}.{key}"] += value
                peaks[f"{name}.{key}"] = max(peaks[f"{name}.{key}"], value)
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == "simplex.solve" and parent_name == "rmp.build_and_solve":
            last_master[cell] = counts
        if name == "knapsack.min" and parent_name == "pricing.lt":
            lt_knapsacks += 1
        if name in ("driver.run", "driver.run_lr"):
            coverage.append(_ratio(child_time[k], dur))

    m = {}
    m["simplex.solve_s"] = self_s["simplex.solve"]
    m["simplex.solve_calls"] = calls["simplex.solve"]
    m["simplex.pivots"] = sums["simplex.solve.pivots"]
    m["simplex.us_per_pivot"] = 1e6 * _ratio(m["simplex.solve_s"], m["simplex.pivots"])
    m["simplex.width_peak"] = peaks["simplex.solve.n"]
    shares = [c["sealed"] / c["n"] for c in last_master.values() if c and c["n"]]
    m["simplex.sealed_share"] = _ratio(sum(shares), len(shares))

    m["rmp.master_s"] = self_s["rmp.build_and_solve"]
    m["rmp.compact_lp_s"] = total_s["rmp.solve_compact_lp"]
    m["rmp.columns_s"] = sum(self_s[k] for k in (
        "rmp.manage_columns", "rmp.ColumnPool.add", "rmp.project_primal",
        "rmp.extract_integer_solution"))
    m["rmp.pool_peak"] = peaks["rmp.build_and_solve.pool"]
    m["rmp.columns_removed"] = sums["rmp.manage_columns.removed"]

    methods = ("dantzig", "pessoa", "lt", "mt")
    for method in methods:
        m[f"pricing.{method}.s"] = self_s[f"pricing.{method}"]
        m[f"pricing.{method}.calls"] = calls[f"pricing.{method}"]
    m["pricing.yield"] = _ratio(sum(sums[f"pricing.{x}.columns"] for x in methods),
                                sum(calls[f"pricing.{x}"] for x in methods))
    m["pricing.lt.proof_rate"] = _ratio(sums["pricing.lt.proof"], sums["pricing.lt.columns"])
    m["pricing.lt.flagged"] = sums["pricing.lt.flagged"]
    m["pricing.lt.knapsacks_per_call"] = _ratio(lt_knapsacks, calls["pricing.lt"])
    m["pricing.pessoa.k_mean"] = _ratio(sums["pricing.pessoa.k"], calls["pricing.pessoa"])

    for kernel in ("min", "lex"):
        name = f"knapsack.{kernel}"
        m[f"{name}.s"] = self_s[name]
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.cells"] = sums[f"{name}.cells"]
        m[f"{name}.ns_per_cell"] = 1e9 * _ratio(self_s[name], sums[f"{name}.cells"])
    m["knapsack.lex.take_mb_peak"] = peaks["knapsack.lex.cells"] / 1e6

    m["lagrangian.evaluate_s"] = self_s["lagrangian.lr_evaluate"]
    m["lagrangian.evaluations"] = calls["lagrangian.lr_evaluate"]
    m["lagrangian.ascent_s"] = self_s["lagrangian.lr_solve"]

    m["instance.load_s"] = sum(total_s[f"instance.{x}"]
                               for x in ("generate", "serialize", "parse"))
    m["driver.self_s"] = self_s["driver.run"] + self_s["driver.run_lr"]
    m["trace.coverage"] = min(coverage) if coverage else 0.0
    return m
