"""Command-line surface: run, bench, sweep, generate. Emits TSV."""

from __future__ import annotations

import argparse
import math
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

from . import driver, instance, rmp

RUN_COLUMNS = [
    "instance", "method", "iteration", "phase", "rmp_objective", "lb_raw", "lb_int",
    "ub", "rc_sum", "columns_added", "columns_removed", "pivots", "rmp_time",
    "pricing_time", "alpha_min", "alpha_avg", "alpha_max", "status", "gap_percent",
]

BENCH_COLUMNS = [
    "instance", "method", "seed", "status", "iterations", "phase1_iterations",
    "lb_int", "ub", "gap_percent", "integral", "total_pivots", "columns_added",
    "pivots_per_column", "rmp_time", "pricing_time", "total_time",
]


@dataclass
class SweepSpec:
    tau_values: list[int]
    replications: int = 5
    time_limit: float = 60.0
    smoothing_window: int = 5

    def __post_init__(self):
        if not self.tau_values or sorted(set(self.tau_values)) != list(self.tau_values):
            raise ValueError("tau values must be nonempty and strictly increasing")
        if self.replications < 1:
            raise ValueError("replications must be positive")
        if self.smoothing_window < 1 or self.smoothing_window % 2 == 0:
            raise ValueError("smoothing window must be an odd positive integer")


def _cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if not math.isfinite(value):
            return "-"
        return format(value, ".9g")
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


def _write_tsv(rows: list[list], columns: list[str], path: str | None):
    lines = ["\t".join(columns)]
    lines.extend("\t".join(_cell(v) for v in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def rolling_geomean(values: list[float], window: int) -> list[float]:
    """Centered rolling geometric mean; the window shrinks at the edges."""
    half = window // 2
    out = []
    for k in range(len(values)):
        chunk = values[max(0, k - half): k + half + 1]
        out.append(math.exp(sum(math.log(v) for v in chunk) / len(chunk)))
    return out


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(max(v, 1e-12)) for v in values) / len(values))


def select_tau(tau_values: list[int], smoothed: list[float],
               rel_tol: float = 0.01, abs_tol: float = 1.0) -> int:
    """Smallest threshold whose smoothed time is tied with the best.

    Ties are within ``rel_tol`` relatively or ``abs_tol`` seconds absolutely.
    """
    best = min(smoothed)
    for tau, value in zip(tau_values, smoothed):
        if value <= best * (1.0 + rel_tol) or value <= best + abs_tol:
            return tau
    raise AssertionError("the minimum itself always qualifies")


def _report_rows(report: driver.RunReport) -> list[list]:
    rows = []
    for r in report.rows:
        rows.append([report.instance, report.method, r.iteration, r.phase,
                     r.rmp_objective, r.lb_raw, r.lb_int, r.ub, r.rc_sum,
                     r.columns_added, r.columns_removed, r.pivots, r.rmp_time,
                     r.pricing_time, r.alpha_min, r.alpha_avg, r.alpha_max, None, None])
    rows.append([report.instance, report.method, None, "summary",
                 report.final_objective, report.lb_raw if math.isfinite(report.lb_raw) else None,
                 report.lb_int, report.ub, None, report.total_columns_added, None,
                 report.total_pivots, report.total_rmp_time, report.total_pricing_time,
                 None, None, None, report.status, report.gap_percent])
    return rows


def _make_config(args, method: str, seed: int) -> driver.CgConfig:
    override = None
    if args.age_a2 is not None or args.age_a1 is not None or args.age_a0 is not None:
        override = (args.age_a2 or 0.0, args.age_a1 or 0.0,
                    args.age_a0 if args.age_a0 is not None else 1.0)
    return driver.CgConfig(pricing_method=method,
                           epsilon=args.epsilon, time_limit=args.time_limit,
                           mip_gap=args.mip_gap, age_policy_override=override,
                           template_delta=args.delta, seed=seed)


def _load_instances(path: str, fmt: str) -> list[instance.GapInstance]:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    instances = instance.parse(text, format=fmt)
    stem = path.rsplit("/", 1)[-1]
    for k, inst in enumerate(instances):
        inst.name = stem if len(instances) == 1 else f"{stem}#{k}"
    return instances


def cmd_run(args) -> int:
    try:
        instances = _load_instances(args.instance, args.format)
    except (OSError, instance.ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    rows = []
    for inst in instances:
        cfg = _make_config(args, args.method, args.seed)
        try:
            report = driver.run(inst, cfg)
        except (instance.InfeasibleInstanceError, rmp.MasterInfeasibleError) as exc:
            print(f"error: {inst.name}: {exc}", file=sys.stderr)
            return 3
        rows.extend(_report_rows(report))
    _write_tsv(rows, RUN_COLUMNS, args.output)
    return 0


def _bench_cell(task) -> dict:
    """One bench row keyed by ``BENCH_COLUMNS``; a failing cell becomes an error row."""
    path_name, inst, method, seed, args_ns = task
    cfg = _make_config(args_ns, method, seed)
    t0 = time.perf_counter()
    try:
        report = driver.run(inst, cfg)
    except (instance.InfeasibleInstanceError, rmp.MasterInfeasibleError) as exc:
        return dict(zip(BENCH_COLUMNS, [path_name, method, seed, f"error:{exc}"]))
    except Exception as exc:  # one bad cell must not abort the sweep
        traceback.print_exc()
        return dict(zip(BENCH_COLUMNS, [path_name, method, seed,
                                        f"error:{type(exc).__name__}: {exc}"]))
    total = time.perf_counter() - t0
    ppc = (report.total_pivots / report.total_columns_added
           if report.total_columns_added else None)
    return dict(zip(BENCH_COLUMNS, [
        report.instance, method, seed, report.status, len(report.rows),
        report.phase1_iterations, report.lb_int, report.ub, report.gap_percent,
        report.integral_final, report.total_pivots, report.total_columns_added,
        ppc, report.total_rmp_time, report.total_pricing_time, total]))


def cmd_bench(args) -> int:
    methods = args.methods.split(",")
    seeds = [int(s) for s in args.seeds.split(",")]
    tasks = []
    try:
        for path in args.instances:
            for inst in _load_instances(path, args.format):
                for method in methods:
                    for seed in seeds:
                        tasks.append((inst.name, inst, method, seed, args))
    except (OSError, instance.ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            rows = list(pool.map(_bench_cell, tasks))
    else:
        rows = [_bench_cell(t) for t in tasks]
    summaries = []
    for method in methods:
        cells = [r for r in rows if r["method"] == method
                 and not r["status"].startswith("error")]
        if not cells:
            continue
        ppc = [r["pivots_per_column"] for r in cells if r["pivots_per_column"]]
        gaps = [r["gap_percent"] for r in cells if r["gap_percent"] is not None]
        summaries.append({"instance": "GEOMEAN", "method": method, "status": "summary",
                          "iterations": geomean([r["iterations"] for r in cells]),
                          "gap_percent": sum(gaps) / len(gaps) if gaps else None,
                          "integral": 100.0 * sum(r["integral"] for r in cells) / len(cells),
                          "pivots_per_column": geomean(ppc) if ppc else None,
                          "total_time": geomean([r["total_time"] for r in cells])})
    _write_tsv([[r.get(c) for c in BENCH_COLUMNS] for r in rows + summaries],
               BENCH_COLUMNS, args.output)
    return 0


def run_sweep(inst: instance.GapInstance, method: str, spec: SweepSpec,
              base_cfg: driver.CgConfig, rel_tol: float = 0.01, abs_tol: float = 1.0,
              time_fn=None):
    """Time the solver across age thresholds and pick the robust smallest.

    ``time_fn(tau, seed) -> seconds`` may replace the real runs (testing).
    Returns ``(selected_tau, raw_times_per_tau, smoothed)``.
    """
    raw: list[list[float]] = []
    for tau in spec.tau_values:
        times = []
        for rep in range(spec.replications):
            seed = base_cfg.seed + rep
            if time_fn is not None:
                times.append(min(float(time_fn(tau, seed)), spec.time_limit))
                continue
            cfg = replace(base_cfg, pricing_method=method, time_limit=spec.time_limit,
                          age_policy_override=(0.0, 0.0, float(tau)), seed=seed)
            t0 = time.perf_counter()
            driver.run(inst, cfg)
            times.append(min(time.perf_counter() - t0, spec.time_limit))
        raw.append(times)
    per_tau = [geomean(times) for times in raw]
    smoothed = rolling_geomean(per_tau, spec.smoothing_window)
    selected = select_tau(spec.tau_values, smoothed, rel_tol, abs_tol)
    return selected, per_tau, smoothed


def cmd_sweep(args) -> int:
    try:
        inst = _load_instances(args.instance, args.format)[0]
    except (OSError, instance.ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    spec = SweepSpec(tau_values=[int(t) for t in args.taus.split(",")],
                     replications=args.replications, time_limit=args.time_limit,
                     smoothing_window=args.window)
    base = _make_config(args, args.method, args.seed)
    try:
        selected, per_tau, smoothed = run_sweep(inst, args.method, spec, base,
                                                rel_tol=args.tie_rel, abs_tol=args.tie_abs)
    except (instance.InfeasibleInstanceError, rmp.MasterInfeasibleError) as exc:
        print(f"error: {inst.name}: {exc}", file=sys.stderr)
        return 3
    rows = [[tau, g, s, 1 if tau == selected else 0]
            for tau, g, s in zip(spec.tau_values, per_tau, smoothed)]
    _write_tsv(rows, ["tau", "geomean_time", "smoothed_time", "selected"], args.output)
    print(f"selected tau: {selected}", file=sys.stderr)
    return 0


def cmd_generate(args) -> int:
    spec = instance.GeneratorSpec(num_machines=args.machines, num_jobs=args.jobs,
                                  cost_range=(args.cost_lo, args.cost_hi),
                                  resource_range=(args.resource_lo, args.resource_hi),
                                  capacity_slack=args.slack, seed=args.seed)
    try:
        inst = instance.generate(spec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = instance.serialize(inst)
    if args.output is None or args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    print(f"job/machine ratio: {inst.ratio:g}", file=sys.stderr)
    return 0


def _template_delta(text: str) -> float:
    if not 0.0 <= float(text) <= 0.5:
        raise argparse.ArgumentTypeError(f"{text} lies outside [0, 0.5]")
    return float(text)


def _add_common(parser):
    parser.add_argument("--time-limit", type=float, default=600.0, help="seconds per run")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--epsilon", type=float, default=1e-6)
    parser.add_argument("--delta", type=_template_delta, default=1e-6)
    parser.add_argument("--mip-gap", type=float, default=1e-5)
    parser.add_argument("--age-a2", type=float, default=None)
    parser.add_argument("--age-a1", type=float, default=None)
    parser.add_argument("--age-a0", type=float, default=None)
    parser.add_argument("--format", choices=["single", "orlib-multi"], default="single")
    parser.add_argument("--output", default=None, help="TSV path; '-' for stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gapcg",
                                     description="Column generation for the GAP")
    sub = parser.add_subparsers(dest="command", required=True)
    cg_methods = list(rmp.AGE_POLICIES)

    p_run = sub.add_parser("run", help="solve one instance file")
    p_run.add_argument("instance")
    p_run.add_argument("--method", choices=[*cg_methods, "lr"], default="lt")
    _add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_bench = sub.add_parser("bench", help="compare methods over instances and seeds")
    p_bench.add_argument("instances", nargs="+")
    p_bench.add_argument("--methods", default=",".join(cg_methods))
    p_bench.add_argument("--seeds", default="0")
    p_bench.add_argument("--workers", type=int, default=1)
    _add_common(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    p_sweep = sub.add_parser("sweep", help="age-threshold sweep on one instance")
    p_sweep.add_argument("instance")
    p_sweep.add_argument("--method", choices=cg_methods, default="lt")
    p_sweep.add_argument("--taus", required=True, help="comma-separated thresholds")
    p_sweep.add_argument("--replications", type=int, default=5)
    p_sweep.add_argument("--window", type=int, default=5)
    p_sweep.add_argument("--tie-rel", type=float, default=0.01)
    p_sweep.add_argument("--tie-abs", type=float, default=1.0)
    _add_common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_gen = sub.add_parser("generate", help="write a random instance file")
    p_gen.add_argument("--machines", type=int, required=True)
    p_gen.add_argument("--jobs", type=int, required=True)
    p_gen.add_argument("--cost-lo", type=int, default=10)
    p_gen.add_argument("--cost-hi", type=int, default=50)
    p_gen.add_argument("--resource-lo", type=int, default=5)
    p_gen.add_argument("--resource-hi", type=int, default=25)
    p_gen.add_argument("--slack", type=float, default=0.8)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--output", default=None)
    p_gen.set_defaults(func=cmd_generate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
