"""Command-line surface: run, bench, sweep, generate. Emits TSV."""

from __future__ import annotations

import argparse
import math
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, fields, replace

from . import driver, instance, rmp

RUN_COLUMNS = ["instance", "method", *(f.name for f in fields(driver.IterRow))]

METHODS = [*rmp.AGE_POLICIES, "lr"]

BENCH_COLUMNS = [
    "instance", "method", "seed", "status", "iterations", "phase1_iterations",
    "lb_int", "ub", "gap_percent", "integral", "total_pivots", "columns_added",
    "pivots_per_column", "rmp_time", "pricing_time", "total_time",
]


SWEEP_WINDOW = 5  # thresholds per smoothing window
TIE_REL = 0.01
TIE_ABS = 1.0


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
    _write("\n".join(lines) + "\n", path)


def _write(text: str, path: str | None):
    """Write ``text`` to the file ``path``, or to stdout for None or '-'."""
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def rolling_geomean(values: list[float], window: int) -> list[float]:
    """Centered rolling geometric mean; the window shrinks at the edges."""
    half = window // 2
    return [geomean(values[max(0, k - half): k + half + 1]) for k in range(len(values))]


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(max(v, 1e-12)) for v in values) / len(values))


def select_tau(tau_values: list[int], smoothed: list[float]) -> int:
    """Smallest threshold whose smoothed time is tied with the best.

    Ties are within ``TIE_REL`` relatively or ``TIE_ABS`` seconds absolutely.
    """
    best = min(smoothed)
    for tau, value in zip(tau_values, smoothed):
        if value <= best * (1.0 + TIE_REL) or value <= best + TIE_ABS:
            return tau
    raise AssertionError("the minimum itself always qualifies")


def _report_rows(report: driver.RunReport) -> list[list]:
    """The run TSV's rows under ``RUN_COLUMNS``: one per iteration, then the summary."""
    return [[report.instance, report.method, *astuple(row)]
            for row in (*report.rows, report.summary())]


def _make_config(args, method: str, seed: int) -> driver.CgConfig:
    # sweep has no --age-threshold: run_sweep sets the threshold itself
    return driver.CgConfig(pricing_method=method,
                           epsilon=args.epsilon, time_limit=args.time_limit,
                           mip_gap=args.mip_gap,
                           age_threshold=getattr(args, "age_threshold", None),
                           template_delta=args.delta, seed=seed)


class CliError(Exception):
    """A failure that ``main`` reports as one ``error:`` line and exit ``code``."""

    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _load_instances(path: str, fmt: str) -> list[instance.GapInstance]:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        instances = instance.parse(text, format=fmt)
    except OSError as exc:  # its message already names the path
        raise CliError(str(exc), 3) from exc
    except (UnicodeDecodeError, instance.ParseError) as exc:
        raise CliError(f"{path}: {exc}", 3) from exc
    stem = path.rsplit("/", 1)[-1]
    for k, inst in enumerate(instances):
        inst.name = stem if len(instances) == 1 else f"{stem}#{k}"
    return instances


def cmd_run(args) -> int:
    rows = []
    for inst in _load_instances(args.instance, args.format):
        try:
            report = driver.run(inst, _make_config(args, args.method, args.seed))
        except instance.InfeasibleInstanceError as exc:
            raise CliError(f"{inst.name}: {exc}", 3) from exc
        rows.extend(_report_rows(report))
    _write_tsv(rows, RUN_COLUMNS, args.output)
    return 0


def _bench_cell(task) -> dict:
    """One bench row keyed by ``BENCH_COLUMNS``; a failing cell becomes an error row."""
    path_name, inst, method, seed, args_ns = task
    cell = {"instance": path_name, "method": method, "seed": seed}
    t0 = time.perf_counter()
    try:
        report = driver.run(inst, _make_config(args_ns, method, seed))
    except instance.InfeasibleInstanceError as exc:
        return {**cell, "status": f"error:{exc}"}
    except Exception as exc:  # one bad cell must not abort the sweep
        traceback.print_exc()
        return {**cell, "status": f"error:{type(exc).__name__}: {exc}"}
    total = time.perf_counter() - t0
    ppc = (report.total_pivots / report.total_columns_added
           if report.total_columns_added else None)
    return {**cell, "status": report.status, "iterations": len(report.rows),
            "phase1_iterations": report.phase1_iterations, "lb_int": report.lb_int,
            "ub": report.ub, "gap_percent": report.gap_percent,
            "integral": report.integral_final, "total_pivots": report.total_pivots,
            "columns_added": report.total_columns_added, "pivots_per_column": ppc,
            "rmp_time": report.total_rmp_time, "pricing_time": report.total_pricing_time,
            "total_time": total}


def cmd_bench(args) -> int:
    tasks = [(inst.name, inst, method, seed, args)
             for path in args.instances for inst in _load_instances(path, args.format)
             for method in args.methods for seed in args.seeds]
    workers = min(args.workers, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_bench_cell, tasks))
    else:
        rows = [_bench_cell(t) for t in tasks]
    summaries = []
    for method in args.methods:
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


def run_sweep(inst: instance.GapInstance, taus: list[int], seeds: list[int],
              base_cfg: driver.CgConfig):
    """Time the solver across age thresholds and pick the robust smallest.

    Each run is capped at ``base_cfg.time_limit``. Every threshold is timed
    once per labeling in ``seeds`` (see ``instance.relabel``). Returns
    ``(selected_tau, geomean_time_per_tau, smoothed)``.
    """
    per_tau = []
    for tau in taus:
        times = []
        for seed in seeds:
            cfg = replace(base_cfg, age_threshold=tau, seed=seed)
            t0 = time.perf_counter()
            driver.run(inst, cfg)
            times.append(min(time.perf_counter() - t0, base_cfg.time_limit))
        per_tau.append(geomean(times))
    smoothed = rolling_geomean(per_tau, SWEEP_WINDOW)
    return select_tau(taus, smoothed), per_tau, smoothed


def cmd_sweep(args) -> int:
    instances = _load_instances(args.instance, args.format)
    if len(instances) != 1:
        raise CliError(f"sweep takes one instance; {args.instance} holds {len(instances)}", 2)
    inst, = instances
    base = _make_config(args, args.method, seed=0)  # run_sweep sets each run's seed
    try:
        selected, per_tau, smoothed = run_sweep(inst, args.taus, args.seeds, base)
    except instance.InfeasibleInstanceError as exc:
        raise CliError(f"{inst.name}: {exc}", 3) from exc
    rows = [[tau, g, s, 1 if tau == selected else 0]
            for tau, g, s in zip(args.taus, per_tau, smoothed)]
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
        instance.validate(inst)  # a valid draw can still be infeasible: run then exits 3
    except ValueError as exc:
        raise CliError(str(exc), 2) from exc
    _write(instance.serialize(inst), args.output)
    print(f"job/machine ratio: {inst.ratio:g}", file=sys.stderr)
    return 0


def _checked(convert, ok, requirement: str):
    """An argparse type: a ``convert``ed value for which ``ok`` holds, else a usage error."""
    def parse(text: str):
        if not ok(convert(text)):
            raise argparse.ArgumentTypeError(f"{text} is not {requirement}")
        return convert(text)
    parse.__name__ = convert.__name__  # argparse names the type in "invalid float value"
    return parse


_finite_nonnegative = _checked(float, lambda v: 0.0 <= v < math.inf, "a finite number >= 0")
_epsilon = _checked(float, lambda v: driver.MIN_EPSILON <= v < math.inf,
                    f"a finite number >= {driver.MIN_EPSILON:g}")
_positive = _checked(float, lambda v: 0.0 < v <= math.inf, "> 0")
_half_unit = _checked(float, lambda v: 0.0 <= v <= 0.5, "in [0, 0.5]")
_seed = _checked(int, lambda v: v >= 0, "an integer >= 0")
_positive_int = _checked(int, lambda v: v >= 1, "an integer >= 1")


def _list_of(item):
    """An argparse type: comma-separated ``item`` values."""
    def parse(text: str) -> list:
        return [item(s) for s in text.split(",")]
    parse.__name__ = f"{item.__name__} list"
    return parse


_increasing_taus = _checked(_list_of(_positive_int), lambda v: all(a < b for a, b in zip(v, v[1:])),
                            "a strictly increasing list")


def _method_list(text: str) -> list[str]:
    if not set(text.split(",")) <= set(METHODS):
        raise argparse.ArgumentTypeError(f"{text!r} names a method outside {','.join(METHODS)}")
    return text.split(",")


def _add_common(parser):
    defaults = driver.CgConfig()
    parser.add_argument("--time-limit", type=_positive, default=defaults.time_limit,
                        help="seconds per run")
    parser.add_argument("--epsilon", type=_epsilon, default=defaults.epsilon,
                        help="reduced-cost budget of pricing; at least the master's "
                             f"pricing tolerance, {driver.MIN_EPSILON:g}")
    parser.add_argument("--delta", type=_half_unit, default=defaults.template_delta)
    parser.add_argument("--mip-gap", type=_finite_nonnegative, default=defaults.mip_gap)
    parser.add_argument("--format", choices=["single", "orlib-multi"], default="single")
    parser.add_argument("--output", default=None, help="TSV path; '-' for stdout")


def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False: each flag has one spelling, and a prefix is a usage error
    parser = argparse.ArgumentParser(prog="gapcg", allow_abbrev=False,
                                     description="Column generation for the GAP")
    sub = parser.add_subparsers(dest="command", required=True)
    cg_methods = list(rmp.AGE_POLICIES)

    p_run = sub.add_parser("run", allow_abbrev=False, help="solve one instance file")
    p_run.add_argument("instance")
    p_run.add_argument("--method", choices=METHODS, default="lt")
    p_run.add_argument("--seed", type=_seed, default=driver.CgConfig.seed,
                       help="relabel jobs and machines; 0 keeps the file's labels")
    _add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_bench = sub.add_parser("bench", allow_abbrev=False,
                             help="compare methods over instances and seeds")
    p_bench.add_argument("instances", nargs="+")
    p_bench.add_argument("--methods", type=_method_list, default=",".join(cg_methods))
    p_bench.add_argument("--workers", type=_positive_int, default=1,
                         help="worker processes; never more than the number of cells")
    _add_common(p_bench)
    p_bench.set_defaults(func=cmd_bench)
    for p in (p_run, p_bench):  # not sweep, which sets the threshold itself
        p.add_argument("--age-threshold", type=_positive_int, default=None,
                       help="drop a column once more iterations than this have passed "
                            "since it was added or last basic; default: the method's policy")

    p_sweep = sub.add_parser("sweep", allow_abbrev=False,
                             help="age-threshold sweep on one instance")
    p_sweep.add_argument("instance")
    p_sweep.add_argument("--method", choices=cg_methods, default="lt")
    p_sweep.add_argument("--taus", type=_increasing_taus, required=True,
                         help="comma-separated, strictly increasing thresholds")
    _add_common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)
    for p, default in ((p_bench, "0"), (p_sweep, "0,1,2,3,4")):
        p.add_argument("--seeds", type=_list_of(_seed), default=default,
                       help="comma-separated; each entry relabels jobs and machines, "
                            "0 keeps the file's labels")

    p_gen = sub.add_parser("generate", allow_abbrev=False, help="write a random instance file")
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
    try:
        return args.func(args)
    except CliError as exc:  # an OSError from writing --output propagates (exit 1)
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
