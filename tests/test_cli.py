import argparse
import dataclasses
import math
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

from gapcg import cli, driver
from gapcg.cli import (_make_config, build_parser, geomean, main, rolling_geomean, run_sweep,
                       select_tau)
from gapcg.driver import CgConfig
from gapcg.instance import GeneratorSpec, generate, serialize
from gapcg.simplex import SimplexError


@pytest.fixture
def instance_file(tmp_path):
    inst = generate(GeneratorSpec(num_machines=2, num_jobs=8, cost_range=(1, 20),
                                  resource_range=(1, 10), capacity_slack=0.9, seed=1))
    path = tmp_path / "toy.txt"
    path.write_text(serialize(inst))
    return str(path)


def rejected_flag(stderr: str) -> str | None:
    """The flag that an argparse usage error names as rejected; the usage
    line above the error names every flag of the command."""
    match = re.search(r"error: (?:argument (\S+):|unrecognized arguments: (\S+))", stderr)
    return match and (match[1] or match[2])


# ------------------------------------------------------------------------- run

def test_run_writes_tsv(instance_file, tmp_path):
    out = tmp_path / "run.tsv"
    code = main(["run", instance_file, "--method", "lt", "--time-limit", "30",
                 "--output", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    header = lines[0].split("\t")
    assert header[:4] == ["instance", "method", "iteration", "phase"]
    assert all(len(line.split("\t")) == len(header) for line in lines[1:])
    assert "summary" in lines[-1]
    for line in lines[1:]:
        for cell in line.split("\t"):
            assert cell != ""
            if cell not in ("-",) and not cell[0].isalpha():
                assert math.isfinite(float(cell.replace("#", "0")))


def test_run_unknown_method_exits_2(instance_file, capsys):
    with pytest.raises(SystemExit) as err:
        main(["run", instance_file, "--method", "bogus"])
    assert err.value.code == 2


@pytest.mark.parametrize("command, delta", [
    (["run", "--method", "lt"], "0.7"),
    (["run", "--method", "dantzig"], "0.7"),
    (["bench"], "-0.1"),
    (["sweep", "--taus", "1,2"], "0.7"),
], ids=["run-lt", "run-dantzig", "bench", "sweep"])
def test_delta_outside_zero_to_half_exits_2(instance_file, capsys, command, delta):
    with pytest.raises(SystemExit) as err:
        main([command[0], instance_file, *command[1:], "--delta", delta])
    assert err.value.code == 2
    assert rejected_flag(capsys.readouterr().err) == "--delta"


@pytest.mark.parametrize("command, epsilon", [
    (["run", "--method", "lt"], "-1"),
    (["bench"], "nan"),
    (["sweep", "--taus", "1,2"], "inf"),
], ids=["run", "bench", "sweep"])
def test_epsilon_negative_or_not_finite_exits_2(instance_file, capsys, command, epsilon):
    with pytest.raises(SystemExit) as err:
        main([command[0], instance_file, *command[1:], "--epsilon", epsilon])
    assert err.value.code == 2
    assert rejected_flag(capsys.readouterr().err) == "--epsilon"


@pytest.mark.parametrize("method", ["dantzig", "pessoa", "lt", "mt", "lr"])
@pytest.mark.parametrize("epsilon", ["0", "1e-12", "9.9e-10"])
def test_epsilon_below_the_pricing_tolerance_exits_2(instance_file, capsys, monkeypatch,
                                                     method, epsilon):
    # a budget below the master's pricing tolerance lets a column the master
    # already holds clear it, so pricing would return a duplicate
    def no_run(inst, cfg):
        raise AssertionError("ran before rejecting its flags")

    monkeypatch.setattr(driver, "run", no_run)
    with pytest.raises(SystemExit) as err:
        main(["run", instance_file, "--method", method, "--epsilon", epsilon])
    assert err.value.code == 2
    assert rejected_flag(capsys.readouterr().err) == "--epsilon"


@pytest.mark.parametrize("method", ["dantzig", "pessoa", "lt", "mt"])
@pytest.mark.parametrize("size, lb_int", [((3, 12), "273"), ((4, 24), "495")],
                         ids=["g3x12", "g4x24"])
def test_epsilon_at_the_pricing_tolerance_runs(method, size, lb_int, tmp_path):
    path = tmp_path / "inst.txt"
    path.write_text(serialize(generate(GeneratorSpec(*size, seed=0))))
    out = tmp_path / "run.tsv"
    assert main(["run", str(path), "--method", method, "--epsilon", "1e-9",
                 "--output", str(out)]) == 0
    summary = out.read_text().strip().split("\n")[-1].split("\t")
    assert summary[cli.RUN_COLUMNS.index("lb_int")] == lb_int


@pytest.mark.parametrize("command, flag, value", [
    (["run", "--method", "dantzig"], "--time-limit", "nan"),
    (["bench"], "--time-limit", "0"),
    (["sweep", "--taus", "1,2"], "--time-limit", "-1"),
    (["run", "--method", "dantzig"], "--mip-gap", "nan"),
    (["bench"], "--mip-gap", "inf"),
    (["sweep", "--taus", "1,2"], "--mip-gap", "-0.1"),
    # flags that no command takes, named in the usage error like a bad value
    (["run", "--method", "dantzig"], "--age-a0", "nan"),
    (["bench"], "--age-a1", "inf"),
    (["sweep", "--taus", "1,2"], "--age-a2", "-inf"),
], ids=["run-time-limit-nan", "bench-time-limit-0", "sweep-time-limit-negative",
        "run-mip-gap-nan", "bench-mip-gap-inf", "sweep-mip-gap-negative",
        "run-age-a0-nan", "bench-age-a1-inf", "sweep-age-a2-minus-inf"])
def test_out_of_range_float_flag_exits_2(instance_file, capsys, command, flag, value):
    with pytest.raises(SystemExit) as err:
        main([command[0], instance_file, *command[1:], flag, value])
    assert err.value.code == 2
    assert rejected_flag(capsys.readouterr().err) == flag


@pytest.mark.parametrize("flags", [
    ["--age-threshold", "3"],
    ["--tie-rel", "-1"], ["--tie-rel", "nan"], ["--tie-abs", "-1"], ["--tie-abs", "nan"],
    ["--tie-abs", "inf"], ["--age-a2", "1"], ["--age-a1", "1"], ["--age-a0", "1"],
    ["--replications", "5"], ["--seed", "3"],
], ids=["age-threshold", "tie-rel-negative", "tie-rel-nan", "tie-abs-negative", "tie-abs-nan",
        "tie-abs-inf", "age-a2", "age-a1", "age-a0", "replications", "seed"])
def test_sweep_rejects_bad_flags_before_any_run(instance_file, capsys, monkeypatch, flags):
    # the sweep sets the age threshold itself, so --age-threshold would be
    # ignored; the tie rule is fixed, no command takes --age-a2/a1/a0, and
    # --seeds names the sweep's labelings in place of --seed and --replications
    def no_run(inst, cfg):
        raise AssertionError("the sweep ran before rejecting its flags")

    monkeypatch.setattr(driver, "run", no_run)
    with pytest.raises(SystemExit) as err:
        main(["sweep", instance_file, "--taus", "1,2", "--seeds", "0", *flags])
    assert err.value.code == 2
    assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err


def test_infinite_time_limit_is_accepted(instance_file, tmp_path):
    out = tmp_path / "run.tsv"
    assert main(["run", instance_file, "--method", "dantzig", "--time-limit", "inf",
                 "--output", str(out)]) == 0
    assert "summary" in out.read_text()


@pytest.mark.parametrize("command, flag", [
    (["bench", "--methods", "dantzig,foo"], "--methods"),
    (["bench", "--seeds", "0,x"], "--seeds"),
    (["sweep", "--taus", "1,x"], "--taus"),
    (["sweep", "--taus", "4,2"], "--taus"),
    (["sweep", "--taus", "1,2,2"], "--taus"),
    (["sweep", "--taus", "1,2", "--seeds", "0,x"], "--seeds"),
], ids=["bench-methods", "bench-seeds", "sweep-taus", "sweep-taus-not-increasing",
        "sweep-taus-repeated", "sweep-seeds"])
def test_malformed_list_flag_exits_2(instance_file, capsys, command, flag):
    with pytest.raises(SystemExit) as err:
        main([command[0], instance_file, *command[1:]])
    assert err.value.code == 2
    assert rejected_flag(capsys.readouterr().err) == flag


def test_sweep_multi_instance_file_exits_2(tmp_path, capsys, monkeypatch):
    def no_run(inst, cfg):
        raise AssertionError("the sweep ran on a file of two instances")

    monkeypatch.setattr(driver, "run", no_run)
    path = tmp_path / "two.txt"
    path.write_text("2\n" + "".join(serialize(generate(GeneratorSpec(2, 6, seed=s)))
                                     for s in (1, 2)))
    assert main(["sweep", str(path), "--format", "orlib-multi", "--taus", "1,2"]) == 2
    assert capsys.readouterr().err == f"error: sweep takes one instance; {path} holds 2\n"


@pytest.mark.parametrize("command, flag, value", [
    (["run", "--method", "dantzig"], "--seed", "-1"),
    (["sweep", "--taus", "1,2"], "--seeds", "-1"),
    (["bench", "--methods", "dantzig"], "--seeds", "-1"),
    (["sweep"], "--taus", "-5,0,1"),
    (["sweep"], "--taus", "0,1"),
    (["bench", "--methods", "dantzig"], "--workers", "0"),
    (["bench", "--methods", "dantzig"], "--workers", "-2"),
    (["run", "--method", "dantzig"], "--age-threshold", "0"),
    (["run", "--method", "dantzig"], "--age-threshold", "1.5"),
    (["run", "--method", "dantzig"], "--age-threshold", "nan"),
    (["bench", "--methods", "dantzig"], "--age-threshold", "0"),
    (["bench", "--methods", "dantzig"], "--age-threshold", "1.5"),
    (["bench", "--methods", "dantzig"], "--age-threshold", "nan"),
], ids=["run-seed", "sweep-seeds", "bench-seeds", "sweep-taus-negative", "sweep-taus-zero",
        "bench-workers-zero", "bench-workers-negative", "run-age-threshold-zero",
        "run-age-threshold-fraction", "run-age-threshold-nan", "bench-age-threshold-zero",
        "bench-age-threshold-fraction", "bench-age-threshold-nan"])
def test_out_of_range_integer_flag_exits_2(instance_file, capsys, monkeypatch,
                                           command, flag, value):
    def no_run(inst, cfg):
        raise AssertionError("ran before rejecting its flags")

    monkeypatch.setattr(driver, "run", no_run)
    with pytest.raises(SystemExit) as err:
        main([command[0], instance_file, *command[1:], f"{flag}={value}"])
    assert err.value.code == 2
    assert rejected_flag(capsys.readouterr().err) == flag


def test_every_config_field_has_a_flag():
    # a CgConfig field that no flag sets is a switch only tests can reach
    args = build_parser().parse_args([
        "run", "x.txt", "--method", "mt", "--time-limit", "5", "--seed", "3",
        "--epsilon", "1e-4", "--delta", "0.01", "--mip-gap", "0.5", "--age-threshold", "2"])
    cfg, default = _make_config(args, args.method, args.seed), CgConfig()
    for f in dataclasses.fields(CgConfig):
        assert getattr(cfg, f.name) != getattr(default, f.name), f.name


def subparsers() -> dict[str, argparse.ArgumentParser]:
    action = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def long_options(parser: argparse.ArgumentParser) -> set[str]:
    return {option for action in parser._actions for option in action.option_strings
            if option.startswith("--")}


def test_readme_names_every_flag():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
    flags = set().union(*map(long_options, subparsers().values())) - {"--help"}
    assert sorted(flags - documented) == []
    assert sorted(documented - flags) == []


# the fewest arguments each command parses without error
MINIMAL_ARGS = {"run": ["x.txt"], "bench": ["x.txt"], "sweep": ["x.txt", "--taus", "1"],
                "generate": ["--machines", "1", "--jobs", "1"]}


def test_no_flag_prefix_is_accepted(capsys):
    # argparse would otherwise read any unique prefix as the whole flag
    for command, parser in subparsers().items():
        build_parser().parse_args([command, *MINIMAL_ARGS[command]])
        options = long_options(parser)
        for prefix in sorted({option[:-1] for option in options} - options):
            with pytest.raises(SystemExit) as err:
                build_parser().parse_args([command, *MINIMAL_ARGS[command], f"{prefix}=1"])
            assert err.value.code == 2, (command, prefix)
            assert f"unrecognized arguments: {prefix}=1" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["run"], ["bench"], ["sweep", "--taus", "1,2"]],
                         ids=["run", "bench", "sweep"])
def test_run_missing_file_exits_3(tmp_path, capsys, command):
    missing = tmp_path / "nope.txt"
    assert main([command[0], str(missing), *command[1:]]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err


MALFORMED = b"1 2\n1 x\n1 1\n5\n"  # 'x' among the costs
INFEASIBLE = b"1 2\n1 1\n9 9\n3\n"  # both jobs exceed the single capacity
TWO_INSTANCES = ("2\n" + "".join(serialize(generate(GeneratorSpec(2, 6, seed=s)))
                                 for s in (1, 2))).encode()


@pytest.mark.parametrize("argv, text, code", [
    (["run", "BAD"], None, 3),
    (["bench", "GOOD", "BAD"], None, 3),
    (["sweep", "BAD", "--taus", "1,2"], None, 3),
    (["run", "BAD"], MALFORMED, 3),
    (["run", "BAD"], b"\xff\xfe 1 2", 3),
    (["bench", "GOOD", "BAD"], MALFORMED, 3),
    (["sweep", "BAD", "--taus", "1,2"], MALFORMED, 3),
    (["run", "BAD", "--method", "dantzig"], INFEASIBLE, 3),
    (["sweep", "BAD", "--taus", "1,2", "--seeds", "0"], INFEASIBLE, 3),
    (["sweep", "BAD", "--format", "orlib-multi", "--taus", "1,2"], TWO_INSTANCES, 2),
    (["generate", "--machines", "5", "--jobs", "2", "--seed", "1"], None, 2),
], ids=["run-missing", "bench-missing", "sweep-missing", "run-malformed", "run-not-utf8",
        "bench-malformed", "sweep-malformed", "run-infeasible", "sweep-infeasible",
        "sweep-two-instances", "generate-rejected"])
def test_every_failure_is_one_error_line_and_no_output(instance_file, tmp_path, capsys,
                                                       argv, text, code):
    # every failure that argparse does not report: one line that names the
    # file or the instance, the documented exit code, and no --output file
    bad, out = tmp_path / "bad.txt", tmp_path / "out.tsv"
    if text is not None:
        bad.write_bytes(text)
    paths = {"BAD": str(bad), "GOOD": instance_file}
    assert main([paths.get(arg, arg) for arg in argv] + ["--output", str(out)]) == code
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert argv[0] == "generate" or "bad.txt" in lines[0]
    assert not out.exists()


def test_unwritable_output_is_not_an_instance_error(instance_file, tmp_path):
    # only reading the instance maps to exit 3; a failed write propagates (exit 1)
    with pytest.raises(OSError):
        main(["run", instance_file, "--method", "dantzig",
              "--output", str(tmp_path / "missing" / "x.tsv")])


# the g3x12 golden instance of tests/test_golden.py
G3X12 = generate(GeneratorSpec(3, 12, seed=7))


@pytest.mark.parametrize("method", ["dantzig", "pessoa", "lt", "mt"])
def test_summary_row_totals_its_iteration_rows(method):
    report = driver.run(G3X12, CgConfig(pricing_method=method, seed=0))
    *rows, summary = [dict(zip(cli.RUN_COLUMNS, r)) for r in cli._report_rows(report)]
    assert len(rows) == len(report.rows) and summary["phase"] == "summary"
    for column in ("columns_added", "pivots", "rmp_time", "pricing_time"):
        assert summary[column] == sum(row[column] for row in rows), column
    assert all(row["status"] is None and row["gap_percent"] is None for row in rows)
    assert summary["status"] == report.status
    assert summary["gap_percent"] == report.gap_percent


def test_lr_summary_row_reports_the_ascent_time():
    report = driver.run(G3X12, CgConfig(pricing_method="lr", seed=0))
    summary = dict(zip(cli.RUN_COLUMNS, cli._report_rows(report)[-1]))
    assert summary["pricing_time"] == report.total_pricing_time > 0.0
    assert summary["rmp_time"] == 0.0


@pytest.mark.parametrize("command", [["run"], ["bench"], ["sweep", "--taus", "1,2"]],
                         ids=["run", "bench", "sweep"])
def test_integer_outside_int64_exits_3(tmp_path, capsys, command):
    bad = tmp_path / "huge.txt"
    bad.write_text("1 1\n99999999999999999999999\n1\n1\n")
    assert main([command[0], str(bad), *command[1:]]) == 3
    err = capsys.readouterr().err
    assert "outside int64" in err and str(bad) in err


WRAPPING_COSTS = "1 2\n9223372036854775807 9223372036854775807\n1 1\n5\n"
# no spread between machines, but the only assignment costs -2^64
WRAPPING_NEGATIVE_COSTS = "1 2\n-9223372036854775808 -9223372036854775808\n1 1\n5\n"


@pytest.mark.parametrize("text", [WRAPPING_COSTS, WRAPPING_NEGATIVE_COSTS],
                         ids=["positive", "negative"])
@pytest.mark.parametrize("command", [["run", "--method", "dantzig"], ["sweep", "--taus", "1,2"]],
                         ids=["run", "sweep"])
def test_sums_beyond_two_to_the_53_exit_3(tmp_path, capsys, command, text):
    # each value fits int64, but the only assignment's cost does not
    bad = tmp_path / "wrap.txt"
    bad.write_text(text)
    assert main([command[0], str(bad), *command[1:]]) == 3
    assert "exceeds 2^53" in capsys.readouterr().err


def test_bench_sums_beyond_two_to_the_53_become_error_rows(tmp_path):
    bad = tmp_path / "wrap.txt"
    bad.write_text(WRAPPING_COSTS)
    out = tmp_path / "bench.tsv"
    assert main(["bench", str(bad), "--methods", "dantzig,lr", "--output", str(out)]) == 0
    header, *lines = out.read_text().strip().split("\n")
    rows = [dict(zip(header.split("\t"), line.split("\t"))) for line in lines]
    assert [row["method"] for row in rows] == ["dantzig", "lr"]
    assert all(row["status"].startswith("error:") and "2^53" in row["status"] for row in rows)


@pytest.mark.parametrize("text, method", [
    ("1 2\n1 1\n9 9\n3\n", "lt"),  # both jobs exceed the single capacity
    # every job fits alone, but three jobs of weight 2 need three machines
    ("2 3\n1 1 1\n1 1 1\n2 2 2\n2 2 2\n2 2\n", "lr"),
], ids=["unassignable-job", "lr-no-cover"])
def test_run_infeasible_instance_exits_3(tmp_path, capsys, text, method):
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    assert main(["run", str(bad), "--method", method]) == 3
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["run", "--method", "dantzig"], ["bench", "--methods", "dantzig"]],
                         ids=["run", "bench"])
def test_age_threshold_flag_sets_column_retention(tmp_path, monkeypatch, command):
    path = tmp_path / "g4x24.txt"
    path.write_text(serialize(generate(GeneratorSpec(4, 24, seed=3))))
    removed, real_run = {}, driver.run

    def counting_run(inst, cfg):
        report = real_run(inst, cfg)
        removed[cfg.age_threshold] = [row.columns_removed for row in report.rows]
        return report

    monkeypatch.setattr(driver, "run", counting_run)
    for tau in ("1000000", "1"):
        assert main([command[0], str(path), *command[1:], "--age-threshold", tau,
                     "--output", str(tmp_path / "out.tsv")]) == 0
    assert set(removed[1000000]) == {0}
    assert sum(removed[1]) > 0


def test_run_tsv_stable_across_invocations(instance_file, tmp_path):
    outs = []
    for k in range(2):
        out = tmp_path / f"r{k}.tsv"
        assert main(["run", instance_file, "--method", "dantzig", "--output", str(out)]) == 0
        rows = [line.split("\t") for line in out.read_text().strip().split("\n")]
        timing = {rows[0].index("rmp_time"), rows[0].index("pricing_time")}
        outs.append([[c for k, c in enumerate(r) if k not in timing] for r in rows])
    assert outs[0] == outs[1]


# ----------------------------------------------------------------------- bench

def test_bench_row_counting(instance_file, tmp_path, capsys):
    out = tmp_path / "bench.tsv"
    code = main(["bench", instance_file, instance_file, "--methods", "dantzig,lt",
                 "--seeds", "0,1", "--time-limit", "30", "--output", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    data = [l for l in lines[1:] if not l.startswith("GEOMEAN")]
    summaries = [l for l in lines[1:] if l.startswith("GEOMEAN")]
    assert len(data) == 2 * 2 * 2
    assert len(summaries) == 2
    # bench has no --seed of its own, and a prefix is no spelling of --seeds
    with pytest.raises(SystemExit) as err:
        main(["bench", instance_file, "--methods", "dantzig", "--seed", "5",
              "--time-limit", "30", "--output", str(out)])
    assert err.value.code == 2
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err


@pytest.mark.parametrize("workers, methods, pool_size", [
    ("64", "dantzig", None),
    ("64", "dantzig,lt,lr", 3),
    ("2", "dantzig,lt,lr", 2),
], ids=["one-cell-runs-serially", "capped-at-cells", "capped-at-workers"])
def test_bench_pool_never_outnumbers_its_cells(instance_file, tmp_path, monkeypatch,
                                               workers, methods, pool_size):
    sizes = []

    class RecordingPool:  # runs the cells in this process
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    out = tmp_path / "bench.tsv"
    assert main(["bench", instance_file, "--methods", methods, "--workers", workers,
                 "--output", str(out)]) == 0
    assert sizes == ([] if pool_size is None else [pool_size])
    assert len(out.read_text().splitlines()) == 1 + 2 * len(methods.split(","))


def test_bench_timed_out_row_keeps_partial_metrics(tmp_path):
    inst = generate(GeneratorSpec(num_machines=3, num_jobs=36, cost_range=(10, 50),
                                  resource_range=(5, 25), capacity_slack=0.8, seed=103))
    path = tmp_path / "slow.txt"
    path.write_text(serialize(inst))
    out = tmp_path / "bench.tsv"
    assert main(["bench", str(path), "--methods", "dantzig", "--seeds", "0",
                 "--time-limit", "0.01", "--output", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    header = lines[0].split("\t")
    row = dict(zip(header, lines[1].split("\t")))
    assert row["status"] == "time_limit"
    assert row["iterations"] != "-"


def test_bench_failing_cell_becomes_error_row(instance_file, tmp_path, monkeypatch):
    def broken(inst, cfg):
        raise SimplexError("singular basis")

    monkeypatch.setattr(driver, "run", broken)
    out = tmp_path / "bench.tsv"
    assert main(["bench", instance_file, "--methods", "dantzig,lr", "--seeds", "0",
                 "--output", str(out)]) == 0
    header, *lines = out.read_text().strip().split("\n")
    assert len(lines) == 2
    for line, method in zip(lines, ("dantzig", "lr")):
        row = dict(zip(header.split("\t"), line.split("\t")))
        assert row["method"] == method
        assert row["status"] == "error:SimplexError: singular basis"
        assert row["iterations"] == "-"


def test_bench_methods_agree_on_lb(instance_file, tmp_path):
    out = tmp_path / "bench.tsv"
    main(["bench", instance_file, "--methods", "dantzig,pessoa,lt,mt,lr",
          "--seeds", "0", "--time-limit", "30", "--output", str(out)])
    lines = out.read_text().strip().split("\n")
    header = lines[0].split("\t")
    lb_col = header.index("lb_int")
    values = {line.split("\t")[lb_col] for line in lines[1:]
              if not line.startswith("GEOMEAN")}
    assert len(values) == 1


# ----------------------------------------------------------------------- sweep

def test_rolling_geomean_window3():
    vals = [10.0, 3.0, 3.01, 3.2, 9.0]
    sm = rolling_geomean(vals, 3)
    assert sm[0] == pytest.approx(math.sqrt(10 * 3))
    assert sm[1] == pytest.approx((10 * 3 * 3.01) ** (1 / 3))
    assert sm[2] == pytest.approx((3 * 3.01 * 3.2) ** (1 / 3))
    assert sm[4] == pytest.approx(math.sqrt(3.2 * 9))


def test_select_tau_synthetic_profile():
    taus = [5, 10, 20, 30, 40]
    sm = rolling_geomean([10.0, 3.0, 3.01, 3.2, 9.0], 3)
    # hand evaluation: minimum smoothed sits at index 2; indexes 0-1 miss both
    # tie rules, so the selection is taus[2]
    assert select_tau(taus, sm) == 20


def test_select_tau_flat_profile_picks_smallest():
    assert select_tau([3, 6, 9], [4.0, 4.0, 4.0]) == 3


def test_select_tau_one_percent_tie():
    # values large enough that the one-second rule stays out of the way
    assert select_tau([1, 2], [100.9, 100.0]) == 1
    assert select_tau([1, 2], [101.1, 100.0]) == 2


def test_select_tau_one_second_tie():
    # far over 1 percent but within one absolute second
    assert select_tau([1, 2], [10.9, 10.0]) == 1
    assert select_tau([1, 2], [11.1, 10.0]) == 2


def fake_timed_runs(monkeypatch, seconds):
    """Replace the sweep's runs by ones that take ``seconds(tau)`` on a fake clock."""
    clock = [0.0]

    def fake_run(inst, cfg):
        clock[0] += seconds(cfg.age_threshold)

    monkeypatch.setattr(cli.driver, "run", fake_run)
    monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: clock[0]))


def test_run_sweep_with_injected_times(monkeypatch):
    inst = generate(GeneratorSpec(num_machines=2, num_jobs=8, seed=1))
    # the window around 20 holds the profile 10, 3, 3.01, 3.2, 9; the slow
    # ends keep every other window more than 1 second above it
    table = {2: 30.0, 5: 10.0, 10: 3.0, 20: 3.01, 30: 3.2, 40: 9.0, 50: 30.0}
    fake_timed_runs(monkeypatch, lambda tau: table[tau])
    selected, per_tau, smoothed = run_sweep(inst, list(table), [0, 1], CgConfig(time_limit=100.0))
    assert per_tau == pytest.approx(list(table.values()))
    assert selected == 20


def test_run_sweep_counts_timeouts_at_limit(monkeypatch):
    inst = generate(GeneratorSpec(num_machines=2, num_jobs=8, seed=1))
    fake_timed_runs(monkeypatch, lambda tau: 1e9)
    selected, per_tau, _ = run_sweep(inst, [1, 2, 3], [0], CgConfig(time_limit=5.0))
    assert per_tau == pytest.approx([5.0, 5.0, 5.0])
    assert selected == 1


def test_sweep_infeasible_instance_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2\n1 1\n9 9\n3\n")  # both jobs exceed the single capacity
    assert main(["sweep", str(bad), "--taus", "1,2", "--seeds", "0"]) == 3
    assert "error" in capsys.readouterr().err


def test_sweep_runs_seeds_zero_to_four_by_default(instance_file, tmp_path, monkeypatch):
    runs = []
    monkeypatch.setattr(driver, "run", lambda inst, cfg: runs.append(
        (cfg.pricing_method, cfg.age_threshold, cfg.seed)))
    assert main(["sweep", instance_file, "--method", "mt", "--taus", "2,4",
                 "--output", str(tmp_path / "sweep.tsv")]) == 0
    assert runs == [("mt", tau, seed) for tau in (2, 4) for seed in range(5)]


def test_sweep_command_end_to_end(instance_file, tmp_path):
    out = tmp_path / "sweep.tsv"
    code = main(["sweep", instance_file, "--method", "lt", "--taus", "2,4,8",
                 "--seeds", "0", "--time-limit", "20",
                 "--output", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].split("\t") == ["tau", "geomean_time", "smoothed_time", "selected"]
    assert len(lines) == 4
    assert sum(line.endswith("\t1") for line in lines[1:]) == 1


# -------------------------------------------------------------------- generate

def test_generate_roundtrip(tmp_path, capsys):
    out = tmp_path / "gen.txt"
    code = main(["generate", "--machines", "3", "--jobs", "30", "--seed", "4",
                 "--output", str(out)])
    assert code == 0
    assert "ratio: 10" in capsys.readouterr().err
    from gapcg.instance import parse
    inst, = parse(out.read_text(), format="single")
    assert inst.num_machines == 3 and inst.num_jobs == 30


def test_generate_flag_combinations(tmp_path):
    from gapcg.instance import parse
    out = tmp_path / "g.txt"
    # tight cost range pins every cost entry
    main(["generate", "--machines", "2", "--jobs", "6", "--cost-lo", "7",
          "--cost-hi", "7", "--output", str(out)])
    inst, = parse(out.read_text(), format="single")
    assert (inst.cost == 7).all()
    # uniform resources with slack 1 pin the capacity rule
    main(["generate", "--machines", "2", "--jobs", "6", "--resource-lo", "4",
          "--resource-hi", "4", "--slack", "1.0", "--output", str(out)])
    inst, = parse(out.read_text(), format="single")
    assert (inst.capacity == round(4 * 6 / 2)).all()
    # seed controls the draw
    main(["generate", "--machines", "2", "--jobs", "6", "--seed", "9",
          "--output", str(out)])
    a = out.read_text()
    main(["generate", "--machines", "2", "--jobs", "6", "--seed", "9",
          "--output", str(out)])
    assert out.read_text() == a


def test_generate_bad_range_exits_2(tmp_path):
    code = main(["generate", "--machines", "2", "--jobs", "4",
                 "--cost-lo", "9", "--cost-hi", "1",
                 "--output", str(tmp_path / "x.txt")])
    assert code == 2


def test_generate_sums_beyond_two_to_the_53_exit_2(tmp_path, capsys):
    # 3 resources of 2^62 would sum to 2^63 + 2^62, which wraps int64
    out = tmp_path / "x.txt"
    code = main(["generate", "--machines", "2", "--jobs", "3",
                 "--resource-lo", "4611686018427387904", "--resource-hi", "4611686018427387904",
                 "--seed", "1", "--output", str(out)])
    assert code == 2
    assert "2^53" in capsys.readouterr().err
    assert not out.exists()


def test_generate_instance_that_run_rejects_exits_2(tmp_path, capsys):
    # the draw gives capacities 6 5 4 5 2, too small for either job
    out = tmp_path / "x.txt"
    code = main(["generate", "--machines", "5", "--jobs", "2", "--seed", "1",
                 "--output", str(out)])
    assert code == 2
    assert "jobs [0, 1] fit on no machine" in capsys.readouterr().err
    assert not out.exists()


def test_generate_writes_a_valid_instance_that_run_finds_infeasible(tmp_path, capsys):
    # generate rejects only what validate rejects; capacities 29 and 31 hold
    # at most two of these four jobs on machine 0 and one on machine 1
    path = tmp_path / "g.txt"
    assert main(["generate", "--machines", "2", "--jobs", "4", "--seed", "0",
                 "--output", str(path)]) == 0
    assert path.read_text().split()[-2:] == ["29", "31"]
    capsys.readouterr()
    for method in cli.METHODS:
        assert main(["run", str(path), "--method", method]) == 3, method
        assert capsys.readouterr().err.startswith("error: g.txt: "), method


def test_geomean_of_constant():
    assert geomean([2.0, 2.0, 2.0]) == pytest.approx(2.0)
