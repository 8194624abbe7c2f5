import dataclasses
import math

import pytest

from gapcg import driver
from gapcg.cli import (SweepSpec, _make_config, build_parser, geomean, main,
                       rolling_geomean, run_sweep, select_tau)
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
    assert "--delta" in capsys.readouterr().err


@pytest.mark.parametrize("command, epsilon", [
    (["run", "--method", "lt"], "-1"),
    (["bench"], "nan"),
    (["sweep", "--taus", "1,2"], "inf"),
], ids=["run", "bench", "sweep"])
def test_epsilon_negative_or_not_finite_exits_2(instance_file, capsys, command, epsilon):
    with pytest.raises(SystemExit) as err:
        main([command[0], instance_file, *command[1:], "--epsilon", epsilon])
    assert err.value.code == 2
    assert "--epsilon" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, value", [
    (["run", "--method", "dantzig"], "--time-limit", "nan"),
    (["bench"], "--time-limit", "0"),
    (["sweep", "--taus", "1,2"], "--time-limit", "-1"),
    (["run", "--method", "dantzig"], "--mip-gap", "nan"),
    (["bench"], "--mip-gap", "inf"),
    (["sweep", "--taus", "1,2"], "--mip-gap", "-0.1"),
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
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--tie-rel", "-1"], ["--tie-rel", "nan"], ["--tie-abs", "-1"], ["--tie-abs", "nan"],
    ["--tie-abs", "inf"], ["--age-a2", "1"], ["--age-a1", "1"], ["--age-a0", "1"],
], ids=["tie-rel-negative", "tie-rel-nan", "tie-abs-negative", "tie-abs-nan", "tie-abs-inf",
        "age-a2", "age-a1", "age-a0"])
def test_sweep_rejects_bad_flags_before_any_run(instance_file, capsys, monkeypatch, flags):
    # the sweep sets the age threshold itself, so an age flag would be ignored
    def no_run(inst, cfg):
        raise AssertionError("the sweep ran before rejecting its flags")

    monkeypatch.setattr(driver, "run", no_run)
    with pytest.raises(SystemExit) as err:
        main(["sweep", instance_file, "--taus", "1,2", "--replications", "1",
              "--window", "1", *flags])
    assert err.value.code == 2
    assert flags[0] in capsys.readouterr().err


def test_infinite_time_limit_is_accepted(instance_file, tmp_path):
    out = tmp_path / "run.tsv"
    assert main(["run", instance_file, "--method", "dantzig", "--time-limit", "inf",
                 "--output", str(out)]) == 0
    assert "summary" in out.read_text()


@pytest.mark.parametrize("command, flag", [
    (["bench", "--methods", "dantzig,foo"], "--methods"),
    (["bench", "--seeds", "0,x"], "--seeds"),
    (["sweep", "--taus", "1,x"], "--taus"),
], ids=["bench-methods", "bench-seeds", "sweep-taus"])
def test_malformed_list_flag_exits_2(instance_file, capsys, command, flag):
    with pytest.raises(SystemExit) as err:
        main([command[0], instance_file, *command[1:]])
    assert err.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--taus", "4,2"],
    ["--taus", "1,2", "--replications", "0"],
    ["--taus", "1,2", "--window", "4"],
], ids=["taus-decreasing", "replications-0", "window-even"])
def test_invalid_sweep_spec_exits_2(instance_file, capsys, flags):
    assert main(["sweep", instance_file, *flags]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, value", [
    (["run", "--method", "dantzig"], "--seed", "-1"),
    (["sweep", "--taus", "1,2"], "--seed", "-1"),
    (["bench", "--methods", "dantzig"], "--seeds", "-1"),
    (["sweep"], "--taus", "-5,0,1"),
    (["sweep"], "--taus", "0,1"),
], ids=["run-seed", "sweep-seed", "bench-seeds", "sweep-taus-negative", "sweep-taus-zero"])
def test_out_of_range_integer_flag_exits_2(instance_file, capsys, monkeypatch,
                                           command, flag, value):
    def no_run(inst, cfg):
        raise AssertionError("ran before rejecting its flags")

    monkeypatch.setattr(driver, "run", no_run)
    with pytest.raises(SystemExit) as err:
        main([command[0], instance_file, *command[1:], f"{flag}={value}"])
    assert err.value.code == 2
    assert flag in capsys.readouterr().err


def test_every_config_field_has_a_flag():
    # a CgConfig field that no flag sets is a switch only tests can reach
    args = build_parser().parse_args([
        "run", "x.txt", "--method", "mt", "--time-limit", "5", "--seed", "3",
        "--epsilon", "1e-4", "--delta", "0.01", "--mip-gap", "0.5", "--age-a0", "2"])
    cfg, default = _make_config(args, args.method, args.seed), CgConfig()
    for f in dataclasses.fields(CgConfig):
        assert getattr(cfg, f.name) != getattr(default, f.name), f.name


def test_run_missing_file_exits_3(tmp_path):
    assert main(["run", str(tmp_path / "nope.txt")]) == 3


@pytest.mark.parametrize("command", [["run"], ["bench"], ["sweep", "--taus", "1,2"]],
                         ids=["run", "bench", "sweep"])
def test_integer_outside_int64_exits_3(tmp_path, capsys, command):
    bad = tmp_path / "huge.txt"
    bad.write_text("1 1\n99999999999999999999999\n1\n1\n")
    assert main([command[0], str(bad), *command[1:]]) == 3
    assert "outside int64" in capsys.readouterr().err


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

def test_bench_row_counting(instance_file, tmp_path):
    out = tmp_path / "bench.tsv"
    code = main(["bench", instance_file, instance_file, "--methods", "dantzig,lt",
                 "--seeds", "0,1", "--time-limit", "30", "--output", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    data = [l for l in lines[1:] if not l.startswith("GEOMEAN")]
    summaries = [l for l in lines[1:] if l.startswith("GEOMEAN")]
    assert len(data) == 2 * 2 * 2
    assert len(summaries) == 2


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


def test_run_sweep_with_injected_times(instance_file):
    inst = generate(GeneratorSpec(num_machines=2, num_jobs=8, seed=1))
    spec = SweepSpec(tau_values=[5, 10, 20, 30, 40], replications=2,
                     time_limit=100.0, smoothing_window=3)
    table = {5: 10.0, 10: 3.0, 20: 3.01, 30: 3.2, 40: 9.0}
    selected, per_tau, smoothed = run_sweep(inst, "lt", spec, CgConfig(),
                                            time_fn=lambda tau, seed: table[tau])
    assert per_tau == pytest.approx(list(table.values()))
    assert selected == 20


def test_run_sweep_counts_timeouts_at_limit(instance_file):
    inst = generate(GeneratorSpec(num_machines=2, num_jobs=8, seed=1))
    spec = SweepSpec(tau_values=[1, 2, 3], replications=1, time_limit=5.0,
                     smoothing_window=3)
    selected, per_tau, _ = run_sweep(inst, "lt", spec, CgConfig(),
                                     time_fn=lambda tau, seed: 1e9)
    assert per_tau == pytest.approx([5.0, 5.0, 5.0])
    assert selected == 1


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(tau_values=[])
    with pytest.raises(ValueError):
        SweepSpec(tau_values=[3, 2])
    with pytest.raises(ValueError):
        SweepSpec(tau_values=[1, 2], smoothing_window=4)


def test_sweep_infeasible_instance_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2\n1 1\n9 9\n3\n")  # both jobs exceed the single capacity
    assert main(["sweep", str(bad), "--taus", "1,2", "--replications", "1"]) == 3
    assert "error" in capsys.readouterr().err


def test_sweep_command_end_to_end(instance_file, tmp_path):
    out = tmp_path / "sweep.tsv"
    code = main(["sweep", instance_file, "--method", "lt", "--taus", "2,4,8",
                 "--replications", "1", "--time-limit", "20", "--window", "3",
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


def test_geomean_of_constant():
    assert geomean([2.0, 2.0, 2.0]) == pytest.approx(2.0)
