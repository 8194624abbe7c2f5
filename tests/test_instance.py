import numpy as np
import pytest

from gapcg.instance import (GapInstance, GeneratorSpec, ParseError, generate,
                            parse, serialize, validate)

SINGLE = "2 3  1 2 3  4 5 6  1 1 1  1 1 1  2 2"


def test_parse_single_block():
    inst, = parse(SINGLE, format="single")
    assert inst.num_machines == 2 and inst.num_jobs == 3
    assert list(inst.cost[0]) == [1, 2, 3]
    assert list(inst.cost[1]) == [4, 5, 6]
    assert list(inst.capacity) == [2, 2]


def test_parse_orlib_multi_prefix():
    out = parse("1 " + SINGLE, format="orlib-multi")
    assert len(out) == 1
    assert list(out[0].capacity) == [2, 2]


def test_parse_truncation_names_section():
    with pytest.raises(ParseError) as err:
        parse("2 3 1 2", format="single")
    assert "costs" in str(err.value)
    assert err.value.token_offset == 4


def test_parse_non_integer_token():
    with pytest.raises(ParseError) as err:
        parse("2 3 1 x 3 4 5 6 1 1 1 1 1 1 2 2", format="single")
    assert "x" in str(err.value)


def test_parse_negative_resource_rejected():
    with pytest.raises(ParseError) as err:
        parse("1 2 1 2 -1 1 5", format="single")
    assert "negative resource" in str(err.value)


HUGE = "99999999999999999999999"  # beyond int64


@pytest.mark.parametrize("text, section, offset", [
    (f"1 1 {HUGE} 1 1", "costs", 2),
    (f"1 1 1 {HUGE} 1", "resources", 3),
    (f"1 1 1 1 {HUGE}", "capacities", 4),
], ids=["cost", "resource", "capacity"])
def test_parse_integer_outside_int64(text, section, offset):
    with pytest.raises(ParseError) as err:
        parse(text, format="single")
    assert section in str(err.value)
    assert err.value.token_offset == offset


def test_parse_unknown_format():
    with pytest.raises(ValueError):
        parse(SINGLE, format="csv")


def test_roundtrip_serialize_parse():
    for seed in range(10):
        inst = generate(GeneratorSpec(num_machines=3, num_jobs=8, seed=seed))
        back, = parse(serialize(inst), format="single")
        assert np.array_equal(back.cost, inst.cost)
        assert np.array_equal(back.resource, inst.resource)
        assert np.array_equal(back.capacity, inst.capacity)


def test_generate_deterministic():
    spec = GeneratorSpec(num_machines=3, num_jobs=12, seed=7)
    a, b = generate(spec), generate(spec)
    assert np.array_equal(a.cost, b.cost)
    assert np.array_equal(a.resource, b.resource)
    assert np.array_equal(a.capacity, b.capacity)


def test_generate_capacity_rule_uniform_resource():
    # all resources equal r: capacity_i = round(r * n / m) with slack 1
    spec = GeneratorSpec(num_machines=2, num_jobs=10, resource_range=(5, 5),
                         capacity_slack=1.0, seed=1)
    inst = generate(spec)
    assert (inst.capacity == round(5 * 10 / 2)).all()


def test_generate_ratio():
    inst = generate(GeneratorSpec(num_machines=2, num_jobs=40, seed=5))
    assert inst.ratio == 40 / 2 == 20


def test_generate_rejects_bad_spec():
    with pytest.raises(ValueError):
        generate(GeneratorSpec(num_machines=2, num_jobs=4, cost_range=(5, 1)))
    with pytest.raises(ValueError):
        generate(GeneratorSpec(num_machines=2, num_jobs=4, resource_range=(0, 3)))
    with pytest.raises(ValueError):
        generate(GeneratorSpec(num_machines=2, num_jobs=4, capacity_slack=0.0))


def test_validate_clean_instance(toy_2x3):
    assert validate(toy_2x3).ok


def test_validate_flags_unassignable_job():
    inst = GapInstance(2, 2, cost=np.ones((2, 2)), resource=np.full((2, 2), 10),
                       capacity=np.array([5, 5]))
    report = validate(inst)
    assert report.unassignable_jobs == [0, 1]
    assert not report.ok


def test_validate_negative_capacity():
    inst = GapInstance(1, 2, cost=np.ones((1, 2)), resource=np.ones((1, 2)),
                       capacity=np.array([-1]))
    report = validate(inst)
    assert any("negative capacity" in e for e in report.errors)


def test_instances_are_immutable(toy_2x3):
    with pytest.raises(ValueError):
        toy_2x3.cost[0, 0] = 99
