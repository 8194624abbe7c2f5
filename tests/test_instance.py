import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gapcg.instance import (GapInstance, GeneratorSpec, InfeasibleInstanceError,
                            ParseError, generate, parse, relabel, serialize, validate)

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


def test_parse_accepts_every_spelling_int_accepts():
    inst, = parse("1 1 +5 0_1 \u0663", format="single")  # U+0663 is Arabic-Indic three
    assert (inst.cost.tolist(), inst.resource.tolist(), inst.capacity.tolist()) == ([[5]], [[1]], [3])


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
    # a machine's resource sum could exceed 2^53 (and wrap int64)
    with pytest.raises(ValueError, match="2\\^53"):
        generate(GeneratorSpec(num_machines=2, num_jobs=3, resource_range=(2**62, 2**62)))
    # so could the cost size, even with both cost bounds at or below 2^53 / n
    with pytest.raises(ValueError, match="2\\^53"):
        generate(GeneratorSpec(num_machines=2, num_jobs=4, cost_range=(-2**51, 2**51)))
    generate(GeneratorSpec(num_machines=2, num_jobs=4, cost_range=(-2**50, 2**50),
                           resource_range=(1, 2**51)))


def test_validate_clean_instance(toy_2x3):
    validate(toy_2x3)


def test_validate_flags_unassignable_job():
    inst = GapInstance(2, 2, cost=np.ones((2, 2)), resource=np.full((2, 2), 10),
                       capacity=np.array([5, 5]))
    with pytest.raises(InfeasibleInstanceError, match=r"^jobs \[0, 1\] fit on no machine$"):
        validate(inst)


def test_validate_negative_capacity():
    inst = GapInstance(1, 2, cost=np.ones((1, 2)), resource=np.ones((1, 2)),
                       capacity=np.array([-1]))
    with pytest.raises(InfeasibleInstanceError, match="negative capacity entry"):
        validate(inst)


@pytest.mark.parametrize("cost, resource, message", [
    ([[2**52, 2**52 + 1]], [[1, 1]], "cost size"),
    ([[2**52 + 1], [-2**52]], [[1], [1]], "cost size"),  # the shift widens the span
    ([[-2**52, -2**52 - 1]], [[1, 1]], "cost size"),  # no spread, but the sum wraps
    ([[1, 1]], [[2**52, 2**52 + 1]], "machine resource sum"),
], ids=["cost-sum", "negative-cost-widens-span", "all-negative-costs", "resource-sum"])
def test_validate_flags_sums_beyond_two_to_the_53(cost, resource, message):
    cost, resource = np.array(cost), np.array(resource)
    # every job fits, so the sum check is the one that fails
    inst = GapInstance(*cost.shape, cost=cost, resource=resource,
                       capacity=resource.max(axis=1))
    with pytest.raises(InfeasibleInstanceError, match=f"{message} .* exceeds 2\\^53"):
        validate(inst)
    validate(GapInstance(1, 2, cost=np.array([[2**52, 2**52]]),
                         resource=np.array([[2**52, 2**52]]), capacity=np.array([2**52])))
    validate(GapInstance(1, 2, cost=np.array([[-2**52, -2**52]]),
                         resource=np.array([[1, 1]]), capacity=np.array([5])))


def test_validate_reports_unassignable_jobs_before_sums():
    inst = GapInstance(1, 2, cost=np.array([[1, 1]]), resource=np.array([[2**52, 2**52 + 1]]),
                       capacity=np.array([5]))
    with pytest.raises(InfeasibleInstanceError, match=r"^jobs \[0, 1\] fit on no machine$"):
        validate(inst)


def test_instances_are_immutable(toy_2x3):
    with pytest.raises(ValueError):
        toy_2x3.cost[0, 0] = 99


# ---------------------------------------------------------------- relabel

def test_relabel_seed_zero_is_the_instance_itself(toy_2x3):
    assert relabel(toy_2x3, 0) is toy_2x3


@pytest.mark.parametrize("seed", [1, 2, 7])
def test_relabel_permutes_jobs_then_machines(seed):
    inst = generate(GeneratorSpec(num_machines=4, num_jobs=9, seed=5))
    rng = np.random.default_rng(seed)
    jobs, machines = rng.permutation(9), rng.permutation(4)
    out = relabel(inst, seed)
    assert out is not inst and out.name == inst.name
    assert (out.num_machines, out.num_jobs) == (4, 9)
    assert (out.cost == inst.cost[np.ix_(machines, jobs)]).all()
    assert (out.resource == inst.resource[np.ix_(machines, jobs)]).all()
    assert (out.capacity == inst.capacity[machines]).all()
    assert not (out.cost == inst.cost).all()  # this draw moves something


# ------------------------------------------------------- parse properties

INT64_EXTREMES = (-2**63, -1, 0, 1, 2**63 - 1)


def _int64s(lo: int):
    return st.one_of(st.integers(lo, 2**63 - 1), st.sampled_from([v for v in INT64_EXTREMES if v >= lo]))


@st.composite
def _instances(draw):
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 4))

    def entries(lo: int, size: int) -> np.ndarray:
        return np.array(draw(st.lists(_int64s(lo), min_size=size, max_size=size)), dtype=np.int64)

    return GapInstance(m, n, cost=entries(-2**63, m * n).reshape(m, n),
                       resource=entries(0, m * n).reshape(m, n), capacity=entries(0, m))


# a file is one instance in the single format or a few behind a count
_files = st.tuples(st.lists(_instances(), min_size=1, max_size=3), st.booleans()).map(
    lambda drawn: (drawn[0] if drawn[1] else drawn[0][:1], drawn[1]))


def _text(insts, multi: bool) -> str:
    body = "".join(serialize(inst) for inst in insts)
    return f"{len(insts)}\n{body}" if multi else body


def _parse(text: str, multi: bool):
    return parse(text, format="orlib-multi" if multi else "single")


def _sections(insts, multi: bool) -> list[str]:
    """The section that ``parse`` names for each token of ``_text(insts, multi)``."""
    out = ["instance count"] if multi else []
    for inst in insts:
        mn = inst.num_machines * inst.num_jobs
        out += ["header"] * 2 + ["costs"] * mn + ["resources"] * mn + ["capacities"] * inst.num_machines
    return out


def _not_an_int(token: str) -> bool:
    try:
        int(token)
    except ValueError:
        return token.split() == [token]
    return False


NONNEGATIVE = {"resources": "resource", "capacities": "capacity"}


@st.composite
def _bad_token(draw, section: str):
    """A token ``parse`` rejects in ``section``, with the message it must raise."""
    kind = draw(st.sampled_from(["non-integer", "outside int64"] + ["negative"] * (section in NONNEGATIVE)))
    if kind == "non-integer":
        token = draw(st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6)
                     .filter(_not_an_int))
        return token, f"non-integer token {token!r} while reading {section}"
    if kind == "outside int64":
        value = draw(st.one_of(st.integers(min_value=2**63), st.integers(max_value=-2**63 - 1)))
        return str(value), f"integer {value} outside int64 while reading {section}"
    value = draw(st.integers(-2**63, -1))
    return str(value), f"negative {NONNEGATIVE[section]} {value}"


@given(_files)
def test_serialize_parse_round_trip(file):
    insts, multi = file
    back = _parse(_text(insts, multi), multi)
    assert len(back) == len(insts)
    for inst, parsed in zip(insts, back):
        assert (parsed.num_machines, parsed.num_jobs) == (inst.num_machines, inst.num_jobs)
        for name in ("cost", "resource", "capacity"):
            assert np.array_equal(getattr(parsed, name), getattr(inst, name)), name


@given(_files, st.data())
def test_parse_reports_the_corrupted_token(file, data):
    insts, multi = file
    tokens, sections = _text(insts, multi).split(), _sections(insts, multi)
    pos = data.draw(st.integers(0, len(tokens) - 1))
    tokens[pos], message = data.draw(_bad_token(sections[pos]))
    with pytest.raises(ParseError) as err:
        _parse(" ".join(tokens), multi)
    assert err.value.token_offset == pos
    assert str(err.value) == f"{message} (at token {pos})"


@given(_files, st.data())
def test_parse_reports_the_earlier_of_two_bad_tokens(file, data):
    insts, multi = file
    tokens, sections = _text(insts, multi).split(), _sections(insts, multi)
    first, second = sorted(data.draw(st.lists(st.integers(0, len(tokens) - 1),
                                              min_size=2, max_size=2, unique=True)))
    tokens[first], message = data.draw(_bad_token(sections[first]))
    tokens[second], _ = data.draw(_bad_token(sections[second]))
    with pytest.raises(ParseError) as err:
        _parse(" ".join(tokens), multi)
    assert str(err.value) == f"{message} (at token {first})"


@given(_files, st.data())
def test_parse_of_a_truncated_file_reports_its_token_count(file, data):
    insts, multi = file
    tokens, sections = _text(insts, multi).split(), _sections(insts, multi)
    cut = data.draw(st.integers(0, len(tokens) - 1))
    with pytest.raises(ParseError) as err:
        _parse(" ".join(tokens[:cut]), multi)
    assert err.value.token_offset == cut
    assert str(err.value) == f"unexpected end of input while reading {sections[cut]} (at token {cut})"
