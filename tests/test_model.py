import json
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from pbbobw import (
    FractionalOutcome,
    IntegralOutcome,
    Lottery,
    PBInstance,
    Setting,
    ValidationError,
    classify,
    implements,
    parse_instance,
    parse_rational,
    rational_str,
    serialize_instance,
    utility,
)

from conftest import random_instance, two_voter_example, with_zero_cost_projects


def test_parse_rational_roundtrip():
    for text in ["0", "1", "5/12", "7/3", "2"]:
        assert rational_str(parse_rational(text)) == text


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=10**6))
def test_rational_str_parse_inverse(num, den):
    value = Fraction(num, den)
    assert parse_rational(rational_str(value)) == value


def test_parse_rational_rejects_garbage():
    for bad in ["", "1.5", "1/0", "+1", "a/b", "1 / 2"]:
        with pytest.raises(ValidationError):
            parse_rational(bad)


def _doc():
    return {
        "budget": "1",
        "projects": [
            {"id": "b", "cost": "1/2"},
            {"id": "a", "cost": "1/2"},
            {"id": "c", "cost": "1/2"},
        ],
        "voters": [
            {"id": "v2", "utilities": {"a": "1", "c": "1"}},
            {"id": "v1", "utilities": {"a": "1", "b": "1"}},
        ],
    }


def test_parse_instance_sorts_by_id():
    inst = parse_instance(_doc())
    assert inst.project_ids == ("a", "b", "c")
    assert inst.voter_ids == ("v1", "v2")
    assert inst == two_voter_example()


def test_serialize_parse_identity():
    rng = random.Random(11)
    for _ in range(25):
        inst = random_instance(rng)
        again = parse_instance(serialize_instance(inst))
        assert again == inst
        # Canonical form is a fixed point.
        assert serialize_instance(again) == serialize_instance(inst)


def test_serialize_is_sorted_json():
    text = serialize_instance(two_voter_example())
    doc = json.loads(text)
    assert list(doc) == sorted(doc)


def test_parse_rejects_project_over_budget():
    doc = _doc()
    doc["projects"][0]["cost"] = "2"
    with pytest.raises(ValidationError):
        parse_instance(doc)


def test_parse_rejects_insufficient_total_cost():
    doc = {
        "budget": "10",
        "projects": [{"id": "a", "cost": "1"}],
        "voters": [{"id": "v1", "utilities": {"a": "1"}}],
    }
    with pytest.raises(ValidationError):
        parse_instance(doc)


def test_parse_rejects_duplicate_ids():
    doc = _doc()
    doc["projects"][1]["id"] = "b"
    with pytest.raises(ValidationError):
        parse_instance(doc)


def test_parse_rejects_unknown_utility_key():
    doc = _doc()
    doc["voters"][0]["utilities"]["zz"] = "1"
    with pytest.raises(ValidationError):
        parse_instance(doc)


@pytest.mark.parametrize(
    "field, value",
    [
        ("projects", ["a"]),
        ("projects", "abc"),
        ("voters", [["v1"]]),
        ("voters", "v1"),
        ("projects", {"id": "a", "cost": "1"}),
    ],
)
def test_parse_rejects_entries_that_are_not_objects(field, value):
    doc = _doc()
    doc[field] = value
    with pytest.raises(ValidationError, match=field):
        parse_instance(doc)


@pytest.mark.parametrize("utilities", [["a"], "a", 1])
def test_parse_rejects_utilities_that_are_not_an_object(utilities):
    doc = _doc()
    doc["voters"][0]["utilities"] = utilities
    with pytest.raises(ValidationError, match="not an object"):
        parse_instance(doc)


def test_classify_settings():
    assert classify(two_voter_example()) == Setting.BINARY
    rng = random.Random(3)
    cost_inst = random_instance(rng, utilities="cost")
    assert classify(cost_inst) in (Setting.COST, Setting.BINARY, Setting.COMMITTEE)
    unit = PBInstance(
        budget=Fraction(2),
        cost=(Fraction(1),) * 3,
        utilities=((Fraction(1), Fraction(0), Fraction(1)),),
        project_ids=("a", "b", "c"),
        voter_ids=("v1",),
    )
    assert classify(unit) == Setting.COMMITTEE


def test_fractional_outcome_feasibility():
    inst = two_voter_example()
    good = FractionalOutcome([1, 1, 0])
    assert good.is_feasible(inst)
    assert not FractionalOutcome(["1/2", "1/2", "1/2"]).is_feasible(inst)


def test_lottery_validation():
    w1 = IntegralOutcome({0})
    w2 = IntegralOutcome({1})
    Lottery([(Fraction(1, 2), w1), (Fraction(1, 2), w2)])
    with pytest.raises(ValidationError):
        Lottery([(Fraction(1, 2), w1)])
    with pytest.raises(ValidationError):
        Lottery([(Fraction(1, 2), w1), (Fraction(1, 2), IntegralOutcome({0}))])


def test_implements():
    inst = two_voter_example()
    lot = Lottery(
        [
            (Fraction(1, 2), IntegralOutcome({0, 1})),
            (Fraction(1, 2), IntegralOutcome({0, 2})),
        ]
    )
    p = FractionalOutcome([1, "1/2", "1/2"])
    assert implements(inst, lot, p)
    assert not implements(inst, lot, FractionalOutcome([1, 1, 0]))


def test_utility_is_linear_in_shares():
    rng = random.Random(5)
    for _ in range(20):
        inst = random_instance(rng)
        shares = [Fraction(rng.randint(0, 4), 4) for _ in range(inst.m)]
        p = FractionalOutcome(shares)
        for i in range(inst.n):
            expected = sum(
                s * u for s, u in zip(shares, inst.utilities[i])
            )
            assert utility(inst, i, p) == expected


def _filtered_combinations(instance, pool, ceiling):
    """Reference for `PBInstance.subsets`: every non-empty combination of
    the pool, by size, kept when its cost is within the ceiling."""
    return [
        group
        for size in range(1, len(pool) + 1)
        for group in combinations(pool, size)
        if ceiling is None or instance.total_cost(group) <= ceiling
    ]


def test_subsets_match_a_filter_over_combinations():
    rng = random.Random(71)
    pruned = 0
    for case in range(60):
        inst = random_instance(rng, m_max=7, utilities="binary")
        if case % 2:
            inst = with_zero_cost_projects(rng, inst)
        strict = sorted(rng.sample(range(inst.m), rng.randint(1, inst.m - 1)))
        for pool in (range(inst.m), strict):
            for ceiling in (None, inst.budget, inst.budget / 3, Fraction(0)):
                expected = _filtered_combinations(inst, pool, ceiling)
                assert list(inst.subsets(pool, ceiling)) == expected
                pruned += 2 ** len(pool) - 1 - len(expected)
    assert pruned > 0


def test_approver_masks_transpose_the_approval_masks():
    """Each project's approvers as a voter bitmask: the per-project loop
    over the voters, on the committed 14-project instance and on seeded
    general instances, half with zero-cost projects."""
    unit14 = Path(__file__).resolve().parent / "data" / "reports" / "unit14.json"
    rng = random.Random(73)
    instances = [parse_instance(unit14.read_text()), two_voter_example()]
    for case in range(30):
        inst = random_instance(rng)
        instances.append(with_zero_cost_projects(rng, inst) if case % 2 else inst)
    for inst in instances:
        assert inst.approver_masks == tuple(
            sum(1 << i for i in range(inst.n) if inst.utilities[i][j] > 0)
            for j in range(inst.m)
        )
