import json
import math
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
    RoundingSampler,
    ValidationError,
    check_gfs,
    check_ifs,
    check_strong_ifs,
    check_strong_ufs,
    check_ufs,
    fractional_random_dictator,
    gen_bfx_family,
    gen_gfs_jr_family,
    gen_ifs_jr_family,
    implements,
    instance_to_dict,
    optimal_fractional_utility,
    parse_instance,
    parse_rational,
    rational_str,
    serialize_instance,
    utility,
)

from pbbobw.model import has_cost_utilities

from conftest import (
    random_feasible_p,
    random_instance,
    two_voter_example,
    with_zero_cost_projects,
)


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


def test_long_rational_strings_are_validation_errors():
    """A 5,001-digit budget is past the int-digit limit; without the limit
    it exceeds the one project's total cost. Either way the document is
    rejected with a ValidationError, not a bare ValueError."""
    doc = {
        "budget": "1" + "0" * 5000,
        "projects": [{"id": "a", "cost": "1"}],
        "voters": [{"id": "v", "utilities": {"a": "1"}}],
    }
    with pytest.raises(ValidationError, match="budget"):
        parse_instance(doc)


@pytest.mark.parametrize(
    "document",
    [b"[" * 100_000, "[" * 100_000, b'{"budget": "\xff"}', "[" + "7" * 5000],
    ids=["deep bytes", "deep str", "not utf-8", "long literal"],
)
def test_malformed_json_text_is_a_validation_error(document):
    """Nesting past the recursion limit, bytes that are not UTF-8 and an
    integer literal past the int-digit limit are each `malformed JSON`.
    The literal's document is also unclosed, so it is malformed on an
    interpreter without that limit too."""
    with pytest.raises(ValidationError, match="^malformed JSON: "):
        parse_instance(document)


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


DATA = Path(__file__).resolve().parent / "data"


def _canonical_dump(inst: PBInstance) -> str:
    """The reference for `serialize_instance`: the generic JSON encoder
    on `instance_to_dict`."""
    return json.dumps(instance_to_dict(inst), sort_keys=True, indent=2)


# Ids that need JSON escapes (quote, backslash, control and non-ASCII
# characters, one outside the BMP) and sort differently once escaped.
_ID_CHARS = [
    '"', "\\", "\n", "\t", "\x7f", "é", "Ω", "中", "\U0001f600",
    "a", "b", "Z", "0", " ", "/",
]


def _escaped_instance(rng: random.Random) -> PBInstance:
    """A random instance with unsorted ids that need escapes, some voters
    without utilities, and zero-cost projects."""
    def ids(count):
        chosen = set()
        while len(chosen) < count:
            chosen.add("".join(rng.choice(_ID_CHARS) for _ in range(rng.randint(0, 4))))
        chosen = list(chosen)
        rng.shuffle(chosen)
        return tuple(chosen)

    inst = random_instance(rng, utilities=rng.choice(["general", "binary", "cost"]))
    if rng.random() < 0.5:
        inst = with_zero_cost_projects(rng, inst)
    rows = tuple(
        (Fraction(0),) * inst.m if rng.random() < 0.3 else row
        for row in inst.utilities
    )
    return PBInstance(
        budget=inst.budget,
        cost=inst.cost,
        utilities=rows,
        project_ids=ids(inst.m),
        voter_ids=ids(inst.n),
    )


def test_serialize_instance_is_the_canonical_dump():
    """`serialize_instance` writes the fixed schema directly; its text must
    be the generic encoder's, key order and escapes included, on every
    committed instance, the three `gen` families (whose project ids are
    not sorted) and seeded instances with ids that need escapes."""
    instances = [
        parse_instance(path.read_text())
        for path in sorted(DATA.rglob("*.json"))
        if "budget" in json.loads(path.read_text())
    ]
    assert len(instances) >= 8
    for n in (6, 7, 9, 10, 16):
        instances.append(gen_gfs_jr_family(n, Fraction(1), Fraction(1, 12)))
        instances.append(gen_ifs_jr_family(n - 2, Fraction(n + 2)))
    for budget in ("1", "2", "7/3"):
        instances.append(gen_bfx_family(Fraction(budget), Fraction(budget) / 10)[0])
    rng = random.Random(97)
    instances += [_escaped_instance(rng) for _ in range(200)]
    assert any(inst.project_ids != tuple(sorted(inst.project_ids)) for inst in instances)
    assert any(not any(row) for inst in instances for row in inst.utilities)
    for inst in instances:
        assert serialize_instance(inst) == _canonical_dump(inst)


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
    assert two_voter_example().setting == Setting.BINARY
    rng = random.Random(3)
    cost_inst = random_instance(rng, utilities="cost")
    assert cost_inst.setting in (Setting.COST, Setting.BINARY, Setting.COMMITTEE)
    unit = PBInstance(
        budget=Fraction(2),
        cost=(Fraction(1),) * 3,
        utilities=((Fraction(1), Fraction(0), Fraction(1)),),
        project_ids=("a", "b", "c"),
        voter_ids=("v1",),
    )
    assert unit.setting == Setting.COMMITTEE


def test_fractional_outcome_feasibility():
    inst = two_voter_example()
    good = FractionalOutcome([1, 1, 0])
    assert good.is_feasible(inst)
    assert not FractionalOutcome(["1/2", "1/2", "1/2"]).is_feasible(inst)


def _random_shares(rng: random.Random, m: int) -> list[Fraction]:
    """m shares among 0, 1 and fractions whose denominators reach past
    64 bits."""
    den = rng.choice([2, 12, 2**61 - 1, 10**30 + 7])
    return [
        rng.choice([Fraction(0), Fraction(1), Fraction(rng.randint(0, den), den)])
        for _ in range(m)
    ]


def test_scaled_shares_are_p_on_its_least_common_denominator():
    """(q, a) holds share j as a_j/q, and no smaller q does: a common
    denominator q is the least one exactly when gcd(q, a_1, ..., a_m) is
    1. cost and is_feasible, summed on these integers, agree with the
    sum of share·cost in fractions."""
    rng = random.Random(2404)
    feasible = 0
    for case in range(300):
        inst = random_instance(rng)
        if case % 3 == 1:
            inst = with_zero_cost_projects(rng, inst)
        if case % 4 == 0:
            p = random_feasible_p(rng, inst)
        else:
            p = FractionalOutcome(_random_shares(rng, inst.m))
        q, numerators = p.scaled_shares
        assert [Fraction(a, q) for a in numerators] == list(p.shares)
        assert math.gcd(q, *numerators) == 1
        spent = sum((s * c for s, c in zip(p.shares, inst.cost)), Fraction(0))
        assert p.cost(inst) == spent
        assert p.is_feasible(inst) == (spent == inst.budget)
        feasible += p.is_feasible(inst)
    assert feasible >= 75


def test_fractional_outcome_of_the_wrong_length_is_rejected():
    """Four shares on the seven projects of binary.json fund a, b and c
    at cost 3 = B; read against the instance they are a ValidationError,
    as are eight, in every reader of p's integers."""
    inst = parse_instance((DATA / "reports" / "binary.json").read_text())
    readers = [
        lambda p: p.cost(inst),
        lambda p: p.is_feasible(inst),
        lambda p: RoundingSampler(inst, p),
        *(
            lambda p, check=check: check(inst, p)
            for check in (check_ifs, check_strong_ifs, check_ufs,
                          check_strong_ufs, check_gfs)
        ),
    ]
    for shares in ([1, 1, 1, 0], [1, 1, 1, 0, 0, 0, 0, 0]):
        p = FractionalOutcome(shares)
        for read in readers:
            with pytest.raises(ValidationError, match="has wrong length"):
                read(p)


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


def test_utility_reads_integers_and_checks_the_length_of_p():
    """On a seeded sweep with utilities and shares of mixed denominators,
    `utility` equals the `Fraction` sum, for p and for an outcome; a p
    with one share too few or too many raises instead of being zipped."""
    rng = random.Random(468)
    for _ in range(30):
        inst = random_instance(rng)
        shares = [Fraction(rng.randint(0, 6), rng.randint(6, 9)) for _ in range(inst.m)]
        p = FractionalOutcome(shares)
        w = IntegralOutcome(j for j in range(inst.m) if rng.random() < 0.5)
        for i in range(inst.n):
            row = inst.utilities[i]
            expected = sum((s * u for s, u in zip(shares, row)), Fraction(0))
            assert utility(inst, i, p) == expected
            assert utility(inst, i, w) == sum(
                (row[j] for j in w.projects), Fraction(0)
            )
    inst = parse_instance((DATA / "reports" / "binary.json").read_text())
    assert inst.m == 7
    for shares in ([1, 1, 1, 0], [0] * 8):
        with pytest.raises(ValidationError):
            utility(inst, 0, FractionalOutcome(shares))


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


def _swept_instances(seed: int, count: int = 60) -> list[PBInstance]:
    """Seeded binary, cost and general instances, every other one with
    zero-cost projects."""
    rng = random.Random(seed)
    instances = []
    for case in range(count):
        inst = random_instance(rng, utilities=("binary", "cost", "general")[case % 3])
        instances.append(with_zero_cost_projects(rng, inst) if case % 2 else inst)
    return instances


def test_approver_masks_transpose_the_approval_masks():
    """Each project's approvers as a voter bitmask: the per-project loop
    over the voters, on the committed 14-project instance and on seeded
    binary, cost and general instances, half with zero-cost projects."""
    unit14 = DATA / "reports" / "unit14.json"
    instances = [parse_instance(unit14.read_text()), two_voter_example()]
    for inst in instances + _swept_instances(73):
        assert inst.approver_masks == tuple(
            sum(1 << i for i in range(inst.n) if inst.utilities[i][j] > 0)
            for j in range(inst.m)
        )


def test_approval_masks_and_sets_match_their_definitions():
    """Each voter's approval mask and set, read by truth tests, against
    the u_ij > 0 definition."""
    for inst in _swept_instances(79):
        for i, row in enumerate(inst.utilities):
            approved = frozenset(j for j, u in enumerate(row) if u > 0)
            assert inst.approval_set(i) == approved
            assert inst.approval_masks[i] == sum(1 << j for j in approved)


def _optimal_outcome_reference(inst: PBInstance, voter: int, budget: Fraction):
    """A voter's optimal fractional outcome spending exactly ``budget``, as
    one share per project, with its order sorted on every call."""
    row, cost, m = inst.utilities[voter], inst.cost, inst.m
    free = [j for j in range(m) if row[j] > 0 and cost[j] == 0]
    priced = [j for j in range(m) if row[j] > 0 and cost[j] > 0]
    priced.sort(key=lambda j: (-row[j] / cost[j], cost[j], j))
    padding = [j for j in range(m) if row[j] == 0]
    shares = [Fraction(0)] * m
    left = budget
    for j in free + priced + padding:
        if cost[j] > left:
            shares[j] = left / cost[j]
            break
        shares[j] = Fraction(1)
        left -= cost[j]
    return tuple(shares)


def _spend_shares(inst: PBInstance, voter: int, spend) -> tuple[Fraction, ...]:
    """The ``greedy_spend`` triple (k, left, c) as one share per project:
    1 on the first k projects of the voter's greedy order, left/c on the
    next."""
    k, left, c = spend
    order = inst.greedy_orders[voter]
    shares = [Fraction(0)] * inst.m
    for j in order[:k]:
        shares[j] = Fraction(1)
    if k < inst.m:
        shares[order[k]] = Fraction(left, c)
    return tuple(shares)


def test_optimal_outcome_matches_the_per_call_sort():
    """The cached greedy orders give each voter's optimum at budgets
    0, B and random budgets in between."""
    rng = random.Random(83)
    for inst in _swept_instances(83):
        budgets = [Fraction(0), inst.budget] + [
            inst.budget * Fraction(rng.randint(0, 24), 24) for _ in range(4)
        ]
        for i in range(inst.n):
            for budget in budgets:
                assert _spend_shares(inst, i, inst.greedy_spend(i, budget)) == (
                    _optimal_outcome_reference(inst, i, budget)
                )
            assert _spend_shares(inst, i, inst.optimal_spends[i]) == (
                _optimal_outcome_reference(inst, i, inst.budget)
            )


def test_frd_and_the_optimal_utility_match_the_reference_optimum():
    """FRD's p is the mean of the voters' reference optima at B, and
    ``optimal_fractional_utility`` at 0, B and random budgets is the
    utility of the reference optimum, on seeded binary, cost and general
    instances, half with zero-cost projects; some optima at B spend on
    zero-utility padding."""
    rng = random.Random(89)
    padded = 0
    for inst in _swept_instances(89, 240):
        optima = [
            _optimal_outcome_reference(inst, i, inst.budget) for i in range(inst.n)
        ]
        assert fractional_random_dictator(inst).shares == tuple(
            sum(column, Fraction(0)) / inst.n for column in zip(*optima)
        )
        padded += any(
            x and not inst.utilities[i][j]
            for i, shares in enumerate(optima)
            for j, x in enumerate(shares)
        )
        budgets = [Fraction(0), inst.budget] + [
            inst.budget * Fraction(rng.randint(0, 24), 24) for _ in range(3)
        ]
        for i, row in enumerate(inst.utilities):
            for budget in budgets:
                shares = _optimal_outcome_reference(inst, i, budget)
                assert optimal_fractional_utility(inst, i, budget) == sum(
                    (u * x for u, x in zip(row, shares)), Fraction(0)
                )
    assert padded > 10


def _setting_reference(inst: PBInstance) -> tuple[Setting, bool]:
    """The setting tag and the cost-utilities test, on the fractions."""
    binary = all(u in (0, 1) for row in inst.utilities for u in row)
    unit = all(c == 1 for c in inst.cost)
    cost = all(
        u == 0 or u == inst.cost[j]
        for row in inst.utilities
        for j, u in enumerate(row)
    )
    if binary and unit:
        return Setting.COMMITTEE, cost
    if binary:
        return Setting.BINARY, cost
    if cost:
        return Setting.COST, cost
    return (Setting.UNIT_COST if unit else Setting.GENERAL), cost


def _with_unit_costs(rng: random.Random, inst: PBInstance) -> PBInstance:
    """The instance with every cost 1 and a budget in [1, m]."""
    return PBInstance(
        budget=Fraction(rng.randint(1, inst.m)),
        cost=(Fraction(1),) * inst.m,
        utilities=inst.utilities,
        project_ids=inst.project_ids,
        voter_ids=inst.voter_ids,
    )


def test_scales_orders_and_settings_match_their_fraction_definitions():
    """`utility_scale`, `scaled_utilities`, `setting`, `has_cost_utilities`
    and `greedy_orders` read integers; each equals its definition on the
    fractions, over seeded binary, cost and general instances, half with
    zero-cost projects, and the same with unit costs."""
    rng = random.Random(89)
    instances = _swept_instances(89, 90)
    instances += [_with_unit_costs(rng, inst) for inst in instances[:30]]
    tags = set()
    for inst in instances:
        scale = math.lcm(*(u.denominator for row in inst.utilities for u in row if u))
        assert inst.utility_scale == scale
        assert inst.scaled_utilities == tuple(
            tuple((u * scale).numerator for u in row) for row in inst.utilities
        )
        assert all((u * scale).denominator == 1 for row in inst.utilities for u in row)
        tag, cost_utilities = _setting_reference(inst)
        assert inst.setting == tag
        assert has_cost_utilities(inst) == cost_utilities
        tags.add(tag)
        cost = inst.cost
        for i, row in enumerate(inst.utilities):
            free = [j for j in range(inst.m) if row[j] and not cost[j]]
            priced = sorted(
                (j for j in range(inst.m) if row[j] and cost[j]),
                key=lambda j: (-row[j] / cost[j], cost[j], j),
            )
            padding = [j for j in range(inst.m) if not row[j]]
            assert inst.greedy_orders[i] == tuple(free + priced + padding)
    assert tags == set(Setting)
