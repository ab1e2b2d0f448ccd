import itertools
import random
from fractions import Fraction

import pytest

from pbbobw import (
    FractionalOutcome,
    IntegralOutcome,
    LinearConstraint,
    PBInstance,
    ScaleError,
    SettingError,
    ValidationError,
    check_ejr_binary,
    check_ejrx_cost,
    check_fjr_binary,
    check_jr_binary,
    check_jr_general,
    enumerate_outcomes,
    fractional_random_dictator,
    gen_bfx_family,
    gen_gfs_jr_family,
    gen_ifs_jr_family,
    gfs_rows,
    ifs_rows,
    implements,
    is_bb1,
    is_bfx,
    lottery_feasible,
    predicate,
    solve_feasibility,
)

from pbbobw.oracle import OUTCOME_CLASSES

from conftest import random_feasible_p, random_instance, two_voter_example


# ---------------------------------------------------------------------------
# simplex


def _satisfies(constraint, x):
    value = sum(c * v for c, v in zip(constraint.coefficients, x))
    return {
        "<=": value <= constraint.bound,
        "=": value == constraint.bound,
        ">=": value >= constraint.bound,
    }[constraint.relation]


def test_simplex_returns_satisfying_point():
    rng = random.Random(99)
    for _ in range(60):
        nvars = rng.randint(1, 5)
        # Plant a known non-negative solution so the system is feasible.
        planted = [Fraction(rng.randint(0, 6), rng.randint(1, 3)) for _ in range(nvars)]
        rows = []
        for _ in range(rng.randint(1, 6)):
            coeffs = tuple(
                Fraction(rng.randint(-4, 4)) for _ in range(nvars)
            )
            value = sum(c * v for c, v in zip(coeffs, planted))
            relation = rng.choice(["<=", "=", ">="])
            slacked = {
                "<=": value + Fraction(rng.randint(0, 3)),
                "=": value,
                ">=": value - Fraction(rng.randint(0, 3)),
            }[relation]
            rows.append(LinearConstraint(coeffs, relation, slacked))
        solution = solve_feasibility(rows, nvars)
        assert solution is not None
        assert all(v >= 0 for v in solution)
        for row in rows:
            assert _satisfies(row, solution)


def test_simplex_detects_infeasibility():
    one = Fraction(1)
    rows = [
        LinearConstraint((one, one), "<=", Fraction(1)),
        LinearConstraint((one, one), ">=", Fraction(2)),
    ]
    assert solve_feasibility(rows, 2) is None
    rows = [LinearConstraint((Fraction(1),), "=", Fraction(-1))]
    assert solve_feasibility(rows, 1) is None


def test_simplex_agrees_with_vertex_scan_on_intervals():
    # One variable, random interval systems: feasible iff max lower bound
    # <= min upper bound (and upper bounds non-negative).
    rng = random.Random(5)
    for _ in range(100):
        lower = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        upper = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        rows = [
            LinearConstraint((Fraction(1),), ">=", lower),
            LinearConstraint((Fraction(1),), "<=", upper),
        ]
        expected = max(lower, Fraction(0)) <= upper
        assert (solve_feasibility(rows, 1) is not None) == expected


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_all_is_lexicographic_powerset():
    inst = two_voter_example()
    outcomes = enumerate_outcomes(inst, predicate("all"))
    keys = [tuple(sorted(w.projects)) for w in outcomes]
    assert keys == sorted(keys)
    assert len(outcomes) == 2 ** inst.m


def test_enumerate_within_budget_matches_filter():
    rng = random.Random(14)
    for _ in range(20):
        inst = random_instance(rng, m_max=6)
        fast = enumerate_outcomes(inst, predicate("within-budget"))
        slow = [
            IntegralOutcome(subset)
            for r in range(inst.m + 1)
            for subset in itertools.combinations(range(inst.m), r)
            if inst.total_cost(subset) <= inst.budget
        ]
        assert set(fast) == set(slow)
        keys = [tuple(sorted(w.projects)) for w in fast]
        assert keys == sorted(keys)


def test_enumerate_bfx_matches_pointwise_check():
    inst, _ = gen_bfx_family(Fraction(1), Fraction(1, 10))
    outcomes = enumerate_outcomes(inst, predicate("bfx"))
    expected = {
        IntegralOutcome(subset)
        for r in range(4)
        for subset in itertools.combinations(range(3), r)
        if is_bfx(inst, IntegralOutcome(subset))
    }
    assert set(outcomes) == expected


def test_enumerate_respects_project_limit():
    inst = gen_gfs_jr_family(8, Fraction(1), Fraction(1, 12))
    with pytest.raises(ScaleError):
        enumerate_outcomes(inst, predicate("within-budget"), limit=10)


def test_conjunction_predicate():
    inst = two_voter_example()
    both = predicate("within-budget,jr-binary")
    for w in enumerate_outcomes(inst, both):
        assert w.cost(inst) <= inst.budget
        assert check_jr_binary(inst, w).holds


# Each class as a budget cap and a membership test written against the
# checkers directly, independent of the registry.
_REFERENCE_CLASSES = {
    "all": (False, lambda inst, w: True),
    "within-budget": (True, lambda inst, w: True),
    "bb1": (False, is_bb1),
    "bfx": (False, is_bfx),
    "jr-binary": (True, lambda inst, w: check_jr_binary(inst, w).holds),
    "jr-general": (True, lambda inst, w: check_jr_general(inst, w).holds),
    "ejr-binary": (True, lambda inst, w: check_ejr_binary(inst, w).holds),
    "fjr-binary": (True, lambda inst, w: check_fjr_binary(inst, w).holds),
    "ejrx-cost": (True, lambda inst, w: check_ejrx_cost(inst, w).holds),
}


def _brute_force(inst, names):
    """Every subset in lexicographic order, filtered by the reference."""
    subsets = sorted(
        subset
        for r in range(inst.m + 1)
        for subset in itertools.combinations(range(inst.m), r)
    )
    kept = []
    for subset in subsets:
        w = IntegralOutcome(subset)
        capped = any(_REFERENCE_CLASSES[n][0] for n in names)
        if capped and w.cost(inst) > inst.budget:
            continue
        if all(_REFERENCE_CLASSES[n][1](inst, w) for n in names):
            kept.append(w)
    return kept


def test_enumerate_every_class_matches_brute_force():
    assert set(_REFERENCE_CLASSES) == set(OUTCOME_CLASSES)
    rng = random.Random(61)
    queries = [name for name in OUTCOME_CLASSES] + [
        "within-budget,jr-binary",
        "bb1,ejrx-cost",
    ]
    # two_voter_example has outcomes that cost exactly the budget; on
    # ejr_not_fjr the ejr-binary and fjr-binary classes differ.
    one, zero = Fraction(1), Fraction(0)
    ejr_not_fjr = PBInstance(
        budget=Fraction(5),
        cost=tuple(Fraction(c) for c in (2, 2, 1, 2, 3)),
        utilities=((one, one, zero, one, zero), (zero, one, one, zero, one)),
        project_ids=("a", "b", "c", "d", "e"),
        voter_ids=("v1", "v2"),
    )
    assert enumerate_outcomes(
        ejr_not_fjr, predicate("ejr-binary")
    ) != enumerate_outcomes(ejr_not_fjr, predicate("fjr-binary"))
    instances = [two_voter_example(), ejr_not_fjr] + [
        random_instance(rng, n_max=4, m_max=6, utilities=kind)
        for kind in ("binary", "cost")
        for _ in range(12)
    ]
    checked = 0
    for inst in instances:
        for query in queries:
            names = query.split(",")
            try:
                expected = _brute_force(inst, names)
            except SettingError:
                with pytest.raises(SettingError):
                    enumerate_outcomes(inst, predicate(query))
                continue
            assert enumerate_outcomes(inst, predicate(query)) == expected
            checked += 1
    assert checked > 150


def test_enumerate_passes_its_limit_to_the_class_checks(monkeypatch):
    monkeypatch.setenv("PB_BOBW_LIMIT", "2")
    inst = two_voter_example()
    outcomes = enumerate_outcomes(inst, predicate("fjr-binary"), limit=3)
    assert outcomes == [
        w for w in enumerate_outcomes(inst, predicate("within-budget"), 3)
        if check_fjr_binary(inst, w, 3).holds
    ]


# ---------------------------------------------------------------------------
# implementability


def test_frd_marginals_always_bb1_implementable():
    rng = random.Random(88)
    for _ in range(15):
        inst = random_instance(rng, m_max=5)
        p = fractional_random_dictator(inst)
        verdict = lottery_feasible(inst, predicate("bb1"), p)
        assert verdict.feasible
        assert implements(inst, verdict.certificate, p)


def test_random_feasible_p_always_bb1_implementable():
    rng = random.Random(86)
    for _ in range(15):
        inst = random_instance(rng, m_max=5)
        p = random_feasible_p(rng, inst)
        verdict = lottery_feasible(inst, predicate("bb1"), p)
        assert verdict.feasible


def test_bfx_family_infeasible_but_bb1_feasible():
    inst, p = gen_bfx_family(Fraction(1), Fraction(1, 10))
    assert not lottery_feasible(inst, predicate("bfx"), p).feasible
    assert lottery_feasible(inst, predicate("bb1"), p).feasible


def test_fixed_p_rejects_violated_side_constraint():
    inst = two_voter_example()
    p = FractionalOutcome([1, "1/2", "1/2"])
    row = LinearConstraint(
        (Fraction(0), Fraction(1), Fraction(0)), ">=", Fraction(3, 4)
    )
    verdict = lottery_feasible(inst, predicate("bb1"), p, extra=[row])
    assert not verdict.feasible


def test_free_p_certificate_satisfies_rows():
    inst = two_voter_example()
    rows = ifs_rows(inst)
    verdict = lottery_feasible(inst, predicate("bb1"), None, rows)
    assert verdict.feasible
    for row in rows:
        value = sum(
            c * s
            for c, s in zip(row.coefficients, verdict.fractional.shares)
        )
        assert value >= row.bound


def test_gfs_jr_joint_infeasibility():
    inst = gen_gfs_jr_family(6, Fraction(1), Fraction(1, 12))
    rows = gfs_rows(inst)
    assert len(rows) == 63
    verdict = lottery_feasible(inst, predicate("jr-binary"), None, rows)
    assert not verdict.feasible


def test_ifs_jr_joint_infeasibility():
    inst = gen_ifs_jr_family(4, Fraction(5))
    verdict = lottery_feasible(
        inst, predicate("jr-general"), None, ifs_rows(inst)
    )
    assert not verdict.feasible


# ---------------------------------------------------------------------------
# generators


def test_generator_parameter_ranges():
    with pytest.raises(ValidationError):
        gen_bfx_family(Fraction(1), Fraction(1, 4))
    with pytest.raises(ValidationError):
        gen_bfx_family(Fraction(1), Fraction(0))
    with pytest.raises(ValidationError):
        gen_gfs_jr_family(5, Fraction(1), Fraction(1, 12))
    with pytest.raises(ValidationError):
        gen_gfs_jr_family(6, Fraction(1), Fraction(1, 6))
    with pytest.raises(ValidationError):
        gen_ifs_jr_family(3, Fraction(5))
    with pytest.raises(ValidationError):
        gen_ifs_jr_family(4, Fraction(4))


def test_gfs_jr_family_shape():
    inst = gen_gfs_jr_family(6, Fraction(1), Fraction(1, 12))
    assert inst.n == 6
    assert inst.m == 19
    g = inst.project_index("g")
    assert inst.cost[g] == Fraction(1, 2)
    assert all(c == Fraction(5, 12) for j, c in enumerate(inst.cost) if j != g)


def test_ifs_jr_family_shape():
    inst = gen_ifs_jr_family(4, Fraction(5))
    assert inst.n == 4
    assert inst.m == 9
    assert inst.budget == 2
    assert all(c == 1 for c in inst.cost)
