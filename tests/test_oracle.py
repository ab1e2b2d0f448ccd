import itertools
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from pbbobw import (
    FractionalOutcome,
    IntegralOutcome,
    LinearConstraint,
    OutcomePredicate,
    PBInstance,
    ScaleError,
    SettingError,
    ValidationError,
    check_ejr_binary,
    check_ejrx_cost,
    check_fjr_binary,
    check_gfs,
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
    parse_instance,
    predicate,
    solve_feasibility,
    utility,
)

from pbbobw import oracle
from pbbobw.cli import main
from pbbobw.oracle import INTEGRAL_AXIOMS, OUTCOME_CLASSES, UPWARD_CLOSED

from conftest import (
    random_feasible_p,
    random_instance,
    two_voter_example,
    with_zero_cost_projects,
)


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


def _bb1_fraction(inst, w):
    """BB1 summed in Fractions, as it was before the integer costs."""
    total = inst.total_cost(w.projects)
    if total <= inst.budget and any(
        total + inst.cost[c] >= inst.budget
        for c in range(inst.m) if c not in w.projects
    ):
        return True
    if total >= inst.budget and any(
        total - inst.cost[c] <= inst.budget for c in w.projects
    ):
        return True
    return total == inst.budget


def _bfx_fraction(inst, w):
    total = inst.total_cost(w.projects)
    return all(total - inst.cost[c] <= inst.budget for c in w.projects)


def test_integer_budget_tests_match_fractions():
    """is_bb1, is_bfx and the budget cap sum scaled integer costs; on
    every outcome they agree with the same tests over Fractions, with
    zero-cost projects and costs over mixed denominators."""
    rng = random.Random(17)
    capped = predicate("within-budget")
    seen = {"bb1": 0, "not bb1": 0, "bfx": 0, "not bfx": 0, "zero cost": 0}
    for _ in range(60):
        inst = random_instance(rng, n_max=2, m_max=6)
        if rng.random() < 0.5:
            inst = with_zero_cost_projects(rng, inst)
        seen["zero cost"] += 0 in inst.cost
        for r in range(inst.m + 1):
            for subset in itertools.combinations(range(inst.m), r):
                w = IntegralOutcome(subset)
                bb1, bfx = _bb1_fraction(inst, w), _bfx_fraction(inst, w)
                assert is_bb1(inst, w) == bb1, (inst, subset)
                assert is_bfx(inst, w) == bfx, (inst, subset)
                assert capped.evaluate(inst, w) == (w.cost(inst) <= inst.budget)
                seen["bb1" if bb1 else "not bb1"] += 1
                seen["bfx" if bfx else "not bfx"] += 1
    assert min(seen.values()) >= 20, seen


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
    for a, b in itertools.product(oracle.OUTCOME_CLASSES, repeat=2):
        cap_a, axioms_a = oracle.OUTCOME_CLASSES[a]
        cap_b, axioms_b = oracle.OUTCOME_CLASSES[b]
        assert predicate(f"{a},{b}") == OutcomePredicate(
            cap_a or cap_b, axioms_a + axioms_b
        )


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
    # The conjunctions with bb1 or bfx decide the closed class only on
    # the outcomes the other class accepts.
    queries = [name for name in OUTCOME_CLASSES] + [
        "within-budget,jr-binary",
        "bb1,ejrx-cost",
        "fjr-binary,bb1",
        "bfx,jr-binary",
        "ejrx-cost,bb1",
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
    instances += [
        with_zero_cost_projects(rng, inst, utility)
        for inst, utility in [
            (random_instance(rng, n_max=4, m_max=5, utilities="binary"), Fraction(1)),
            (random_instance(rng, n_max=4, m_max=5, utilities="cost"), Fraction(0)),
            (random_instance(rng, n_max=4, m_max=5), Fraction(3, 2)),
        ]
        for _ in range(3)
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
    assert checked > 250


def test_enumerate_passes_its_limit_to_the_class_checks(monkeypatch):
    monkeypatch.setenv("PB_BOBW_LIMIT", "2")
    inst = two_voter_example()
    outcomes = enumerate_outcomes(inst, predicate("fjr-binary"), limit=3)
    assert outcomes == [
        w for w in enumerate_outcomes(inst, predicate("within-budget"), 3)
        if check_fjr_binary(inst, w, 3).holds
    ]


# ---------------------------------------------------------------------------
# The subset lattice of the upward-closed classes


def _refutes(inst, axiom, w, witness):
    """Whether the witness's group S for its projects T shows, by the
    axiom's definition, that outcome w violates the axiom."""
    projects, voters = frozenset(witness.projects), witness.voters
    if not voters or len(voters) * inst.budget < inst.n * inst.total_cost(projects):
        return False
    funded = w.projects
    approvals = [inst.approval_set(i) for i in voters]
    if axiom == "jr":
        return not projects & funded and all(
            projects <= a and not a & funded for a in approvals
        )
    if axiom == "jr-general":
        (c,) = witness.projects
        return all(
            inst.utilities[i][c] >= witness.alpha > utility(inst, i, w)
            for i in voters
        )
    if axiom == "ejr":
        return all(
            projects <= a and len(a & funded) < len(projects) for a in approvals
        )
    if axiom == "fjr":
        return all(
            len(a & projects) >= witness.beta > len(a & funded) for a in approvals
        )
    assert axiom == "ejrx"
    return all(
        projects <= inst.approval_set(i)
        and any(
            utility(inst, i, w) + inst.utilities[i][c]
            <= sum(inst.utilities[i][t] for t in projects)
            for c in projects - funded
        )
        for i in voters
    )


# Utilities -> (the closed axioms that apply, a zero-cost project's utility)
_LATTICE_SETTINGS = {
    "binary": (("jr", "jr-general", "ejr", "fjr"), Fraction(1)),
    "cost": (("ejrx", "jr-general"), Fraction(0)),
    "general": (("jr-general",), Fraction(3, 2)),
}


@pytest.mark.parametrize("utilities", sorted(_LATTICE_SETTINGS))
def test_closed_axioms_hold_upward_and_keep_their_witnesses(utilities):
    """The two facts ``enumerate_outcomes`` decides by, on every outcome W
    and project j not in W of seeded instances, half with zero-cost
    projects: if W satisfies the axiom, W + j does; if W fails with
    witness (T, S), j is not in T and no voter of S approves j, then the
    same witness refutes W + j."""
    assert UPWARD_CLOSED == {
        a for axioms, _ in _LATTICE_SETTINGS.values() for a in axioms
    }
    axioms, zero_utility = _LATTICE_SETTINGS[utilities]
    rng = random.Random(67)
    kept = Counter()
    for case in range(40):
        inst = random_instance(rng, n_max=5, m_max=6, utilities=utilities)
        if case % 2:
            inst = with_zero_cost_projects(rng, inst, zero_utility)
        outcomes = [
            frozenset(w)
            for r in range(inst.m + 1)
            for w in itertools.combinations(range(inst.m), r)
        ]
        for axiom in axioms:
            reports = {
                w: INTEGRAL_AXIOMS[axiom](inst, IntegralOutcome(w), None)
                for w in outcomes
            }
            for w, report in reports.items():
                witness = report.witness
                if not report.holds:
                    assert _refutes(inst, axiom, IntegralOutcome(w), witness)
                for j in set(range(inst.m)) - w:
                    bigger = w | {j}
                    if report.holds:
                        assert reports[bigger].holds
                    elif j not in witness.projects and all(
                        inst.utilities[i][j] == 0 for i in witness.voters
                    ):
                        assert _refutes(inst, axiom, IntegralOutcome(bigger), witness)
                        assert not reports[bigger].holds
                        kept[axiom] += 1
    assert all(kept[axiom] > 50 for axiom in axioms), kept


UNIT14 = Path(__file__).resolve().parent / "data" / "reports" / "unit14.json"


def test_enumeration_on_the_committed_14_project_instance_makes_pinned_checks(
    monkeypatch,
):
    """A machine-independent work guard: on the committed unit14.json
    (n = 10, m = 14, unit costs, B = 6), 6,476 outcomes fit the budget and
    2,998 of them satisfy each of JR, EJR and FJR. The lattice decides all
    but 305 of them from their immediate subsets, for each axiom."""
    inst = parse_instance(UNIT14.read_text())
    calls = Counter()
    for axiom in ("jr", "ejr", "fjr"):

        def counted(instance, w, limit, axiom=axiom, check=INTEGRAL_AXIOMS[axiom]):
            calls[axiom] += 1
            return check(instance, w, limit)

        monkeypatch.setitem(INTEGRAL_AXIOMS, axiom, counted)
    fitting = enumerate_outcomes(inst, predicate("within-budget"))
    assert len(fitting) == 6476
    found = {
        name: enumerate_outcomes(inst, predicate(name))
        for name in ("jr-binary", "ejr-binary", "fjr-binary")
    }
    assert calls == {"jr": 305, "ejr": 305, "fjr": 305}
    assert {name: len(ws) for name, ws in found.items()} == {
        "jr-binary": 2998, "ejr-binary": 2998, "fjr-binary": 2998,
    }
    monkeypatch.undo()
    assert found["jr-binary"] == [w for w in fitting if check_jr_binary(inst, w).holds]
    assert found["ejr-binary"] == [w for w in fitting if check_ejr_binary(inst, w).holds]


def test_free_marginal_rows_are_the_substituted_fractions(monkeypatch):
    """Each extra row over p reaches the simplex as the same rationals:
    the sum of its coefficients over each outcome's projects, on the row's
    own bound and denominator."""
    seen = []

    def solve(rows, num_vars):
        seen.append(list(rows))
        return solve_feasibility(rows, num_vars)

    monkeypatch.setattr(oracle, "solve_feasibility", solve)
    rng = random.Random(71)
    for _ in range(10):
        inst = random_instance(rng, n_max=4, m_max=5)
        extra = ifs_rows(inst) + [
            LinearConstraint(
                tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 9)) for _ in range(inst.m)),
                rng.choice(["<=", ">="]),
                Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
            )
        ]
        outcomes = enumerate_outcomes(inst, predicate("bb1"))
        seen.clear()
        lottery_feasible(inst, predicate("bb1"), None, extra)
        (rows,) = seen
        for con, row in zip(extra, rows[2:]):
            assert row.relation == con.relation and row.bound == con.bound
            assert row.denominator == con.denominator
            assert row.coefficients == tuple(
                sum((con.coefficients[j] for j in w.projects), Fraction(0))
                for w in outcomes
            )


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


def test_gfs_rows_agree_with_check_gfs_on_general_utilities():
    rng = random.Random(101)
    verdicts = set()
    for case in range(40):
        inst = random_instance(rng, n_max=5, m_max=5, utilities="general")
        if case % 2:
            p = fractional_random_dictator(inst)
        else:
            p = random_feasible_p(rng, inst)
        rows = gfs_rows(inst)
        assert len(rows) == 2 ** inst.n - 1
        holds = check_gfs(inst, p).holds
        assert all(_satisfies(row, p.shares) for row in rows) == holds
        verdicts.add(holds)
    assert verdicts == {True, False}


def test_gfs_rows_on_binary_utilities_mark_the_union_of_approvals():
    rng = random.Random(103)
    for _ in range(20):
        inst = random_instance(rng, n_max=5, m_max=5, utilities="binary")
        for mask, row in enumerate(gfs_rows(inst), start=1):
            union = set().union(
                *(inst.approval_set(i) for i in range(inst.n) if mask >> i & 1)
            )
            d = row.denominator
            assert tuple(Fraction(c, d) for c in row.coefficients) == tuple(
                Fraction(1) if j in union else Fraction(0)
                for j in range(inst.m)
            )


def test_ifs_jr_joint_infeasibility():
    inst = gen_ifs_jr_family(4, Fraction(5))
    verdict = lottery_feasible(
        inst, predicate("jr-general"), None, ifs_rows(inst)
    )
    assert not verdict.feasible


BINARY = UNIT14.with_name("binary.json")


@pytest.mark.parametrize("fixed", [True, False])
@pytest.mark.parametrize("violated_first", [True, False])
def test_wrong_arity_is_rejected_before_any_row_is_read(fixed, violated_first):
    """A wrong-length extra row, or one over a denominator below 1, is a
    ValidationError in both modes, also when a full-length row before it
    is violated by the fixed p."""
    inst = parse_instance(BINARY.read_text())
    p = fractional_random_dictator(inst)
    violated = LinearConstraint((Fraction(0),) * inst.m, ">=", Fraction(1))
    for bad in (
        LinearConstraint((Fraction(1),) * (inst.m - 1), ">=", Fraction(0)),
        LinearConstraint((1,) * inst.m, ">=", 2, 0),
        LinearConstraint((1,) * inst.m, ">=", 2, -1),
    ):
        extra = [violated, bad] if violated_first else [bad, violated]
        with pytest.raises(ValidationError, match="wrong arity or denominator"):
            lottery_feasible(inst, predicate("bb1"), p if fixed else None, extra)


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


REPORTS = Path(__file__).resolve().parent / "data" / "reports"


@pytest.mark.parametrize("wrong", ["marginals", "class"])
def test_a_wrong_certificate_is_an_invariant_violation(monkeypatch, capsys, wrong):
    """A solver vertex whose lottery misses p, or funds an outcome outside
    the predicate's class, is reported as a broken invariant (exit 2), not
    as an infeasible query (exit 1). The checks raise rather than assert,
    so ``python -O`` keeps them."""
    if wrong == "class":
        # The full project set costs 7 > B = 3 plus any one project.
        enumerate_all = oracle.enumerate_outcomes
        monkeypatch.setattr(
            oracle, "enumerate_outcomes",
            lambda *args: [IntegralOutcome(range(7)), *enumerate_all(*args)],
        )
    monkeypatch.setattr(
        oracle, "solve_feasibility",
        lambda rows, count: [Fraction(1)] + [Fraction(0)] * (count - 1),
    )
    code = main([
        "oracle", "--instance", str(REPORTS / "binary.json"), "--mode",
        "implementable", "--predicate", "bb1", "--fractional",
        str(REPORTS / "binary-p.json"),
    ])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    expected = {"marginals": "misses the marginals", "class": "outside the class"}
    assert err.startswith("error: certified lottery") and expected[wrong] in err
