import json
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from pbbobw import (
    IntegralOutcome,
    PBInstance,
    SettingError,
    parse_instance,
    ValidationError,
    check_ejr_binary,
    check_ejrx_cost,
    check_fjr_binary,
    check_jr_binary,
    check_jr_general,
    expost,
    gcr,
    gen_gfs_jr_family,
    mes,
    utility,
)

from conftest import (
    count_walks,
    dense_instance,
    random_budget_outcome,
    random_instance,
    two_voter_example,
    with_zero_cost_projects,
)


def test_jr_on_two_voter_example():
    inst = two_voter_example()
    assert check_jr_binary(inst, IntegralOutcome({0, 1})).holds
    # Funding both personal projects leaves nobody deprived either.
    assert check_jr_binary(inst, IntegralOutcome({1, 2})).holds


def test_jr_violation_witness_substitutes():
    inst = gen_gfs_jr_family(6, Fraction(1), Fraction(1, 12))
    g = inst.project_index("g")
    w = IntegralOutcome(
        {inst.project_index("a1"), inst.project_index("b1")}
    )
    report = check_jr_binary(inst, w)
    assert not report.holds
    witness = report.witness
    (project,) = witness.projects
    assert project == g
    # Re-validate the witness: enough deprived approvers to afford g.
    deprived = [
        i
        for i in range(inst.n)
        if inst.utilities[i][g] > 0 and utility(inst, i, w) == 0
    ]
    assert set(witness.voters) <= set(deprived)
    assert len(deprived) * inst.budget >= inst.n * inst.cost[g]


def test_binary_hierarchy_fjr_ejr_jr():
    rng = random.Random(17)
    for _ in range(80):
        inst = random_instance(rng, n_max=5, m_max=5, utilities="binary")
        w = random_budget_outcome(rng, inst)
        fjr = check_fjr_binary(inst, w).holds
        ejr = check_ejr_binary(inst, w).holds
        jr = check_jr_binary(inst, w).holds
        if fjr:
            assert ejr
        if ejr:
            assert jr


def test_jr_general_equals_jr_binary_on_binary_instances():
    rng = random.Random(29)
    for _ in range(80):
        inst = random_instance(rng, n_max=5, m_max=5, utilities="binary")
        w = random_budget_outcome(rng, inst)
        assert (
            check_jr_general(inst, w).holds
            == check_jr_binary(inst, w).holds
        )


def test_jr_general_scaled_utilities_agree_with_binary():
    """Scaling a binary profile by a positive constant cannot change the
    general checker's verdict (thresholds scale with alpha)."""
    rng = random.Random(43)
    for _ in range(40):
        inst = random_instance(rng, n_max=5, m_max=5, utilities="binary")
        w = random_budget_outcome(rng, inst)
        scaled = PBInstance(
            budget=inst.budget,
            cost=inst.cost,
            utilities=tuple(
                tuple(u * Fraction(3, 7) for u in row)
                for row in inst.utilities
            ),
            project_ids=inst.project_ids,
            voter_ids=inst.voter_ids,
        )
        assert (
            check_jr_general(scaled, w).holds
            == check_jr_binary(inst, w).holds
        )


def test_ejr_witness_revalidates():
    rng = random.Random(59)
    seen = 0
    for _ in range(120):
        inst = random_instance(rng, n_max=5, m_max=5, utilities="binary")
        w = random_budget_outcome(rng, inst)
        report = check_ejr_binary(inst, w)
        if report.holds:
            continue
        seen += 1
        witness = report.witness
        projects = set(witness.projects)
        cost = inst.total_cost(projects)
        voters = list(witness.voters)
        # T-cohesive (common approval) and all below the |T| target.
        assert len(voters) * inst.budget >= inst.n * cost
        for i in voters:
            assert all(inst.utilities[i][j] > 0 for j in projects)
            assert utility(inst, i, w) < len(projects)
    assert seen > 0


def test_binary_checkers_reject_general_utilities():
    rng = random.Random(3)
    inst = random_instance(rng, utilities="general")
    while all(u in (0, 1) for row in inst.utilities for u in row):
        inst = random_instance(rng, utilities="general")
    w = IntegralOutcome(())
    for checker in (check_jr_binary, check_ejr_binary, check_fjr_binary):
        with pytest.raises(SettingError):
            checker(inst, w)


def test_ejrx_on_mes_output_cost_utilities():
    rng = random.Random(71)
    for _ in range(40):
        inst = random_instance(rng, n_max=5, m_max=5, utilities="cost")
        result = mes(inst)
        assert check_ejrx_cost(inst, result.outcome).holds


def test_ejrx_detects_starved_cohesive_group():
    # Two clones can afford their common project but get nothing.
    inst = PBInstance(
        budget=Fraction(1),
        cost=(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)),
        utilities=(
            (Fraction(1, 2), Fraction(0), Fraction(0)),
            (Fraction(1, 2), Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(1, 2), Fraction(1, 2)),
        ),
        project_ids=("a", "b", "c"),
        voter_ids=("v1", "v2", "v3"),
    )
    assert not check_ejrx_cost(inst, IntegralOutcome({1, 2})).holds
    assert check_ejrx_cost(inst, IntegralOutcome({0, 1})).holds


# ---------------------------------------------------------------------------
# References: the EJR, FJR and EJR-x searches as plain loops over every
# project set by size and lexicographically, with no budget pruning. Each
# returns the witness as (projects, voters, beta), or None when the axiom
# holds. The JR references are the two checkers' own loops over single
# projects and return (projects, voters, alpha, note).


def _cohesive(inst, count, cost):
    return count > 0 and count * inst.budget >= inst.n * cost


def _ejr_reference(inst, w):
    approvals = [inst.approval_set(i) for i in range(inst.n)]
    won = [len(approvals[i] & w.projects) for i in range(inst.n)]
    for size in range(1, inst.m + 1):
        for group in combinations(range(inst.m), size):
            projects = frozenset(group)
            deprived = [
                i
                for i in range(inst.n)
                if projects <= approvals[i] and won[i] < size
            ]
            if _cohesive(inst, len(deprived), inst.total_cost(projects)):
                return group, tuple(deprived), None
    return None


def _fjr_reference(inst, w):
    approvals = [inst.approval_set(i) for i in range(inst.n)]
    won = [len(approvals[i] & w.projects) for i in range(inst.n)]
    for size in range(1, inst.m + 1):
        for group in combinations(range(inst.m), size):
            projects = frozenset(group)
            cost = inst.total_cost(projects)
            for beta in range(1, size + 1):
                deprived = [
                    i
                    for i in range(inst.n)
                    if len(approvals[i] & projects) >= beta and won[i] < beta
                ]
                if _cohesive(inst, len(deprived), cost):
                    return group, tuple(deprived), beta
    return None


def _ejrx_reference(inst, w):
    approvals = [inst.approval_set(i) for i in range(inst.n)]
    base = [utility(inst, i, w) for i in range(inst.n)]
    for size in range(1, inst.m + 1):
        for group in combinations(range(inst.m), size):
            projects = frozenset(group)
            missing = projects - w.projects
            deprived = []
            for i in range(inst.n):
                if not projects <= approvals[i]:
                    continue
                target = sum(
                    (inst.utilities[i][c] for c in projects), Fraction(0)
                )
                satisfied = not missing or all(
                    base[i] + (inst.utilities[i][c] if c not in w.projects else 0)
                    > target
                    for c in missing
                )
                if not satisfied:
                    deprived.append(i)
            if _cohesive(inst, len(deprived), inst.total_cost(projects)):
                return group, tuple(deprived), None
    return None


def _jr_binary_reference(inst, w):
    approvals = [inst.approval_set(i) for i in range(inst.n)]
    covered = [bool(approvals[i] & w.projects) for i in range(inst.n)]
    for j in range(inst.m):
        deprived = [i for i in range(inst.n) if j in approvals[i] and not covered[i]]
        if _cohesive(inst, len(deprived), inst.cost[j]):
            return (
                (j,), tuple(deprived), None,
                "cohesive group with zero represented members",
            )
    return None


def _jr_general_reference(inst, w):
    sat = [utility(inst, i, w) for i in range(inst.n)]
    for j in range(inst.m):
        candidates = sorted(
            {
                min(Fraction(1), inst.utilities[i][j])
                for i in range(inst.n)
                if inst.utilities[i][j] > 0
            }
        )
        for alpha in candidates:
            deprived = [
                i
                for i in range(inst.n)
                if inst.utilities[i][j] >= alpha and sat[i] < alpha
            ]
            if _cohesive(inst, len(deprived), inst.cost[j]):
                return (
                    (j,), tuple(deprived), alpha,
                    "(alpha, {j})-cohesive group below threshold alpha",
                )
    return None


def _sweep_outcomes(rng, inst):
    """A within-budget outcome, an arbitrary subset and the MES outcome."""
    anything = IntegralOutcome(
        j for j in range(inst.m) if rng.random() < 0.4
    )
    return [random_budget_outcome(rng, inst), anything, mes(inst).outcome]


def _assert_same_verdicts(
    checker, reference, utilities, seed, zero_utility,
    fields=("projects", "voters", "beta"),
):
    rng = random.Random(seed)
    verdicts = set()
    for case in range(50):
        inst = random_instance(rng, n_max=6, m_max=7, utilities=utilities)
        if case % 2:
            inst = with_zero_cost_projects(rng, inst, zero_utility)
        for w in _sweep_outcomes(rng, inst):
            report = checker(inst, w)
            expected = reference(inst, w)
            assert report.holds == (expected is None)
            if expected is not None:
                witness = report.witness
                assert tuple(getattr(witness, f) for f in fields) == expected
            verdicts.add(report.holds)
    assert verdicts == {True, False}


@pytest.mark.parametrize(
    "checker, reference",
    [(check_ejr_binary, _ejr_reference), (check_fjr_binary, _fjr_reference)],
)
def test_binary_searches_match_the_unpruned_loops(checker, reference):
    _assert_same_verdicts(checker, reference, "binary", 83, Fraction(1))


def test_ejrx_search_matches_the_unpruned_loop():
    _assert_same_verdicts(
        check_ejrx_cost, _ejrx_reference, "cost", 89, Fraction(0)
    )


@pytest.mark.parametrize(
    "checker, reference, utilities, zero_utility",
    [
        (check_jr_binary, _jr_binary_reference, "binary", Fraction(1)),
        (check_jr_general, _jr_general_reference, "general", Fraction(3, 2)),
    ],
)
def test_jr_checks_match_their_loops_over_single_projects(
    checker, reference, utilities, zero_utility
):
    _assert_same_verdicts(
        checker, reference, utilities, 97, zero_utility,
        fields=("projects", "voters", "alpha", "note"),
    )


def test_won_from_the_approval_masks_matches_the_per_voter_sum():
    """Each voter's won weight, read from the approval masks, against the
    sum over the funded projects: unit and scaled-cost weights, on 240
    seeded binary, cost and general instances, half with zero-cost
    projects."""
    rng = random.Random(101)
    for case in range(240):
        kind = ("binary", "cost", "general")[case % 3]
        inst = random_instance(rng, n_max=6, m_max=7, utilities=kind)
        if case % 2:
            free = Fraction(0) if kind == "cost" else Fraction(1)
            inst = with_zero_cost_projects(rng, inst, free)
        for w in _sweep_outcomes(rng, inst):
            for weight in (None, inst.scaled_costs):
                unit = [1] * inst.m if weight is None else weight
                assert expost._won(inst, w, weight) == [
                    sum(unit[j] for j in w.projects if approved >> j & 1)
                    for approved in inst.approval_masks
                ]


def _unit_costs(rng, inst):
    """The approval sets of `inst` with every cost 1 and an integer B in
    [1, m]: its binary utilities are then also cost utilities."""
    one, zero = Fraction(1), Fraction(0)
    return PBInstance(
        budget=Fraction(rng.randint(1, inst.m)),
        cost=(one,) * inst.m,
        utilities=tuple(
            tuple(one if u else zero for u in row) for row in inst.utilities
        ),
        project_ids=inst.project_ids,
        voter_ids=inst.voter_ids,
    )


def test_ejr_and_ejrx_agree_on_unit_cost_binary_instances():
    """With unit costs and binary utilities, EJR-x is EJR: both checkers
    give the same verdict and the same witness."""
    rng = random.Random(107)
    verdicts = set()
    for case in range(60):
        inst = (
            dense_instance(rng)
            if case % 2
            else random_instance(rng, n_max=6, m_max=7, utilities="binary")
        )
        inst = _unit_costs(rng, inst)
        for w in _sweep_outcomes(rng, inst):
            ejr, ejrx = check_ejr_binary(inst, w), check_ejrx_cost(inst, w)
            assert ejr.holds == ejrx.holds
            if not ejr.holds:
                assert ejr.witness.projects == ejrx.witness.projects
                assert ejr.witness.voters == ejrx.witness.voters
            verdicts.add(ejr.holds)
    assert verdicts == {True, False}


@pytest.mark.parametrize(
    "checker, reference, utilities",
    [
        (check_ejr_binary, _ejr_reference, "binary"),
        (check_fjr_binary, _fjr_reference, "binary"),
        (check_ejrx_cost, _ejrx_reference, "cost"),
    ],
)
def test_pruned_walks_match_the_unpruned_loops_on_dense_approvals(
    monkeypatch, checker, reference, utilities
):
    """Dense approval sets and a large budget: the walk skips many
    within-budget sets that too few voters can still afford, and the
    verdicts and witnesses stay those of the plain loops."""
    visited = count_walks(monkeypatch)
    rng = random.Random(101)
    verdicts, skipped = set(), 0
    for _ in range(40):
        inst = dense_instance(rng, utilities)
        for w in _sweep_outcomes(rng, inst):
            visited.clear()
            report = checker(inst, w)
            expected = reference(inst, w)
            assert report.holds == (expected is None)
            if expected is not None:
                witness = report.witness
                assert (witness.projects, witness.voters, witness.beta) == expected
            else:
                # The walk ran to its end: compare with every within-budget set.
                fitting = sum(1 for _ in inst.subsets(range(inst.m), inst.budget))
                assert visited[0] <= fitting
                skipped += fitting - visited[0]
            verdicts.add(report.holds)
    assert verdicts == {True, False}
    assert skipped > 1000


BINARY20 = Path(__file__).resolve().parent / "data" / "reports" / "binary20.json"


def test_walks_on_the_committed_20_project_instance_visit_pinned_counts(
    monkeypatch,
):
    """A machine-independent work guard: on the committed n = m = 20
    binary instance (B = 10, costs 1 and 2), 89,644 project sets fit the
    budget; against its MES outcome the pruned EJR walk visits 19 of them
    and the FJR walk 3,952."""
    inst = parse_instance(BINARY20.read_text())
    w = IntegralOutcome(
        inst.project_index(pid)
        for pid in json.loads(BINARY20.with_name("binary20-mes.json").read_text())
    )
    assert w == mes(inst).outcome
    visited = count_walks(monkeypatch)
    assert check_ejr_binary(inst, w).holds
    assert check_fjr_binary(inst, w).holds
    assert visited == [19, 3952]
    assert sum(1 for _ in inst.subsets(range(inst.m), inst.budget)) == 89644


def test_gcr_on_the_committed_20_project_instance_visits_pinned_counts(
    monkeypatch,
):
    """GCR on ``binary20.json`` walks 57,962, 6,236, 617 and 63 sets for
    its four steps and 15 for the search that finds nothing, and builds
    the instance's FJR lane tables once for all five searches."""
    inst = parse_instance(BINARY20.read_text())
    lanes = PBInstance.__dict__["approval_count_lanes"]
    build, builds = lanes.func, []

    def counted(instance):
        builds.append(instance)
        return build(instance)

    monkeypatch.setattr(lanes, "func", counted)
    visited = count_walks(monkeypatch)
    assert len(gcr(inst).steps) == 4
    assert visited == [57962, 6236, 617, 63, 15]
    assert builds == [inst]
