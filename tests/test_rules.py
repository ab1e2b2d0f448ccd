import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from pbbobw import (
    FractionalOutcome,
    IntegralOutcome,
    InvariantViolation,
    PBInstance,
    PaymentMatrix,
    RoundingSampler,
    SettingError,
    bw_gcr,
    bw_mes,
    check_ejr_binary,
    check_fjr_binary,
    check_gfs,
    check_strong_ufs,
    fractional_random_dictator,
    gcr,
    gen_gfs_jr_family,
    group_ladder,
    is_bb1,
    mes,
)
from pbbobw.rules import _min_rho, _round_completion

from conftest import (
    count_walks,
    dense_instance,
    random_instance,
    two_voter_example,
    with_duplicated_voters,
    with_zero_cost_projects,
)


# ---------------------------------------------------------------------------
# fractional random dictator


def test_frd_exhausts_budget():
    rng = random.Random(7)
    for _ in range(60):
        inst = random_instance(rng)
        p = fractional_random_dictator(inst)
        assert p.is_feasible(inst)


def test_frd_on_common_plus_personal_family():
    inst = gen_gfs_jr_family(6, Fraction(1), Fraction(1, 12))
    p = fractional_random_dictator(inst)
    shares = {
        inst.project_ids[j]: s for j, s in enumerate(p.shares)
    }
    # Each dictator funds a_i and b_i fully (cost 5/12 each), then puts the
    # remaining 1/6 of the budget into c_i; g never fits first.
    assert shares["g"] == 0
    for i in range(1, 7):
        assert shares[f"a{i}"] == Fraction(1, 6)
        assert shares[f"b{i}"] == Fraction(1, 6)
        assert shares[f"c{i}"] == Fraction(1, 15)


def test_frd_prefers_utility_per_cost():
    inst = PBInstance(
        budget=Fraction(2),
        cost=(Fraction(1), Fraction(2)),
        utilities=((Fraction(2), Fraction(3)),),
        project_ids=("cheap", "big"),
        voter_ids=("v1",),
    )
    p = fractional_random_dictator(inst)
    # cheap has ratio 2, big has ratio 3/2: fund cheap, then half of big.
    assert p.shares == (Fraction(1), Fraction(1, 2))


# ---------------------------------------------------------------------------
# greedy cohesive rule


def test_gcr_two_voter_example():
    inst = two_voter_example()
    trace = gcr(inst)
    assert trace.outcome == IntegralOutcome({0})
    assert len(trace.steps) == 1
    assert trace.steps[0].projects == (0,)
    assert set(trace.steps[0].voters) == {0, 1}


def test_gcr_output_is_fjr():
    rng = random.Random(23)
    for _ in range(50):
        inst = random_instance(rng, n_max=5, m_max=5, utilities="binary")
        trace = gcr(inst)
        assert trace.outcome.cost(inst) <= inst.budget
        assert check_fjr_binary(inst, trace.outcome).holds


def _gcr_reference(inst):
    """GCR as a plain loop over every project set of the remaining
    projects, with no budget pruning: the steps as (beta, projects,
    voters) and the outcome."""
    approvals = [inst.approval_set(i) for i in range(inst.n)]
    active = set(range(inst.n))
    chosen = set()
    steps = []
    while True:
        remaining = [j for j in range(inst.m) if j not in chosen]
        best = None
        for size in range(1, len(remaining) + 1):
            for group in combinations(remaining, size):
                projects = frozenset(group)
                cost = inst.total_cost(projects)
                for beta in range(1, size + 1):
                    supporters = tuple(
                        i
                        for i in sorted(active)
                        if len(approvals[i] & projects) >= beta
                    )
                    if not supporters:
                        break
                    if len(supporters) * inst.budget < inst.n * cost:
                        continue
                    key = (-beta, cost, -len(supporters), group)
                    if best is None or key < best[0]:
                        best = (key, beta, group, supporters)
        if best is None:
            return steps, IntegralOutcome(chosen)
        _, beta, group, supporters = best
        steps.append((beta, group, supporters))
        chosen.update(group)
        active.difference_update(supporters)


def test_gcr_matches_the_unpruned_loop():
    rng = random.Random(97)
    step_counts = set()
    for case in range(60):
        inst = random_instance(rng, n_max=6, m_max=7, utilities="binary")
        if case % 2:
            inst = with_zero_cost_projects(rng, inst)
        trace = gcr(inst)
        steps, outcome = _gcr_reference(inst)
        assert [(s.beta, s.projects, s.voters) for s in trace.steps] == steps
        assert trace.outcome == outcome
        step_counts.add(len(steps))
    assert max(step_counts) >= 2


def test_gcr_matches_the_unpruned_loop_on_dense_approvals(monkeypatch):
    """Dense approval sets and a large budget: each step's walk skips
    within-budget sets that too few active voters can reach, and the
    trace stays that of the plain loop."""
    visited = count_walks(monkeypatch)
    rng = random.Random(103)
    skipped = 0
    for _ in range(40):
        inst = dense_instance(rng)
        visited.clear()
        trace = gcr(inst)
        steps, outcome = _gcr_reference(inst)
        assert [(s.beta, s.projects, s.voters) for s in trace.steps] == steps
        assert trace.outcome == outcome
        # One full walk per step and a last one that finds no candidate.
        chosen = set()
        assert len(visited) == len(steps) + 1
        for k, count in enumerate(visited):
            pool = [j for j in range(inst.m) if j not in chosen]
            fitting = sum(1 for _ in inst.subsets(pool, inst.budget))
            assert count <= fitting
            skipped += fitting - count
            if k < len(steps):
                chosen.update(steps[k][1])
    assert skipped > 100


def test_gcr_rejects_general_utilities():
    inst = PBInstance(
        budget=Fraction(1),
        cost=(Fraction(1),),
        utilities=((Fraction(1, 2),),),
        project_ids=("a",),
        voter_ids=("v1",),
    )
    with pytest.raises(SettingError):
        gcr(inst)


# ---------------------------------------------------------------------------
# method of equal shares


def test_mes_two_voter_example():
    inst = two_voter_example()
    result = mes(inst)
    assert result.outcome == IntegralOutcome({0})
    # 2 * min(1/2, rho) = cost(a) = 1/2, so a is affordable at rho = 1/4.
    assert result.rho == ((0, Fraction(1, 4)),)
    assert result.payments.y[0][0] == Fraction(1, 4)
    assert result.payments.y[1][0] == Fraction(1, 4)


def test_mes_unit_cost_pair():
    inst = PBInstance(
        budget=Fraction(2),
        cost=(Fraction(1), Fraction(1), Fraction(1)),
        utilities=(
            (Fraction(1), Fraction(1), Fraction(0)),
            (Fraction(1), Fraction(0), Fraction(1)),
        ),
        project_ids=("a", "b", "c"),
        voter_ids=("v1", "v2"),
    )
    result = mes(inst)
    # a at rho = 1/2 (each pays 1/2); afterwards nobody can buy b or c alone.
    assert result.outcome == IntegralOutcome({0})
    assert result.rho == ((0, Fraction(1, 2)),)
    assert result.payments.b == (Fraction(1, 2), Fraction(1, 2))


def test_mes_single_voter_spends_everything():
    inst = PBInstance(
        budget=Fraction(3),
        cost=(Fraction(3),),
        utilities=((Fraction(1),),),
        project_ids=("a",),
        voter_ids=("v1",),
    )
    result = mes(inst)
    assert result.outcome == IntegralOutcome({0})
    assert result.rho == ((0, Fraction(3)),)


def test_mes_never_selects_unapproved_project():
    rng = random.Random(41)
    for _ in range(60):
        inst = random_instance(rng, utilities="binary")
        result = mes(inst)
        for j in result.outcome.projects:
            assert any(
                inst.utilities[i][j] > 0 for i in range(inst.n)
            ) or inst.cost[j] == 0


def test_mes_payments_validate():
    rng = random.Random(43)
    for _ in range(60):
        inst = random_instance(rng, utilities=rng.choice(["binary", "cost"]))
        result = mes(inst)
        result.payments.validate(inst)
        for j in result.outcome.projects:
            paid = sum(result.payments.y[i][j] for i in range(inst.n))
            assert paid == inst.cost[j]


def _min_rho_reference(inst, j, budgets):
    """The least rho with sum_i min(b_i, u_ij * rho) = cost(j), or None,
    scanning all n voters: every candidate (a voter's b_i / u_ij, or the
    solution on a segment where the first k voters by b_i / u_ij are
    saturated) is evaluated, and the least that meets the cost wins."""
    cost, column = inst.cost[j], [row[j] for row in inst.utilities]

    def paid(rho):
        return sum(min(b, u * rho) for b, u in zip(budgets, column))

    voters = sorted(
        (b / u, b, u) for b, u in zip(budgets, column) if u > 0
    )
    candidates = {Fraction(0)} | {t for t, _, _ in voters}
    for k in range(len(voters)):
        slope = sum(u for _, _, u in voters[k:])
        candidates.add((cost - sum(b for _, b, _ in voters[:k])) / slope)
    return min((r for r in candidates if r >= 0 and paid(r) == cost), default=None)


def _min_rho_on_one_q(inst, j, budgets):
    """`_min_rho` on fraction budgets: they are put on one money
    denominator q, and the returned pair is read back as rho."""
    q = math.lcm(inst.cost_scale, *(b.denominator for b in budgets))
    rho = _min_rho(inst, j, [int(b * q) for b in budgets], q)
    if rho is None:
        return None
    return Fraction(rho[0] * inst.utility_scale, q * rho[1])


def test_min_rho_matches_an_all_voter_scan():
    """`_min_rho` reads only the project's approvers with budget left;
    swept over binary, cost and general utilities, zero-cost projects and
    random budgets in [0, B/n], some of them 0."""
    rng = random.Random(89)
    for case in range(90):
        inst = random_instance(rng, utilities=("binary", "cost", "general")[case % 3])
        if case % 2:
            inst = with_zero_cost_projects(rng, inst)
        share = inst.budget / inst.n
        for _ in range(3):
            budgets = [
                share * Fraction(rng.choice([0, rng.randint(0, 12)]), 12)
                for _ in range(inst.n)
            ]
            for j in range(inst.m):
                assert _min_rho_on_one_q(inst, j, budgets) == (
                    _min_rho_reference(inst, j, budgets)
                )


def _mes_reference(inst):
    """MES with every project's rho found again in every round, by the
    all-voter scan."""
    budgets = [inst.budget / inst.n] * inst.n
    y = [[Fraction(0)] * inst.m for _ in range(inst.n)]
    log = []
    while True:
        rhos = [
            (Fraction(0) if inst.cost[j] == 0 else _min_rho_reference(inst, j, budgets), j)
            for j in range(inst.m)
            if j not in {k for k, _ in log}
        ]
        rhos = [(rho, j) for rho, j in rhos if rho is not None]
        if not rhos:
            return log, y, budgets
        rho, j = min(rhos)
        for i in range(inst.n):
            pay = min(budgets[i], inst.utilities[i][j] * rho)
            if pay > 0:
                y[i][j] = pay
                budgets[i] -= pay
        log.append((j, rho))


def test_mes_matches_the_recomputing_reference():
    """MES finds a project's rho again only after one of its approvers
    paid, and counts money on a denominator that grows with the payments;
    the selection order, rho values and payments equal a loop on fractions
    that finds every rho again in every round, over binary, cost and
    general utilities with n, m up to 10."""
    rng = random.Random(97)
    for case in range(90):
        kind = ("binary", "cost", "general")[case % 3]
        inst = random_instance(rng, n_max=10, m_max=10, utilities=kind)
        if case % 2 == 0:
            inst = with_zero_cost_projects(rng, inst)
        result = mes(inst)
        log, y, budgets = _mes_reference(inst)
        assert result.rho == tuple(log)
        assert result.payments.y == tuple(map(tuple, y))
        assert result.payments.b == tuple(budgets)


# ---------------------------------------------------------------------------
# group ladder


def test_group_ladder_prefix():
    inst = gen_gfs_jr_family(6, Fraction(1), Fraction(1, 12))
    cell = inst.unanimous_cells[0]
    ladder = group_ladder(inst, cell)
    # One voter, budget 1/6: no project of cost >= 5/12 fits.
    assert ladder.projects == ()
    assert ladder.kappa == 0
    assert 0 < ladder.delta < 1


def _ladder_reference(inst, cell):
    """The fit loop: the cell's approved projects, cheapest first, while
    they fit |S| * B / n, then the first that does not with the fraction
    of it that the rest buys."""
    group_budget = len(cell) * inst.budget / inst.n
    approved = sorted(inst.approval_set(cell[0]), key=lambda j: (inst.cost[j], j))
    prefix, spent, nxt = [], Fraction(0), None
    for j in approved:
        if spent + inst.cost[j] <= group_budget:
            prefix.append(j)
            spent += inst.cost[j]
        else:
            nxt = j
            break
    delta = Fraction(0)
    if nxt is not None:
        delta = (group_budget - spent) / inst.cost[nxt]
        assert delta < 1
    return tuple(cell), tuple(prefix), nxt, delta


def test_group_ladder_matches_the_fit_loop():
    """The ladder read from the cell's optimal fractional outcome equals
    the fit loop on every unanimous cell of seeded binary instances, a
    third of them with zero-cost projects."""
    rng = random.Random(17)
    cells = 0
    for k in range(300):
        inst = random_instance(rng, n_max=6, m_max=7, utilities="binary")
        if k % 3 == 0:
            inst = with_zero_cost_projects(rng, inst)
        for cell in inst.unanimous_cells:
            ladder = group_ladder(inst, cell)
            got = (ladder.cell, ladder.projects, ladder.next_project, ladder.delta)
            assert got == _ladder_reference(inst, cell)
            cells += 1
    assert cells > 800


def test_group_ladder_rejects_general_utilities():
    inst = PBInstance(
        budget=Fraction(1),
        cost=(Fraction(1),),
        utilities=((Fraction(1, 2),),),
        project_ids=("a",),
        voter_ids=("v1",),
    )
    with pytest.raises(SettingError, match="group_ladder requires binary utilities"):
        group_ladder(inst, (0,))


# ---------------------------------------------------------------------------
# best-of-both-worlds algorithms


def test_bw_gcr_two_voter_example():
    inst = two_voter_example()
    result = bw_gcr(inst, seed=5)
    assert result.fractional.shares == (Fraction(1), Fraction(1), Fraction(0))
    assert result.outcome == IntegralOutcome({0, 1})


def test_bw_mes_two_voter_example():
    inst = two_voter_example()
    result = bw_mes(inst, seed=5)
    assert result.fractional.shares == (
        Fraction(1),
        Fraction(1, 2),
        Fraction(1, 2),
    )
    assert result.outcome.projects >= {0}


def test_bw_gcr_properties_hold():
    rng = random.Random(61)
    for _ in range(30):
        inst = random_instance(rng, n_max=4, m_max=5, utilities="binary")
        result = bw_gcr(inst, seed=rng.getrandbits(32))
        p = result.fractional
        assert p.is_feasible(inst)
        assert check_strong_ufs(inst, p).holds
        assert is_bb1(inst, result.outcome)
        assert check_fjr_binary(inst, result.outcome).holds
        # The deterministic core survives rounding.
        assert result.trace.outcome.projects <= result.outcome.projects


def test_bw_mes_properties_hold():
    rng = random.Random(67)
    for _ in range(30):
        inst = random_instance(rng, n_max=4, m_max=5, utilities="binary")
        result = bw_mes(inst, seed=rng.getrandbits(32))
        p = result.fractional
        assert p.is_feasible(inst)
        assert check_strong_ufs(inst, p).holds
        assert is_bb1(inst, result.outcome)
        assert check_ejr_binary(inst, result.outcome).holds
        assert result.mes.outcome.projects <= result.outcome.projects
        result.payments.validate(inst)


def test_bw_mes_cost_utilities_gfs():
    rng = random.Random(73)
    for _ in range(30):
        inst = random_instance(rng, n_max=4, m_max=5, utilities="cost")
        result = bw_mes(inst, seed=rng.getrandbits(32))
        assert check_gfs(inst, result.fractional).holds
        assert check_strong_ufs(inst, result.fractional).holds


def _bw_gcr_reference(inst, seed):
    """BW-GCR's completion on fractions: GCR's core at 1, each qualifying
    cell's top-up of |S|·B/n − cost(ladder) raising its approved projects
    toward 1 cheapest first, then the fill in index order; p, the voters'
    budgets and the outcome a fresh sampler draws."""
    core = gcr(inst).outcome.projects
    shares = [Fraction(j in core) for j in range(inst.m)]
    budgets = [Fraction(0)] * inst.n

    def spend(order, money):
        for j in order:
            if money == 0:
                break
            if inst.cost[j] == 0:
                continue
            add = min(1 - shares[j], money / inst.cost[j])
            shares[j] += add
            money -= add * inst.cost[j]
        return money

    for cell in inst.unanimous_cells:
        _, ladder, _, _ = _ladder_reference(inst, cell)
        approved = inst.approval_set(cell[0])
        if len(approved & core) != len(ladder):
            continue
        money = len(cell) * inst.budget / inst.n - inst.total_cost(ladder)
        for i in cell:
            budgets[i] = money / len(cell)
        spend(sorted(approved, key=lambda j: (inst.cost[j], j)), money)
    spent = sum(s * c for s, c in zip(shares, inst.cost))
    assert spend(range(inst.m), inst.budget - spent) == 0
    p = FractionalOutcome(shares)
    return p, tuple(budgets), RoundingSampler(inst, p).sample(seed)


def _bw_mes_reference(inst, seed):
    """BW-MES's completion on fractions: MES's payments, then each voter's
    leftover on their cheapest unfunded approved project, then each
    voter's fill in index order; p, the payment matrix and the outcome a
    fresh sampler draws."""
    result = mes(inst)
    core = result.outcome.projects
    y = [list(row) for row in result.payments.y]
    budgets = list(result.payments.b)
    paid = [sum(column, Fraction(0)) for column in zip(*y)]
    for i in range(inst.n):
        unfunded = inst.approval_set(i) - core
        if unfunded:
            j = min(unfunded, key=lambda j: (inst.cost[j], j))
            y[i][j] += budgets[i]
            paid[j] += budgets[i]
            budgets[i] = Fraction(0)
    for i in range(inst.n):
        for j in range(inst.m):
            amount = min(budgets[i], inst.cost[j] - paid[j])
            if amount > 0:
                y[i][j] += amount
                paid[j] += amount
                budgets[i] -= amount
    p = FractionalOutcome(
        x / c if c else Fraction(j in core)
        for j, (x, c) in enumerate(zip(paid, inst.cost))
    )
    payments = PaymentMatrix(y=tuple(map(tuple, y)), b=tuple(budgets))
    return p, payments, RoundingSampler(inst, p).sample(seed)


def test_bw_completions_match_the_fraction_reference():
    """Both BW rules spend on integers of 1/q; p, BW-GCR's budgets,
    BW-MES's payment matrix and the sampled outcome equal the completions
    restated on fractions, over binary and cost instances with n, m up to
    7 before zero-cost projects (in a third of them) and duplicated voters
    (in a quarter) are added."""
    rng = random.Random(2024)
    topped_cells = 0
    for case in range(360):
        kind = ("binary", "cost")[case % 2]
        inst = random_instance(rng, n_max=7, m_max=7, utilities=kind)
        if case % 3 == 0:
            inst = with_zero_cost_projects(rng, inst, Fraction(kind == "binary"))
        if case % 4 == 1:
            inst = with_duplicated_voters(rng, inst)
        seed = rng.getrandbits(32)
        result = bw_mes(inst, seed)
        assert (result.fractional, result.payments, result.outcome) == (
            _bw_mes_reference(inst, seed)
        )
        if kind == "binary":
            result = bw_gcr(inst, seed)
            assert (result.fractional, result.budgets, result.outcome) == (
                _bw_gcr_reference(inst, seed)
            )
            topped_cells += sum(
                1 for cell in inst.unanimous_cells
                if len(cell) > 1 and result.budgets[cell[0]] > 0
            )
    assert topped_cells > 20


def test_a_draw_that_drops_a_core_project_is_an_invariant_violation(monkeypatch):
    """Both rules check that the rounded outcome keeps their core."""
    monkeypatch.setattr(RoundingSampler, "sample", lambda self, seed: IntegralOutcome(()))
    inst = two_voter_example()
    for rule in (bw_gcr, bw_mes):
        with pytest.raises(InvariantViolation, match="sampled outcome lost a core"):
            rule(inst, seed=5)


@pytest.mark.parametrize("paid, message", [
    ([2, 1, 1], "project 0 funded beyond 1"),
    ([1, 1, 1], "does not cost B"),
    ([0, 1, 1], "core project lost full funding"),
])
def test_the_completion_hand_off_checks_p(paid, message):
    """The hand-off both rules share checks p before it rounds: no project
    above 1, cost(p) = B and the core fully funded (the two-voter example
    in integers of 1/2: costs 1, B = 2, core {a})."""
    inst = two_voter_example()
    with pytest.raises(InvariantViolation, match=message):
        _round_completion(inst, frozenset({0}), 1, [1, 1, 1], paid, 5)
