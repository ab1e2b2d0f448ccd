"""The ex-ante rows against the loops they replaced.

Each axiom is one set of rows in ``pbbobw.exante``; the checkers, the
oracle rows, FRD and the optimal fractional utility all read them or the
one greedy optimum. The reference functions below are the former
implementations, one loop per axiom, kept to pin the reports, the row
order and the FRD marginals on seeded sweeps.
"""

import itertools
import random
from fractions import Fraction

from pbbobw import (
    ExAnteReport,
    FractionalOutcome,
    LinearConstraint,
    PBInstance,
    Witness,
    check_gfs,
    check_ifs,
    check_strong_ifs,
    check_strong_ufs,
    check_ufs,
    exante,
    fractional_random_dictator,
    gfs_rows,
    ifs_rows,
    optimal_fractional_utility,
    utility,
)

from conftest import random_feasible_p, random_instance, with_zero_cost_projects


# ---------------------------------------------------------------------------
# References


def ref_optimal_fractional_utility(instance, voter, budget):
    row = instance.utilities[voter]
    value = Fraction(0)
    items = []
    for j in range(instance.m):
        if row[j] == 0:
            continue
        if instance.cost[j] == 0:
            value += row[j]
        else:
            items.append(j)
    items.sort(key=lambda j: (-row[j] / instance.cost[j], instance.cost[j], j))
    remaining = Fraction(budget)
    for j in items:
        if remaining <= 0:
            break
        take = min(Fraction(1), remaining / instance.cost[j])
        value += take * row[j]
        remaining -= take * instance.cost[j]
    return value


def ref_ratio_order(instance, voter):
    row = instance.utilities[voter]
    free = [j for j in range(instance.m) if row[j] > 0 and instance.cost[j] == 0]
    priced = [j for j in range(instance.m) if row[j] > 0 and instance.cost[j] > 0]
    priced.sort(key=lambda j: (-row[j] / instance.cost[j], instance.cost[j], j))
    padding = [j for j in range(instance.m) if row[j] == 0]
    return free + priced + padding


def ref_frd(instance):
    shares = [Fraction(0)] * instance.m
    budget = instance.budget
    for i in range(instance.n):
        order = ref_ratio_order(instance, i)
        spent = Fraction(0)
        cut = len(order)
        for pos, j in enumerate(order):
            if spent + instance.cost[j] <= budget:
                spent += instance.cost[j]
                shares[j] += 1
            else:
                cut = pos
                break
        leftover = budget - spent
        if leftover > 0:
            g = order[cut]
            shares[g] += leftover / instance.cost[g]
    return FractionalOutcome(s / instance.n for s in shares)


def _ref_report(axiom, witnesses):
    violations = [w for w in witnesses if w.lhs < w.rhs]
    return ExAnteReport(
        axiom=axiom, holds=not violations, witnesses=tuple(violations)
    )


def ref_check_ifs(instance, p):
    return _ref_report("ifs", [
        Witness(
            (i,),
            utility(instance, i, p),
            ref_optimal_fractional_utility(instance, i, instance.budget)
            / instance.n,
        )
        for i in range(instance.n)
    ])


def ref_check_strong_ifs(instance, p):
    share = instance.budget / instance.n
    return _ref_report("strong-ifs", [
        Witness(
            (i,),
            utility(instance, i, p),
            ref_optimal_fractional_utility(instance, i, share),
        )
        for i in range(instance.n)
    ])


def ref_check_ufs(instance, p):
    return _ref_report("ufs", [
        Witness(
            cell,
            utility(instance, cell[0], p),
            Fraction(len(cell), instance.n)
            * ref_optimal_fractional_utility(instance, cell[0], instance.budget),
        )
        for cell in instance.unanimous_cells
    ])


def ref_check_strong_ufs(instance, p):
    return _ref_report("strong-ufs", [
        Witness(
            cell,
            utility(instance, cell[0], p),
            ref_optimal_fractional_utility(
                instance, cell[0], len(cell) * instance.budget / instance.n
            ),
        )
        for cell in instance.unanimous_cells
    ])


def ref_check_gfs(instance, p):
    opt = [
        ref_optimal_fractional_utility(instance, i, instance.budget)
        for i in range(instance.n)
    ]
    witnesses = []
    worst = None
    for size in range(1, instance.n + 1):
        for group in itertools.combinations(range(instance.n), size):
            lhs = sum(
                (
                    p.shares[j]
                    * max(instance.utilities[i][j] for i in group)
                    for j in range(instance.m)
                ),
                Fraction(0),
            )
            rhs = sum((opt[i] for i in group), Fraction(0)) / instance.n
            w = Witness(voters=group, lhs=lhs, rhs=rhs)
            if worst is None or w.lhs - w.rhs < worst.lhs - worst.rhs:
                worst = w
            if lhs < rhs:
                witnesses.append(w)
    if witnesses:
        return ExAnteReport(axiom="gfs", holds=False, witnesses=tuple(witnesses))
    return ExAnteReport(axiom="gfs", holds=True, witnesses=(worst,))


def ref_ifs_rows(instance):
    return [
        LinearConstraint(
            tuple(instance.utilities[i]),
            ">=",
            ref_optimal_fractional_utility(instance, i, instance.budget)
            / instance.n,
        )
        for i in range(instance.n)
    ]


def ref_gfs_rows(instance):
    n = instance.n
    opts = [
        ref_optimal_fractional_utility(instance, i, instance.budget)
        for i in range(n)
    ]
    rows = []
    for mask in range(1, 1 << n):
        group = [i for i in range(n) if mask >> i & 1]
        top = tuple(map(max, zip(*(instance.utilities[i] for i in group))))
        total = sum((opts[i] for i in group), Fraction(0))
        rows.append(LinearConstraint(top, ">=", total / n))
    return rows


def values(rows):
    """Each row as its rational values: every entry over its denominator."""
    return [
        (
            tuple(Fraction(c, row.denominator) for c in row.coefficients),
            row.relation,
            Fraction(row.bound, row.denominator),
        )
        for row in rows
    ]


CHECKS = (
    (check_ifs, ref_check_ifs),
    (check_strong_ifs, ref_check_strong_ifs),
    (check_ufs, ref_check_ufs),
    (check_strong_ufs, ref_check_strong_ufs),
    (check_gfs, ref_check_gfs),
)


def sweep(seed, count, n_max=6, m_max=6):
    """Seeded instances over general, binary and cost utilities; every
    second one gets zero-cost projects inserted."""
    rng = random.Random(seed)
    for k in range(count):
        kind = ("general", "binary", "cost")[k % 3]
        inst = random_instance(rng, n_max=n_max, m_max=m_max, utilities=kind)
        if k % 2:
            # Zero-cost projects keep cost utilities only at utility 0.
            free = Fraction(0) if kind == "cost" else Fraction(1)
            inst = with_zero_cost_projects(rng, inst, free)
        yield rng, inst


# ---------------------------------------------------------------------------
# Sweeps against the references


def test_checkers_match_the_per_axiom_loops():
    outcomes = {True: 0, False: 0}
    for rng, inst in sweep(81, 150):
        for p in (random_feasible_p(rng, inst), fractional_random_dictator(inst)):
            for check, reference in CHECKS:
                report = check(inst, p)
                assert report.to_dict(inst) == reference(inst, p).to_dict(inst)
                outcomes[report.holds] += 1
    assert min(outcomes.values()) > 100


def _large_denominator_instance(rng):
    """General utilities, costs and budget with denominators up to 10^5."""
    n, m = rng.randint(3, 7), rng.randint(2, 6)

    def big():
        return Fraction(rng.randint(1, 10**6), rng.randint(1, 10**5))

    cost = [big() for _ in range(m)]
    budget = max(cost) + Fraction(rng.randint(0, 10**3), 10**3 + 7) * (
        sum(cost) - max(cost)
    )
    rows = tuple(
        tuple(big() if rng.random() < 0.7 else Fraction(0) for _ in range(m))
        for _ in range(n)
    )
    return PBInstance(
        budget=budget,
        cost=tuple(cost),
        utilities=rows,
        project_ids=tuple(f"p{j + 1}" for j in range(m)),
        voter_ids=tuple(f"v{i + 1}" for i in range(n)),
    )


def test_checkers_match_the_loops_with_large_denominators():
    """The integer rows on one common denominator against the Fraction
    loops: a starved p leaves most of the 2^n - 1 groups violated, and
    FRD's p meets every GFS row, so the worst row is reported."""
    rng = random.Random(86)
    violated, holds = 0, 0
    for _ in range(40):
        inst = _large_denominator_instance(rng)
        starved = FractionalOutcome(
            Fraction(rng.randint(0, 10**3), rng.randint(10**4, 10**6))
            for _ in range(inst.m)
        )
        for p in (starved, fractional_random_dictator(inst)):
            for check, reference in CHECKS:
                report = check(inst, p)
                assert report.to_dict(inst) == reference(inst, p).to_dict(inst)
            gfs = check_gfs(inst, p)
            violated += 0 if gfs.holds else len(gfs.witnesses)
            holds += gfs.holds
        assert values(gfs_rows(inst)) == values(ref_gfs_rows(inst))
        assert values(ifs_rows(inst)) == values(ref_ifs_rows(inst))
    assert violated > 1000 and holds == 40


def _with_duplicated_voters(rng, inst):
    """Each voter repeated one to three times, then two voters with no
    positive utility, at most 8 voters in all."""
    rows = [
        row for row in inst.utilities for _ in range(rng.randint(1, 3))
    ][:6]
    rows += [(Fraction(0),) * inst.m] * 2
    return PBInstance(
        budget=inst.budget,
        cost=inst.cost,
        utilities=tuple(rows),
        project_ids=inst.project_ids,
        voter_ids=tuple(f"v{i + 1}" for i in range(len(rows))),
    )


def _slacks(rows, p):
    """lhs - rhs of every row at p."""
    return [
        sum(c * x for c, x in zip(row.coefficients, p.shares)) - row.bound
        for row in rows
    ]


def _tightened(rows, p):
    """p scaled so that its tightest rows hold with equality, or None when
    no scale meets every row or a share would pass 1."""
    ratios = []
    for row in rows:
        lhs = sum(c * x for c, x in zip(row.coefficients, p.shares))
        if lhs == 0 and row.bound > 0:
            return None
        if lhs > 0:
            ratios.append(row.bound / lhs)
    scale = max(ratios, default=Fraction(1))
    if any(x * scale > 1 for x in p.shares):
        return None
    return FractionalOutcome(x * scale for x in p.shares)


def test_gfs_least_slack_ties_go_to_the_first_group_by_size():
    """A voter with no positive utility adds nothing to either side of a
    group's row, so when GFS holds the least slack is 0: both such voters
    alone and together share it, and so does every group that p meets
    with equality, with or without them. A duplicated voter adds nothing
    to a group's lhs, so violations share their slacks too. The report
    names the groups by size, then lexicographically, as the loop over
    combinations does, where the first tied group in bitmask order is
    often a larger one."""
    tied = reordered = 0
    for rng, inst in sweep(87, 60, n_max=4):
        inst = _with_duplicated_voters(rng, inst)
        rows = ref_gfs_rows(inst)
        assert values(gfs_rows(inst)) == values(rows)
        drawn = random_feasible_p(rng, inst)
        tight = _tightened(rows, drawn)
        for p in (fractional_random_dictator(inst), drawn, tight):
            if p is None:
                continue
            report = check_gfs(inst, p)
            assert report.to_dict(inst) == ref_check_gfs(inst, p).to_dict(inst)
            slacks = _slacks(rows, p)
            least = min(slacks)
            if report.holds and slacks.count(least) > 1:
                tied += 1
                mask = sum(1 << i for i in report.witnesses[0].voters)
                reordered += slacks.index(least) != mask - 1
    assert tied > 100 and reordered > 20


def test_gfs_lists_hundreds_of_violations_by_size_then_lexicographically():
    """A starved p at n = 9 to 11 violates most of the 2^n - 1 groups;
    the witnesses come by size, then lexicographically."""
    rng = random.Random(88)
    for n in (9, 10, 11):
        inst = random_instance(rng, n_max=1, m_max=5, utilities="general")
        inst = PBInstance(
            budget=inst.budget,
            cost=inst.cost,
            utilities=tuple(
                tuple(Fraction(rng.randint(0, 4)) for _ in range(inst.m))
                for _ in range(n)
            ),
            project_ids=inst.project_ids,
            voter_ids=tuple(f"v{i + 1:02d}" for i in range(n)),
        )
        starved = FractionalOutcome(
            Fraction(1, rng.randint(20, 40)) for _ in range(inst.m)
        )
        report = check_gfs(inst, starved)
        groups = [w.voters for w in report.witnesses]
        assert len(groups) > 300
        assert groups == sorted(groups, key=lambda S: (len(S), S))
        expected = ref_check_gfs(inst, starved)
        assert report.to_dict(inst) == expected.to_dict(inst)


def test_oracle_rows_match_the_voter_and_mask_loops():
    for _, inst in sweep(82, 90):
        assert values(ifs_rows(inst)) == values(ref_ifs_rows(inst))
        assert values(gfs_rows(inst)) == values(ref_gfs_rows(inst))


def test_frd_matches_the_ratio_order_loop():
    for _, inst in sweep(83, 300):
        assert fractional_random_dictator(inst) == ref_frd(inst)


def test_optimal_fractional_utility_matches_the_greedy_loop():
    for _, inst in sweep(84, 150):
        n = inst.n
        for i in range(n):
            for k in range(n + 1):
                budget = k * inst.budget / n
                assert optimal_fractional_utility(
                    inst, i, budget
                ) == ref_optimal_fractional_utility(inst, i, budget)


def test_optimal_fractional_utility_is_the_utility_of_the_optimal_outcome():
    """The optimum's utility is walked on integers; at 0, B, each
    unanimous cell's |S|·B/n and random budgets in [0, B] it equals the
    utility of the voter's ``greedy_spend`` (k, left, c), summed on the
    fractions: the first k projects of the greedy order and left/c of the
    next."""
    for rng, inst in sweep(85, 150):
        budgets = {Fraction(0), inst.budget}
        budgets.update(len(cell) * inst.budget / inst.n for cell in inst.unanimous_cells)
        budgets.update(
            inst.budget * Fraction(rng.randint(0, 60), 60) for _ in range(3)
        )
        for i, row in enumerate(inst.utilities):
            order = inst.greedy_orders[i]
            for budget in budgets:
                k, left, c = inst.greedy_spend(i, budget)
                best = sum((row[j] for j in order[:k]), Fraction(0))
                if k < inst.m:
                    best += row[order[k]] * Fraction(left, c)
                assert optimal_fractional_utility(inst, i, budget) == best


# ---------------------------------------------------------------------------
# Property: an axiom holds exactly when p meets all of its rows


def test_each_axiom_holds_exactly_when_p_meets_its_rows():
    axioms = (
        (check_ifs, lambda inst: exante._share_rows(inst, False, False)),
        (check_strong_ifs, lambda inst: exante._share_rows(inst, False, True)),
        (check_ufs, lambda inst: exante._share_rows(inst, True, False)),
        (check_strong_ufs, lambda inst: exante._share_rows(inst, True, True)),
        (check_gfs, lambda inst: exante._group_rows(inst, None)),
    )
    outcomes = {True: 0, False: 0}
    for rng, inst in sweep(85, 120):
        arbitrary = FractionalOutcome(
            Fraction(rng.randint(0, 4), 4) for _ in range(inst.m)
        )
        for p in (arbitrary, random_feasible_p(rng, inst)):
            for check, rows in axioms:
                meets = all(
                    sum(c * x for c, x in zip(coefficients, p.shares)) >= bound
                    for coefficients, _, bound in values(
                        row for _, row in rows(inst)
                    )
                )
                assert check(inst, p).holds == meets
                outcomes[meets] += 1
    assert min(outcomes.values()) > 50
