import itertools
import random
from fractions import Fraction

import pytest

from pbbobw import (
    FractionalOutcome,
    ScaleError,
    check_gfs,
    check_ifs,
    check_strong_ifs,
    check_strong_ufs,
    check_ufs,
    fractional_random_dictator,
    optimal_fractional_utility,
    utility,
)

from conftest import random_feasible_p, random_instance, two_voter_example


def brute_fractional_optimum(instance, voter, budget):
    """Best utility from any feasible fractional spend of `budget`.

    An optimum always funds some subset fully plus at most one project
    partially, so subset enumeration plus a single fractional top-up is
    exhaustive.
    """
    row = instance.utilities[voter]
    best = Fraction(0)
    for r in range(instance.m + 1):
        for subset in itertools.combinations(range(instance.m), r):
            cost = sum(
                (instance.cost[j] for j in subset), Fraction(0)
            )
            if cost > budget:
                continue
            value = sum((row[j] for j in subset), Fraction(0))
            best = max(best, value)
            left = budget - cost
            for j in range(instance.m):
                if j in subset or instance.cost[j] == 0:
                    continue
                fraction = min(Fraction(1), left / instance.cost[j])
                best = max(best, value + fraction * row[j])
    return best


def test_optimal_fractional_utility_matches_brute_force():
    rng = random.Random(21)
    for _ in range(40):
        inst = random_instance(rng, n_max=3, m_max=5)
        for i in range(inst.n):
            for budget in (inst.budget, inst.budget / inst.n):
                assert optimal_fractional_utility(
                    inst, i, budget
                ) == brute_fractional_optimum(inst, i, budget)


def test_unanimous_partition_groups_identical_rows():
    inst = two_voter_example()
    cells = inst.unanimous_cells
    assert sorted(cells) == [(0,), (1,)]

    rng = random.Random(8)
    for _ in range(20):
        inst = random_instance(rng)
        cells = inst.unanimous_cells
        seen = sorted(i for cell in cells for i in cell)
        assert seen == list(range(inst.n))
        for cell in cells:
            rows = {inst.utilities[i] for i in cell}
            assert len(rows) == 1
        rows = [inst.utilities[cell[0]] for cell in cells]
        assert len(set(rows)) == len(rows)


def test_ifs_report_witnesses_substitute():
    rng = random.Random(34)
    checked = 0
    for _ in range(60):
        inst = random_instance(rng)
        p = random_feasible_p(rng, inst)
        report = check_ifs(inst, p)
        assert report.holds == all(
            w.lhs >= w.rhs for w in report.witnesses
        )
        for w in report.witnesses:
            (voter,) = w.voters
            assert w.lhs == utility(inst, voter, p)
            assert (
                w.rhs
                == optimal_fractional_utility(inst, voter, inst.budget)
                / inst.n
            )
            checked += 1
    assert checked > 0


def test_hierarchy_on_random_pairs():
    rng = random.Random(90)
    for _ in range(80):
        inst = random_instance(rng)
        p = random_feasible_p(rng, inst)
        sufs = check_strong_ufs(inst, p).holds
        ufs = check_ufs(inst, p).holds
        ifs = check_ifs(inst, p).holds
        sifs = check_strong_ifs(inst, p).holds
        if sufs:
            assert ufs
        if ufs:
            assert ifs
        if sifs:
            assert ifs


def test_gfs_implies_nothing_but_is_checked_exactly():
    inst = two_voter_example()
    p = FractionalOutcome([1, "1/2", "1/2"])
    assert check_gfs(inst, p).holds
    # Starve a voter who only values the unfunded project.
    from pbbobw import PBInstance

    lone = PBInstance(
        budget=Fraction(1),
        cost=(Fraction(1, 2),) * 3,
        utilities=(
            (Fraction(1), Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(0), Fraction(1)),
        ),
        project_ids=("a", "b", "c"),
        voter_ids=("v1", "v2"),
    )
    bad = FractionalOutcome([1, 1, 0])
    report = check_gfs(lone, bad)
    assert not report.holds
    violated = [w for w in report.witnesses if w.lhs < w.rhs]
    assert any(w.voters == (1,) for w in violated)


def test_gfs_holds_for_random_dictator():
    rng = random.Random(46)
    for _ in range(30):
        inst = random_instance(rng, n_max=6, m_max=6)
        p = fractional_random_dictator(inst)
        assert check_gfs(inst, p).holds


def test_gfs_scale_guard():
    rng = random.Random(2)
    inst = random_instance(rng, n_max=4)
    p = random_feasible_p(rng, inst)
    with pytest.raises(ScaleError):
        check_gfs(inst, p, limit=inst.n - 1)
