"""Shared seeded generators for randomized property tests.

Everything is driven by `random.Random` with explicit seeds so failures
replay exactly. All generated numbers are Fractions with small
denominators, keeping exact arithmetic cheap.
"""

from __future__ import annotations

import random
from fractions import Fraction

from pbbobw import FractionalOutcome, IntegralOutcome, PBInstance


def rand_cost(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 12), rng.choice([1, 2, 3, 4]))


def random_instance(
    rng: random.Random,
    n_max: int = 6,
    m_max: int = 6,
    utilities: str = "general",
) -> PBInstance:
    """A small random instance whose budget is always attainable.

    `utilities` is one of "general", "binary", "cost" (cost utilities:
    u_ij = cost(j) on the approval set).
    """
    n = rng.randint(1, n_max)
    m = rng.randint(2, m_max)
    cost = [rand_cost(rng) for _ in range(m)]
    top = max(cost)
    slack = sum(cost) - top
    budget = top + Fraction(rng.randint(0, 12), 12) * slack
    rows = []
    for _ in range(n):
        if utilities == "general":
            row = [
                Fraction(rng.randint(0, 8), rng.choice([1, 2, 3]))
                for _ in range(m)
            ]
            if all(u == 0 for u in row):
                row[rng.randrange(m)] = Fraction(1)
        else:
            approved = rng.sample(range(m), rng.randint(1, m))
            row = [Fraction(0)] * m
            for j in approved:
                row[j] = cost[j] if utilities == "cost" else Fraction(1)
        rows.append(tuple(row))
    return PBInstance(
        budget=budget,
        cost=tuple(cost),
        utilities=tuple(rows),
        project_ids=tuple(f"p{j + 1}" for j in range(m)),
        voter_ids=tuple(f"v{i + 1}" for i in range(n)),
    )


def random_feasible_p(
    rng: random.Random, instance: PBInstance
) -> FractionalOutcome:
    """Random p in [0,1]^m with cost(p) = B exactly.

    Start from uniform-ish shares, then push the cost difference into
    projects (in random order) until it vanishes; always possible since
    cost(C) >= B >= 0.
    """
    m = instance.m
    shares = [Fraction(rng.randint(0, 10), 10) for _ in range(m)]
    diff = instance.budget - sum(
        s * c for s, c in zip(shares, instance.cost)
    )
    order = list(range(m))
    rng.shuffle(order)
    for j in order:
        if diff == 0:
            break
        if instance.cost[j] == 0:
            continue
        if diff > 0:
            room = (1 - shares[j]) * instance.cost[j]
            take = min(room, diff)
            shares[j] += take / instance.cost[j]
            diff -= take
        else:
            room = shares[j] * instance.cost[j]
            take = min(room, -diff)
            shares[j] -= take / instance.cost[j]
            diff += take
    assert diff == 0
    p = FractionalOutcome(shares)
    assert p.is_feasible(instance)
    return p


def random_budget_outcome(
    rng: random.Random, instance: PBInstance
) -> IntegralOutcome:
    """A random within-budget outcome (maximal along a random order)."""
    order = list(range(instance.m))
    rng.shuffle(order)
    chosen: list[int] = []
    spent = Fraction(0)
    for j in order:
        if rng.random() < 0.7 and spent + instance.cost[j] <= instance.budget:
            chosen.append(j)
            spent += instance.cost[j]
    return IntegralOutcome(chosen)


def two_voter_example() -> PBInstance:
    """B = 1; a (cost 1/2) approved by both; b, c (cost 1/2) personal."""
    one, half, zero = Fraction(1), Fraction(1, 2), Fraction(0)
    return PBInstance(
        budget=one,
        cost=(half, half, half),
        utilities=((one, one, zero), (one, zero, one)),
        project_ids=("a", "b", "c"),
        voter_ids=("v1", "v2"),
    )


def with_zero_cost_projects(
    rng: random.Random, instance: PBInstance, utility: Fraction = Fraction(1)
) -> PBInstance:
    """The instance with one to three zero-cost projects inserted at random
    positions; each voter gives each new project `utility` or 0 at random.
    """
    cost = list(instance.cost)
    rows = [list(row) for row in instance.utilities]
    for _ in range(rng.randint(1, 3)):
        at = rng.randint(0, len(cost))
        cost.insert(at, Fraction(0))
        for row in rows:
            row.insert(at, utility if rng.random() < 0.5 else Fraction(0))
    return PBInstance(
        budget=instance.budget,
        cost=tuple(cost),
        utilities=tuple(tuple(row) for row in rows),
        project_ids=tuple(f"p{j + 1}" for j in range(len(cost))),
        voter_ids=instance.voter_ids,
    )


def with_duplicated_voters(rng: random.Random, instance: PBInstance) -> PBInstance:
    """The instance with one to three copies of randomly chosen voters
    appended, so that unanimous cells of two or more voters occur."""
    rows = list(instance.utilities)
    rows += [rng.choice(rows) for _ in range(rng.randint(1, 3))]
    return PBInstance(
        budget=instance.budget,
        cost=instance.cost,
        utilities=tuple(rows),
        project_ids=instance.project_ids,
        voter_ids=tuple(f"v{i + 1}" for i in range(len(rows))),
    )


def dense_instance(rng: random.Random, utilities: str = "binary") -> PBInstance:
    """An instance of 4 to 8 voters and 5 to 8 projects in which each
    voter approves each project with probability 3/4 (at least one), and
    B is about half the total cost: many sets fit the budget, and many of
    them have too few common approvers to afford them."""
    n, m = rng.randint(4, 8), rng.randint(5, 8)
    cost = [rand_cost(rng) for _ in range(m)]
    budget = max(max(cost), sum(cost) * Fraction(rng.randint(3, 6), 10))
    rows = []
    for _ in range(n):
        approved = [j for j in range(m) if rng.random() < 0.75]
        approved = approved or [rng.randrange(m)]
        rows.append(tuple(
            (cost[j] if utilities == "cost" else Fraction(1))
            if j in approved else Fraction(0)
            for j in range(m)
        ))
    return PBInstance(
        budget=budget,
        cost=tuple(cost),
        utilities=tuple(rows),
        project_ids=tuple(f"p{j + 1}" for j in range(m)),
        voter_ids=tuple(f"v{i + 1}" for i in range(n)),
    )


def count_walks(monkeypatch) -> list[int]:
    """Patch the enumerator the ex-post walks call so that each walk
    appends the number of project sets it yields (the sets it visits)
    to the returned list."""
    from pbbobw import expost, model

    visited: list[int] = []

    def walk(pool, root, extend):
        visited.append(0)
        for item in model.subset_walk(pool, root, extend):
            visited[-1] += 1
            yield item

    monkeypatch.setattr(expost, "subset_walk", walk)
    return visited
