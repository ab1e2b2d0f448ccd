"""The fraction-free simplex against the plain Fraction simplex.

`reference` below is the Fraction-tableau phase-one simplex that
`solve_feasibility` replaced, kept as it was apart from inlining the
basis-membership test and counting ratio-test ties. Both use Bland's rule,
so equal returned vectors mean the same final vertex, and therefore the
same lottery certificate from the oracles.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from typing import Optional, Sequence

import pytest

from pbbobw import (
    LinearConstraint,
    gen_bfx_family,
    gen_ifs_jr_family,
    ifs_rows,
    lottery_feasible,
    predicate,
    solve_feasibility,
)
from pbbobw import oracle

from conftest import random_feasible_p, random_instance

F = Fraction


def reference(
    constraints: Sequence[LinearConstraint],
    num_vars: int,
    stats: Optional[Counter] = None,
) -> Optional[list[Fraction]]:
    rows: list[list[Fraction]] = []
    relations: list[str] = []
    rhs: list[Fraction] = []
    for con in constraints:
        if len(con.coefficients) != num_vars:
            raise ValueError("constraint has wrong arity")
        coeffs = [Fraction(c) for c in con.coefficients]
        bound = Fraction(con.bound)
        rel = con.relation
        if bound < 0:
            coeffs = [-c for c in coeffs]
            bound = -bound
            rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
        rows.append(coeffs)
        relations.append(rel)
        rhs.append(bound)

    num_rows = len(rows)
    num_slack = sum(1 for r in relations if r != "=")
    slack_base = num_vars
    art_base = num_vars + num_slack
    total = art_base + num_rows
    tableau = [[Fraction(0)] * (total + 1) for _ in range(num_rows)]
    basis = [0] * num_rows
    cost = [Fraction(0)] * total

    slack_index = 0
    for r in range(num_rows):
        for j in range(num_vars):
            tableau[r][j] = rows[r][j]
        tableau[r][total] = rhs[r]
        if relations[r] == "<=":
            tableau[r][slack_base + slack_index] = Fraction(1)
            basis[r] = slack_base + slack_index
            slack_index += 1
        elif relations[r] == ">=":
            tableau[r][slack_base + slack_index] = Fraction(-1)
            slack_index += 1
            tableau[r][art_base + r] = Fraction(1)
            basis[r] = art_base + r
            cost[art_base + r] = Fraction(1)
        else:
            tableau[r][art_base + r] = Fraction(1)
            basis[r] = art_base + r
            cost[art_base + r] = Fraction(1)

    while True:
        duals = [cost[basis[r]] for r in range(num_rows)]
        entering = -1
        for j in range(total):
            if j in basis:
                continue
            reduced = cost[j] - sum(
                duals[r] * tableau[r][j] for r in range(num_rows)
            )
            if reduced < 0:
                entering = j
                break
        if entering < 0:
            break
        leaving = -1
        best_ratio: Optional[Fraction] = None
        for r in range(num_rows):
            a = tableau[r][entering]
            if a > 0:
                ratio = tableau[r][total] / a
                if stats is not None and ratio == best_ratio:
                    stats["ratio ties"] += 1
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[r] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = r
        if leaving < 0:
            raise ArithmeticError("phase-one simplex unbounded")
        pivot = tableau[leaving][entering]
        tableau[leaving] = [v / pivot for v in tableau[leaving]]
        for r in range(num_rows):
            if r == leaving:
                continue
            factor = tableau[r][entering]
            if factor != 0:
                row_l = tableau[leaving]
                tableau[r] = [
                    v - factor * w for v, w in zip(tableau[r], row_l)
                ]
        basis[leaving] = entering

    objective = sum(
        cost[basis[r]] * tableau[r][total] for r in range(num_rows)
    )
    if objective != 0:
        return None
    solution = [Fraction(0)] * num_vars
    for r in range(num_rows):
        if basis[r] < num_vars:
            solution[basis[r]] = tableau[r][total]
    return solution


# Small values with shared denominators, so ratio ties are frequent.
COEFFICIENTS = [F(0)] * 6 + [F(v) for v in (1, -1, 2, -2, 3)] + [
    F(1, 2), F(-1, 3), F(3, 4), F(5, 6), F(-7, 4),
]
BOUNDS = [F(0)] * 3 + [F(v) for v in (1, 2, 4, -1, -3)] + [
    F(1, 2), F(-3, 2), F(2, 3), F(7, 5),
]
RELATIONS = ["<=", "=", ">="]


def random_system(rng: random.Random, stats: Counter):
    """A random system that mixes in the features the sweep must cover."""
    num_vars = rng.randint(1, 7)
    rows: list[LinearConstraint] = []
    for _ in range(rng.randint(1, 8)):
        draw = rng.random()
        if draw < 0.08:
            coeffs = (F(0),) * num_vars
        elif draw < 0.25 and rows:
            # A positive multiple of an earlier row: a guaranteed tie
            # whenever both rows compete in the ratio test.
            base = rng.choice(rows)
            scale = F(rng.randint(1, 3), rng.randint(1, 2))
            rows.append(
                LinearConstraint(
                    tuple(c * scale for c in base.coefficients),
                    rng.choice([base.relation, rng.choice(RELATIONS)]),
                    base.bound * scale,
                )
            )
            continue
        else:
            coeffs = tuple(rng.choice(COEFFICIENTS) for _ in range(num_vars))
        rows.append(
            LinearConstraint(coeffs, rng.choice(RELATIONS), rng.choice(BOUNDS))
        )
    for con in rows:
        stats["all-zero rows"] += all(c == 0 for c in con.coefficients)
        stats["'=' rows with zero bound"] += (
            con.relation == "=" and con.bound == 0
        )
        stats["negative bounds"] += con.bound < 0
    return rows, num_vars


@pytest.mark.parametrize("block", range(6))
def test_matches_fraction_simplex_on_random_systems(block):
    stats: Counter = Counter()
    for seed in range(block * 500, (block + 1) * 500):
        rows, num_vars = random_system(random.Random(seed), stats)
        expected = reference(rows, num_vars, stats)
        assert solve_feasibility(rows, num_vars) == expected, f"seed {seed}"
        stats["feasible" if expected is not None else "infeasible"] += 1
    for feature in (
        "ratio ties",
        "all-zero rows",
        "'=' rows with zero bound",
        "negative bounds",
        "feasible",
        "infeasible",
    ):
        assert stats[feature] >= 20, (feature, stats)


def test_matches_fraction_simplex_on_oracle_lps(monkeypatch):
    lps = []

    def capture(rows, num_vars):
        lps.append((list(rows), num_vars))
        return solve_feasibility(rows, num_vars)

    monkeypatch.setattr(oracle, "solve_feasibility", capture)
    ifs = gen_ifs_jr_family(4, F(5))
    lottery_feasible(ifs, predicate("jr-general"), None, ifs_rows(ifs))
    bfx, p = gen_bfx_family(F(2), F(1, 5))
    for name in ("bb1", "bfx"):
        lottery_feasible(bfx, predicate(name), p)
    rng = random.Random(5)
    for _ in range(12):
        inst = random_instance(rng, n_max=4, m_max=6, utilities="binary")
        lottery_feasible(inst, predicate("bb1"), random_feasible_p(rng, inst))
        lottery_feasible(inst, predicate("jr-binary"), None, ifs_rows(inst))
    assert len(lps) == 27
    for rows, num_vars in lps:
        assert solve_feasibility(rows, num_vars) == reference(rows, num_vars)


def test_arity_mismatch_raises():
    rows = [LinearConstraint((F(1), F(2)), "<=", F(3))]
    with pytest.raises(ValueError, match="arity"):
        solve_feasibility(rows, 3)
    with pytest.raises(ValueError, match="arity"):
        reference(rows, 3)


def test_empty_system_is_the_origin():
    assert solve_feasibility([], 3) == reference([], 3) == [F(0)] * 3
