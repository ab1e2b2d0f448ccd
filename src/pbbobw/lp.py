"""Exact rational linear feasibility via phase-one simplex.

Decides whether {x >= 0 : A x (rel) b} is non-empty, returning a feasible
point when one exists. Pivoting uses Bland's rule, so termination is
guaranteed; verdicts carry no tolerance.

The tableau is fraction-free (Edmonds 1967; Bareiss 1968). Each row is
scaled to integers by the LCM s_r of its denominators, and its slack or
artificial stays the unit column, which rescales only that one variable.
All rows, and the phase-one objective kept as one more row, share a
denominator D: the true tableau is T / D, where D > 0 is the last pivot,
and a pivot on p = T[l][e] sets T[r][j] = (p*T[r][j] - T[r][e]*T[l][j]) // D
exactly. Rescaling rows and variables by positive factors leaves every
reduced-cost sign and every ratio-test comparison as they are over
Fractions, so Bland's rule takes the same pivots and returns the same
vertex as the plain rational simplex.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Literal, Optional, Sequence

Relation = Literal["<=", "=", ">="]


@dataclass(frozen=True)
class LinearConstraint:
    coefficients: tuple[Fraction, ...]
    relation: Relation
    bound: Fraction


def solve_feasibility(
    constraints: Sequence[LinearConstraint], num_vars: int
) -> Optional[list[Fraction]]:
    """Return x >= 0 satisfying all constraints, or None if infeasible."""
    rows: list[list[Fraction]] = []
    relations: list[Relation] = []
    for con in constraints:
        if len(con.coefficients) != num_vars:
            raise ValueError("constraint has wrong arity")
        coeffs = [Fraction(c) for c in con.coefficients]
        coeffs.append(Fraction(con.bound))
        rel = con.relation
        if coeffs[-1] < 0:
            coeffs = [-c for c in coeffs]
            rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
        rows.append(coeffs)
        relations.append(rel)

    num_rows = len(rows)
    num_slack = sum(1 for r in relations if r != "=")
    # Columns: structural vars, slack/surplus vars, artificial vars, rhs.
    art_base = num_vars + num_slack
    total = art_base + num_rows
    scales = [lcm(*(c.denominator for c in row)) for row in rows]
    # Row r's artificial is s_r times the unscaled one, so its phase-one
    # cost 1 becomes L / s_r once the objective is scaled by L.
    big_l = lcm(*(s for s, rel in zip(scales, relations) if rel != "<="))
    tableau: list[list[int]] = []
    basis = [0] * num_rows
    objective = [0] * (total + 1)

    slack = num_vars
    for r, (row, rel, s) in enumerate(zip(rows, relations, scales)):
        ints = [c.numerator * (s // c.denominator) for c in row]
        ints[num_vars:num_vars] = [0] * (total - num_vars)
        if rel == "<=":
            ints[slack] = 1
            basis[r] = slack
        else:
            if rel == ">=":
                ints[slack] = -1
            ints[art_base + r] = 1
            basis[r] = art_base + r
            # Price out the basic artificial: its reduced cost becomes 0.
            weight = big_l // s
            objective[art_base + r] = weight
            objective = [o - weight * v for o, v in zip(objective, ints)]
        slack += rel != "="
        tableau.append(ints)
    tableau.append(objective)

    denominator = 1
    while True:
        # Bland: the lowest-index column with a negative reduced cost.
        entering = next((j for j in range(total) if objective[j] < 0), -1)
        if entering < 0:
            break
        leaving = -1
        for r in range(num_rows):
            a = tableau[r][entering]
            if a <= 0:
                continue
            if leaving < 0:
                leaving = r
                continue
            best = tableau[leaving]
            # Sign of rhs_r / a - rhs_best / a_best, both entries being > 0.
            order = tableau[r][total] * best[entering] - best[total] * a
            if order < 0 or (order == 0 and basis[r] < basis[leaving]):
                leaving = r
        if leaving < 0:
            # Phase-one objective is bounded below by 0; unbounded descent
            # cannot happen, but guard against malformed input.
            raise ArithmeticError("phase-one simplex unbounded")
        pivot_row = tableau[leaving]
        pivot = pivot_row[entering]
        for r, row in enumerate(tableau):
            factor = row[entering]
            if r == leaving or (factor == 0 and pivot == denominator):
                continue
            tableau[r] = [
                (pivot * v - factor * w) // denominator
                for v, w in zip(row, pivot_row)
            ]
        objective = tableau[num_rows]
        denominator = pivot
        basis[leaving] = entering

    # The phase-one optimum is 0 iff every basic artificial is at 0.
    if any(b >= art_base and tableau[r][total] for r, b in enumerate(basis)):
        return None
    solution = [Fraction(0)] * num_vars
    for r, b in enumerate(basis):
        if b < num_vars:
            solution[b] = Fraction(tableau[r][total], denominator)
    return solution
