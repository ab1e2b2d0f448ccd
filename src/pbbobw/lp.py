"""Exact rational linear feasibility via phase-one simplex.

Decides whether {x >= 0 : A x (rel) b} is non-empty, returning a feasible
point when one exists. Pivoting uses Bland's rule, so termination is
guaranteed; verdicts carry no tolerance.

A row is ``LinearConstraint(coefficients, relation, bound, denominator)``,
every entry read over the positive int ``denominator``. The tableau is
fraction-free (Edmonds 1967; Bareiss 1968). Each row is reduced once to
integers on its least denominator s_r, and its slack or artificial stays
the unit column, which rescales only that one variable: row r's
artificial is s_r times the plain one, so phase one weighs it by L/s_r,
L the LCM of the s_r, and still costs each row's residual in the row's
own units. So the vertex depends on a row's values, not only on its
half-space, which is why the denominator is part of the row.
All rows, and the phase-one objective kept as one more row, share a
denominator D: the true tableau is T / D, where D > 0 is the last pivot,
and a pivot on p = T[l][e] sets T[r][j] = (p*T[r][j] - T[r][e]*T[l][j]) // D
exactly. Rescaling rows and variables by positive factors leaves every
reduced-cost sign and every ratio-test comparison as they are over
Fractions, so Bland's rule takes the same pivots and returns the same
vertex as the plain rational simplex.

Each row is one int of signed lanes, R = sum_j T[r][j] << j*W, with the
lane width W a multiple of 64. A pivot updates a row as a whole int,
R = (p*R - T[r][e]*L) // D, where L is the pivot row. The division is
exact and lane-wise: every lane of p*R - T[r][e]*L is divisible by D, so
the int is D times the int of the lane quotients. Every entry stays in
[-2^(b-1), 2^(b-1)) with b = W/2. Then |p*v - f*w| < 2^(W-1), so one
pivot's quotients always decode at width W. After each pivot a row is
tested by adding the bias of 2^(b-1) in every lane, which makes every
lane non-negative, and masking each lane's high b bits: all zero iff the
row still fits. If any row does not, every row is decoded at W and
re-encoded at 2W, where the invariant holds again. Reads go to the
biased rows: Bland's column is the lowest objective lane whose bit b-1
is clear, and single entries are read by shift and mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Literal, Optional, Sequence, Union

Relation = Literal["<=", "=", ">="]
Rational = Union[int, Fraction]


@dataclass(frozen=True)
class LinearConstraint:
    """sum_j coefficients[j]/denominator * x_j (relation) bound/denominator."""

    coefficients: tuple[Rational, ...]
    relation: Relation
    bound: Rational
    denominator: int = 1


def _pack(values: Sequence[int], width: int, signs: int) -> int:
    """sum(v << j*width) over the values. ``signs`` has bit width-1 of
    every lane set; each value must fit in width signed bits."""
    size = width // 8
    data = b"".join(v.to_bytes(size, "little", signed=True) for v in values)
    # Two's complement lanes, XOR the sign bits, are the values plus 2^(W-1).
    return (int.from_bytes(data, "little") ^ signs) - signs


def _unpack(row: int, width: int, lanes: int, signs: int) -> list[int]:
    """The lanes of a packed row, each of which fits in width signed bits."""
    size = width // 8
    data = ((row + signs) ^ signs).to_bytes(size * lanes, "little")
    return [
        int.from_bytes(data[k:k + size], "little", signed=True)
        for k in range(0, size * lanes, size)
    ]


def _lane_masks(width: int, lanes: int) -> tuple[int, int, int, int]:
    """For b = width/2: bit width-1 of every lane, the bias 2^(b-1) in
    every lane, the high b bits of every lane, and bit b-1 of every lane
    but the last."""
    ones = ((1 << width * lanes) - 1) // ((1 << width) - 1)
    half = width // 2
    return (
        ones << width - 1,
        ones << half - 1,
        (ones << width) - (ones << half),
        (ones >> width) << half - 1,
    )


def _widen(packed: list[int], width: int, lanes: int) -> list[int]:
    """The rows, whose lanes fit in width signed bits, at twice the width."""
    signs = _lane_masks(width, lanes)[0]
    wide = _lane_masks(2 * width, lanes)[0]
    return [
        _pack(_unpack(row, width, lanes, signs), 2 * width, wide)
        for row in packed
    ]


def solve_feasibility(
    constraints: Sequence[LinearConstraint], num_vars: int
) -> Optional[list[Fraction]]:
    """Return x >= 0 satisfying all constraints, or None if infeasible.

    Coefficients and bounds may be ints or Fractions, each read over the
    row's ``denominator``."""
    rows: list[tuple[list[int], Relation, int]] = []  # (E/g, relation, s_r)
    for con in constraints:
        if len(con.coefficients) != num_vars:
            raise ValueError("constraint has wrong arity")
        if con.denominator < 1:
            raise ValueError("constraint denominator must be positive")
        # E = the entries times the LCM L of their denominators, over d·L.
        entries = [*con.coefficients, con.bound]
        scale = lcm(*(c.denominator for c in entries))
        ints = [c.numerator * (scale // c.denominator) for c in entries]
        scale *= con.denominator
        g = gcd(scale, *ints)  # E/g over d·L/g: the least denominator s_r
        rel = con.relation
        if ints[-1] < 0:
            g, rel = -g, {"<=": ">=", ">=": "<=", "=": "="}[rel]
        rows.append(([c // g for c in ints], rel, scale // abs(g)))

    num_rows = len(rows)
    num_slack = sum(1 for _, rel, _ in rows if rel != "=")
    # Columns: structural vars, slack/surplus vars, artificial vars, rhs.
    art_base = num_vars + num_slack
    total = art_base + num_rows
    big_l = lcm(*(s for _, rel, s in rows if rel != "<="))
    tableau: list[list[int]] = []
    basis = [0] * num_rows
    objective = [0] * (total + 1)

    slack = num_vars
    for r, (ints, rel, s) in enumerate(rows):
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

    # The narrowest W whose b = W/2 signed bits hold every entry.
    lanes = total + 1
    widest = max(max(max(row), ~min(row)) for row in tableau)
    width = 64
    while widest >> width // 2 - 1:
        width *= 2
    signs, bias, high, columns = _lane_masks(width, lanes)
    packed = [_pack(row, width, signs) for row in tableau]
    biased = [row + bias for row in packed]

    denominator = 1
    while True:
        offset = 1 << width // 2 - 1
        mask = (1 << width // 2) - 1
        # Bland: the lowest-index column with a negative reduced cost. A
        # biased lane holds a negative entry iff its bit b-1 is clear.
        negative = columns & ~biased[num_rows]
        if not negative:
            break
        entering = ((negative & -negative).bit_length() - 1) // width
        shift, top = entering * width, total * width
        column = [((row >> shift) & mask) - offset for row in biased]
        leaving = -1
        for r in range(num_rows):
            a = column[r]
            if a <= 0:
                continue
            rhs = (biased[r] >> top) - offset
            if leaving >= 0:
                # Sign of rhs_r / a - rhs_best / a_best, both entries > 0.
                order = rhs * best_a - best_rhs * a
                if order > 0 or (order == 0 and basis[r] > basis[leaving]):
                    continue
            leaving, best_a, best_rhs = r, a, rhs
        if leaving < 0:
            # Phase-one objective is bounded below by 0; unbounded descent
            # cannot happen, but guard against malformed input.
            raise ArithmeticError("phase-one simplex unbounded")
        pivot_row = packed[leaving]
        pivot = column[leaving]
        fits = True
        for r, factor in enumerate(column):
            if r == leaving or (factor == 0 and pivot == denominator):
                continue
            row = (pivot * packed[r] - factor * pivot_row) // denominator
            packed[r] = row
            biased[r] = row = row + bias
            if row & high:
                fits = False
        denominator = pivot
        basis[leaving] = entering
        if not fits:
            packed = _widen(packed, width, lanes)
            width *= 2
            signs, bias, high, columns = _lane_masks(width, lanes)
            biased = [row + bias for row in packed]

    offset, top = 1 << width // 2 - 1, total * width
    rhs = [(row >> top) - offset for row in biased[:num_rows]]
    # The phase-one optimum is 0 iff every basic artificial is at 0.
    if any(b >= art_base and v for b, v in zip(basis, rhs)):
        return None
    solution = [Fraction(0)] * num_vars
    for b, v in zip(basis, rhs):
        if b < num_vars:
            solution[b] = Fraction(v, denominator)
    return solution
