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

The simplex is revised: it keeps only the basis block of that tableau.
T_0 is the initial tableau, constraint rows 0..R-1 and the priced-out
objective as row R. After k pivots T_k = M_k·T_0 for an integer matrix
M_k, with M_0 = I, and the pivot sets M[r] = (p*M[r] - T[r][e]*M[l]) / D
for every r != l, the objective row included, and leaves M[l]. M's
columns are T_k's columns at the initial basis (each row's slack or
artificial, a unit column of T_0 with objective entry 0), so the
division is Bareiss's and exact; M's objective column is always D·e_R
and is not kept. A pivot prices row R of T_k as
D·T_0[R] + sum_c M[R][c]·T_0[c], builds column e as
D·T_0[R][e]·e_R + sum_c T_0[c][e]·M[:, c], and updates only M and the
rhs column. Every entry it reads is the integer the full tableau holds,
so the pivots and the vertex are the full tableau's. M's objective row
over D holds the phase-one multipliers: M[R][c] is the objective's entry
at row c's first basic column, where a Farkas certificate reads them.

Each column of M, and the rhs column, is one int of R + 1 signed lanes,
C = sum_r M[r][c] << r*W, with the lane width W a multiple of 64. An
update is whole-int arithmetic, C = (p*C - M[l][c]*F) // D, where F is
column e with p - D in lane l, which leaves lane l as it is. The
division is exact lane by lane whatever the intermediate sizes: the int
is linear in its lanes and D divides every lane, so the quotient is the
int of the lane quotients. Only lanes that are decoded must fit, and
every decode is decided from a bound on the values at hand. With
b = W/2 and S above every column's sum of |T_0| entries:
- M, the rhs and D stay in [-2^(b-1), 2^(b-1)). After each update a
  column is biased by 2^(b-1) in every lane, which makes every lane
  non-negative, and each lane's high b bits are masked: all zero iff
  it still fits. Entries are read from the biased columns by shift and
  mask.
- W starts with S < 2^(b-1), so every lane of column e, below
  2^(b-1)·S, decodes at W.
- Before an update, (p + max|F|)·2^(b-1) < 2^(W-1), so its quotients
  decode at W.
- T_0's rows are packed at the least multiple of 64 that is at least
  b + bits(S) + 1, so every lane of the priced row lies in
  [-2^(W'-2), 2^(W'-2)): biased by 2^(W'-2), a lane is negative iff its
  bit W'-2 is clear, and Bland's column is the lowest such lane.
When a test fails, M and the rhs (and F, before an update) are decoded
at W and re-encoded at 2W, where the bounds hold again, and T_0's rows
are packed again if their width grows.
"""

from __future__ import annotations

import sys
from array import array
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
    if width == 64 and sys.byteorder == "little":
        data = array("q", values).tobytes()
    else:
        size = width // 8
        data = b"".join(v.to_bytes(size, "little", signed=True) for v in values)
    # Two's complement lanes, XOR the sign bits, are the values plus 2^(W-1).
    return (int.from_bytes(data, "little") ^ signs) - signs


def _unpack(row: int, width: int, lanes: int, signs: int) -> list[int]:
    """The lanes of a packed row, each of which fits in width signed bits."""
    size = width // 8
    data = ((row + signs) ^ signs).to_bytes(size * lanes, "little")
    if width == 64 and sys.byteorder == "little":
        return array("q", data).tolist()
    return [
        int.from_bytes(data[k:k + size], "little", signed=True)
        for k in range(0, size * lanes, size)
    ]


def _lane_masks(width: int, lanes: int) -> tuple[int, int, int, int]:
    """For b = width/2: bit width-1 of every lane, the bias 2^(b-1) in
    every lane, the high b bits of every lane, and bit width-2 of every
    lane."""
    ones = ((1 << width * lanes) - 1) // ((1 << width) - 1)
    half = width // 2
    return (
        ones << width - 1,
        ones << half - 1,
        (ones << width) - (ones << half),
        ones << width - 2,
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

    # S, above every column's sum of |T_0| entries, and the narrowest W
    # with S < 2^(b-1): T_0's rhs fits M's lanes and column e decodes.
    span = sum(max(max(row), -min(row)) for row in tableau) + 1
    lanes = num_rows + 1
    width = 64
    while span.bit_length() >= width // 2:
        width *= 2
    signs, bias, high, _ = _lane_masks(width, lanes)
    # M starts as the identity; its objective column stays D·e_R, so only
    # the constraint columns are kept.
    basis_block = [1 << c * width for c in range(num_rows)]
    biased = [col + bias for col in basis_block]
    rhs = _pack([row[total] for row in tableau], width, signs)
    priced_width = 0

    denominator = 1
    while True:
        offset = 1 << width // 2 - 1
        top = num_rows * width
        need = (width // 2 + span.bit_length() + 64) // 64 * 64
        if need != priced_width:
            # T_0's rows without the rhs, at the narrowest multiple of 64
            # holding every objective lane D·T_0[R] + sum_c M[R][c]·T_0[c].
            priced_width = need
            priced_signs, _, _, probe = _lane_masks(need, total)
            priced = [_pack(row[:total], need, priced_signs) for row in tableau]
        objective = denominator * priced[num_rows]
        for col, row in zip(biased, priced):
            factor = (col >> top) - offset
            if factor:
                objective += factor * row
        # Bland: the lowest-index column with a negative reduced cost. A
        # lane biased by 2^(W'-2) is negative iff its bit W'-2 is clear.
        negative = probe & ~(objective + probe)
        if not negative:
            break
        entering = ((negative & -negative).bit_length() - 1) // priced_width
        # F, column e of T_k = M_k·T_0: D·T_0[R][e] in the objective lane.
        packed = denominator * tableau[num_rows][entering] << top
        for row, col in zip(tableau, basis_block):
            factor = row[entering]
            if factor:
                packed += factor * col
        column = _unpack(packed, width, lanes, signs)
        values = _unpack(rhs, width, lanes, signs)
        leaving = -1
        for r in range(num_rows):
            a = column[r]
            if a <= 0:
                continue
            b = values[r]
            if leaving >= 0:
                # Sign of b / a - best_b / best_a, both entries > 0.
                order = b * best_a - best_b * a
                if order > 0 or (order == 0 and basis[r] > basis[leaving]):
                    continue
            leaving, best_a, best_b = r, a, b
        if leaving < 0:
            # Phase-one objective is bounded below by 0; unbounded descent
            # cannot happen, but guard against malformed input.
            raise ArithmeticError("phase-one simplex unbounded")
        pivot = column[leaving]
        # With p - D in lane l, the update leaves M's pivot row as it is.
        packed -= denominator << leaving * width
        column[leaving] = pivot - denominator
        # Every lane of p·col - M[l][c]·F is below (p + max|F|)·2^(b-1).
        while (pivot + max(max(column), -min(column))) >> width // 2:
            *basis_block, rhs, packed = _widen(
                [*basis_block, rhs, packed], width, lanes
            )
            width *= 2
            signs, bias, high, _ = _lane_masks(width, lanes)
            biased = [col + bias for col in basis_block]
        offset = 1 << width // 2 - 1
        mask = (1 << width // 2) - 1
        shift = leaving * width
        fits = pivot < offset
        for c, col in enumerate(biased):
            factor = ((col >> shift) & mask) - offset
            if factor == 0 and pivot == denominator:
                continue
            col = (pivot * basis_block[c] - factor * packed) // denominator
            basis_block[c] = col
            biased[c] = col = col + bias
            if col & high:
                fits = False
        factor = values[leaving]
        rhs = (pivot * rhs - factor * packed) // denominator
        if (rhs + bias) & high:
            fits = False
        denominator = pivot
        basis[leaving] = entering
        if not fits:
            *basis_block, rhs = _widen([*basis_block, rhs], width, lanes)
            width *= 2
            signs, bias, high, _ = _lane_masks(width, lanes)
            biased = [col + bias for col in basis_block]

    values = _unpack(rhs, width, lanes, signs)[:num_rows]
    # The phase-one optimum is 0 iff every basic artificial is at 0.
    if any(b >= art_base and v for b, v in zip(basis, values)):
        return None
    solution = [Fraction(0)] * num_vars
    for b, v in zip(basis, values):
        if b < num_vars:
            solution[b] = Fraction(v, denominator)
    return solution
