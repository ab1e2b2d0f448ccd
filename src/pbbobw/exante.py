"""Ex-ante fair-share axioms: IFS, Strong IFS, UFS, Strong UFS, GFS.

Each axiom is written once, as rows ``(voters, LinearConstraint(c, ">=",
b, d))``: integer coefficients and bound on one common denominator d per
axiom, each the exact linear inequality ``sum_j c_j/d * p_j >= b/d`` over
the marginals p, whose bound comes from the voters' optimal fractional
utilities opt_i: each voter's integer ``greedy_spend`` on the instance's
scaled costs and utilities, read from ``optimal_spends`` at B, with one
fraction per bound. ``verify`` reads the rows through the ``check_*``
functions, which read p's cached integers of 1/q (``scaled_shares``) and
evaluate every row with integer products and compares; only the reported
witnesses become fractions again. ``oracle --builtin`` hands the same
integer rows to the LP through ``ifs_rows`` and ``gfs_rows``.

IFS and Strong IFS have one row per voter. UFS and Strong UFS have one row
per maximal unanimous cell; both bounds are monotone in the group size, so
any unanimous subgroup's bound is implied by its cell's. GFS has one row
per non-empty voter group S, ``sum_j p_j max_{i in S} u_ij >= sum_{i in S}
opt_i(B) / n`` (Fain, Goel, Munagala, WINE 2016). Each project gets one
bit per distinct positive utility level, and a voter's bitmask sets the
levels the voter reaches, so the union of a group's masks encodes its
``max`` row: one bit per project for binary and cost utilities. The
unions of every group, and its sum of opt_i/n, are built by doubling over
the voters into lists indexed by the group's bitmask, one byte of the
masks at a time; ``check_gfs`` reads each group's lhs from a 256-entry
table of sum step·p_j per byte, with no loop over projects per group.
``gfs_rows`` builds the rows themselves by doubling, each the elementwise
``max`` of a smaller group's row and one voter's, in the same order. The
check stays exponential in n: 2^n - 1 rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, islice
from operator import add, mul, or_
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .limits import ScaleError, exponential_limit
from .lp import LinearConstraint
from .model import FractionalOutcome, PBInstance, members, rational_str


@dataclass(frozen=True)
class Witness:
    """One checked inequality: subject (voter or group), lhs, required rhs."""

    voters: tuple[int, ...]
    lhs: Fraction
    rhs: Fraction

    def to_dict(self, instance: PBInstance) -> dict:
        return {
            "voters": [instance.voter_ids[i] for i in self.voters],
            "lhs": rational_str(self.lhs),
            "rhs": rational_str(self.rhs),
        }


@dataclass(frozen=True)
class ExAnteReport:
    axiom: str
    holds: bool
    witnesses: tuple[Witness, ...]

    def to_dict(self, instance: PBInstance) -> dict:
        return {
            "axiom": self.axiom,
            "holds": self.holds,
            "witnesses": [w.to_dict(instance) for w in self.witnesses],
        }


def optimal_fractional_utility(
    instance: PBInstance, voter: int, budget: Fraction
) -> Fraction:
    """Best fractional-outcome utility for a voter under the given budget:
    the utility of the voter's ``PBInstance.greedy_spend``, read from the
    instance's ``optimal_spends`` at B. It is summed on the scaled
    utilities, so only the result is a fraction."""
    if budget == instance.budget:
        k, left, c = instance.optimal_spends[voter]
    else:
        k, left, c = instance.greedy_spend(voter, budget)
    order, row = instance.greedy_orders[voter], instance.scaled_utilities[voter]
    total = sum(row[j] for j in order[:k]) * c
    if k < instance.m:
        total += row[order[k]] * left
    return Fraction(total, c * instance.utility_scale)


# ---------------------------------------------------------------------------
# The rows of each axiom


def _share_rows(
    instance: PBInstance, unanimous: bool, strong: bool
) -> list[tuple[tuple[int, ...], LinearConstraint]]:
    """One row per voter, or per unanimous cell S: the utility of S's
    common vector is at least |S|/n * opt_i(B), or with ``strong`` at least
    opt_i(|S| * B / n)."""
    if unanimous:
        cells = instance.unanimous_cells
    else:
        cells = tuple((i,) for i in range(instance.n))
    budget = instance.budget
    rows = []
    for cell in cells:
        i, share = cell[0], Fraction(len(cell), instance.n)
        if strong:
            bound = optimal_fractional_utility(instance, i, share * budget)
        else:
            bound = share * optimal_fractional_utility(instance, i, budget)
        rows.append((cell, i, bound))
    # Every voter's utilities are some row's, so d is a multiple of
    # utility_scale and each row is a scaled utility row times d/v.
    d = math.lcm(instance.utility_scale, *(b.denominator for _, _, b in rows))
    up, utilities = d // instance.utility_scale, instance.scaled_utilities
    return [
        (cell, LinearConstraint(
            tuple(u * up for u in utilities[i]),
            ">=",
            bound.numerator * (d // bound.denominator),
            d,
        ))
        for cell, i, bound in rows
    ]


def _group_shares(
    instance: PBInstance, limit: Optional[int]
) -> tuple[int, list[int]]:
    """The common denominator d of the utilities and every opt_i/n, and
    each voter's opt_i/n·d, once n is within the limit of the GFS
    enumeration."""
    n = instance.n
    limit = exponential_limit(limit)
    if n > limit:
        raise ScaleError(
            f"GFS enumeration over 2^{n} groups exceeds limit {limit}"
        )
    shares = [
        optimal_fractional_utility(instance, i, instance.budget) / n
        for i in range(n)
    ]
    d = math.lcm(instance.utility_scale, *(x.denominator for x in shares))
    return d, [x.numerator * (d // x.denominator) for x in shares]


def _voter_bits(
    instance: PBInstance, d: int
) -> tuple[list[tuple[int, int]], list[int]]:
    """One ``(project, step)`` per bit, and each voter's bitmask, on the
    denominator d.

    Project j gets one bit per distinct positive utility level v, lowest
    first, whose step is v less the level below it; voter i's mask sets
    the bit when u_ij >= v. The steps of j's bits in the union of a
    group's masks add up to max_{i in S} u_ij."""
    bits: list[tuple[int, int]] = []
    masks = [0] * instance.n
    up = d // instance.utility_scale
    for j, column in enumerate(zip(*instance.scaled_utilities)):
        column = [u * up for u in column]
        below = 0
        for level in sorted(set(column) - {0}):
            bit = 1 << len(bits)
            for i, u in enumerate(column):
                if u >= level:
                    masks[i] |= bit
            bits.append((j, level - below))
            below = level
    return bits, masks


def _doubled(values: Sequence, combine: Callable, zero) -> list:
    """Entry g combines ``zero`` with the values at the set bits of g: the
    list is doubled once per value v, ``out += [combine(x, v) for x in
    out]``."""
    out = [zero]
    for v in values:
        out += [combine(x, v) for x in out]
    return out


def _group_rows(
    instance: PBInstance, limit: Optional[int]
) -> Iterator[tuple[tuple[int, ...], LinearConstraint]]:
    """One GFS row per non-empty voter group, in bitmask order: the row of
    group g, the voters at the set bits of g, comes (g - 1)-th. The rows
    and the bounds are built by doubling over the voters."""
    d, share = _group_shares(instance, limit)
    up = d // instance.utility_scale
    utilities = [tuple(u * up for u in row) for row in instance.scaled_utilities]
    tops = _doubled(
        utilities, lambda a, b: tuple(map(max, a, b)), (0,) * instance.m
    )
    totals = _doubled(share, add, 0)
    return (
        (members(g), LinearConstraint(tops[g], ">=", totals[g], d))
        for g in range(1, 1 << instance.n)
    )


def _report(
    axiom: str,
    instance: PBInstance,
    rows: Iterable[tuple[tuple[int, ...], LinearConstraint]],
    p: FractionalOutcome,
) -> ExAnteReport:
    """Every violated row is a witness.

    p is read on its own denominator q (``FractionalOutcome.scaled_shares``),
    so each row costs m integer products: lhs·d·q against bound·q. Only
    the reported rows are turned back into fractions."""
    q, scaled = p.scaled_for(instance)
    witnesses = []
    for voters, row in rows:
        lhs = sum(map(mul, row.coefficients, scaled))
        if lhs < row.bound * q:
            d = row.denominator
            witnesses.append(Witness(voters, Fraction(lhs, d * q), Fraction(row.bound, d)))
    return ExAnteReport(axiom, not witnesses, tuple(witnesses))


def check_ifs(instance: PBInstance, p: FractionalOutcome) -> ExAnteReport:
    return _report("ifs", instance, _share_rows(instance, False, False), p)


def check_strong_ifs(instance: PBInstance, p: FractionalOutcome) -> ExAnteReport:
    return _report("strong-ifs", instance, _share_rows(instance, False, True), p)


def check_ufs(instance: PBInstance, p: FractionalOutcome) -> ExAnteReport:
    return _report("ufs", instance, _share_rows(instance, True, False), p)


def check_strong_ufs(instance: PBInstance, p: FractionalOutcome) -> ExAnteReport:
    return _report("strong-ufs", instance, _share_rows(instance, True, True), p)


def check_gfs(
    instance: PBInstance, p: FractionalOutcome, limit: Optional[int] = None
) -> ExAnteReport:
    """Group fair share over all non-empty voter groups: every violating
    group, or else the group of least slack (the first one on ties), by
    size, then lexicographically.

    Each group's slack lhs·d·q - bound·q starts at -bound·q, summed by
    doubling over the voters. Then, per byte of the masks, every group's
    union of that byte is built by doubling over the voters, and the group
    adds its union's entry in a table of the byte's sums of step·q·p_j."""
    q, scaled = p.scaled_for(instance)
    d, share = _group_shares(instance, limit)
    bits, masks = _voter_bits(instance, d)
    slack = _doubled([-x * q for x in share], add, 0)
    weights = [step * scaled[j] for j, step in bits]
    for low in range(0, len(weights), 8):
        unions = _doubled([mask >> low & 255 for mask in masks], or_, 0)
        table = _doubled(weights[low:low + 8], add, 0)
        slack = list(map(add, slack, map(table.__getitem__, unions)))
    groups = range(1, 1 << instance.n)

    def order(g: int) -> tuple[int, tuple[int, ...]]:
        return g.bit_count(), members(g)

    least = min(islice(slack, 1, None), default=0)
    if least < 0:
        # Every group whose slack is below 0.
        below = map((0).__gt__, islice(slack, 1, None))
        reported = sorted(compress(groups, below), key=order)
    else:
        ties = map(least.__eq__, islice(slack, 1, None))
        reported = sorted(compress(groups, ties), key=order)[:1]
    witnesses = []
    for g in reported:
        voters = members(g)
        bound = sum(share[i] for i in voters)
        lhs = Fraction(slack[g] + bound * q, d * q)
        witnesses.append(Witness(voters, lhs, Fraction(bound, d)))
    return ExAnteReport("gfs", least >= 0, tuple(witnesses))


# ---------------------------------------------------------------------------
# The same rows as LP constraints over the marginals


def ifs_rows(instance: PBInstance) -> list[LinearConstraint]:
    """One row per voter: u_i(p) >= opt_i(B)/n."""
    return [row for _, row in _share_rows(instance, False, False)]


def gfs_rows(
    instance: PBInstance, limit: Optional[int] = None
) -> list[LinearConstraint]:
    """One GFS row per non-empty voter group S, in bitmask order: the row
    of S is number sum_{i in S} 2^i - 1. With 0/1 utilities a row's
    coefficients are d on the union of the group's approval sets."""
    return [row for _, row in _group_rows(instance, limit)]
