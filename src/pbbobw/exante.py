"""Ex-ante fair-share axioms: IFS, Strong IFS, UFS, Strong UFS, GFS.

Each axiom is written once, as ``Rows``: integer rows ``(voters,
coefficients, bound)`` on one common denominator d per axiom, each the
exact linear inequality ``sum_j coefficients[j]/d * p_j >= bound/d`` over
the marginals p, whose bound comes from the voters' optimal fractional
utilities opt_i. ``verify`` reads the rows through the ``check_*``
functions, which scale p once to integers on its own denominator q and
evaluate every row with integer products and compares; only the reported
witnesses become fractions again. ``oracle --builtin`` reads the same rows
through ``ifs_rows`` and ``gfs_rows``, which divide them by d for the LP.

IFS and Strong IFS have one row per voter. UFS and Strong UFS have one row
per maximal unanimous cell; both bounds are monotone in the group size, so
any unanimous subgroup's bound is implied by its cell's. GFS has one row
per non-empty voter group S, ``sum_j p_j max_{i in S} u_ij >= sum_{i in S}
opt_i(B) / n`` (Fain, Goel, Munagala, WINE 2016); the groups come from
``subset_walk``, each row extended from its prefix's by one elementwise
integer ``max``. The check stays exponential in n: 2^n - 1 rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import mul
from typing import Iterable, Iterator, Optional, Sequence

from .limits import ScaleError, exponential_limit
from .lp import LinearConstraint
from .model import FractionalOutcome, PBInstance, rational_str, subset_walk

# (voters, coefficients, bound): sum_j coefficients[j] * p_j >= bound,
# in integers on the common denominator of its ``Rows``.
Row = tuple[tuple[int, ...], Sequence[int], int]


@dataclass(frozen=True)
class Rows:
    """An axiom's rows, each an integer row over one common denominator:
    the row ``(voters, c, b)`` stands for sum_j (c_j/d) p_j >= b/d with
    d = ``denominator``. Iterating gives the rows."""

    denominator: int
    rows: Iterable[Row]

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)


@dataclass(frozen=True)
class UnanimousPartition:
    """Maximal groups of voters with identical utility vectors."""

    cells: tuple[tuple[int, ...], ...]


def unanimous_partition(instance: PBInstance) -> UnanimousPartition:
    groups: dict[tuple, list[int]] = {}
    for i in range(instance.n):
        groups.setdefault(instance.utilities[i], []).append(i)
    cells = sorted(tuple(v) for v in groups.values())
    return UnanimousPartition(cells=tuple(cells))


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


def optimal_fractional_outcome(
    instance: PBInstance, voter: int, budget: Fraction
) -> list[Fraction]:
    """A voter's optimal fractional outcome, spending exactly ``budget``.

    Fractional knapsack: zero-cost approved projects first, then descending
    utility per cost (ties: lower cost, then lower index), then the
    zero-utility projects in index order, which pad the spend up to the
    budget. Projects are funded fully while they fit; the first one that
    does not gets what is left.
    """
    budget = Fraction(budget)
    if not 0 <= budget <= instance.budget:
        raise ValueError(f"budget {budget} outside [0, B]")
    row, cost = instance.utilities[voter], instance.cost
    free = [j for j in range(instance.m) if row[j] > 0 and cost[j] == 0]
    priced = [j for j in range(instance.m) if row[j] > 0 and cost[j] > 0]
    priced.sort(key=lambda j: (-row[j] / cost[j], cost[j], j))
    padding = [j for j in range(instance.m) if row[j] == 0]
    shares = [Fraction(0)] * instance.m
    left = budget
    for j in free + priced + padding:
        if cost[j] > left:
            shares[j] = left / cost[j]
            break
        shares[j] = Fraction(1)
        left -= cost[j]
    return shares


def optimal_fractional_utility(
    instance: PBInstance, voter: int, budget: Fraction
) -> Fraction:
    """Best fractional-outcome utility for a voter under the given budget:
    the utility of ``optimal_fractional_outcome``."""
    shares = optimal_fractional_outcome(instance, voter, budget)
    return sum(map(mul, instance.utilities[voter], shares), Fraction(0))


# ---------------------------------------------------------------------------
# The rows of each axiom


def _lcm_of_denominators(values: Iterable[Fraction]) -> int:
    return math.lcm(*(v.denominator for v in values))


def _share_rows(instance: PBInstance, unanimous: bool, strong: bool) -> Rows:
    """One row per voter, or per unanimous cell S: the utility of S's
    common vector is at least |S|/n * opt_i(B), or with ``strong`` at least
    opt_i(|S| * B / n)."""
    if unanimous:
        cells = unanimous_partition(instance).cells
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
        rows.append((cell, instance.utilities[i], bound))
    d = _lcm_of_denominators(
        chain.from_iterable((*c, b) for _, c, b in rows)
    )
    return Rows(d, [
        (cell, tuple(int(c * d) for c in coefficients), int(bound * d))
        for cell, coefficients, bound in rows
    ])


def _group_rows(instance: PBInstance, limit: Optional[int]) -> Rows:
    """One GFS row per non-empty voter group, by size, then
    lexicographically. The utilities and each opt_i/n are scaled once to
    integers on their common denominator; a group's max row and its sum
    of opt_i/n extend its prefix's by one voter."""
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
    d = _lcm_of_denominators(
        chain(shares, chain.from_iterable(instance.utilities))
    )
    utilities = [tuple(int(u * d) for u in row) for row in instance.utilities]
    share = [int(x * d) for x in shares]

    def extend(prefix, i):
        top, total = prefix
        return tuple(map(max, top, utilities[i])), total + share[i]

    root = ((0,) * instance.m, 0)
    return Rows(d, (
        (group, top, total)
        for group, (top, total) in subset_walk(range(n), root, extend)
    ))


def _report(
    axiom: str, rows: Rows, p: FractionalOutcome, worst: bool = False
) -> ExAnteReport:
    """Every violated row is a witness. With ``worst``, a report that holds
    names the row of least lhs - rhs instead, the first one on ties.

    p is scaled once to integers on its common denominator q, so each row
    costs m integer products: lhs·d·q against bound·q. Only the reported
    rows are turned back into fractions."""
    q = _lcm_of_denominators(p.shares)
    scaled = [int(x * q) for x in p.shares]
    violations = []
    least = None
    for voters, coefficients, bound in rows:
        lhs = sum(map(mul, coefficients, scaled))
        slack = lhs - bound * q
        if slack < 0:
            violations.append((voters, lhs, bound))
        elif worst and (least is None or slack < least[0]):
            least = (slack, voters, lhs, bound)
    if violations or least is None:
        reported = violations
    else:
        reported = [least[1:]]
    d = rows.denominator
    witnesses = tuple(
        Witness(voters, Fraction(lhs, d * q), Fraction(bound, d))
        for voters, lhs, bound in reported
    )
    return ExAnteReport(axiom, not violations, witnesses)


def check_ifs(instance: PBInstance, p: FractionalOutcome) -> ExAnteReport:
    return _report("ifs", _share_rows(instance, False, False), p)


def check_strong_ifs(instance: PBInstance, p: FractionalOutcome) -> ExAnteReport:
    return _report("strong-ifs", _share_rows(instance, False, True), p)


def check_ufs(instance: PBInstance, p: FractionalOutcome) -> ExAnteReport:
    return _report("ufs", _share_rows(instance, True, False), p)


def check_strong_ufs(instance: PBInstance, p: FractionalOutcome) -> ExAnteReport:
    return _report("strong-ufs", _share_rows(instance, True, True), p)


def check_gfs(
    instance: PBInstance, p: FractionalOutcome, limit: Optional[int] = None
) -> ExAnteReport:
    """Group fair share over all non-empty voter groups: every violating
    group, or the worst group when none violates."""
    return _report("gfs", _group_rows(instance, limit), p, worst=True)


# ---------------------------------------------------------------------------
# The same rows as LP constraints over the marginals


def _constraints(rows: Rows) -> list[LinearConstraint]:
    d = rows.denominator
    return [
        LinearConstraint(tuple(Fraction(x, d) for x in c), ">=", Fraction(b, d))
        for _, c, b in rows
    ]


def ifs_rows(instance: PBInstance) -> list[LinearConstraint]:
    """One row per voter: u_i(p) >= opt_i(B)/n."""
    return _constraints(_share_rows(instance, False, False))


def gfs_rows(
    instance: PBInstance, limit: Optional[int] = None
) -> list[LinearConstraint]:
    """One GFS row per non-empty voter group S, in bitmask order: the row
    of S is number sum_{i in S} 2^i - 1. With 0/1 utilities a row's
    coefficients mark the union of the group's approval sets."""
    rows = _group_rows(instance, limit)
    return _constraints(Rows(rows.denominator, sorted(
        rows, key=lambda row: sum(1 << i for i in row[0])
    )))
