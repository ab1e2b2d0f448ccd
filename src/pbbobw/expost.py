"""Ex-post representation axioms: JR, EJR, FJR, general JR, EJR-x.

Every axiom asks one question: is there a project set T and a group of
voters, all deprived in the axiom's sense, with |group|·B ≥ n·cost(T)?
(Any subgroup of that size is itself cohesive.) `cohesive_groups` is the
one search: it walks a source of project sets and keeps the voter groups
an axiom's rule yields for each T that are large enough, and a checker's
witness is the first of them. A rule yields each group as a voter
bitmask, built from ``PBInstance.approver_masks`` without a loop over
the voters; only a reported witness or GCR step becomes a voter tuple.
Three rules serve its six searches.
`_common_rule`, the approvers of all of T who miss it, serves EJR with
unit weights, EJR-x with the scaled costs and JR over single projects.
`fjr_search`, the weakly cohesive groups, serves FJR, and GCR in `rules`
over the projects it has not chosen, with its chosen voters served.
General JR has its own α-threshold rule over single projects. JR and
general JR are polynomial and not gated; the other four walk
`within_budget`, behind the project-set limit.

`within_budget` walks ``model.subset_walk`` on integers: costs and B
scaled by the instance's ``cost_scale``, T as a project bitmask and the
voters approving all of T as a voter bitmask, so a step is a few integer
operations and ``int.bit_count`` calls. It drops T with all its
extensions, exactly, when no extension can have a large enough
non-empty group (a count of 0 drops T too):
- cost(T) > B (a group has at most n voters);
- for EJR and EJR-x, #{i : T ⊆ A_i}·B < n·cost(T), since every deprived
  voter approves all of T (the walk's default reach);
- for FJR and GCR, #{i : won_i < |A_i ∩ (T ∪ R)|}·B < n·cost(T), where R
  is the pool after T's last project (any extension lies within T ∪ R)
  and GCR's chosen voters win m projects.
Each count only falls and cost(T) only rises along an extension, so the
sets left keep their (size, lexicographic) order and the first witness,
and GCR's choice, stay the same. Every set the default reach keeps has a
common approver, so it lies inside some A_i: EJR and EJR-x visit at most
n·2^k sets for k = max_i |A_i| and are gated on k; FJR and GCR, which
pass their own reach, are gated on m.

The pruning is exact, not a polynomial algorithm: the searches stay
exponential in the number of projects (one large cohesive group still
costs 2^|A_i| sets), and EJR verification is coNP-complete (Aziz, Elkind,
Huang, Lackner, Sánchez-Fernández, Skowron, AAAI 2018). All comparisons
are exact; budget never appears as a divisor.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .limits import ScaleError, project_limit
from .model import (
    IntegralOutcome,
    PBInstance,
    Setting,
    has_cost_utilities,
    members,
    rational_str,
    subset_walk,
    utility,
)


class SettingError(ValueError):
    """The checker's setting precondition does not hold for the instance."""


@dataclass(frozen=True)
class CohesivenessWitness:
    """A cohesive group whose members all miss the satisfaction bound."""

    projects: tuple[int, ...]
    voters: tuple[int, ...]
    beta: Optional[int] = None
    alpha: Optional[Fraction] = None
    note: str = ""

    def to_dict(self, instance: PBInstance) -> dict:
        out = {
            "projects": [instance.project_ids[j] for j in self.projects],
            "voters": [instance.voter_ids[i] for i in self.voters],
            "note": self.note,
        }
        if self.beta is not None:
            out["beta"] = self.beta
        if self.alpha is not None:
            out["alpha"] = rational_str(self.alpha)
        return out


@dataclass(frozen=True)
class ExPostReport:
    axiom: str
    holds: bool
    witness: Optional[CohesivenessWitness] = None

    def to_dict(self, instance: PBInstance) -> dict:
        return {
            "axiom": self.axiom,
            "holds": self.holds,
            "witness": None if self.witness is None else self.witness.to_dict(instance),
        }


def require_binary(instance: PBInstance, checker: str) -> None:
    """Raise ``SettingError`` unless the instance has binary utilities."""
    if instance.setting not in (Setting.BINARY, Setting.COMMITTEE):
        raise SettingError(f"{checker} requires binary utilities")


# (T, cost(T)·scale, T as a project bitmask, the voters approving all of
# T as a voter bitmask): one project set of a walk.
_Walked = tuple[tuple[int, ...], int, int, int]
# (T, cost(T)·scale, the group as a voter bitmask, the witness's fields)
_Candidate = tuple[tuple[int, ...], int, int, dict]
_Rule = Callable[[tuple[int, ...], int, int, int], Iterable[tuple[int, dict]]]
# The number of voters that can still join a group for T or for any
# extension of T: called with T ∪ R as a project bitmask (R the pool
# after T's last project) and the approvers of all of T as a voter mask.
_Reach = Callable[[int, int], int]


def within_budget(
    instance: PBInstance,
    pool: Iterable[int],
    limit: Optional[int],
    label: str,
    reach: Optional[_Reach] = None,
) -> Iterator[_Walked]:
    """The project sets T of the ascending ``pool`` with cost(T) <= B that
    some large enough group may still support, by size then
    lexicographically; raises ``ScaleError`` at once when m is above the
    limit.

    Without a ``reach``, the voters approving all of T are counted, so
    every set kept lies inside some A_i, and the gate is max_i |A_i|
    instead of m.

    The walk sums integer ``scaled_costs`` and carries T's project mask,
    the mask of T's common approvers and T's count. T is dropped with all
    its extensions when ``reach`` counts no voter, or too few to afford T:
    count·B < n·cost(T). Extensions only add cost, and ``reach`` must not
    grow along them, so no dropped set has a cohesive group, and a step
    whose prefix's count cannot afford it is dropped before ``reach``.
    """
    if reach is None:
        span = max(
            (mask.bit_count() for mask in instance.approval_masks), default=0
        )
        sets = "subsets of the largest approval set"

        def reach(within: int, common: int) -> int:
            return common.bit_count()
    else:
        span, sets = instance.m, "project sets"
    if span > project_limit(limit):
        raise ScaleError(f"{label} over 2^{span} {sets}")
    pool = tuple(pool)
    cost, budget, n = instance.scaled_costs, instance.scaled_budget, instance.n
    approvers = instance.approver_masks
    # after[j]: the pool's projects after j, as a bitmask
    after, rest = {}, 0
    for j in reversed(pool):
        after[j], rest = rest, rest | 1 << j

    def extend(prefix, j):
        total, mask, common, count = prefix
        total += cost[j]
        if total > budget or count * budget < n * total:
            return None
        mask, common = mask | 1 << j, common & approvers[j]
        count = reach(mask | after[j], common)
        if not count or count * budget < n * total:
            return None
        return total, mask, common, count

    root = (0, 0, (1 << n) - 1, n)
    return (
        (group, *value[:3]) for group, value in subset_walk(pool, root, extend)
    )


def _singles(instance: PBInstance) -> Iterator[_Walked]:
    """Each single project as a walked set, unpruned and ungated."""
    cost = instance.scaled_costs
    for j, common in enumerate(instance.approver_masks):
        yield (j,), cost[j], 1 << j, common


def cohesive_groups(
    instance: PBInstance, groups: Iterable[_Walked], rule: _Rule
) -> Iterator[_Candidate]:
    """``(T, cost, voters, fields)`` for each walked ``(T, cost, mask,
    common)`` of ``groups``, in order, and each ``(voters, fields)`` that
    ``rule(T, cost, mask, common)`` yields whose non-empty ``voters`` (a
    voter bitmask) are enough to afford T: |voters|·B ≥ n·cost(T), on the
    scaled costs. ``fields`` are the witness's extra fields (``beta`` or
    ``alpha``)."""
    budget, n = instance.scaled_budget, instance.n
    for walked in groups:
        group, cost = walked[:2]
        for voters, fields in rule(*walked):
            count = voters.bit_count()
            if count and count * budget >= n * cost:
                yield group, cost, voters, fields


def _first(
    instance: PBInstance,
    axiom: str,
    groups: Iterable[_Walked],
    rule: _Rule,
    note: str,
) -> ExPostReport:
    """The report whose witness is the first of the cohesive groups, if any."""
    for group, _, voters, fields in cohesive_groups(instance, groups, rule):
        witness = CohesivenessWitness(
            projects=group, voters=members(voters), note=note, **fields
        )
        return ExPostReport(axiom=axiom, holds=False, witness=witness)
    return ExPostReport(axiom=axiom, holds=True)


def _won(
    instance: PBInstance,
    outcome: IntegralOutcome,
    weight: Optional[Sequence[int]] = None,
) -> list[int]:
    """The weight of the funded projects each voter approves, read from
    the approval masks: their number when ``weight`` is None."""
    funded = sum(1 << j for j in outcome.projects)
    won = [approved & funded for approved in instance.approval_masks]
    if weight is None:
        return [mask.bit_count() for mask in won]
    return [sum(weight[j] for j in members(mask)) for mask in won]


def _common_rule(
    instance: PBInstance,
    outcome: IntegralOutcome,
    weight: Optional[Sequence[int]] = None,
) -> _Rule:
    """Voters who approve all of T and stay deprived up to any project of
    T they miss: base_i ≤ weight(T) − min{weight_c : c ∈ T ∖ W}, base_i the
    weight of the funded projects i approves; no group when T ⊆ W. Unit
    weights (None) give EJR's won_i < |T|, the scaled costs EJR-x's test.

    The group is T's common approvers masked by the voters with base_i ≤
    bound, one prefix mask of the voters sorted by base_i."""
    funded = outcome.projects
    base = _won(instance, outcome, weight)
    if weight is None:
        weight = [1] * instance.m
    levels = sorted(set(base))
    # at_most[k]: the voters whose base is at most levels[k]
    at_most, seen = [], 0
    for level in levels:
        seen |= sum(1 << i for i, b in enumerate(base) if b == level)
        at_most.append(seen)

    def rule(projects: tuple[int, ...], cost: int, mask: int, common: int):
        missing = [weight[c] for c in projects if c not in funded]
        if not missing:
            return
        bound = sum(weight[c] for c in projects) - min(missing)
        k = bisect_right(levels, bound)
        if k:
            yield common & at_most[k - 1], {}

    return rule


def fjr_search(instance: PBInstance, won: Sequence[int]) -> tuple[_Reach, _Rule]:
    """FJR's reach and rule when voter i wins ``won_i`` approved projects:
    the groups for (T, β) are the voters with |A_i ∩ T| ≥ β > won_i.

    The reach counts the voters with won_i < |A_i ∩ (T ∪ R)| on the
    instance's ``approval_count_lanes``: adding ``bias`` to the lanes'
    counts sets the top bit of lane i iff that count exceeds won_i. The
    rule counts each voter's approved projects of T on voter bitmasks:
    ``least[b]`` holds the voters approving at least b of them, and β runs
    up while it is non-empty."""
    m, n, budget = instance.m, instance.n, instance.scaled_budget
    approvers = instance.approver_masks
    width, tables, high = instance.approval_count_lanes
    top = 1 << width - 1
    bias = sum(top - 1 - w << i * width for i, w in enumerate(won))
    # below[b]: the voters with won_i < b
    below, seen = [], 0
    for b in range(m + 1):
        below.append(seen)
        seen |= sum(1 << i for i, w in enumerate(won) if w == b)
    everyone = (1 << n) - 1

    def reach(within: int, common: int) -> int:
        counts = bias
        for first, table in tables:
            counts += table[within >> first & 0xFF]
        return (counts & high).bit_count()

    def rule(projects: tuple[int, ...], cost: int, mask: int, common: int):
        # Every group lies among the voters with |A_i ∩ T| > won_i.
        if reach(mask, common) * budget < n * cost:
            return
        least = [everyone]
        for c in projects:
            approving = approvers[c]
            least.append(least[-1] & approving)
            for b in range(len(least) - 2, 0, -1):
                least[b] |= least[b - 1] & approving
        for beta in range(1, len(least)):
            if not least[beta]:
                return
            yield least[beta] & below[beta], {"beta": beta}

    return reach, rule


def check_jr_binary(instance: PBInstance, outcome: IntegralOutcome) -> ExPostReport:
    """Justified representation for binary utilities (polynomial check):
    EJR's rule over the single projects."""
    require_binary(instance, "check_jr_binary")
    rule = _common_rule(instance, outcome)
    return _first(
        instance, "jr", _singles(instance), rule,
        "cohesive group with zero represented members",
    )


def check_ejr_binary(
    instance: PBInstance, outcome: IntegralOutcome, limit: Optional[int] = None
) -> ExPostReport:
    """Extended justified representation for binary utilities."""
    require_binary(instance, "check_ejr_binary")
    groups = within_budget(
        instance, range(instance.m), limit, "EJR enumeration"
    )
    rule = _common_rule(instance, outcome)
    return _first(
        instance, "ejr", groups, rule,
        "cohesive group where everyone wins fewer than |T| projects",
    )


def check_fjr_binary(
    instance: PBInstance, outcome: IntegralOutcome, limit: Optional[int] = None
) -> ExPostReport:
    """Full justified representation for binary utilities."""
    require_binary(instance, "check_fjr_binary")
    reach, rule = fjr_search(instance, _won(instance, outcome))
    groups = within_budget(
        instance, range(instance.m), limit, "FJR enumeration", reach
    )
    return _first(
        instance, "fjr", groups, rule,
        "weakly cohesive group where everyone wins fewer than beta projects",
    )


def check_jr_general(instance: PBInstance, outcome: IntegralOutcome) -> ExPostReport:
    """Justified representation for general utilities (singleton T).

    Candidate thresholds per project are the voters' utilities clipped to
    [0, 1]: any violating threshold can be raised to the least clipped
    utility of the deprived group without shrinking it.
    """
    sat = [utility(instance, i, outcome) for i in range(instance.n)]

    def rule(projects: tuple[int, ...], cost: int, mask: int, common: int):
        (j,) = projects
        thresholds = {
            min(Fraction(1), instance.utilities[i][j])
            for i in range(instance.n)
            if instance.utilities[i][j] > 0
        }
        for alpha in sorted(thresholds):
            yield sum(
                1 << i
                for i in range(instance.n)
                if instance.utilities[i][j] >= alpha and sat[i] < alpha
            ), {"alpha": alpha}

    return _first(
        instance, "jr-general", _singles(instance), rule,
        "(alpha, {j})-cohesive group below threshold alpha",
    )


def check_ejrx_cost(
    instance: PBInstance, outcome: IntegralOutcome, limit: Optional[int] = None
) -> ExPostReport:
    """EJR up to any project, for cost utilities."""
    if not has_cost_utilities(instance):
        raise SettingError("check_ejrx_cost requires cost utilities")
    groups = within_budget(
        instance, range(instance.m), limit, "EJR-x enumeration"
    )
    rule = _common_rule(instance, outcome, instance.scaled_costs)
    return _first(
        instance, "ejr-x", groups, rule,
        "cohesive group unsatisfied even up to any missing project",
    )
