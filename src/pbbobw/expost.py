"""Ex-post representation axioms: JR, EJR, FJR, general JR, EJR-x.

Every axiom asks one question: is there a project set T and a group of
voters, all deprived in the axiom's sense, with |group|·B ≥ n·cost(T)?
(Any subgroup of that size is itself cohesive.) `cohesive_groups` is the
one search: it walks a source of project sets and keeps the voter groups
an axiom's rule yields for each T that are large enough, and a checker's
witness is the first of them. EJR, FJR and EJR-x walk `within_budget`:
as the group has at most n voters, only sets with cost(T) <= B can be
violated, so they visit those sets only, through ``PBInstance.subsets``,
behind the project-set limit. JR is EJR's rule over the single projects
(at |T| = 1 EJR's deprived voters are JR's), and general JR its
α-threshold rule over them; both are polynomial and not gated. GCR in
`rules` reads the same candidates over the projects it has not chosen.

The budget pruning is exact, not a polynomial algorithm: the searches
stay exponential in the number of projects, and EJR verification is
coNP-complete (Aziz, Elkind, Huang, Lackner, Sánchez-Fernández, Skowron,
AAAI 2018). All comparisons are exact; budget never appears as a divisor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .limits import ScaleError, project_limit
from .model import (
    IntegralOutcome,
    PBInstance,
    Setting,
    classify,
    has_cost_utilities,
    rational_str,
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


def _require_binary(instance: PBInstance, checker: str) -> None:
    if classify(instance) not in (Setting.BINARY, Setting.COMMITTEE):
        raise SettingError(f"{checker} requires binary utilities")


_Candidate = tuple[tuple[int, ...], Fraction, Sequence[int], dict]
_Rule = Callable[[frozenset[int]], Iterable[tuple[Sequence[int], dict]]]


def within_budget(
    instance: PBInstance, pool: Iterable[int], limit: Optional[int], label: str
) -> Iterator[tuple[int, ...]]:
    """The project sets of ``pool`` that cost at most B, by size then
    lexicographically; raises ``ScaleError`` at once above the limit."""
    if instance.m > project_limit(limit):
        raise ScaleError(f"{label} over 2^{instance.m} project sets")
    return instance.subsets(pool, instance.budget)


def cohesive_groups(
    instance: PBInstance, groups: Iterable[tuple[int, ...]], rule: _Rule
) -> Iterator[_Candidate]:
    """``(T, cost(T), voters, fields)`` for each T of ``groups``, in order,
    and each ``(voters, fields)`` that ``rule(frozenset(T))`` yields whose
    non-empty ``voters`` are enough to afford T: |voters|·B ≥ n·cost(T).
    ``fields`` are the witness's extra fields (``beta`` or ``alpha``)."""
    for group in groups:
        cost = instance.total_cost(group)
        for voters, fields in rule(frozenset(group)):
            if voters and len(voters) * instance.budget >= instance.n * cost:
                yield group, cost, voters, fields


def _first(
    instance: PBInstance,
    axiom: str,
    groups: Iterable[tuple[int, ...]],
    rule: _Rule,
    note: str,
) -> ExPostReport:
    """The report whose witness is the first of the cohesive groups, if any."""
    for group, _, voters, fields in cohesive_groups(instance, groups, rule):
        witness = CohesivenessWitness(
            projects=group, voters=tuple(voters), note=note, **fields
        )
        return ExPostReport(axiom=axiom, holds=False, witness=witness)
    return ExPostReport(axiom=axiom, holds=True)


def _ejr_rule(instance: PBInstance, outcome: IntegralOutcome) -> _Rule:
    """Voters who approve all of T and win fewer than |T| projects."""
    approvals = [instance.approval_set(i) for i in range(instance.n)]
    won = [len(approvals[i] & outcome.projects) for i in range(instance.n)]

    def rule(projects: frozenset[int]):
        yield [
            i
            for i in range(instance.n)
            if projects <= approvals[i] and won[i] < len(projects)
        ], {}

    return rule


def check_jr_binary(instance: PBInstance, outcome: IntegralOutcome) -> ExPostReport:
    """Justified representation for binary utilities (polynomial check):
    EJR's rule over the single projects."""
    _require_binary(instance, "check_jr_binary")
    singles = ((j,) for j in range(instance.m))
    return _first(
        instance, "jr", singles, _ejr_rule(instance, outcome),
        "cohesive group with zero represented members",
    )


def check_ejr_binary(
    instance: PBInstance, outcome: IntegralOutcome, limit: Optional[int] = None
) -> ExPostReport:
    """Extended justified representation for binary utilities."""
    _require_binary(instance, "check_ejr_binary")
    groups = within_budget(instance, range(instance.m), limit, "EJR enumeration")
    return _first(
        instance, "ejr", groups, _ejr_rule(instance, outcome),
        "cohesive group where everyone wins fewer than |T| projects",
    )


def check_fjr_binary(
    instance: PBInstance, outcome: IntegralOutcome, limit: Optional[int] = None
) -> ExPostReport:
    """Full justified representation for binary utilities."""
    _require_binary(instance, "check_fjr_binary")
    approvals = [instance.approval_set(i) for i in range(instance.n)]
    won = [len(approvals[i] & outcome.projects) for i in range(instance.n)]

    def rule(projects: frozenset[int]):
        for beta in range(1, len(projects) + 1):
            yield [
                i
                for i in range(instance.n)
                if len(approvals[i] & projects) >= beta and won[i] < beta
            ], {"beta": beta}

    groups = within_budget(instance, range(instance.m), limit, "FJR enumeration")
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

    def rule(projects: frozenset[int]):
        (j,) = projects
        thresholds = {
            min(Fraction(1), instance.utilities[i][j])
            for i in range(instance.n)
            if instance.utilities[i][j] > 0
        }
        for alpha in sorted(thresholds):
            yield [
                i
                for i in range(instance.n)
                if instance.utilities[i][j] >= alpha and sat[i] < alpha
            ], {"alpha": alpha}

    singles = ((j,) for j in range(instance.m))
    return _first(
        instance, "jr-general", singles, rule,
        "(alpha, {j})-cohesive group below threshold alpha",
    )


def check_ejrx_cost(
    instance: PBInstance, outcome: IntegralOutcome, limit: Optional[int] = None
) -> ExPostReport:
    """EJR up to any project, for cost utilities."""
    if not has_cost_utilities(instance):
        raise SettingError("check_ejrx_cost requires cost utilities")
    approvals = [instance.approval_set(i) for i in range(instance.n)]
    base = [utility(instance, i, outcome) for i in range(instance.n)]

    def rule(projects: frozenset[int]):
        # On T within a voter's approval set, cost utilities give
        # u_i(T) = cost(T) and u_i(c) = cost(c).
        missing = projects - outcome.projects
        target = instance.total_cost(projects)
        yield [
            i
            for i in range(instance.n)
            if projects <= approvals[i]
            and any(base[i] + instance.cost[c] <= target for c in missing)
        ], {}

    groups = within_budget(instance, range(instance.m), limit, "EJR-x enumeration")
    return _first(
        instance, "ejr-x", groups, rule,
        "cohesive group unsatisfied even up to any missing project",
    )
