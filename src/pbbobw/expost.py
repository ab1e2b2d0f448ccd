"""Ex-post representation axioms: JR, EJR, FJR, general JR, EJR-x.

Violations are detected by deprived-voter counting: a cohesive,
all-deprived group exists for a project set T iff the number of deprived
voters d satisfies d * B >= n * cost(T) (any subgroup of that size is
itself cohesive). As d <= n, only sets with cost(T) <= B can be violated,
so the EJR, FJR and EJR-x searches visit only the within-budget project
sets, through ``PBInstance.subsets``. That is exact pruning, not a
polynomial algorithm: the searches stay exponential in the number of
projects, and EJR verification is coNP-complete (Aziz, Elkind, Huang,
Lackner, Sánchez-Fernández, Skowron, AAAI 2018). All comparisons are
exact; budget never appears as a divisor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional

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


def _cohesive_count(instance: PBInstance, count: int, cost: Fraction) -> bool:
    """A deprived group of this size can host a cohesive subgroup."""
    return count > 0 and count * instance.budget >= instance.n * cost


_Candidate = tuple[Optional[int], list[int]]


def _search(
    instance: PBInstance,
    limit: Optional[int],
    axiom: str,
    label: str,
    deprived: Callable[[frozenset[int]], Iterable[_Candidate]],
    note: str,
) -> ExPostReport:
    """The EJR, FJR and EJR-x search. The witness is the first
    within-budget T, by size then lexicographically, for which a
    candidate ``(beta or None, voters)`` that ``deprived(T)`` yields is
    large enough to be cohesive."""
    if instance.m > project_limit(limit):
        raise ScaleError(f"{label} enumeration over 2^{instance.m} project sets")
    for group in instance.subsets(range(instance.m), instance.budget):
        projects = frozenset(group)
        cost = instance.total_cost(group)
        for beta, voters in deprived(projects):
            if _cohesive_count(instance, len(voters), cost):
                return ExPostReport(
                    axiom=axiom,
                    holds=False,
                    witness=CohesivenessWitness(
                        projects=group, voters=tuple(voters), beta=beta, note=note
                    ),
                )
    return ExPostReport(axiom=axiom, holds=True)


def check_jr_binary(instance: PBInstance, outcome: IntegralOutcome) -> ExPostReport:
    """Justified representation for binary utilities (polynomial check)."""
    _require_binary(instance, "check_jr_binary")
    approvals = [instance.approval_set(i) for i in range(instance.n)]
    covered = [bool(approvals[i] & outcome.projects) for i in range(instance.n)]
    for j in range(instance.m):
        deprived = [
            i for i in range(instance.n) if j in approvals[i] and not covered[i]
        ]
        if _cohesive_count(instance, len(deprived), instance.cost[j]):
            return ExPostReport(
                axiom="jr",
                holds=False,
                witness=CohesivenessWitness(
                    projects=(j,),
                    voters=tuple(deprived),
                    note="cohesive group with zero represented members",
                ),
            )
    return ExPostReport(axiom="jr", holds=True)


def check_ejr_binary(
    instance: PBInstance, outcome: IntegralOutcome, limit: Optional[int] = None
) -> ExPostReport:
    """Extended justified representation for binary utilities."""
    _require_binary(instance, "check_ejr_binary")
    approvals = [instance.approval_set(i) for i in range(instance.n)]
    won = [len(approvals[i] & outcome.projects) for i in range(instance.n)]

    def deprived(projects: frozenset[int]) -> Iterable[_Candidate]:
        yield None, [
            i
            for i in range(instance.n)
            if projects <= approvals[i] and won[i] < len(projects)
        ]

    return _search(
        instance, limit, "ejr", "EJR", deprived,
        "cohesive group where everyone wins fewer than |T| projects",
    )


def check_fjr_binary(
    instance: PBInstance, outcome: IntegralOutcome, limit: Optional[int] = None
) -> ExPostReport:
    """Full justified representation for binary utilities."""
    _require_binary(instance, "check_fjr_binary")
    approvals = [instance.approval_set(i) for i in range(instance.n)]
    won = [len(approvals[i] & outcome.projects) for i in range(instance.n)]

    def deprived(projects: frozenset[int]) -> Iterable[_Candidate]:
        for beta in range(1, len(projects) + 1):
            yield beta, [
                i
                for i in range(instance.n)
                if len(approvals[i] & projects) >= beta and won[i] < beta
            ]

    return _search(
        instance, limit, "fjr", "FJR", deprived,
        "weakly cohesive group where everyone wins fewer than beta projects",
    )


def check_jr_general(instance: PBInstance, outcome: IntegralOutcome) -> ExPostReport:
    """Justified representation for general utilities (singleton T).

    Candidate thresholds per project are the voters' utilities clipped to
    [0, 1]: any violating threshold can be raised to the least clipped
    utility of the deprived group without shrinking it.
    """
    sat = [utility(instance, i, outcome) for i in range(instance.n)]
    for j in range(instance.m):
        candidates = sorted(
            {
                min(Fraction(1), instance.utilities[i][j])
                for i in range(instance.n)
                if instance.utilities[i][j] > 0
            }
        )
        for alpha in candidates:
            deprived = [
                i
                for i in range(instance.n)
                if instance.utilities[i][j] >= alpha and sat[i] < alpha
            ]
            if _cohesive_count(instance, len(deprived), instance.cost[j]):
                return ExPostReport(
                    axiom="jr-general",
                    holds=False,
                    witness=CohesivenessWitness(
                        projects=(j,),
                        voters=tuple(deprived),
                        alpha=alpha,
                        note="(alpha, {j})-cohesive group below threshold alpha",
                    ),
                )
    return ExPostReport(axiom="jr-general", holds=True)


def check_ejrx_cost(
    instance: PBInstance, outcome: IntegralOutcome, limit: Optional[int] = None
) -> ExPostReport:
    """EJR up to any project, for cost utilities."""
    if not has_cost_utilities(instance):
        raise SettingError("check_ejrx_cost requires cost utilities")
    approvals = [instance.approval_set(i) for i in range(instance.n)]
    base = [utility(instance, i, outcome) for i in range(instance.n)]

    def deprived(projects: frozenset[int]) -> Iterable[_Candidate]:
        # On T within a voter's approval set, cost utilities give
        # u_i(T) = cost(T) and u_i(c) = cost(c).
        missing = projects - outcome.projects
        target = instance.total_cost(projects)
        yield None, [
            i
            for i in range(instance.n)
            if projects <= approvals[i]
            and any(base[i] + instance.cost[c] <= target for c in missing)
        ]

    return _search(
        instance, limit, "ejr-x", "EJR-x", deprived,
        "cohesive group unsatisfied even up to any missing project",
    )
