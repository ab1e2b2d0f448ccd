"""Core domain types for participatory-budgeting lotteries.

All numeric quantities are exact rationals (`fractions.Fraction`); no
floating point enters any predicate or algorithm in this package.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union


class ValidationError(ValueError):
    """A document or value violates an instance invariant."""


_RATIONAL_RE = re.compile(r"^-?\d+(/0*[1-9]\d*)?$")


def parse_rational(text: str, field: str = "value") -> Fraction:
    """Parse a rational-string ("3", "-2", "5/12") into a Fraction."""
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise ValidationError(f"{field}: not a rational-string: {text!r}")
    return Fraction(text)


def rational_str(value: Fraction) -> str:
    """Canonical rational-string: integer when possible, else 'p/q'."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class Setting(Enum):
    """Most-specific classification of an instance's utility/cost structure."""

    GENERAL = "general"
    BINARY = "binary-utilities"
    COST = "cost-utilities"
    UNIT_COST = "unit-cost"
    COMMITTEE = "committee"


@dataclass(frozen=True)
class PBInstance:
    """A participatory-budgeting instance.

    Voters and projects are addressed by dense internal indices; the
    external string identifiers are kept for reporting and serialization.
    """

    budget: Fraction
    cost: tuple[Fraction, ...]
    utilities: tuple[tuple[Fraction, ...], ...]
    project_ids: tuple[str, ...]
    voter_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.project_ids) != len(self.cost):
            raise ValidationError("project_ids/cost length mismatch")
        if len(self.voter_ids) != len(self.utilities):
            raise ValidationError("voter_ids/utilities length mismatch")
        if self.budget < 0:
            raise ValidationError("budget: negative")
        for pid, c in zip(self.project_ids, self.cost):
            if c < 0:
                raise ValidationError(f"cost[{pid}]: negative")
            if c > self.budget:
                raise ValidationError(f"cost[{pid}]: cost exceeds budget")
        if sum(self.cost, Fraction(0)) < self.budget:
            raise ValidationError("projects: total cost below budget")
        for vid, row in zip(self.voter_ids, self.utilities):
            if len(row) != len(self.cost):
                raise ValidationError(f"utilities[{vid}]: wrong length")
            for pid, u in zip(self.project_ids, row):
                if u < 0:
                    raise ValidationError(f"utilities[{vid}][{pid}]: negative")

    @property
    def n(self) -> int:
        return len(self.voter_ids)

    @property
    def m(self) -> int:
        return len(self.project_ids)

    def approval_set(self, voter: int) -> frozenset[int]:
        """Projects the voter assigns positive utility (derived, not stored)."""
        return frozenset(j for j, u in enumerate(self.utilities[voter]) if u > 0)

    def total_cost(self, projects: Iterable[int]) -> Fraction:
        return sum((self.cost[j] for j in projects), Fraction(0))

    def project_index(self, pid: str) -> int:
        try:
            return self.project_ids.index(pid)
        except ValueError:
            raise ValidationError(f"unknown project id: {pid!r}") from None


@dataclass(frozen=True)
class IntegralOutcome:
    """A funded project subset W."""

    projects: frozenset[int]

    def __init__(self, projects: Iterable[int]) -> None:
        object.__setattr__(self, "projects", frozenset(projects))

    def cost(self, instance: PBInstance) -> Fraction:
        return instance.total_cost(self.projects)

    def indicator(self, m: int) -> tuple[Fraction, ...]:
        return tuple(
            Fraction(1) if j in self.projects else Fraction(0) for j in range(m)
        )


@dataclass(frozen=True)
class FractionalOutcome:
    """Per-project funded fractions p, each in [0, 1]."""

    shares: tuple[Fraction, ...]

    def __init__(self, shares: Iterable[Union[Fraction, int, str]]) -> None:
        values = tuple(Fraction(s) for s in shares)
        for v in values:
            if not 0 <= v <= 1:
                raise ValidationError(f"fractional share out of [0,1]: {v}")
        object.__setattr__(self, "shares", values)

    def cost(self, instance: PBInstance) -> Fraction:
        return sum(
            (p * c for p, c in zip(self.shares, instance.cost)), Fraction(0)
        )

    def is_feasible(self, instance: PBInstance) -> bool:
        """Feasibility is exact equality: the fractional spend equals B."""
        return self.cost(instance) == instance.budget


@dataclass(frozen=True)
class Lottery:
    """An explicit distribution over pairwise-distinct integral outcomes."""

    support: tuple[tuple[Fraction, IntegralOutcome], ...]

    def __init__(
        self, support: Iterable[tuple[Union[Fraction, int, str], IntegralOutcome]]
    ) -> None:
        entries = tuple((Fraction(w), outcome) for w, outcome in support)
        total = Fraction(0)
        seen = set()
        for w, outcome in entries:
            if not 0 < w <= 1:
                raise ValidationError(f"lottery weight out of (0,1]: {w}")
            if outcome.projects in seen:
                raise ValidationError("duplicate outcome in lottery support")
            seen.add(outcome.projects)
            total += w
        if total != 1:
            raise ValidationError(f"lottery weights sum to {total}, not 1")
        object.__setattr__(self, "support", entries)


@dataclass(frozen=True)
class PaymentMatrix:
    """Per-voter per-project spend y and per-voter remaining budget b."""

    y: tuple[tuple[Fraction, ...], ...]
    b: tuple[Fraction, ...]

    def validate(self, instance: PBInstance) -> None:
        share = instance.budget / instance.n
        for i in range(instance.n):
            spent = sum(self.y[i], Fraction(0))
            if spent > share:
                raise ValidationError(f"voter {i} spends {spent} > B/n")
            if self.b[i] != share - spent:
                raise ValidationError(f"voter {i} remaining budget inconsistent")
            if self.b[i] < 0:
                raise ValidationError(f"voter {i} negative remaining budget")
        for j in range(instance.m):
            total = sum((self.y[i][j] for i in range(instance.n)), Fraction(0))
            if total > instance.cost[j]:
                raise ValidationError(f"project {j} overpaid: {total}")


def classify(instance: PBInstance) -> Setting:
    """Return the most specific setting tag for the instance."""
    binary = all(
        u == 0 or u == 1 for row in instance.utilities for u in row
    )
    unit = all(c == 1 for c in instance.cost)
    if binary and unit:
        return Setting.COMMITTEE
    if binary:
        return Setting.BINARY
    cost_utils = all(
        u == 0 or u == instance.cost[j]
        for row in instance.utilities
        for j, u in enumerate(row)
    )
    if cost_utils:
        return Setting.COST
    if unit:
        return Setting.UNIT_COST
    return Setting.GENERAL


def utility(
    instance: PBInstance,
    voter: int,
    target: Union[IntegralOutcome, FractionalOutcome],
) -> Fraction:
    """Additive utility of a voter for an integral or fractional outcome."""
    row = instance.utilities[voter]
    if isinstance(target, IntegralOutcome):
        return sum((row[j] for j in target.projects), Fraction(0))
    return sum((p * u for p, u in zip(target.shares, row)), Fraction(0))


def implements(instance: PBInstance, lottery: Lottery, p: FractionalOutcome) -> bool:
    """True iff the lottery's per-project marginals equal p exactly."""
    marginals = [Fraction(0)] * instance.m
    for weight, outcome in lottery.support:
        for j in outcome.projects:
            marginals[j] += weight
    return tuple(marginals) == p.shares


# ---------------------------------------------------------------------------
# JSON instance format


def _entries(data: Mapping, field: str) -> Sequence[Mapping]:
    """The non-empty list of objects under `field`."""
    entries = data.get(field)
    if isinstance(entries, (str, bytes)) or not isinstance(entries, Sequence):
        raise ValidationError(f"{field}: missing or not a list")
    if not entries:
        raise ValidationError(f"{field}: empty")
    if not all(isinstance(entry, Mapping) for entry in entries):
        raise ValidationError(f"{field}[]: not an object")
    return entries


def parse_instance(document: Union[bytes, str, Mapping]) -> PBInstance:
    """Parse and validate the JSON instance format.

    Projects and voters are sorted by external id, so parsing is the
    inverse of `serialize_instance` on valid instances.
    """
    if isinstance(document, (bytes, str)):
        try:
            data = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"malformed JSON: {exc}") from None
    else:
        data = document
    if not isinstance(data, Mapping):
        raise ValidationError("instance document must be a JSON object")
    try:
        budget = parse_rational(data["budget"], "budget")
    except KeyError:
        raise ValidationError("missing field: budget") from None

    entries = []
    for entry in _entries(data, "projects"):
        pid = entry.get("id")
        if not isinstance(pid, str):
            raise ValidationError("projects[].id: missing or not a string")
        entries.append((pid, parse_rational(entry.get("cost"), f"cost[{pid}]")))
    entries.sort(key=lambda e: e[0])
    project_ids = tuple(pid for pid, _ in entries)
    if len(set(project_ids)) != len(project_ids):
        raise ValidationError("projects: duplicate id")
    cost = tuple(c for _, c in entries)
    index_of = {pid: j for j, (pid, _) in enumerate(entries)}

    voter_entries = []
    for entry in _entries(data, "voters"):
        vid = entry.get("id")
        if not isinstance(vid, str):
            raise ValidationError("voters[].id: missing or not a string")
        row = [Fraction(0)] * len(project_ids)
        utilities = entry.get("utilities")
        if utilities is None:
            utilities = {}
        elif not isinstance(utilities, Mapping):
            raise ValidationError(f"utilities[{vid}]: not an object")
        for pid, text in utilities.items():
            if pid not in index_of:
                raise ValidationError(
                    f"utilities[{vid}]: unknown project id {pid!r}"
                )
            row[index_of[pid]] = parse_rational(text, f"utilities[{vid}][{pid}]")
        voter_entries.append((vid, tuple(row)))
    voter_entries.sort(key=lambda e: e[0])
    voter_ids = tuple(vid for vid, _ in voter_entries)
    if len(set(voter_ids)) != len(voter_ids):
        raise ValidationError("voters: duplicate id")
    utilities = tuple(row for _, row in voter_entries)

    return PBInstance(
        budget=budget,
        cost=cost,
        utilities=utilities,
        project_ids=project_ids,
        voter_ids=voter_ids,
    )


def instance_to_dict(instance: PBInstance) -> dict:
    return {
        "budget": rational_str(instance.budget),
        "projects": [
            {"id": pid, "cost": rational_str(c)}
            for pid, c in zip(instance.project_ids, instance.cost)
        ],
        "voters": [
            {
                "id": vid,
                "utilities": {
                    instance.project_ids[j]: rational_str(u)
                    for j, u in enumerate(row)
                    if u != 0
                },
            }
            for vid, row in zip(instance.voter_ids, instance.utilities)
        ],
    }


def serialize_instance(instance: PBInstance) -> str:
    """Canonical JSON: keys sorted, projects and voters sorted by id."""
    return json.dumps(instance_to_dict(instance), sort_keys=True, indent=2)
