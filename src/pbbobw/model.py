"""Core domain types for participatory-budgeting lotteries.

All numeric quantities are exact rationals (`fractions.Fraction`); no
floating point enters any predicate or algorithm in this package. The
exponential walks over project sets work on the same values scaled to
integers: costs and B times ``PBInstance.cost_scale``, the least common
multiple of their denominators, and approval sets as bitmasks. That keeps
them exact while a step costs a few integer operations; the walks are
still exponential in the number of projects. Utilities are scaled the same
way, by ``PBInstance.utility_scale``: the setting tags, the unanimous
cells, the greedy orders, MES and the fair-share bounds read
``scaled_utilities``. A voter's optimal fractional outcome is the integer
triple of ``PBInstance.greedy_spend``, cached at B as ``optimal_spends``;
p's integers of 1/q are cached once as ``FractionalOutcome.scaled_shares``.
"""

from __future__ import annotations

import json
import math
import operator
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from json.encoder import encode_basestring_ascii as _quote
from typing import (
    Any, Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union
)


_ZERO = Fraction(0)


class ValidationError(ValueError):
    """A document or value violates an instance invariant."""


_RATIONAL_RE = re.compile(r"^-?\d+(/0*[1-9]\d*)?$")


def parse_rational(text: str, field: str = "value") -> Fraction:
    """Parse a rational-string ("3", "-2", "5/12") into a Fraction."""
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise ValidationError(f"{field}: not a rational-string: {text!r}")
    try:
        return Fraction(text)
    except ValueError as exc:  # past the int-digit limit
        raise ValidationError(f"{field}: {exc}") from None


def rational_str(value: Fraction) -> str:
    """Canonical rational-string: integer when possible, else 'p/q'."""
    if not isinstance(value, Fraction):
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
                if u.numerator < 0:
                    raise ValidationError(f"utilities[{vid}][{pid}]: negative")

    @property
    def n(self) -> int:
        return len(self.voter_ids)

    @property
    def m(self) -> int:
        return len(self.project_ids)

    def approval_set(self, voter: int) -> frozenset[int]:
        """Projects the voter assigns positive utility (derived, not stored)."""
        return frozenset(members(self.approval_masks[voter]))

    def total_cost(self, projects: Iterable[int]) -> Fraction:
        return sum((self.cost[j] for j in projects), Fraction(0))

    def greedy_spend(self, voter: int, budget: Fraction) -> tuple[int, int, int]:
        """The voter's optimal fractional outcome spending exactly
        ``budget``, as ``(k, left, c)``: a fractional knapsack along the
        voter's ``greedy_orders`` entry, which funds its first k projects
        fully while they fit, and when k < m the next one, of cost c, by
        left/c. At B, read ``optimal_spends`` instead.

        The spend is counted in integers: costs and budget times
        ``cost_scale``, and times the denominator the scaled budget still
        has."""
        budget = Fraction(budget)
        if not 0 <= budget <= self.budget:
            raise ValueError(f"budget {budget} outside [0, B]")
        scaled = budget * self.cost_scale
        left, unit, cost = scaled.numerator, scaled.denominator, self.scaled_costs
        for k, j in enumerate(self.greedy_orders[voter]):
            c = cost[j] * unit
            if c > left:
                return k, left, c
            left -= c
        return self.m, left, 1

    @cached_property
    def greedy_orders(self) -> tuple[tuple[int, ...], ...]:
        """Each voter's order of ``greedy_spend``, computed once per
        instance: the zero-cost approved projects, then the priced ones by
        descending utility per cost (ties: lower cost, then lower index),
        then the zero-utility projects in index order, which pad the spend
        up to the budget.

        The priced projects are keyed by the integer U_ij·(L_i/C_j) on the
        scaled utilities U and costs C, with L_i the lcm of the voter's
        priced C_j: it orders them as u_ij/c_j does."""
        cost, everything = self.scaled_costs, (1 << self.m) - 1
        orders = []
        for row, mask in zip(self.scaled_utilities, self.approval_masks):
            approved = members(mask)
            priced = [j for j in approved if cost[j]]
            common = math.lcm(*(cost[j] for j in priced))
            priced.sort(key=lambda j: (-row[j] * (common // cost[j]), cost[j], j))
            orders.append((
                *(j for j in approved if not cost[j]),
                *priced,
                *members(everything ^ mask),
            ))
        return tuple(orders)

    @cached_property
    def optimal_spends(self) -> tuple[tuple[int, int, int], ...]:
        """Each voter's ``greedy_spend`` at B, computed once per instance:
        FRD and the GFS, IFS and UFS bounds all read it."""
        return tuple(self.greedy_spend(i, self.budget) for i in range(self.n))

    @cached_property
    def cost_scale(self) -> int:
        """The least common multiple of the denominators of the costs and
        B, computed once per instance: scaled by it, all are integers."""
        return math.lcm(
            self.budget.denominator, *(c.denominator for c in self.cost)
        )

    @cached_property
    def scaled_costs(self) -> tuple[int, ...]:
        scale = self.cost_scale
        return tuple([c.numerator * (scale // c.denominator) for c in self.cost])

    @cached_property
    def scaled_budget(self) -> int:
        return int(self.budget * self.cost_scale)

    def scaled_total(self, projects: Iterable[int]) -> int:
        """cost(projects) times ``cost_scale``, compared with ``scaled_budget``."""
        cost = self.scaled_costs
        return sum(cost[j] for j in projects)

    @cached_property
    def utility_scale(self) -> int:
        """The least common multiple of the denominators of the non-zero
        utilities (a zero's is 1), computed once per instance: scaled by
        it, all are integers."""
        return math.lcm(*{u.denominator for row in self.utilities for u in row})

    @cached_property
    def scaled_utilities(self) -> tuple[tuple[int, ...], ...]:
        """Each voter's utilities times ``utility_scale``."""
        scale = self.utility_scale
        return tuple(
            tuple([u.numerator * (scale // u.denominator) for u in row])
            for row in self.utilities
        )

    @cached_property
    def setting(self) -> Setting:
        """The most specific setting tag, computed once per instance."""
        binary = self.utility_scale == 1 and all(
            u <= 1 for row in self.scaled_utilities for u in row
        )
        unit = all(c == self.cost_scale for c in self.scaled_costs)
        if binary and unit:
            return Setting.COMMITTEE
        if binary:
            return Setting.BINARY
        if has_cost_utilities(self):
            return Setting.COST
        if unit:
            return Setting.UNIT_COST
        return Setting.GENERAL

    @cached_property
    def approval_masks(self) -> tuple[int, ...]:
        """Each voter's approval set as a bitmask over project indices.
        Utilities are validated non-negative, so u_ij > 0 is a truth test."""
        return tuple(
            sum(1 << j for j, u in enumerate(row) if u)
            for row in self.utilities
        )

    @cached_property
    def approver_masks(self) -> tuple[int, ...]:
        """Each project's approvers (u_ij > 0) as a bitmask over voter
        indices: the transpose of ``approval_masks``."""
        masks = [0] * self.m
        for i, mask in enumerate(self.approval_masks):
            for j in members(mask):
                masks[j] |= 1 << i
        return tuple(masks)

    @cached_property
    def unanimous_cells(self) -> tuple[tuple[int, ...], ...]:
        """The maximal groups of voters with identical utility vectors,
        sorted, computed once per instance."""
        groups: dict[tuple, list[int]] = {}
        for i, row in enumerate(self.scaled_utilities):
            groups.setdefault(row, []).append(i)
        return tuple(sorted(tuple(v) for v in groups.values()))

    @cached_property
    def approval_count_lanes(
        self,
    ) -> tuple[int, tuple[tuple[int, list[int]], ...], int]:
        """``(width, tables, high)``: each voter's count of approved
        projects in a project mask X on packed lanes of ``width`` bits.
        Summing ``table[X >> first & 0xFF]`` over ``(first, table)`` in
        ``tables`` puts |A_i ∩ X| in lane i; ``high`` holds each lane's
        top bit. Lanes hold any count up to m, and a won_i up to m for FJR's
        bias, below their top bit, so no lane carries into the next."""
        width = (self.m + 1).bit_length() + 1
        lane = [
            sum(1 << i * width for i in members(approvers))
            for approvers in self.approver_masks
        ]
        tables = []
        for first in range(0, self.m, 8):
            table = [0]
            for byte in range(1, 1 << min(8, self.m - first)):
                low = byte & -byte
                table.append(table[byte ^ low] + lane[first + low.bit_length() - 1])
            tables.append((first, table))
        high = sum(1 << width - 1 << i * width for i in range(self.n))
        return width, tuple(tables), high

    def subsets(
        self, pool: Iterable[int], ceiling: Optional[Fraction] = None
    ) -> Iterator[tuple[int, ...]]:
        """The non-empty subsets of ``pool`` that cost at most ``ceiling``
        (any cost when None), in ``subset_walk`` order.

        The walk sums the integer ``scaled_costs``. A prefix over the
        ceiling is dropped with all its extensions, none of which can fit
        because costs are non-negative.
        """
        cost = self.scaled_costs
        cap = None if ceiling is None else math.floor(ceiling * self.cost_scale)

        def extend(total: int, j: int) -> Optional[int]:
            total += cost[j]
            return total if cap is None or total <= cap else None

        return (chosen for chosen, _ in subset_walk(pool, 0, extend))

    def project_index(self, pid: str) -> int:
        try:
            return self.project_ids.index(pid)
        except ValueError:
            raise ValidationError(f"unknown project id: {pid!r}") from None

    def sorted_ids(self, projects: Iterable[int]) -> list[str]:
        """The ids of ``projects``, sorted: how reports name an outcome."""
        return sorted(self.project_ids[j] for j in projects)

    def share_map(self, shares: Iterable[Fraction]) -> dict[str, str]:
        """{project id: rational-string} of one value per project, in
        index order: how reports write marginals."""
        return {
            pid: rational_str(s) for pid, s in zip(self.project_ids, shares)
        }


def members(mask: int) -> tuple[int, ...]:
    """The indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def subset_walk(
    pool: Iterable[int],
    root: Any,
    extend: Callable[[Any, int], Any],
) -> Iterator[tuple[tuple[int, ...], Any]]:
    """The non-empty subsets of ``pool`` with one value each, by size, then
    lexicographically in pool order.

    A subset's value is ``extend(value of its prefix, last element)``,
    starting from ``root`` for the empty prefix; a None value drops the
    subset with all its extensions. The subsets of one size are held in
    memory while the next is built.
    """
    pool = tuple(pool)
    # (subset, its value, the pool position its extensions start at)
    level = [((), root, 0)]
    while level:
        grown = []
        for chosen, value, start in level:
            for k in range(start, len(pool)):
                grown_value = extend(value, pool[k])
                if grown_value is not None:
                    grown.append((chosen + (pool[k],), grown_value, k + 1))
        yield from ((chosen, value) for chosen, value, _ in grown)
        level = grown


@dataclass(frozen=True)
class IntegralOutcome:
    """A funded project subset W."""

    projects: frozenset[int]

    def __init__(self, projects: Iterable[int]) -> None:
        object.__setattr__(self, "projects", frozenset(projects))

    def cost(self, instance: PBInstance) -> Fraction:
        return instance.total_cost(self.projects)


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

    @cached_property
    def scaled_shares(self) -> tuple[int, tuple[int, ...]]:
        """p on its least common denominator q: ``(q, numerators)``."""
        q = math.lcm(*(s.denominator for s in self.shares))
        return q, tuple([s.numerator * (q // s.denominator) for s in self.shares])

    def scaled_for(self, instance: PBInstance) -> tuple[int, tuple[int, ...]]:
        """``scaled_shares``, once p has one share per project."""
        if len(self.shares) != instance.m:
            raise ValidationError("fractional outcome has wrong length")
        return self.scaled_shares

    def cost(self, instance: PBInstance) -> Fraction:
        q, shares = self.scaled_for(instance)
        total = sum(map(operator.mul, instance.scaled_costs, shares))
        return Fraction(total, q * instance.cost_scale)

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
            spent = sum((x for x in self.y[i] if x), _ZERO)
            if spent > share:
                raise ValidationError(f"voter {i} spends {spent} > B/n")
            if self.b[i] != share - spent:
                raise ValidationError(f"voter {i} remaining budget inconsistent")
            if self.b[i] < 0:
                raise ValidationError(f"voter {i} negative remaining budget")
        for j, column in enumerate(zip(*self.y)):
            total = sum((x for x in column if x), _ZERO)
            if total > instance.cost[j]:
                raise ValidationError(f"project {j} overpaid: {total}")


def has_cost_utilities(instance: PBInstance) -> bool:
    """True iff every utility is 0 or the project's cost: on the scaled
    values, U_ij·cost_scale == C_j·utility_scale.

    Not a ``setting`` test: ``setting`` names only the most specific tag,
    and a unit-cost binary instance is ``Setting.COMMITTEE`` while it also
    has cost utilities, which EJR-x reads."""
    cost, u_scale = instance.scaled_costs, instance.utility_scale
    c_scale = instance.cost_scale
    return all(
        row[j] * c_scale == cost[j] * u_scale
        for row, mask in zip(instance.scaled_utilities, instance.approval_masks)
        for j in members(mask)
    )


def utility(
    instance: PBInstance,
    voter: int,
    target: Union[IntegralOutcome, FractionalOutcome],
) -> Fraction:
    """Additive utility of a voter for an integral or fractional outcome,
    summed on the integer ``scaled_utilities`` (and p's ``scaled_for``,
    which checks its length) into one `Fraction`."""
    row, scale = instance.scaled_utilities[voter], instance.utility_scale
    if isinstance(target, IntegralOutcome):
        return Fraction(sum(row[j] for j in target.projects), scale)
    q, shares = target.scaled_for(instance)
    return Fraction(sum(map(operator.mul, row, shares)), q * scale)


def marginals(m: int, weighted: Iterable[tuple[Any, IntegralOutcome]]) -> tuple:
    """Each of the m projects' total weight over the ``(weight, outcome)``
    pairs that fund it: a lottery's marginals from its support, or sample
    counts per project from ``(count, outcome)``. Sums keep the weights'
    type; a project no outcome funds gets 0."""
    totals = [0] * m
    for weight, outcome in weighted:
        for j in outcome.projects:
            totals[j] += weight
    return tuple(totals)


def implements(instance: PBInstance, lottery: Lottery, p: FractionalOutcome) -> bool:
    """True iff the lottery's per-project marginals equal p exactly."""
    return marginals(instance.m, lottery.support) == p.shares


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
        except (RecursionError, ValueError) as exc:
            raise ValidationError(f"malformed JSON: {exc}") from None
    else:
        data = document
    if not isinstance(data, Mapping):
        raise ValidationError("instance document must be a JSON object")
    parsed: dict[str, Fraction] = {}

    def rational(text: Any, field: str) -> Fraction:
        """``parse_rational``, once per distinct string of the document."""
        value = parsed.get(text) if isinstance(text, str) else None
        if value is None:
            value = parsed[text] = parse_rational(text, field)
        return value

    try:
        budget = rational(data["budget"], "budget")
    except KeyError:
        raise ValidationError("missing field: budget") from None

    entries = []
    for entry in _entries(data, "projects"):
        pid = entry.get("id")
        if not isinstance(pid, str):
            raise ValidationError("projects[].id: missing or not a string")
        entries.append((pid, rational(entry.get("cost"), f"cost[{pid}]")))
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
        row = [_ZERO] * len(project_ids)
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
            row[index_of[pid]] = rational(text, f"utilities[{vid}][{pid}]")
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
    """Canonical JSON: ``json.dumps(instance_to_dict(instance),
    sort_keys=True, indent=2)``, written directly for this fixed schema.

    Ids are quoted by ``json``'s own ASCII string encoder, and each voter's
    utilities are keyed by project id in sorted order, as ``sort_keys``
    does; rational-strings need no escapes."""
    ids = instance.project_ids
    projects = [
        f'    {{\n      "cost": "{rational_str(c)}",\n'
        f'      "id": {_quote(pid)}\n    }}'
        for pid, c in zip(ids, instance.cost)
    ]
    voters = []
    for vid, row, mask in zip(
        instance.voter_ids, instance.utilities, instance.approval_masks
    ):
        # A dict first, so a repeated project id keeps its last value.
        named = sorted({ids[j]: j for j in members(mask)}.items())
        utilities = _indented(
            [f'        {_quote(pid)}: "{rational_str(row[j])}"' for pid, j in named],
            "{}", "      ",
        )
        voters.append(
            f'    {{\n      "id": {_quote(vid)},\n'
            f'      "utilities": {utilities}\n    }}'
        )
    return (
        f'{{\n  "budget": "{rational_str(instance.budget)}",\n'
        f'  "projects": {_indented(projects, "[]", "  ")},\n'
        f'  "voters": {_indented(voters, "[]", "  ")}\n}}'
    )


def _indented(items: list[str], brackets: str, indent: str) -> str:
    """A JSON container of the already indented ``items``, closed at
    ``indent``, as ``json.dumps`` with ``indent=2`` writes it."""
    if not items:
        return brackets
    return f"{brackets[0]}\n" + ",\n".join(items) + f"\n{indent}{brackets[1]}"
