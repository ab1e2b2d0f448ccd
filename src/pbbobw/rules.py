"""PB rules: fractional random dictator, greedy cohesive rule, method of
equal shares, and the two randomized best-of-both-worlds algorithms that
combine a deterministic core outcome with dependent rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .exante import unanimous_partition
from .expost import (
    SettingError,
    cohesive_groups,
    fjr_search,
    require_binary,
    within_budget,
)
from .model import (
    FractionalOutcome,
    IntegralOutcome,
    PaymentMatrix,
    PBInstance,
    Setting,
    classify,
    members,
)
from .rounding import RoundingSampler


class InvariantViolation(RuntimeError):
    """A runtime check of a claimed algorithm invariant failed.

    Raised instead of silently repairing state: any occurrence is a
    reproducible counterexample to a property the algorithms rely on.
    """


# ---------------------------------------------------------------------------
# Fractional Random Dictator


def fractional_random_dictator(instance: PBInstance) -> FractionalOutcome:
    """Average of each voter's optimal fractional outcome, weight 1/n."""
    shares = [Fraction(0)] * instance.m
    for best in instance.optimal_outcomes:
        shares = [s + x for s, x in zip(shares, best)]
    p = FractionalOutcome(s / instance.n for s in shares)
    if not p.is_feasible(instance):
        raise InvariantViolation("random dictator outcome is not feasible")
    return p


# ---------------------------------------------------------------------------
# Greedy Cohesive Rule


@dataclass(frozen=True)
class GCRStep:
    beta: int
    projects: tuple[int, ...]
    voters: tuple[int, ...]


@dataclass(frozen=True)
class GCRTrace:
    steps: tuple[GCRStep, ...]
    outcome: IntegralOutcome

    def to_dict(self, instance: PBInstance) -> dict:
        return {
            "steps": [
                {
                    "beta": s.beta,
                    "projects": [instance.project_ids[j] for j in s.projects],
                    "voters": [instance.voter_ids[i] for i in s.voters],
                }
                for s in self.steps
            ],
            "outcome": instance.sorted_ids(self.outcome.projects),
        }


def gcr(instance: PBInstance, limit: Optional[int] = None) -> GCRTrace:
    """Greedy cohesive rule: exhaustive weakly-cohesive group selection.

    Each step takes the candidate of `expost.fjr_search` over the
    within-budget sets of unchosen projects with the largest beta, then
    smallest cost(T), then largest group, then lexicographically first T.
    Active voters win 0 in the search, so a group for (T, beta) is the
    active voters approving at least beta projects of T; chosen voters
    win m, so they are served and join no later group.
    """
    require_binary(instance, "gcr")
    won = [0] * instance.n
    chosen: set[int] = set()
    steps: list[GCRStep] = []
    while True:
        remaining = [j for j in range(instance.m) if j not in chosen]
        reach, rule = fjr_search(instance, won)
        groups = within_budget(instance, remaining, limit, "GCR search", reach)
        best = min(
            cohesive_groups(instance, groups, rule),
            key=lambda c: (-c[3]["beta"], c[1], -c[2].bit_count(), c[0]),
            default=None,
        )
        if best is None:
            break
        group, _, mask, fields = best
        voters = members(mask)
        steps.append(GCRStep(fields["beta"], group, voters))
        chosen.update(group)
        for i in voters:
            won[i] = instance.m
    return GCRTrace(steps=tuple(steps), outcome=IntegralOutcome(chosen))


# ---------------------------------------------------------------------------
# Method of Equal Shares


@dataclass(frozen=True)
class MESResult:
    outcome: IntegralOutcome
    payments: PaymentMatrix
    rho: tuple[tuple[int, Fraction], ...]  # selection order


def _min_rho(
    instance: PBInstance, j: int, budgets: list[Fraction]
) -> Optional[Fraction]:
    """Smallest rho at which project j is rho-affordable, or None.

    Solves sum_i min(b_i, u_ij * rho) = cost(j) on the correct segment of
    the piecewise-linear, non-decreasing left-hand side. Only j's
    approvers with budget left pay, so only they are read.
    """
    cost, utilities = instance.cost[j], instance.utilities
    supporters = [
        (budgets[i] / utilities[i][j], budgets[i], utilities[i][j])
        for i in members(instance.approver_masks[j])
        if budgets[i]
    ]
    saturation = sum((b for _, b, _ in supporters), Fraction(0))
    if saturation < cost:
        return None
    if saturation == cost:
        return max(t for t, _, _ in supporters) if supporters else Fraction(0)
    supporters.sort()
    paid = Fraction(0)
    slope = sum((u for _, _, u in supporters), Fraction(0))
    for k, (threshold, b, u) in enumerate(supporters):
        candidate = (cost - paid) / slope
        if candidate <= threshold:
            return candidate
        paid += b
        slope -= u
    raise AssertionError("unreachable: saturation exceeds cost")


def mes(instance: PBInstance) -> MESResult:
    """Method of equal shares with exact rational rho computation.

    A project's rho depends only on its approvers' budgets, so it is
    computed again only after one of them paid for the last selection."""
    n = instance.n
    share = instance.budget / n
    budgets = [share] * n
    y = [[Fraction(0)] * instance.m for _ in range(n)]
    chosen: set[int] = set()
    rho_log: list[tuple[int, Fraction]] = []
    rhos: dict[int, Optional[Fraction]] = {}
    payers = 0  # bitmask of the voters who paid in the last round
    while True:
        best: Optional[tuple[Fraction, int]] = None
        for j in range(instance.m):
            if j in chosen:
                continue
            if not instance.cost[j]:
                rho = Fraction(0)
            else:
                if j not in rhos or instance.approver_masks[j] & payers:
                    rhos[j] = _min_rho(instance, j, budgets)
                rho = rhos[j]
                if rho is None:
                    continue
            # j ascends, so a tie keeps the lower index.
            if best is None or rho < best[0]:
                best = (rho, j)
        if best is None:
            break
        rho, j = best
        payers = 0
        for i in members(instance.approver_masks[j]):
            pay = min(budgets[i], instance.utilities[i][j] * rho)
            if pay:
                y[i][j] = pay
                budgets[i] -= pay
                payers |= 1 << i
        chosen.add(j)
        rho_log.append((j, rho))
    payments = PaymentMatrix(
        y=tuple(tuple(row) for row in y), b=tuple(budgets)
    )
    payments.validate(instance)
    outcome = IntegralOutcome(chosen)
    paid = payments.paid(instance.m)
    for j in chosen:
        if paid[j] != instance.cost[j]:
            raise InvariantViolation(f"MES payments for project {j} miss cost")
    return MESResult(outcome=outcome, payments=payments, rho=tuple(rho_log))


# ---------------------------------------------------------------------------
# Group ladders (BW-GCR's per-cell optimum)


@dataclass(frozen=True)
class GroupLadder:
    """A unanimous cell's affordable approval prefix under |S| * B / n."""

    cell: tuple[int, ...]
    projects: tuple[int, ...]
    next_project: Optional[int]
    delta: Fraction

    @property
    def kappa(self) -> int:
        return len(self.projects)


def _cheapest_first(instance: PBInstance, voter: int) -> tuple[int, ...]:
    """A binary voter's approved projects by (cost, index): with 0/1
    utilities, the approved prefix of the voter's greedy order."""
    order = instance.greedy_orders[voter]
    return order[:instance.approval_masks[voter].bit_count()]


def group_ladder(instance: PBInstance, cell: tuple[int, ...]) -> GroupLadder:
    """The cell's optimal fractional outcome under |S| * B / n, read as a
    ladder: the approved projects it funds fully, cheapest first, then the
    first approved project it does not, with that project's share. For
    binary utilities only, where the optimum funds the approved projects
    cheapest first."""
    require_binary(instance, "group_ladder")
    shares = instance.optimal_outcome(
        cell[0], len(cell) * instance.budget / instance.n
    )
    approved = _cheapest_first(instance, cell[0])
    projects = tuple(j for j in approved if shares[j] == 1)
    nxt = next((j for j in approved if shares[j] < 1), None)
    delta = Fraction(0) if nxt is None else shares[nxt]
    return GroupLadder(
        cell=tuple(cell), projects=projects, next_project=nxt, delta=delta
    )


# ---------------------------------------------------------------------------
# BW-GCR


@dataclass(frozen=True)
class BWGCRResult:
    fractional: FractionalOutcome
    outcome: IntegralOutcome
    trace: GCRTrace
    budgets: tuple[Fraction, ...]


def bw_gcr(instance: PBInstance, seed: int, limit: Optional[int] = None) -> BWGCRResult:
    """Greedy cohesive core plus group top-ups, rounded to a BB1 outcome."""
    trace = gcr(instance, limit)
    core = trace.outcome.projects
    shares = [
        Fraction(1) if j in core else Fraction(0) for j in range(instance.m)
    ]
    budgets = [Fraction(0)] * instance.n

    def spend(order, money: Fraction) -> Fraction:
        """Raise shares toward 1 along `order` until `money` is spent;
        returns what is left."""
        for j in order:
            if money == 0:
                break
            if instance.cost[j] == 0:
                continue
            add = min(1 - shares[j], money / instance.cost[j])
            shares[j] += add
            money -= add * instance.cost[j]
        return money

    cells = unanimous_partition(instance).cells
    ladders = {cell: group_ladder(instance, cell) for cell in cells}
    qualifying: set[tuple[int, ...]] = set()
    for cell in cells:
        ladder = ladders[cell]
        approved = instance.approval_set(cell[0])
        if len(approved & core) != len(ladder.projects):
            continue
        qualifying.add(cell)
        group_budget = (
            len(cell) * instance.budget / instance.n
            - instance.total_cost(ladder.projects)
        )
        per_voter = group_budget / len(cell)
        for i in cell:
            budgets[i] = per_voter
        # Spend on the cheapest approved project, capped at p_c = 1;
        # overflow continues to the next cheapest, residue joins the fill.
        spend(_cheapest_first(instance, cell[0]), group_budget)

    leftover = instance.budget - instance.total_cost(core)
    total_budget = sum(budgets, Fraction(0))
    if total_budget > leftover:
        raise InvariantViolation(
            f"group budgets {total_budget} exceed leftover {leftover}"
        )
    voter_step = {}
    for step_index, step in enumerate(trace.steps):
        for i in step.voters:
            voter_step[i] = step_index
    for cell in qualifying:
        steps_of_cell = {voter_step.get(i) for i in cell}
        if len(steps_of_cell) == 1 and None not in steps_of_cell:
            step = trace.steps[steps_of_cell.pop()]
            cost_t = instance.total_cost(step.projects)
            cost_g = instance.total_cost(ladders[cell].projects)
            if cost_t > cost_g:
                raise InvariantViolation(
                    "cohesive step cost exceeds qualifying cell's ladder cost"
                )

    # Fill: raise shares toward 1 in index order until cost(p) = B.
    needed = instance.budget - sum(
        (s * c for s, c in zip(shares, instance.cost)), Fraction(0)
    )
    if spend(range(instance.m), needed) != 0:
        raise InvariantViolation("fill step could not reach the budget")

    p = FractionalOutcome(shares)
    outcome = RoundingSampler(instance, p).sample(seed)
    if not core <= outcome.projects:
        raise InvariantViolation("sampled outcome lost a core project")
    return BWGCRResult(
        fractional=p,
        outcome=outcome,
        trace=trace,
        budgets=tuple(budgets),
    )


# ---------------------------------------------------------------------------
# BW-MES


@dataclass(frozen=True)
class BWMESResult:
    fractional: FractionalOutcome
    outcome: IntegralOutcome
    mes: MESResult
    payments: PaymentMatrix  # full spend, including the post-MES phase


def bw_mes(instance: PBInstance, seed: int) -> BWMESResult:
    """Method-of-equal-shares core plus budget exhaustion, rounded to BB1."""
    if classify(instance) not in (Setting.BINARY, Setting.COMMITTEE, Setting.COST):
        raise SettingError("bw_mes requires binary or cost utilities")
    result = mes(instance)
    core = result.outcome.projects
    n = instance.n
    y = [list(row) for row in result.payments.y]
    budgets = list(result.payments.b)
    paid = result.payments.paid(instance.m)

    for i in range(n):
        unfunded = instance.approval_set(i) - core
        if not unfunded or budgets[i] == 0:
            continue
        kappa = min(unfunded, key=lambda j: (instance.cost[j], j))
        y[i][kappa] += budgets[i]
        paid[kappa] += budgets[i]
        budgets[i] = Fraction(0)
        if paid[kappa] > instance.cost[kappa]:
            raise InvariantViolation(
                f"spend on project {kappa} exceeds its cost"
            )
    for i in range(n):
        if budgets[i] == 0:
            continue
        if instance.approval_set(i) - core:
            continue
        for j in range(instance.m):
            if budgets[i] == 0:
                break
            room = instance.cost[j] - paid[j]
            if room <= 0:
                continue
            amount = min(budgets[i], room)
            y[i][j] += amount
            paid[j] += amount
            budgets[i] -= amount
        if budgets[i] != 0:
            raise InvariantViolation(f"voter {i} could not exhaust their budget")

    shares = []
    for j in range(instance.m):
        if instance.cost[j] == 0:
            shares.append(Fraction(1) if j in core else Fraction(0))
            continue
        share = paid[j] / instance.cost[j]
        if share > 1:
            raise InvariantViolation(f"project {j} funded beyond 1")
        shares.append(share)
    p = FractionalOutcome(shares)
    if not p.is_feasible(instance):
        raise InvariantViolation("post-MES fractional outcome infeasible")
    for j in core:
        if p.shares[j] != 1:
            raise InvariantViolation("core project lost full funding")

    payments = PaymentMatrix(
        y=tuple(tuple(row) for row in y), b=tuple(budgets)
    )
    payments.validate(instance)
    outcome = RoundingSampler(instance, p).sample(seed)
    if not core <= outcome.projects:
        raise InvariantViolation("sampled outcome lost a core project")
    return BWMESResult(
        fractional=p,
        outcome=outcome,
        mes=result,
        payments=payments,
    )
