"""PB rules: fractional random dictator, greedy cohesive rule, method of
equal shares, and the two randomized best-of-both-worlds algorithms that
combine a deterministic core outcome with dependent rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional

from .exante import unanimous_partition
from .expost import SettingError
from .limits import ScaleError, project_limit
from .model import (
    FractionalOutcome,
    IntegralOutcome,
    PaymentMatrix,
    PBInstance,
    Setting,
    classify,
)
from .rounding import dependent_round


class InvariantViolation(RuntimeError):
    """A runtime check of a claimed algorithm invariant failed.

    Raised instead of silently repairing state: any occurrence is a
    reproducible counterexample to a property the algorithms rely on.
    """


# ---------------------------------------------------------------------------
# Fractional Random Dictator


def _ratio_order(instance: PBInstance, voter: int) -> list[int]:
    """Projects in descending utility-per-cost order for one voter.

    Zero-cost approved projects come first, ties break toward lower cost
    then lower index, and zero-utility projects are appended in index
    order (they pad the dictator's spend up to the full budget).
    """
    row = instance.utilities[voter]
    free = [j for j in range(instance.m) if row[j] > 0 and instance.cost[j] == 0]
    priced = [j for j in range(instance.m) if row[j] > 0 and instance.cost[j] > 0]
    priced.sort(key=lambda j: (-row[j] / instance.cost[j], instance.cost[j], j))
    padding = [j for j in range(instance.m) if row[j] == 0]
    return free + priced + padding


def fractional_random_dictator(instance: PBInstance) -> FractionalOutcome:
    """Average of each voter's optimal fractional outcome, weight 1/n."""
    shares = [Fraction(0)] * instance.m
    budget = instance.budget
    for i in range(instance.n):
        order = _ratio_order(instance, i)
        spent = Fraction(0)
        cut = len(order)
        for pos, j in enumerate(order):
            if spent + instance.cost[j] <= budget:
                spent += instance.cost[j]
                shares[j] += 1
            else:
                cut = pos
                break
        leftover = budget - spent
        if leftover > 0:
            g = order[cut]
            shares[g] += leftover / instance.cost[g]
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
            "outcome": sorted(instance.project_ids[j] for j in self.outcome.projects),
        }


def gcr(instance: PBInstance, limit: Optional[int] = None) -> GCRTrace:
    """Greedy cohesive rule: exhaustive weakly-cohesive group selection.

    Ties favour larger beta, then smaller cost(T), then larger group,
    then lexicographic T.
    """
    if classify(instance) not in (Setting.BINARY, Setting.COMMITTEE):
        raise SettingError("gcr requires binary utilities")
    if instance.m > project_limit(limit):
        raise ScaleError(f"GCR search over 2^{instance.m} project sets")
    approvals = [instance.approval_set(i) for i in range(instance.n)]
    active = set(range(instance.n))
    chosen: set[int] = set()
    steps: list[GCRStep] = []
    while True:
        remaining = [j for j in range(instance.m) if j not in chosen]
        best = None
        for size in range(1, len(remaining) + 1):
            for group in combinations(remaining, size):
                projects = frozenset(group)
                cost = instance.total_cost(projects)
                for beta in range(1, size + 1):
                    supporters = tuple(
                        i
                        for i in sorted(active)
                        if len(approvals[i] & projects) >= beta
                    )
                    if not supporters:
                        break
                    if len(supporters) * instance.budget < instance.n * cost:
                        continue
                    key = (-beta, cost, -len(supporters), group)
                    if best is None or key < best[0]:
                        best = (key, beta, group, supporters)
        if best is None:
            break
        _, beta, group, supporters = best
        steps.append(GCRStep(beta=beta, projects=group, voters=supporters))
        chosen.update(group)
        active.difference_update(supporters)
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
    the piecewise-linear, non-decreasing left-hand side.
    """
    cost = instance.cost[j]
    supporters = [
        (budgets[i] / instance.utilities[i][j], budgets[i], instance.utilities[i][j])
        for i in range(instance.n)
        if instance.utilities[i][j] > 0 and budgets[i] > 0
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
    """Method of equal shares with exact rational rho computation."""
    n = instance.n
    share = instance.budget / n
    budgets = [share] * n
    y = [[Fraction(0)] * instance.m for _ in range(n)]
    chosen: set[int] = set()
    rho_log: list[tuple[int, Fraction]] = []
    while True:
        best: Optional[tuple[Fraction, int]] = None
        for j in range(instance.m):
            if j in chosen:
                continue
            if instance.cost[j] == 0:
                rho = Fraction(0)
            else:
                rho = _min_rho(instance, j, budgets)
                if rho is None:
                    continue
            if best is None or (rho, j) < best:
                best = (rho, j)
        if best is None:
            break
        rho, j = best
        for i in range(n):
            pay = min(budgets[i], instance.utilities[i][j] * rho)
            if pay > 0:
                y[i][j] = pay
                budgets[i] -= pay
        chosen.add(j)
        rho_log.append((j, rho))
    payments = PaymentMatrix(
        y=tuple(tuple(row) for row in y), b=tuple(budgets)
    )
    payments.validate(instance)
    outcome = IntegralOutcome(chosen)
    for j in chosen:
        total = sum((y[i][j] for i in range(n)), Fraction(0))
        if total != instance.cost[j]:
            raise InvariantViolation(f"MES payments for project {j} miss cost")
    return MESResult(outcome=outcome, payments=payments, rho=tuple(rho_log))


# ---------------------------------------------------------------------------
# Group ladders (shared by both best-of-both-worlds algorithms)


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


def group_ladder(instance: PBInstance, cell: tuple[int, ...]) -> GroupLadder:
    group_budget = len(cell) * instance.budget / instance.n
    approved = sorted(
        instance.approval_set(cell[0]), key=lambda j: (instance.cost[j], j)
    )
    prefix: list[int] = []
    spent = Fraction(0)
    nxt = None
    for pos, j in enumerate(approved):
        if spent + instance.cost[j] <= group_budget:
            prefix.append(j)
            spent += instance.cost[j]
        else:
            nxt = j
            break
    delta = Fraction(0)
    if nxt is not None:
        delta = (group_budget - spent) / instance.cost[nxt]
        if delta >= 1:
            raise InvariantViolation("ladder fraction must be below 1")
    return GroupLadder(
        cell=tuple(cell), projects=tuple(prefix), next_project=nxt, delta=delta
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
        for j in sorted(approved, key=lambda j: (instance.cost[j], j)):
            if group_budget == 0:
                break
            if instance.cost[j] == 0:
                continue
            room = (1 - shares[j]) * instance.cost[j]
            amount = min(group_budget, room)
            shares[j] += amount / instance.cost[j]
            group_budget -= amount

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
    for j in range(instance.m):
        if needed == 0:
            break
        if instance.cost[j] == 0:
            continue
        add = min(1 - shares[j], needed / instance.cost[j])
        shares[j] += add
        needed -= add * instance.cost[j]
    if needed != 0:
        raise InvariantViolation("fill step could not reach the budget")

    p = FractionalOutcome(shares)
    outcome, _ = dependent_round(instance, p, seed)
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
    paid = [
        sum((y[i][j] for i in range(n)), Fraction(0)) for j in range(instance.m)
    ]

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
    outcome, _ = dependent_round(instance, p, seed)
    if not core <= outcome.projects:
        raise InvariantViolation("sampled outcome lost a core project")
    return BWMESResult(
        fractional=p,
        outcome=outcome,
        mes=result,
        payments=payments,
    )
