"""PB rules: fractional random dictator, greedy cohesive rule, method of
equal shares, and the two randomized best-of-both-worlds algorithms that
combine a deterministic core outcome with dependent rounding.

MES counts money in integers of 1/q on the instance's scaled costs and
utilities. q starts as the lcm of the denominators of B/n and the costs,
and each selection multiplies it by the least factor that makes its
payments whole; ρ is an integer pair compared by cross-multiplication.
Both BW rules complete their core on these integers (BW-GCR on MES's
starting q) with one spend routine and one hand-off to rounding, whose
sampler the result carries. ρ, the payments, budgets and p become
fractions once, for the result types.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional

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
    ValidationError,
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
    """Average of each voter's optimal fractional outcome at B, weight
    1/n: the voter's ``optimal_spends`` entry (k, left, c) adds 1 to the
    first k projects of its greedy order and left/c to the next."""
    m = instance.m
    shares = [0] * m
    for order, (k, left, c) in zip(instance.greedy_orders, instance.optimal_spends):
        for j in order[:k]:
            shares[j] += 1
        if k < m:
            shares[order[k]] += Fraction(left, c)
    p = FractionalOutcome(Fraction(s, instance.n) for s in shares)
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
    instance: PBInstance, j: int, budgets: list[int], q: int
) -> Optional[tuple[int, int]]:
    """Smallest rho at which project j is rho-affordable, or None.

    Money is counted in integers of 1/q: the ``budgets`` b_i and the cost
    C_j = cost(j)·q, with q a multiple of ``cost_scale``. rho is returned
    as the pair (num, den) at which each approver pays min(b_i,
    U_ij·num/den) on the scaled utilities U, so rho =
    num·utility_scale/(q·den). It solves sum_i min(b_i, U_ij·num/den) =
    C_j on the correct segment of the
    piecewise-linear, non-decreasing left-hand side, which the approvers
    leave in order of b_i/U_ij, compared by cross-multiplication. Only j's
    approvers with budget left pay, so only they are read.
    """
    cost = instance.scaled_costs[j] * (q // instance.cost_scale)
    utilities = instance.scaled_utilities
    supporters = [
        (budgets[i], utilities[i][j])
        for i in members(instance.approver_masks[j])
        if budgets[i]
    ]
    saturation = sum(b for b, _ in supporters)
    if saturation < cost:
        return None
    if not supporters:
        return 0, 1
    # b_i/U_ij orders as the integer b_i·(L/U_ij), L the lcm of the U_ij.
    common = math.lcm(*(u for _, u in supporters))
    supporters = sorted((b * (common // u), b, u) for b, u in supporters)
    if saturation == cost:
        # Everyone pays all they have: rho is the largest b_i/U_ij.
        _, b, u = supporters[-1]
        return b, u
    paid, slope = 0, sum(u for _, _, u in supporters)
    for _, b, u in supporters:
        left = cost - paid
        if left * u <= b * slope:
            return left, slope
        paid += b
        slope -= u
    raise AssertionError("unreachable: saturation exceeds cost")


def _voter_money(instance: PBInstance) -> tuple[int, int]:
    """MES's starting q, the lcm of the denominators of B/n and
    ``cost_scale``, and B/n in integers of 1/q."""
    share = instance.budget / instance.n
    q = math.lcm(share.denominator, instance.cost_scale)
    return q, share.numerator * (q // share.denominator)


def _equal_shares(
    instance: PBInstance,
) -> tuple[int, list[list[int]], list[int], list[tuple[int, Fraction]]]:
    """MES on integers: ``(q, y, b, rho)``, the payments y and the budgets
    left b in integers of 1/q, and the selection order with each rho.

    q starts as the lcm of the denominators of B/n and ``cost_scale``. A
    selection at rho = (num, den) of ``_min_rho`` makes each approver who
    is not drained pay U_ij·num/den; before it pays, q, every budget and
    every cached rho grow by the least s with every such payment whole, a
    divisor of den. A project's rho depends only on its approvers' budgets,
    so it is computed again only after one of them paid for the last
    selection."""
    n, m = instance.n, instance.m
    cost, utilities = instance.scaled_costs, instance.scaled_utilities
    approvers = instance.approver_masks
    q, money = _voter_money(instance)
    budgets = [money] * n
    chosen: set[int] = set()
    log: list[tuple[int, int, int, int, list[tuple[int, int]]]] = []
    rhos: dict[int, Optional[tuple[int, int]]] = {}
    payers = 0  # bitmask of the voters who paid in the last round
    while True:
        best: Optional[tuple[int, int, int]] = None
        for j in range(m):
            if j in chosen:
                continue
            if not cost[j]:
                rho = (0, 1)
            else:
                if j not in rhos or approvers[j] & payers:
                    rhos[j] = _min_rho(instance, j, budgets, q)
                rho = rhos[j]
                if rho is None:
                    continue
            # j ascends, so a tie keeps the lower index.
            if best is None or rho[0] * best[2] < best[1] * rho[1]:
                best = (j, *rho)
        if best is None:
            break
        j, num, den = best
        paying = [i for i in members(approvers[j]) if budgets[i]] if cost[j] else []
        common = 0
        for i in paying:
            u = utilities[i][j]
            if budgets[i] * den > u * num:
                common = math.gcd(common, u)
        grow = den // math.gcd(den, num * common)
        if grow > 1:
            q *= grow
            num *= grow
            budgets = [b * grow for b in budgets]
            rhos = {
                k: None if rho is None else (rho[0] * grow, rho[1])
                for k, rho in rhos.items()
            }
        payments = []
        for i in paying:
            pay = min(budgets[i], utilities[i][j] * num // den)
            payments.append((i, pay))
            budgets[i] -= pay
        payers = sum(1 << i for i in paying)
        if sum(pay for _, pay in payments) != cost[j] * (q // instance.cost_scale):
            raise InvariantViolation(f"MES payments for project {j} miss cost")
        chosen.add(j)
        log.append((j, num, den, q, payments))
    rows = [[0] * m for _ in range(n)]
    for j, _, _, at, payments in log:
        for i, pay in payments:
            rows[i][j] = pay * (q // at)
    u_scale = instance.utility_scale
    rho_log = [(j, Fraction(num * u_scale, at * den)) for j, num, den, at, _ in log]
    return q, rows, budgets, rho_log


def _payment_matrix(
    instance: PBInstance, q: int, y: list[list[int]], b: list[int]
) -> PaymentMatrix:
    """y and b, in integers of 1/q, as a ``PaymentMatrix`` of fractions,
    after the checks of ``PaymentMatrix.validate`` on the integers."""
    share = int(instance.budget * q / instance.n)
    for i, row in enumerate(y):
        spent = sum(row)
        if spent > share:
            raise ValidationError(f"voter {i} spends {Fraction(spent, q)} > B/n")
        if b[i] != share - spent:
            raise ValidationError(f"voter {i} remaining budget inconsistent")
        if b[i] < 0:
            raise ValidationError(f"voter {i} negative remaining budget")
    up = q // instance.cost_scale
    for j, total in enumerate(map(sum, zip(*y))):
        if total > instance.scaled_costs[j] * up:
            raise ValidationError(f"project {j} overpaid: {Fraction(total, q)}")
    zero = Fraction(0)
    return PaymentMatrix(
        y=tuple(tuple(Fraction(x, q) if x else zero for x in row) for row in y),
        b=tuple(Fraction(x, q) for x in b),
    )


def _mes_result(
    instance: PBInstance,
    q: int,
    y: list[list[int]],
    b: list[int],
    rho: list[tuple[int, Fraction]],
) -> MESResult:
    return MESResult(
        outcome=IntegralOutcome(j for j, _ in rho),
        payments=_payment_matrix(instance, q, y, b),
        rho=tuple(rho),
    )


def mes(instance: PBInstance) -> MESResult:
    """Method of equal shares with exact rho, computed on integers
    (``_equal_shares``)."""
    return _mes_result(instance, *_equal_shares(instance))


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
    cheapest first, so the ladder is the ``greedy_spend`` prefix cut at
    the approval count."""
    require_binary(instance, "group_ladder")
    k, left, c = instance.greedy_spend(
        cell[0], len(cell) * instance.budget / instance.n
    )
    approved = _cheapest_first(instance, cell[0])
    nxt = approved[k] if k < len(approved) else None
    delta = Fraction(0) if nxt is None else Fraction(left, c)
    return GroupLadder(
        cell=tuple(cell), projects=approved[:k], next_project=nxt, delta=delta
    )


# ---------------------------------------------------------------------------
# Completion: both BW rules spend on integers of 1/q, then round


def _spend(
    paid: list[int], cost: list[int], order: Iterable[int], money: int,
    row: Optional[list[int]] = None,
) -> int:
    """Raise ``paid[j]`` toward ``cost[j]`` along ``order`` until ``money``
    is spent, adding each amount to ``row[j]`` when a row is given;
    returns the money left."""
    for j in order:
        if not money:
            break
        add = min(cost[j] - paid[j], money)
        paid[j] += add
        money -= add
        if row is not None:
            row[j] += add
    return money


def _round_completion(
    instance: PBInstance, core: frozenset[int], up: int, cost: list[int],
    paid: list[int], seed: int,
) -> tuple[FractionalOutcome, RoundingSampler, IntegralOutcome]:
    """p = ``paid/cost``, both in integers of 1/q with q = up·cost_scale,
    and 1 or 0 for a zero-cost project in or out of the core; checked,
    then rounded by the one sampler the result carries."""
    shares = []
    for j, (x, c) in enumerate(zip(paid, cost)):
        if x > c:
            raise InvariantViolation(f"project {j} funded beyond 1")
        shares.append(Fraction(x, c) if c else Fraction(j in core))
    if sum(paid) != instance.scaled_budget * up:
        raise InvariantViolation("completed fractional outcome does not cost B")
    if any(paid[j] != cost[j] for j in core):
        raise InvariantViolation("core project lost full funding")
    p = FractionalOutcome(shares)
    sampler = RoundingSampler(instance, p)
    outcome = sampler.sample(seed)
    if not core <= outcome.projects:
        raise InvariantViolation("sampled outcome lost a core project")
    return p, sampler, outcome


# ---------------------------------------------------------------------------
# BW-GCR


@dataclass(frozen=True)
class BWGCRResult:
    fractional: FractionalOutcome
    outcome: IntegralOutcome
    trace: GCRTrace
    budgets: tuple[Fraction, ...]
    sampler: RoundingSampler = field(compare=False, repr=False)


def bw_gcr(instance: PBInstance, seed: int, limit: Optional[int] = None) -> BWGCRResult:
    """Greedy cohesive core plus group top-ups, rounded to a BB1 outcome.

    Money is counted in integers of 1/q on MES's starting q
    (``_voter_money``): a qualifying cell S has |S|·(B/n)·q −
    cost(ladder)·q to spend. The voters' budgets and p
    become fractions once, at the end."""
    trace = gcr(instance, limit)
    core = trace.outcome.projects
    core_mask = sum(1 << j for j in core)
    q, voter_money = _voter_money(instance)
    up = q // instance.cost_scale
    cost = [c * up for c in instance.scaled_costs]
    paid = [cost[j] if j in core else 0 for j in range(instance.m)]
    budgets = [Fraction(0)] * instance.n
    step_of = {i: step for step in trace.steps for i in step.voters}
    handed_out = 0
    for cell in instance.unanimous_cells:
        ladder = group_ladder(instance, cell)
        if (instance.approval_masks[cell[0]] & core_mask).bit_count() != ladder.kappa:
            continue
        ladder_cost = instance.scaled_total(ladder.projects)
        steps = {step_of.get(i) for i in cell}
        if len(steps) == 1 and None not in steps:
            if instance.scaled_total(steps.pop().projects) > ladder_cost:
                raise InvariantViolation(
                    "cohesive step cost exceeds qualifying cell's ladder cost"
                )
        money = len(cell) * voter_money - ladder_cost * up
        handed_out += money
        for i in cell:
            budgets[i] = Fraction(money, q * len(cell))
        # Spend on the cheapest approved project, capped at p_c = 1;
        # overflow continues to the next cheapest, residue joins the fill.
        _spend(paid, cost, _cheapest_first(instance, cell[0]), money)

    leftover = (instance.scaled_budget - instance.scaled_total(core)) * up
    if handed_out > leftover:
        raise InvariantViolation(
            f"group budgets {Fraction(handed_out, q)} exceed leftover "
            f"{Fraction(leftover, q)}"
        )
    # Fill: raise shares toward 1 in index order until cost(p) = B.
    needed = instance.scaled_budget * up - sum(paid)
    if _spend(paid, cost, range(instance.m), needed) != 0:
        raise InvariantViolation("fill step could not reach the budget")
    p, sampler, outcome = _round_completion(instance, core, up, cost, paid, seed)
    return BWGCRResult(
        fractional=p,
        outcome=outcome,
        trace=trace,
        budgets=tuple(budgets),
        sampler=sampler,
    )


# ---------------------------------------------------------------------------
# BW-MES


@dataclass(frozen=True)
class BWMESResult:
    fractional: FractionalOutcome
    outcome: IntegralOutcome
    mes: MESResult
    payments: PaymentMatrix  # full spend, including the post-MES phase
    sampler: RoundingSampler = field(compare=False, repr=False)


def bw_mes(instance: PBInstance, seed: int) -> BWMESResult:
    """Method-of-equal-shares core plus budget exhaustion, rounded to BB1.

    The leftover budgets are spent on MES's integers of 1/q; p and the
    payment matrix become fractions once, at the end."""
    if instance.setting not in (Setting.BINARY, Setting.COMMITTEE, Setting.COST):
        raise SettingError("bw_mes requires binary or cost utilities")
    q, y, budgets, rho = _equal_shares(instance)
    result = _mes_result(instance, q, y, budgets, rho)
    core = result.outcome.projects
    unfunded_mask = (1 << instance.m) - 1 - sum(1 << j for j in core)
    up = q // instance.cost_scale
    cost = [c * up for c in instance.scaled_costs]
    # MES paid each core project exactly and nothing else.
    paid = [cost[j] if j in core else 0 for j in range(instance.m)]

    for i, mask in enumerate(instance.approval_masks):
        unfunded = members(mask & unfunded_mask)
        if unfunded:
            kappa = min(unfunded, key=lambda j: (cost[j], j))
            if _spend(paid, cost, (kappa,), budgets[i], y[i]):
                raise InvariantViolation(f"spend on project {kappa} exceeds its cost")
            budgets[i] = 0
    # Whoever has budget left now approves no unfunded project.
    for i in range(instance.n):
        budgets[i] = _spend(paid, cost, range(instance.m), budgets[i], y[i])
        if budgets[i] != 0:
            raise InvariantViolation(f"voter {i} could not exhaust their budget")

    p, sampler, outcome = _round_completion(instance, core, up, cost, paid, seed)
    return BWMESResult(
        fractional=p,
        outcome=outcome,
        mes=result,
        payments=_payment_matrix(instance, q, y, budgets),
        sampler=sampler,
    )
