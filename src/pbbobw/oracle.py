"""The axiom registry and the brute-force oracles built on it.

``FRACTIONAL_AXIOMS`` and ``INTEGRAL_AXIOMS`` map each axiom name (and
alias) to one checker ``check(instance, target, limit)`` whose result has
``.holds`` and ``.to_dict(instance)``; ``verify``, ``run`` and the
oracle's outcome classes all read them. ``limit`` bounds every 2^m or 2^n
enumeration a checker runs (see ``limits``).

The oracles are reference procedures, exponential in the number of
projects (and, for group fairness rows, in the number of voters). They
decide exactly — via rational LP feasibility — whether a fractional
outcome can be written as a convex combination of integral outcomes from
a given class, or whether that class supports any lottery meeting a set
of linear constraints on the marginals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, Optional, Sequence

from .expost import (
    check_ejr_binary,
    check_ejrx_cost,
    check_fjr_binary,
    check_jr_binary,
    check_jr_general,
)
from .exante import (
    check_gfs,
    check_ifs,
    check_strong_ifs,
    check_strong_ufs,
    check_ufs,
    optimal_fractional_utility,
)
from .limits import ScaleError, exponential_limit, project_limit
from .lp import LinearConstraint, solve_feasibility
from .model import (
    FractionalOutcome,
    IntegralOutcome,
    Lottery,
    PBInstance,
    Setting,
    ValidationError,
    classify,
    implements,
    rational_str,
)
from .rounding import is_bb1, is_bfx


# ---------------------------------------------------------------------------
# Axiom registry

Check = Callable[[PBInstance, Any, Optional[int]], Any]


@dataclass(frozen=True)
class Verdict:
    """The result of an axiom that has no witness to report."""

    axiom: str
    holds: bool

    def to_dict(self, instance: PBInstance) -> dict:
        return {"axiom": self.axiom, "holds": self.holds}


def _no_limit(check: Callable[[PBInstance, Any], Any]) -> Check:
    """Give a checker that enumerates nothing the registry's signature."""

    def entry(instance: PBInstance, target, limit: Optional[int]):
        return check(instance, target)

    return entry


FRACTIONAL_AXIOMS: dict[str, Check] = {
    "ifs": _no_limit(check_ifs),
    "strong-ifs": _no_limit(check_strong_ifs),
    "sifs": _no_limit(check_strong_ifs),
    "ufs": _no_limit(check_ufs),
    "strong-ufs": _no_limit(check_strong_ufs),
    "sufs": _no_limit(check_strong_ufs),
    "gfs": check_gfs,
    "feasible": _no_limit(
        lambda instance, p: Verdict("feasible", p.is_feasible(instance))
    ),
}

INTEGRAL_AXIOMS: dict[str, Check] = {
    "jr": _no_limit(check_jr_binary),
    "jr-general": _no_limit(check_jr_general),
    "ejr": check_ejr_binary,
    "fjr": check_fjr_binary,
    "ejrx": check_ejrx_cost,
    "bb1": _no_limit(lambda instance, w: Verdict("bb1", is_bb1(instance, w))),
    "bfx": _no_limit(lambda instance, w: Verdict("bfx", is_bfx(instance, w))),
}


# ---------------------------------------------------------------------------
# Outcome predicates


@dataclass(frozen=True)
class OutcomePredicate:
    """A named class of integral outcomes: those that satisfy every
    ``INTEGRAL_AXIOMS`` entry named in ``axioms``.

    ``budget_capped`` marks classes that only admit within-budget
    outcomes, which lets the enumerator prune by running cost.
    """

    name: str
    budget_capped: bool
    axioms: tuple[str, ...] = ()

    def evaluate(
        self,
        instance: PBInstance,
        outcome: IntegralOutcome,
        limit: Optional[int] = None,
    ) -> bool:
        if self.budget_capped and outcome.cost(instance) > instance.budget:
            return False
        return all(
            INTEGRAL_AXIOMS[a](instance, outcome, limit).holds
            for a in self.axioms
        )

    def conjoin(self, other: "OutcomePredicate") -> "OutcomePredicate":
        return OutcomePredicate(
            name=f"{self.name}&{other.name}",
            budget_capped=self.budget_capped or other.budget_capped,
            axioms=self.axioms + other.axioms,
        )


# Class name -> (budget_capped, integral axioms). Proportionality classes
# are read as "fair uses of the budget": the within-budget cap is part of
# the class, not an extra filter.
OUTCOME_CLASSES: dict[str, tuple[bool, tuple[str, ...]]] = {
    "all": (False, ()),
    "within-budget": (True, ()),
    "bb1": (False, ("bb1",)),
    "bfx": (False, ("bfx",)),
    "jr-binary": (True, ("jr",)),
    "jr-general": (True, ("jr-general",)),
    "ejr-binary": (True, ("ejr",)),
    "fjr-binary": (True, ("fjr",)),
    "ejrx-cost": (True, ("ejrx",)),
}


def predicate(name: str) -> OutcomePredicate:
    """Look up a class in ``OUTCOME_CLASSES``; comma-joined names form a
    conjunction."""
    parts = [p.strip() for p in name.split(",") if p.strip()]
    if not parts:
        raise ValidationError("empty predicate name")
    result: Optional[OutcomePredicate] = None
    for part in parts:
        if part not in OUTCOME_CLASSES:
            raise ValidationError(f"unknown predicate {part!r}")
        nxt = OutcomePredicate(part, *OUTCOME_CLASSES[part])
        result = nxt if result is None else result.conjoin(nxt)
    assert result is not None
    return result


def enumerate_outcomes(
    instance: PBInstance,
    pred: OutcomePredicate,
    limit: Optional[int] = None,
) -> list[IntegralOutcome]:
    """All outcomes satisfying ``pred``, in lexicographic index order.

    Lexicographic on the sorted index tuple: () < (0,) < (0,1) < (1,).
    When the predicate is budget-capped the search prunes branches whose
    running cost already exceeds the budget. ``limit`` caps m and is
    passed on to the checks of ``pred``'s axioms.
    """
    m = instance.m
    cap = project_limit(limit)
    if m > cap:
        raise ScaleError(
            f"{m} projects exceeds enumeration limit {cap}"
        )
    ceiling = instance.budget if pred.budget_capped else None
    results: list[IntegralOutcome] = []
    chosen: list[int] = []

    def visit(cost_so_far: Fraction, start: int) -> None:
        outcome = IntegralOutcome(frozenset(chosen))
        if pred.evaluate(instance, outcome, limit):
            results.append(outcome)
        for j in range(start, m):
            nxt = cost_so_far + instance.cost[j]
            if ceiling is not None and nxt > ceiling:
                continue
            chosen.append(j)
            visit(nxt, j + 1)
            chosen.pop()

    visit(Fraction(0), 0)
    return results


# ---------------------------------------------------------------------------
# Implementability oracle


@dataclass(frozen=True)
class FeasibilityVerdict:
    feasible: bool
    certificate: Optional[Lottery]
    fractional: Optional[FractionalOutcome]
    note: str = ""

    def to_dict(self, instance: PBInstance) -> dict:
        out: dict = {"feasible": self.feasible, "note": self.note}
        if self.fractional is not None:
            out["fractional"] = {
                instance.project_ids[j]: rational_str(s)
                for j, s in enumerate(self.fractional.shares)
            }
        if self.certificate is not None:
            out["lottery"] = [
                {
                    "probability": rational_str(weight),
                    "outcome": sorted(
                        instance.project_ids[j] for j in outcome.projects
                    ),
                }
                for weight, outcome in self.certificate.support
            ]
        return out


def lottery_feasible(
    instance: PBInstance,
    pred: OutcomePredicate,
    fractional: Optional[FractionalOutcome] = None,
    extra: Sequence[LinearConstraint] = (),
    limit: Optional[int] = None,
) -> FeasibilityVerdict:
    """Decide existence of a lottery over ``pred`` outcomes.

    With ``fractional`` given (fixed-marginal mode) the lottery must
    implement that fractional outcome exactly; ``extra`` rows are then
    checked directly against its shares. With ``fractional`` absent
    (free-marginal mode) the marginals p are eliminated by substitution:
    each extra row over p becomes a row over the lottery weights, and the
    expected cost is constrained to equal the budget.
    """
    outcomes = enumerate_outcomes(instance, pred, limit)
    if not outcomes:
        return FeasibilityVerdict(False, None, None, "empty outcome class")
    m = instance.m
    columns = [
        [Fraction(1) if j in w.projects else Fraction(0) for w in outcomes]
        for j in range(m)
    ]
    rows: list[LinearConstraint] = [
        LinearConstraint(
            tuple(Fraction(1) for _ in outcomes), "=", Fraction(1)
        )
    ]
    if fractional is not None:
        if len(fractional.shares) != m:
            raise ValidationError("fractional outcome has wrong arity")
        for con in extra:
            if len(con.coefficients) != m:
                raise ValidationError("extra constraint has wrong arity")
            value = sum(
                c * s for c, s in zip(con.coefficients, fractional.shares)
            )
            ok = {
                "<=": value <= con.bound,
                "=": value == con.bound,
                ">=": value >= con.bound,
            }[con.relation]
            if not ok:
                return FeasibilityVerdict(
                    False, None, fractional,
                    "fractional outcome violates a side constraint",
                )
        for j in range(m):
            rows.append(
                LinearConstraint(
                    tuple(columns[j]), "=", fractional.shares[j]
                )
            )
    else:
        cost_row = tuple(w.cost(instance) for w in outcomes)
        rows.append(LinearConstraint(cost_row, "=", instance.budget))
        for con in extra:
            if len(con.coefficients) != m:
                raise ValidationError("extra constraint has wrong arity")
            substituted = tuple(
                sum(con.coefficients[j] * columns[j][k] for j in range(m))
                for k in range(len(outcomes))
            )
            rows.append(
                LinearConstraint(substituted, con.relation, con.bound)
            )
        # Marginals are automatic convex combinations of 0/1 columns, so
        # p in [0,1]^m needs no explicit rows.

    weights = solve_feasibility(rows, len(outcomes))
    if weights is None:
        return FeasibilityVerdict(
            False, None, fractional, "no implementing lottery exists"
        )
    entries = tuple(
        (lam, w) for w, lam in zip(outcomes, weights) if lam > 0
    )
    lottery = Lottery(entries)
    for _, w in lottery.support:
        assert pred.evaluate(instance, w, limit)
    marginals = fractional
    if marginals is None:
        shares = tuple(
            sum(lam for lam, w in lottery.support if j in w.projects)
            for j in range(m)
        )
        marginals = FractionalOutcome(shares)
    assert implements(instance, lottery, marginals)
    return FeasibilityVerdict(True, lottery, marginals, "certificate found")


# ---------------------------------------------------------------------------
# Built-in constraint rows over marginals


def ifs_rows(instance: PBInstance) -> list[LinearConstraint]:
    """One row per voter: u_i(p) >= opt_i(B)/n."""
    rows = []
    for i in range(instance.n):
        opt = optimal_fractional_utility(instance, i, instance.budget)
        rows.append(
            LinearConstraint(
                tuple(instance.utilities[i]), ">=", opt / instance.n
            )
        )
    return rows


def gfs_rows(
    instance: PBInstance, limit: Optional[int] = None
) -> list[LinearConstraint]:
    """Group fairness rows for binary utilities: one per non-empty voter set.

    With 0/1 utilities, sum_j p_j max_{i in S} u_ij is the total share of
    the union of the group's approval sets.
    """
    if classify(instance) not in (Setting.BINARY, Setting.COMMITTEE):
        raise ValidationError("group fairness rows require binary utilities")
    n = instance.n
    cap = exponential_limit(limit)
    if n > cap:
        raise ScaleError(f"{n} voters exceeds group enumeration limit {cap}")
    opts = [
        optimal_fractional_utility(instance, i, instance.budget)
        for i in range(n)
    ]
    rows = []
    for mask in range(1, 1 << n):
        union = [Fraction(0)] * instance.m
        total = Fraction(0)
        for i in range(n):
            if mask >> i & 1:
                total += opts[i]
                for j in range(instance.m):
                    if instance.utilities[i][j] > 0:
                        union[j] = Fraction(1)
        rows.append(LinearConstraint(tuple(union), ">=", total / n))
    return rows


# ---------------------------------------------------------------------------
# Counterexample families


def _binary_instance(
    budget: Fraction,
    project_ids: Sequence[str],
    costs: Sequence[Fraction],
    approvals: Sequence[Iterable[str]],
) -> PBInstance:
    index = {pid: j for j, pid in enumerate(project_ids)}
    utilities = []
    for approved in approvals:
        row = [Fraction(0)] * len(project_ids)
        for pid in approved:
            row[index[pid]] = Fraction(1)
        utilities.append(tuple(row))
    return PBInstance(
        budget=budget,
        cost=tuple(costs),
        utilities=tuple(utilities),
        project_ids=tuple(project_ids),
        voter_ids=tuple(f"v{i + 1}" for i in range(len(approvals))),
    )


def gen_bfx_family(
    budget: Fraction, eps: Fraction
) -> tuple[PBInstance, FractionalOutcome]:
    """Single voter, three projects; the returned marginals exhaust the
    budget yet admit no lottery over budget-feasible-up-to-one-drop
    outcomes.

    Requires 0 < eps < budget/4: beyond that the two large projects fit
    together after a drop cheaply enough that a certificate appears.
    """
    budget = Fraction(budget)
    eps = Fraction(eps)
    if not 0 < eps < budget / 4:
        raise ValidationError("family requires 0 < eps < budget/4")
    instance = _binary_instance(
        budget,
        ("a", "b", "c"),
        (eps, budget / 2 + eps, budget / 2 + eps),
        [("a", "b", "c")],
    )
    share = (budget - eps) / (budget + 2 * eps)
    fractional = FractionalOutcome((Fraction(1), share, share))
    assert fractional.cost(instance) == budget
    return instance, fractional


def gen_gfs_jr_family(n: int, budget: Fraction, eps: Fraction) -> PBInstance:
    """n voters, 3n+1 projects: one common project of cost budget/2 and
    three personal projects per voter of cost budget/2 - eps each.

    Group fairness forces weight onto personal projects while any
    justified within-budget outcome must contain the common project, and
    the two demands cannot be met by one lottery. Requires n >= 6 and
    0 < eps < budget/2 - 2*budget/n.
    """
    budget = Fraction(budget)
    eps = Fraction(eps)
    if n < 6:
        raise ValidationError("family requires n >= 6")
    if not 0 < eps < budget / 2 - 2 * budget / n:
        raise ValidationError(
            "family requires 0 < eps < budget/2 - 2*budget/n"
        )
    width = len(str(n))
    project_ids = ["g"]
    costs = [budget / 2]
    approvals = []
    for i in range(1, n + 1):
        mine = [f"{kind}{i:0{width}d}" for kind in ("a", "b", "c")]
        project_ids.extend(mine)
        costs.extend([budget / 2 - eps] * 3)
        approvals.append(["g"] + mine)
    return _binary_instance(budget, project_ids, costs, approvals)


def gen_ifs_jr_family(n: int, high: Fraction) -> PBInstance:
    """n voters, 2n+1 unit-cost projects, budget 2: a common project worth
    1 to everyone and two personal projects worth ``high`` to one voter
    each.

    Individual fairness pushes probability onto personal projects, but
    every justified outcome of full cost contains the common project, so
    the common project's marginal is pinned at 1. Requires n >= 4 and
    high > n.
    """
    high = Fraction(high)
    if n < 4:
        raise ValidationError("family requires n >= 4")
    if high <= n:
        raise ValidationError("family requires high > n")
    width = len(str(n))
    project_ids = ["c"]
    costs = [Fraction(1)]
    for i in range(1, n + 1):
        project_ids.extend([f"x{i:0{width}d}", f"y{i:0{width}d}"])
        costs.extend([Fraction(1), Fraction(1)])
    utilities = []
    for i in range(n):
        row = [Fraction(0)] * len(project_ids)
        row[0] = Fraction(1)
        row[1 + 2 * i] = high
        row[2 + 2 * i] = high
        utilities.append(tuple(row))
    return PBInstance(
        budget=Fraction(2),
        cost=tuple(costs),
        utilities=tuple(utilities),
        project_ids=tuple(project_ids),
        voter_ids=tuple(f"v{i + 1}" for i in range(n)),
    )
