"""The axiom registry and the brute-force oracles built on it.

``FRACTIONAL_AXIOMS`` and ``INTEGRAL_AXIOMS`` map each axiom name (and
alias) to one checker ``check(instance, target, limit)`` whose result has
``.holds`` and ``.to_dict(instance)``; ``verify``, ``run`` and the
oracle's outcome classes all read them, through the dict at call time.
``limit`` bounds every 2^m or 2^n enumeration a checker runs (see
``limits``). ``UPWARD_CLOSED`` names the integral axioms whose classes
are upward-closed, which the outcome enumeration decides on the subset
lattice (see ``enumerate_outcomes``).

An outcome class is a tuple of ``INTEGRAL_AXIOMS`` names: the outcomes
that satisfy each of them. The budget cap is the ``within-budget`` entry,
so ``fjr`` alone is uncapped FJR and ``fjr,bb1`` is FJR ∧ BB1;
``OUTCOME_CLASSES`` names ``all`` and the capped proportionality classes.

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
from itertools import chain
from operator import eq, ge, le, mul
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
)
from .limits import ScaleError, project_limit
from .lp import LinearConstraint, solve_feasibility
from .model import (
    FractionalOutcome,
    IntegralOutcome,
    Lottery,
    PBInstance,
    ValidationError,
    marginals,
    rational_str,
)
from .rounding import is_bb1, is_bfx
from .rules import InvariantViolation


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
    "within-budget": _no_limit(
        lambda instance, w: Verdict(
            "within-budget",
            instance.scaled_total(w.projects) <= instance.scaled_budget,
        )
    ),
}

# Adding a project never makes a voter worse off, so an outcome that
# satisfies one of these axioms still does with any project added. Each
# fails with a ``CohesivenessWitness`` (T, S): T the projects, S the group.
UPWARD_CLOSED = frozenset({"jr", "jr-general", "ejr", "fjr", "ejrx"})


# A side row's relation, as its test of value against bound.
_RELATIONS = {"<=": le, "=": eq, ">=": ge}


# ---------------------------------------------------------------------------
# Outcome classes


# Class name -> the integral axioms its outcomes satisfy. Proportionality
# classes are read as "fair uses of the budget": the within-budget cap is
# part of the class. Any other conjunction is named by its registry names.
OUTCOME_CLASSES: dict[str, tuple[str, ...]] = {
    "all": (),
    "jr-binary": ("within-budget", "jr"),
    "jr-general": ("within-budget", "jr-general"),
    "ejr-binary": ("within-budget", "ejr"),
    "fjr-binary": ("within-budget", "fjr"),
    "ejrx-cost": ("within-budget", "ejrx"),
}


def predicate(name: str) -> tuple[str, ...]:
    """The ``INTEGRAL_AXIOMS`` names of a class: comma-joined parts form a
    conjunction, each part a name in ``OUTCOME_CLASSES`` or else in
    ``INTEGRAL_AXIOMS``. Names keep their order, without repeats."""
    parts = [p.strip() for p in name.split(",") if p.strip()]
    if not parts:
        raise ValidationError("empty predicate name")
    axioms: list[str] = []
    for part in parts:
        if part in OUTCOME_CLASSES:
            axioms += OUTCOME_CLASSES[part]
        elif part in INTEGRAL_AXIOMS:
            axioms.append(part)
        else:
            raise ValidationError(f"unknown predicate {part!r}")
    return tuple(dict.fromkeys(axioms))


def _lattice_check(
    instance: PBInstance, axiom: str, limit: Optional[int]
) -> Callable[[tuple[int, ...]], bool]:
    """``holds(W)`` for an ``UPWARD_CLOSED`` axiom, called on outcomes W
    by size, then lexicographically, that decides W from the verdicts on
    its immediate subsets W ∖ {j} before it calls the checker:
    - if some W ∖ {j} holds, W holds;
    - if some W ∖ {j} fails with witness (T, S), j ∉ T and no voter of S
      approves j, then W fails with the same witness: T, each voter's
      utility and the group's size are as they were.
    Only verdicts of outcomes ``holds`` was called on are read. Each is 0
    when W holds, else the projects j that its witness rules out: T and
    every project some voter of S approves. Neither rule reads cost(W),
    so they hold on uncapped classes too, where every subset of a
    candidate is itself a candidate.
    """
    approvals = instance.approval_masks
    # size -> {W as a project mask: its verdict}, for W's size and the one
    # below it
    verdicts: dict[int, dict[int, int]] = {}

    def holds(group: tuple[int, ...]) -> bool:
        size = len(group)
        verdicts.pop(size - 2, None)
        below = verdicts.get(size - 1, {})
        mask = sum(1 << j for j in group)
        verdict = None
        for j in group:
            known = below.get(mask ^ 1 << j)
            if known == 0 or (known and not known >> j & 1):
                verdict = known
                break
        if verdict is None:
            report = INTEGRAL_AXIOMS[axiom](instance, IntegralOutcome(group), limit)
            verdict = 0
            if not report.holds:
                witness = report.witness
                verdict = sum(1 << c for c in witness.projects)
                for i in witness.voters:
                    verdict |= approvals[i]
        verdicts.setdefault(size, {})[mask] = verdict
        return verdict == 0

    return holds


def enumerate_outcomes(
    instance: PBInstance,
    axioms: Sequence[str],
    limit: Optional[int] = None,
) -> list[IntegralOutcome]:
    """All outcomes satisfying every ``INTEGRAL_AXIOMS`` entry named in
    ``axioms``, in lexicographic index order.

    Lexicographic on the sorted index tuple: () < (0,) < (0,1) < (1,).
    The candidates are the empty outcome and ``PBInstance.subsets``,
    capped at the budget when ``within-budget`` is named (so the cap is
    not checked again), else at B + max_j c_j when ``bb1`` or ``bfx`` is:
    an outcome of either class that overspends fits B once one of its
    projects is dropped, so no outcome over that ceiling is one. The
    candidates the named axioms accept are sorted. ``limit`` caps m and
    is passed on to their checks.

    The candidates come by size, then lexicographically, and every subset
    of a candidate is one (costs are non-negative), so the immediate
    subsets of W are decided before W. The ``UPWARD_CLOSED`` axioms are
    decided from them where they can be (``_lattice_check``), and the
    checker runs on the rest: the accepted outcomes are the same.
    """
    m = instance.m
    cap = project_limit(limit)
    if m > cap:
        raise ScaleError(f"{m} projects exceeds enumeration limit {cap}")
    if "within-budget" in axioms:
        ceiling = instance.budget
    elif "bb1" in axioms or "bfx" in axioms:
        ceiling = instance.budget + max(instance.cost, default=0)
    else:
        ceiling = None
    checks = [a for a in axioms if a != "within-budget"]
    candidates = chain([()], instance.subsets(range(m), ceiling))
    lattice = {
        a: _lattice_check(instance, a, limit)
        for a in checks
        if a in UPWARD_CLOSED
    }

    def holds(axiom: str, group: tuple[int, ...]) -> bool:
        if axiom in lattice:
            return lattice[axiom](group)
        return INTEGRAL_AXIOMS[axiom](instance, IntegralOutcome(group), limit).holds

    accepted = [
        group
        for group in candidates
        if all(holds(a, group) for a in checks)
    ]
    return [IntegralOutcome(group) for group in sorted(accepted)]


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
            out["fractional"] = instance.share_map(self.fractional.shares)
        if self.certificate is not None:
            out["lottery"] = [
                {
                    "probability": rational_str(weight),
                    "outcome": instance.sorted_ids(outcome.projects),
                }
                for weight, outcome in self.certificate.support
            ]
        return out


def lottery_feasible(
    instance: PBInstance,
    axioms: Sequence[str],
    fractional: Optional[FractionalOutcome] = None,
    extra: Sequence[LinearConstraint] = (),
    limit: Optional[int] = None,
) -> FeasibilityVerdict:
    """Decide existence of a lottery over outcomes that satisfy every
    ``INTEGRAL_AXIOMS`` entry named in ``axioms``.

    With ``fractional`` given (fixed-marginal mode) the lottery must
    implement that fractional outcome exactly; ``extra`` rows are then
    checked directly against its shares. With ``fractional`` absent
    (free-marginal mode) the marginals p are eliminated by substitution:
    each extra row over p becomes a row over the lottery weights, and the
    expected cost is constrained to equal the budget.

    The arity of ``fractional``, and every extra row's arity and denominator,
    are checked first, before any outcome is enumerated or any row is read.
    """
    m = instance.m
    if fractional is not None and len(fractional.shares) != m:
        raise ValidationError("fractional outcome has wrong arity")
    if any(len(con.coefficients) != m or con.denominator < 1 for con in extra):
        raise ValidationError("extra constraint has wrong arity or denominator")
    outcomes = enumerate_outcomes(instance, axioms, limit)
    if not outcomes:
        return FeasibilityVerdict(False, None, None, "empty outcome class")
    rows = [LinearConstraint((1,) * len(outcomes), "=", 1)]
    if fractional is not None:
        # sum_j (c_j/d)·(a_j/q) (rel) b/d, times d·q: sum_j c_j·a_j (rel) b·q.
        q, scaled = fractional.scaled_for(instance)
        for con in extra:
            value = sum(map(mul, con.coefficients, scaled))
            if not _RELATIONS[con.relation](value, con.bound * q):
                return FeasibilityVerdict(
                    False, None, fractional,
                    "fractional outcome violates a side constraint",
                )
        for j in range(m):
            column = tuple(int(j in w.projects) for w in outcomes)
            rows.append(LinearConstraint(column, "=", fractional.shares[j]))
    else:
        cost_row = tuple(instance.scaled_total(w.projects) for w in outcomes)
        rows.append(LinearConstraint(
            cost_row, "=", instance.scaled_budget, instance.cost_scale
        ))
        for con in extra:
            # 0/1 columns: the row's coefficients summed over each W.
            substituted = tuple(
                sum(con.coefficients[j] for j in w.projects) for w in outcomes
            )
            rows.append(LinearConstraint(
                substituted, con.relation, con.bound, con.denominator
            ))
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
    if not all(
        INTEGRAL_AXIOMS[a](instance, w, limit).holds
        for _, w in lottery.support
        for a in axioms
    ):
        raise InvariantViolation("certified lottery has an outcome outside the class")
    shares = marginals(m, lottery.support)
    fractional = fractional or FractionalOutcome(shares)
    if shares != fractional.shares:
        raise InvariantViolation("certified lottery misses the marginals")
    return FeasibilityVerdict(True, lottery, fractional, "certificate found")


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
    if not fractional.is_feasible(instance):
        raise InvariantViolation("family outcome does not cost the budget")
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
