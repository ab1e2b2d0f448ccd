"""Output checks in the benchmark's own Fraction arithmetic.

Nothing here imports pbbobw: every check reads the JSON documents the CLI
wrote and re-derives what the paper guarantees (budget exhaustion, BB1,
cohesive-group witnesses, implementing lotteries) from the instance
document alone. A failed check raises `CheckError`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations


class CheckError(Exception):
    """A CLI output contradicts the paper's guarantee or the benchmark's
    own arithmetic."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def rat(value: Fraction) -> str:
    """Rational string in the CLI's format ("3", "5/12")."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def frac(text) -> Fraction:
    if not isinstance(text, str):
        raise CheckError(f"expected a rational string, got {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise CheckError(f"not a rational string: {text!r}") from None


class Instance:
    """A PB instance held as plain Fractions keyed by the document's ids."""

    def __init__(self, budget, cost, utilities):
        self.budget = Fraction(budget)
        self.cost = {pid: Fraction(c) for pid, c in cost.items()}
        self.utilities = {
            vid: {pid: Fraction(u) for pid, u in row.items() if u != 0}
            for vid, row in utilities.items()
        }

    @property
    def n(self) -> int:
        return len(self.utilities)

    @property
    def pids(self) -> list[str]:
        return sorted(self.cost)

    def approvals(self, vid: str) -> set[str]:
        return set(self.utilities[vid])

    def total(self, projects) -> Fraction:
        return sum((self.cost[pid] for pid in projects), Fraction(0))

    def doc(self) -> dict:
        return {
            "budget": rat(self.budget),
            "projects": [
                {"id": pid, "cost": rat(c)} for pid, c in sorted(self.cost.items())
            ],
            "voters": [
                {"id": vid, "utilities": {p: rat(u) for p, u in sorted(row.items())}}
                for vid, row in sorted(self.utilities.items())
            ],
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "Instance":
        return cls(
            frac(doc["budget"]),
            {e["id"]: frac(e["cost"]) for e in doc["projects"]},
            {
                e["id"]: {p: frac(u) for p, u in e.get("utilities", {}).items()}
                for e in doc["voters"]
            },
        )


# ---------------------------------------------------------------------------
# Fractional outcomes


def cost_of(inst: Instance, shares: dict) -> Fraction:
    return sum((shares.get(pid, 0) * c for pid, c in inst.cost.items()), Fraction(0))


def parse_shares(inst: Instance, document: dict) -> dict[str, Fraction]:
    require(isinstance(document, dict), "fractional outcome is not an object")
    shares = {pid: frac(v) for pid, v in document.items()}
    require(set(shares) <= set(inst.cost), "fractional outcome names unknown projects")
    require(all(0 <= s <= 1 for s in shares.values()), "share outside [0, 1]")
    return shares


def check_budget_exhausted(inst: Instance, shares: dict) -> None:
    spent = cost_of(inst, shares)
    require(spent == inst.budget, f"cost(p) = {spent}, budget is {inst.budget}")


def optimal_utility(inst: Instance, vid: str, budget: Fraction) -> Fraction:
    """Fractional-knapsack optimum of one voter (descending u/c)."""
    row = inst.utilities[vid]
    value, left = Fraction(0), Fraction(budget)
    for pid in sorted(row, key=lambda p: row[p] / inst.cost[p], reverse=True):
        if left <= 0:
            break
        take = min(Fraction(1), left / inst.cost[pid])
        value += take * row[pid]
        left -= take * inst.cost[pid]
    return value


def utility_of(inst: Instance, vid: str, shares: dict) -> Fraction:
    row = inst.utilities[vid]
    return sum((shares.get(pid, 0) * u for pid, u in row.items()), Fraction(0))


def check_ifs(inst: Instance, shares: dict) -> None:
    """Individual fair share: u_i(p) >= opt_i(B) / n for every voter."""
    for vid in inst.utilities:
        need = optimal_utility(inst, vid, inst.budget) / inst.n
        got = utility_of(inst, vid, shares)
        require(got >= need, f"IFS fails for {vid}: {got} < {need}")


def random_dictator(inst: Instance) -> dict[str, Fraction]:
    """Average of the voters' optimal fractional outcomes under B.

    Any such average satisfies GFS: for a group S, sum_j p_j max_{i in S}
    u_ij >= (1/n) sum_{i in S} u_i(x^i) = sum_{i in S} opt_i / n.
    """
    shares = {pid: Fraction(0) for pid in inst.cost}
    for vid, row in inst.utilities.items():
        order = sorted(row, key=lambda p: row[p] / inst.cost[p], reverse=True)
        order += [pid for pid in inst.pids if pid not in row]
        left = inst.budget
        for pid in order:
            if left <= 0:
                break
            take = min(Fraction(1), left / inst.cost[pid])
            shares[pid] += take / inst.n
            left -= take * inst.cost[pid]
    return shares


def check_gfs_witness(inst: Instance, shares: dict, witness: dict) -> None:
    """Recompute both sides of the reported tightest GFS group."""
    group = witness["voters"]
    require(group and set(group) <= set(inst.utilities), "GFS witness names no voters")
    lhs = sum(
        (
            shares.get(pid, 0) * max(inst.utilities[v].get(pid, 0) for v in group)
            for pid in inst.cost
        ),
        Fraction(0),
    )
    rhs = sum((optimal_utility(inst, v, inst.budget) for v in group), Fraction(0))
    rhs /= inst.n
    require(frac(witness["lhs"]) == lhs, f"GFS witness lhs {witness['lhs']} != {lhs}")
    require(frac(witness["rhs"]) == rhs, f"GFS witness rhs {witness['rhs']} != {rhs}")
    require(lhs >= rhs, f"GFS group {group} is below its share")


# ---------------------------------------------------------------------------
# Integral outcomes


def is_bb1(inst: Instance, projects) -> bool:
    """Budget balanced up to one project (exact)."""
    chosen = set(projects)
    total = inst.total(chosen)
    if total == inst.budget:
        return True
    if total < inst.budget:
        return any(
            total + c >= inst.budget for pid, c in inst.cost.items() if pid not in chosen
        )
    return any(total - inst.cost[pid] <= inst.budget for pid in chosen)


def check_witness(inst: Instance, outcome, axiom: str, witness) -> None:
    """Re-check an ex-post violation witness: a cohesive group, large
    enough for its project set, whose members are all deprived."""
    require(isinstance(witness, dict), f"{axiom} violation has no witness")
    projects, voters = witness.get("projects") or [], witness.get("voters") or []
    require(projects and voters, f"{axiom} witness is empty")
    require(set(projects) <= set(inst.cost), f"{axiom} witness names unknown projects")
    require(set(voters) <= set(inst.utilities), f"{axiom} witness names unknown voters")
    chosen = set(outcome)
    size = len(set(projects))
    need = size if axiom in ("jr", "ejr") else witness.get("beta")
    require(axiom != "jr" or size == 1, "JR witness must name one project")
    require(isinstance(need, int) and 1 <= need <= size, f"{axiom} witness has no valid beta")
    for vid in voters:
        approved = inst.approvals(vid)
        require(
            len(approved & set(projects)) >= need,
            f"{axiom} witness voter {vid} approves fewer than {need} of {projects}",
        )
        limit = 1 if axiom == "jr" else need
        require(
            len(approved & chosen) < limit,
            f"{axiom} witness voter {vid} is not deprived",
        )
    require(
        len(voters) * inst.budget >= inst.n * inst.total(projects),
        f"{axiom} witness group of {len(voters)} is too small for {projects}",
    )


def fjr_holds(inst: Instance, outcome) -> bool:
    """Brute-force FJR for binary utilities over within-budget project sets
    (a larger T would need more than n voters)."""
    chosen = set(outcome)
    won = {v: len(inst.approvals(v) & chosen) for v in inst.utilities}
    pids = inst.pids
    for size in range(1, len(pids) + 1):
        for group in combinations(pids, size):
            cost = inst.total(group)
            if cost > inst.budget:
                continue
            members = set(group)
            for beta in range(1, size + 1):
                count = sum(
                    1
                    for v in inst.utilities
                    if len(inst.approvals(v) & members) >= beta and won[v] < beta
                )
                if count and count * inst.budget >= inst.n * cost:
                    return False
    return True


# ---------------------------------------------------------------------------
# Report sections


def check_sampling(inst: Instance, shares: dict, block: dict, samples: int) -> list[list[str]]:
    """Counts add up, every outcome is BB1, and the reported empirical
    marginals are exact and within six standard deviations of p.

    Returns the distinct outcomes in report order.
    """
    outcomes = block.get("outcomes")
    require(isinstance(outcomes, list) and outcomes, "sampling block lists no outcomes")
    require(block.get("samples") == samples, f"sampling block reports {block.get('samples')} samples")
    counts = [e.get("count") for e in outcomes]
    require(all(isinstance(c, int) and c > 0 for c in counts), "non-positive outcome count")
    require(sum(counts) == samples, f"outcome counts add up to {sum(counts)}, not {samples}")
    distinct = [e["projects"] for e in outcomes]
    require(len({tuple(w) for w in distinct}) == len(distinct), "duplicate sampled outcome")
    for w in distinct:
        require(set(w) <= set(inst.cost), "sampled outcome names unknown projects")
        require(is_bb1(inst, w), f"sampled outcome {w} is not BB1")
    if samples > 1:
        reported = block.get("empirical_marginals")
        require(isinstance(reported, dict), "sampling block has no empirical marginals")
        tolerance = 3 / math.sqrt(samples)
        for pid in inst.cost:
            hits = sum(c for c, w in zip(counts, distinct) if pid in w)
            marginal = Fraction(hits, samples)
            require(
                frac(reported.get(pid, "x")) == marginal,
                f"empirical marginal of {pid} misreported",
            )
            require(
                abs(float(marginal - shares.get(pid, 0))) <= tolerance,
                f"empirical marginal of {pid} is {float(marginal):.4f}, p is "
                f"{float(shares.get(pid, 0)):.4f}",
            )
    return distinct


def check_lottery(inst: Instance, report: dict, shares, predicate) -> list:
    """A feasibility certificate: positive weights summing to 1, every
    outcome in the predicate's class, marginals equal to ``shares`` when
    given. Returns [(weight, outcome)]."""
    require(report.get("feasible") is True, "oracle reports infeasible")
    entries = report.get("lottery")
    require(isinstance(entries, list) and entries, "feasible verdict has no lottery")
    support = [(frac(e["probability"]), e["outcome"]) for e in entries]
    require(all(w > 0 for w, _ in support), "lottery weight is not positive")
    require(sum(w for w, _ in support) == 1, "lottery weights do not sum to 1")
    require(
        len({tuple(sorted(o)) for _, o in support}) == len(support),
        "lottery repeats an outcome",
    )
    for _, outcome in support:
        require(set(outcome) <= set(inst.cost), "lottery names unknown projects")
        require(predicate(inst, outcome), f"lottery outcome {outcome} is outside the class")
    if shares is not None:
        for pid in inst.cost:
            marginal = sum((w for w, o in support if pid in o), Fraction(0))
            require(marginal == shares.get(pid, 0), f"lottery marginal of {pid} != p")
    return support
