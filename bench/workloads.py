"""Seeded inputs and fixed command lists for the three workloads.

A workload is a list of operations. An operation is one `pb-bobw` command
line, the exit code the paper predicts for it, and a check of the report
it writes. `build` writes every input file and returns the list; the same
seed always gives byte-identical inputs. Nothing here imports pbbobw.

Sizes are module constants so the README and the tests can quote them.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from checks import (
    Instance,
    check_budget_exhausted,
    check_gfs_witness,
    check_ifs,
    check_lottery,
    check_sampling,
    check_witness,
    fjr_holds,
    is_bb1,
    parse_shares,
    random_dictator,
    rat,
    require,
)

WORKLOADS = ("rule-audit", "lottery-draw", "oracle-lp")

# Each family fixes its sizes, cost multiset and budget; the seed draws
# which project gets which cost, the approval sets and the utilities.
# Fixed structure keeps the work per round nearly the same for every seed,
# so runs with different seeds can be compared.

# rule-audit: n = 12 voters, m = 12 projects, binary and cost utilities.
AUDIT_BINARY = 2
AUDIT_COST = 2
AUDIT_N = 12
AUDIT_COSTS = tuple(Fraction(c) for c in
                    ("2", "5/2", "3", "7/2", "4", "9/2", "5", "8/3", "10/3", "13/3"))
AUDIT_BUDGET = Fraction(12)
# One draw per BW run: the run checks EJR or FJR once per distinct sampled
# outcome, so more draws would make the round's work depend on the seed.
AUDIT_SAMPLES = 1

# lottery-draw: FRD on few voters with disjoint approval blocks whose costs
# lie in (B/3, B/2), so every voter funds two projects fully and a third
# partly: 3n fractional projects. Then BW-MES and BW-GCR on small,
# mostly integral instances.
DRAW_FRD = ((4, 4), (4, 4), (4, 4), (5, 3), (5, 3))  # (voters, projects per voter)
DRAW_FRD_COSTS = tuple(Fraction(c) for c in
                       ("9/2", "14/3", "5", "21/4", "11/2", "27/5",
                        "17/3", "33/7", "23/5", "19/4", "13/3", "29/6"))
DRAW_FRD_BUDGET = Fraction(12)
DRAW_BW = 2
DRAW_BW_N = 6
DRAW_BW_COSTS = tuple(Fraction(c) for c in ("1/2", "1", "1", "3/2", "2", "2", "5/2", "3"))
DRAW_BW_BUDGET = Fraction(5)
DRAW_SAMPLES = 20000

# oracle-lp. The exact simplex uses Bland's rule, whose pivot path swings
# the time of one wide BB1 query by 8x under a mere relabelling of the
# projects. So the gfs-jr query and the wide queries use fixed inputs; the
# seed draws the bfx grid, the ifs-jr family and the fjr-binary instances.
LP_GFS_JR_N = 6
LP_GFS_JR_EPS = Fraction(1, 12)
LP_IFS_JR_N = 5
LP_BFX_GRID = 4
LP_BB1 = 1
LP_BB1_COSTS = tuple(Fraction(c) for c in
                     ("1/2", "1", "3/2", "2", "5/2", "3", "7/2", "4", "9/2", "5"))
LP_BB1_BUDGET = Fraction(11)
LP_FJR = 3
LP_FJR_N, LP_FJR_M, LP_FJR_BUDGET = 6, 8, Fraction(3)


@dataclass
class Op:
    name: str
    argv: list[str]
    expect: int
    check: Callable[[dict], None]
    out: str


class Plan:
    """Collects input files and operations under one work directory."""

    def __init__(self, workdir: Path):
        self.dir = Path(workdir)
        self.ops: list[Op] = []

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def write(self, name: str, document) -> str:
        path = self.path(name)
        Path(path).write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
        return path

    def add(self, name: str, argv: list[str], expect: int, check, out=None) -> None:
        out = out or self.path(f"{name}.out.json")
        self.ops.append(Op(name, argv + ["--out", out], expect, check, out))


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(f"{workload}:{seed}")
    plan = Plan(workdir)
    {"rule-audit": rule_audit, "lottery-draw": lottery_draw, "oracle-lp": oracle_lp}[
        workload
    ](plan, rng)
    return plan.ops


# ---------------------------------------------------------------------------
# Generators


def _ids(prefix: str, count: int) -> list[str]:
    return [f"{prefix}{k:02d}" for k in range(count)]


def approval_instance(rng: random.Random, costs, budget, n: int, sizes,
                      cost_utility: bool = False) -> Instance:
    """The cost multiset in random order; voter i approves sizes[i % len]
    random projects, with utility 1 or (cost utilities) the project's cost."""
    pids = _ids("p", len(costs))
    cost = dict(zip(pids, rng.sample(list(costs), len(costs))))
    utilities = {}
    for i, vid in enumerate(_ids("v", n)):
        approved = rng.sample(pids, sizes[i % len(sizes)])
        utilities[vid] = {p: cost[p] if cost_utility else Fraction(1) for p in approved}
    return Instance(budget, cost, utilities)


def audit_instance(rng: random.Random, kind: str):
    """Approval instance with a planted cohesive group.

    The first n/2 voters all approve two projects T0 of cost B/5 each, so
    any outcome that funds none of their approved projects violates JR,
    and any outcome giving each of them exactly one project of T0 still
    violates EJR and FJR. B exceeds every cost, so the empty outcome is
    not BB1. Returns (instance, planted voter ids, T0).
    """
    costs = AUDIT_COSTS + (AUDIT_BUDGET / 5,) * 2
    inst = approval_instance(rng, costs, AUDIT_BUDGET, AUDIT_N, (3, 4),
                             cost_utility=kind == "cost")
    t0 = [p for p in inst.pids if inst.cost[p] == AUDIT_BUDGET / 5]
    planted = sorted(inst.utilities)[: AUDIT_N // 2]
    for vid in planted:
        row = inst.utilities[vid]
        for pid in t0:
            row[pid] = inst.cost[pid] if kind == "cost" else Fraction(1)
    return inst, planted, t0


def frd_instance(rng: random.Random, n: int, block: int) -> Instance:
    """n voters with disjoint approval blocks, random utilities 1..9."""
    pids = _ids("p", n * block)
    cost = dict(zip(pids, rng.sample(DRAW_FRD_COSTS * n, n * block)))
    utilities = {
        vid: {pid: Fraction(rng.randint(1, 9)) for pid in pids[i * block:(i + 1) * block]}
        for i, vid in enumerate(_ids("v", n))
    }
    return Instance(DRAW_FRD_BUDGET, cost, utilities)


def feasible_marginals(rng: random.Random, inst: Instance) -> dict[str, Fraction]:
    """Random p in [0, 1]^m with cost(p) = B exactly."""
    shares = {pid: Fraction(rng.randint(0, 10), 10) for pid in inst.pids}
    diff = inst.budget - sum(shares[p] * inst.cost[p] for p in inst.pids)
    order = inst.pids
    rng.shuffle(order)
    for pid in order:
        c = inst.cost[pid]
        room = (1 - shares[pid]) * c if diff > 0 else shares[pid] * c
        take = min(room, abs(diff))
        shares[pid] += take / c if diff > 0 else -take / c
        diff += -take if diff > 0 else take
    assert diff == 0
    return shares


def _shares_doc(shares: dict) -> dict:
    return {"shares": {pid: rat(s) for pid, s in sorted(shares.items())}}


# ---------------------------------------------------------------------------
# Report checks (closures over the generated inputs)


def _holds(report: dict) -> None:
    require(report.get("holds") is True, "verify reports a failing axiom")
    for name, entry in report["axioms"].items():
        require(entry.get("holds") is True, f"{name} reported as failing")


def _violated(inst: Instance, outcome, axiom: str):
    def check(report: dict) -> None:
        entry = report["axioms"][axiom]
        require(report.get("holds") is False and entry.get("holds") is False,
                f"{axiom} reported as holding on a violating outcome")
        check_witness(inst, outcome, axiom, entry.get("witness"))
    return check


def _not_bb1(inst: Instance, outcome):
    def check(report: dict) -> None:
        require(not is_bb1(inst, outcome), "outcome built to violate BB1 is BB1")
        require(report["axioms"]["bb1"].get("holds") is False, "BB1 reported as holding")
    return check


def _gfs_holds(inst: Instance, shares: dict):
    def check(report: dict) -> None:
        _holds(report)
        witnesses = report["axioms"]["gfs"].get("witnesses") or []
        require(len(witnesses) == 1, "GFS report lacks its tightest group")
        check_gfs_witness(inst, shares, witnesses[0])
    return check


def _integral_rule(inst: Instance, axiom: str, key: str):
    """MES (EJR / EJR-x) and GCR (FJR): within budget and the guarantee holds."""
    def check(report: dict) -> None:
        outcome = report[key] if key == "outcome" else report[key]["outcome"]
        require(set(outcome) <= set(inst.cost), "outcome names unknown projects")
        require(inst.total(outcome) <= inst.budget, "outcome exceeds the budget")
        require(report["axioms"][axiom].get("holds") is True, f"{axiom} fails")
    return check


def _bw_rule(inst: Instance, ex_post: str, samples: int, write=None):
    """BW-GCR / BW-MES: cost(p) = B, Strong UFS, and every sampled outcome
    BB1 and ex-post fair. ``write`` = (p path, outcome path) saves the
    fractional outcome and the first sampled outcome for verify commands."""
    def check(report: dict) -> None:
        shares = parse_shares(inst, report["fractional"]["shares"])
        check_budget_exhausted(inst, shares)
        require(report["axioms"]["strong-ufs"].get("holds") is True, "Strong UFS fails")
        distinct = check_sampling(inst, shares, report["sampling"], samples)
        entries = report["axioms"]["sampled_outcomes"]
        require(len(entries) == len(distinct), "per-outcome axioms missing")
        for entry in entries:
            require(entry.get("bb1") is True, "sampled outcome reported non-BB1")
            require(entry.get(ex_post) is True, f"sampled outcome fails {ex_post}")
        if write:
            ppath, wpath = write
            Path(ppath).write_text(json.dumps(_shares_doc(shares)))
            Path(wpath).write_text(json.dumps(distinct[0]))
    return check


def _frd_rule(inst: Instance, samples: int):
    """FRD: cost(p) = B, IFS in own arithmetic, GFS as reported, sampling."""
    def check(report: dict) -> None:
        shares = parse_shares(inst, report["fractional"]["shares"])
        check_budget_exhausted(inst, shares)
        require(report.get("cost_equals_budget") is True, "FRD reports cost(p) != B")
        check_ifs(inst, shares)
        require(report["axioms"]["ifs"].get("holds") is True, "IFS reported failing")
        require(report["axioms"]["gfs"].get("holds") is True, "GFS reported failing")
        check_sampling(inst, shares, report["sampling"], samples)
    return check


def _infeasible(report: dict) -> None:
    require(report.get("feasible") is False, "impossibility query reported feasible")
    require("lottery" not in report, "infeasible verdict carries a lottery")


def _bb1_certificate(ipath: str, ppath: str):
    """Read back the instance and p (gen writes the bfx family's), then
    re-check the implementing lottery over BB1 outcomes."""
    def check(report: dict) -> None:
        inst = Instance.from_doc(json.loads(Path(ipath).read_text()))
        shares = parse_shares(inst, json.loads(Path(ppath).read_text())["shares"])
        check_budget_exhausted(inst, shares)
        check_lottery(inst, report, shares, is_bb1)
    return check


def _fjr_certificate(inst: Instance):
    def check(report: dict) -> None:
        def fair(i, outcome):
            return i.total(outcome) <= i.budget and fjr_holds(i, outcome)

        support = check_lottery(inst, report, None, fair)
        spent = sum((w * inst.total(o) for w, o in support), Fraction(0))
        require(spent == inst.budget, f"expected cost {spent} != budget")
    return check


def _family(projects: int, voters: int, budget: Fraction):
    def check(doc: dict) -> None:
        inst = Instance.from_doc(doc)
        require(len(inst.cost) == projects and inst.n == voters, "family has wrong shape")
        require(inst.budget == budget, "family has wrong budget")
    return check


# ---------------------------------------------------------------------------
# Workloads


def rule_audit(plan: Plan, rng: random.Random) -> None:
    for k in range(AUDIT_BINARY + AUDIT_COST):
        kind = "binary" if k < AUDIT_BINARY else "cost"
        inst, planted, t0 = audit_instance(rng, kind)
        tag = f"{kind[0]}{k}"
        ipath = plan.write(f"{tag}.json", inst.doc())
        seed = str(rng.getrandbits(32))
        base = ["--instance", ipath]
        if kind == "binary":
            plan.add(f"{tag}-mes", ["run", *base, "--rule", "mes"], 0,
                     _integral_rule(inst, "ejr", "outcome"))
            plan.add(f"{tag}-gcr", ["run", *base, "--rule", "gcr"], 0,
                     _integral_rule(inst, "fjr", "trace"))
            rules = (("bw-mes", "ejr", "bb1,jr,ejr"), ("bw-gcr", "fjr", "bb1,jr,ejr,fjr"))
        else:
            plan.add(f"{tag}-mes", ["run", *base, "--rule", "mes"], 0,
                     _integral_rule(inst, "ejrx", "outcome"))
            rules = (("bw-mes", "ejrx", None),)
        for rule, ex_post, axioms in rules:
            ppath = plan.path(f"{tag}-{rule}.p.json")
            wpath = plan.path(f"{tag}-{rule}.w.json")
            plan.add(
                f"{tag}-{rule}",
                ["run", *base, "--rule", rule, "--seed", seed,
                 "--samples", str(AUDIT_SAMPLES)],
                0,
                _bw_rule(inst, ex_post, AUDIT_SAMPLES, (ppath, wpath)),
            )
            plan.add(f"{tag}-{rule}-sufs",
                     ["verify", *base, "--target", ppath, "--axioms", "sufs,feasible"],
                     0, _holds)
            if axioms:
                plan.add(f"{tag}-{rule}-w",
                         ["verify", *base, "--target", wpath, "--axioms", axioms],
                         0, _holds)
        if kind != "binary":
            continue
        frd_p = random_dictator(inst)
        fpath = plan.write(f"{tag}-frd.p.json", _shares_doc(frd_p))
        plan.add(f"{tag}-gfs",
                 ["verify", *base, "--target", fpath, "--axioms", "gfs,ifs"],
                 0, _gfs_holds(inst, frd_p))
        # Fund nothing any planted voter approves: JR, EJR and FJR fail.
        taken = set().union(*(inst.approvals(v) for v in planted))
        starved, spent = [], Fraction(0)
        for pid in inst.pids:
            if pid not in taken and spent + inst.cost[pid] <= inst.budget:
                starved.append(pid)
                spent += inst.cost[pid]
        # One project of T0 each: JR may hold, EJR and FJR still fail.
        one_each = sorted(starved + [t0[0]])
        for name, outcome, axioms in (
            ("starved", starved, ("jr", "ejr", "fjr")),
            ("one-each", one_each, ("ejr", "fjr")),
        ):
            wpath = plan.write(f"{tag}-{name}.json", outcome)
            for axiom in axioms:
                plan.add(f"{tag}-{name}-{axiom}",
                         ["verify", *base, "--target", wpath, "--axioms", axiom],
                         1, _violated(inst, outcome, axiom))
        epath = plan.write(f"{tag}-empty.json", [])
        plan.add(f"{tag}-empty-bb1",
                 ["verify", *base, "--target", epath, "--axioms", "bb1"],
                 1, _not_bb1(inst, []))


def lottery_draw(plan: Plan, rng: random.Random) -> None:
    for k, (voters, block) in enumerate(DRAW_FRD):
        inst = frd_instance(rng, voters, block)
        ipath = plan.write(f"f{k}.json", inst.doc())
        plan.add(f"f{k}-frd",
                 ["run", "--instance", ipath, "--rule", "frd",
                  "--seed", str(rng.getrandbits(32)), "--samples", str(DRAW_SAMPLES)],
                 0, _frd_rule(inst, DRAW_SAMPLES))
    for k in range(DRAW_BW):
        inst = approval_instance(rng, DRAW_BW_COSTS, DRAW_BW_BUDGET, DRAW_BW_N, (2, 3))
        ipath = plan.write(f"s{k}.json", inst.doc())
        for rule, ex_post in (("bw-mes", "ejr"), ("bw-gcr", "fjr")):
            plan.add(f"s{k}-{rule}",
                     ["run", "--instance", ipath, "--rule", rule,
                      "--seed", str(rng.getrandbits(32)), "--samples", str(DRAW_SAMPLES)],
                     0, _bw_rule(inst, ex_post, DRAW_SAMPLES))


def oracle_lp(plan: Plan, rng: random.Random) -> None:
    n, eps = LP_GFS_JR_N, LP_GFS_JR_EPS
    gpath = plan.path("gfs-jr.json")
    plan.add("gen-gfs-jr",
             ["gen", "--family", "gfs-jr", "--n", str(n), "--B", "1", "--eps", rat(eps)],
             0, _family(3 * n + 1, n, Fraction(1)), out=gpath)
    plan.add("gfs-jr-joint",
             ["oracle", "--instance", gpath, "--mode", "joint",
              "--predicate", "jr-binary", "--builtin", "gfs"],
             1, _infeasible)
    n = LP_IFS_JR_N
    ipath = plan.path("ifs-jr.json")
    plan.add("gen-ifs-jr",
             ["gen", "--family", "ifs-jr", "--n", str(n), "--high", str(n + rng.randint(1, 4))],
             0, _family(2 * n + 1, n, Fraction(2)), out=ipath)
    plan.add("ifs-jr-joint",
             ["oracle", "--instance", ipath, "--mode", "joint",
              "--predicate", "jr-general", "--builtin", "ifs"],
             1, _infeasible)
    for k in range(LP_BFX_GRID):
        budget = Fraction(rng.randint(1, 6), rng.randint(1, 3))
        eps = budget / rng.randint(5, 40)
        bpath = plan.path(f"bfx{k}.json")
        ppath = bpath + ".p.json"
        plan.add(f"gen-bfx{k}",
                 ["gen", "--family", "bfx", "--B", rat(budget), "--eps", rat(eps)],
                 0, _family(3, 1, budget), out=bpath)
        base = ["oracle", "--instance", bpath, "--mode", "implementable",
                "--fractional", ppath]
        plan.add(f"bfx{k}-bfx", [*base, "--predicate", "bfx"], 1, _infeasible)
        plan.add(f"bfx{k}-bb1", [*base, "--predicate", "bb1"], 0,
                 _bb1_certificate(bpath, ppath))
    for k in range(LP_BB1):
        fixed = random.Random(f"wide:{k}")
        inst = approval_instance(fixed, LP_BB1_COSTS, LP_BB1_BUDGET, 1, (len(LP_BB1_COSTS),))
        ipath = plan.write(f"m{k}.json", inst.doc())
        ppath = plan.write(f"m{k}.p.json", _shares_doc(feasible_marginals(fixed, inst)))
        plan.add(f"m{k}-bb1",
                 ["oracle", "--instance", ipath, "--mode", "implementable",
                  "--predicate", "bb1", "--fractional", ppath],
                 0, _bb1_certificate(ipath, ppath))
    for k in range(LP_FJR):
        inst = approval_instance(rng, (Fraction(1),) * LP_FJR_M, LP_FJR_BUDGET, LP_FJR_N, (2, 3))
        ipath = plan.write(f"u{k}.json", inst.doc())
        plan.add(f"u{k}-fjr",
                 ["oracle", "--instance", ipath, "--mode", "joint",
                  "--predicate", "fjr-binary"],
                 0, _fjr_certificate(inst))
