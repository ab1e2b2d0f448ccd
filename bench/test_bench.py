"""Fast tests of the benchmark itself: seeded inputs are reproducible and
every output check rejects a deliberately corrupted report.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import copy
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import workloads as wl  # noqa: E402
from checks import CheckError, Instance, check_ifs, random_dictator  # noqa: E402

from pbbobw.cli import main  # noqa: E402

F = Fraction


def snapshot(workload: str, seed: int, workdir: Path):
    workdir.mkdir()
    ops = wl.build(workload, seed, workdir)
    argv = [[a.replace(str(workdir), "DIR") for a in op.argv] for op in ops]
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    return argv, files


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_inputs_depend_only_on_the_seed(workload, tmp_path):
    first = snapshot(workload, 7, tmp_path / "a")
    assert first == snapshot(workload, 7, tmp_path / "b")
    assert first != snapshot(workload, 8, tmp_path / "c")


def test_frd_family_has_three_fractional_projects_per_voter():
    for voters, block in wl.DRAW_FRD:
        inst = wl.frd_instance(random.Random(3), voters, block)
        shares = random_dictator(inst)
        assert sum(1 for s in shares.values() if 0 < s < 1) == 3 * voters


def test_planted_outcomes_violate_by_construction():
    for kind in ("binary", "cost"):
        inst, planted, t0 = wl.audit_instance(random.Random(5), kind)
        assert len(t0) == 2 and 2 * len(planted) == inst.n
        assert all(set(t0) <= inst.approvals(v) for v in planted)
        assert max(inst.cost.values()) < inst.budget


# ---------------------------------------------------------------------------
# Reports from the real CLI, then corrupted copies


def cli_report(tmp_path: Path, inst: Instance, argv: list[str], target=None):
    ipath = tmp_path / "instance.json"
    ipath.write_text(json.dumps(inst.doc()))
    args = [argv[0], "--instance", str(ipath), *argv[1:]]
    if target is not None:
        tpath = tmp_path / "target.json"
        tpath.write_text(json.dumps(target))
        args += ["--target", str(tpath)]
    out = tmp_path / "report.json"
    code = main(args + ["--out", str(out)])
    return code, json.loads(out.read_text())


def small_binary() -> Instance:
    """B = 3, n = 5: voters 1-3 share {a, b} (cost 1/2 each), so three
    voters may claim both; voter 4 wants c, voter 5 wants d."""
    cost = {"a": F(1, 2), "b": F(1, 2), "c": F(1), "d": F(1), "e": F(2)}
    approvals = {"v1": "ab", "v2": "ab", "v3": "abe", "v4": "c", "v5": "d"}
    return Instance(F(3), cost, {v: {p: F(1) for p in a} for v, a in approvals.items()})


def rejects(check, report, corrupt) -> None:
    check(report)  # the genuine report passes
    bad = copy.deepcopy(report)
    corrupt(bad)
    with pytest.raises((CheckError, KeyError, TypeError)):
        check(bad)


def _first_outcome(r):
    return r["sampling"]["outcomes"][0]


BW_CORRUPTIONS = {
    "cost(p) != B": lambda r: r["fractional"]["shares"].update(a="0"),
    "strong ufs": lambda r: r["axioms"]["strong-ufs"].update(holds=False),
    "count": lambda r: _first_outcome(r).update(count=_first_outcome(r)["count"] + 1),
    "not bb1": lambda r: _first_outcome(r).update(projects=[]),
    "marginal": lambda r: r["sampling"]["empirical_marginals"].update(a="1/7"),
    "ex post": lambda r: r["axioms"]["sampled_outcomes"][0].update(fjr=False),
    "per-outcome bb1": lambda r: r["axioms"]["sampled_outcomes"][0].update(bb1=False),
}


@pytest.mark.parametrize("corruption", sorted(BW_CORRUPTIONS))
def test_bw_check_rejects(corruption, tmp_path):
    inst = small_binary()
    code, report = cli_report(
        tmp_path, inst, ["run", "--rule", "bw-gcr", "--seed", "3", "--samples", "400"]
    )
    assert code == 0
    rejects(wl._bw_rule(inst, "fjr", 400), report, BW_CORRUPTIONS[corruption])


def test_sampling_check_rejects_skewed_marginals(tmp_path):
    inst = small_binary()
    _, report = cli_report(
        tmp_path, inst, ["run", "--rule", "bw-mes", "--seed", "3", "--samples", "400"]
    )

    def skew(r):
        # Move every draw onto one outcome and report its marginals exactly.
        outcomes = r["sampling"]["outcomes"]
        outcomes[:] = [dict(outcomes[0], count=400)]
        r["sampling"]["empirical_marginals"] = {
            p: "1" if p in outcomes[0]["projects"] else "0" for p in inst.cost
        }
        r["axioms"]["sampled_outcomes"][:] = r["axioms"]["sampled_outcomes"][:1]

    rejects(wl._bw_rule(inst, "ejr", 400), report, skew)


FRD_CORRUPTIONS = {
    "cost flag": lambda r: r.update(cost_equals_budget=False),
    "gfs": lambda r: r["axioms"]["gfs"].update(holds=False),
    "ifs": lambda r: r["axioms"]["ifs"].update(holds=False),
    "samples": lambda r: r["sampling"].update(samples=399),
}


@pytest.mark.parametrize("corruption", sorted(FRD_CORRUPTIONS))
def test_frd_check_rejects(corruption, tmp_path):
    inst = wl.frd_instance(random.Random(1), 2, 3)
    code, report = cli_report(
        tmp_path, inst, ["run", "--rule", "frd", "--seed", "1", "--samples", "400"]
    )
    assert code == 0
    rejects(wl._frd_rule(inst, 400), report, FRD_CORRUPTIONS[corruption])


def test_ifs_check_rejects_an_unfair_p():
    inst = small_binary()
    # Spends B = 3 on {c, d, e}: voters 1 and 2 get nothing.
    with pytest.raises(CheckError):
        check_ifs(inst, {"c": F(1), "d": F(1), "e": F(1, 2)})


WITNESS_CORRUPTIONS = {
    # v3 alone approves e and is deprived, but cost(e) = 2 needs 4 of 5 voters.
    "too small": lambda r: r["axioms"]["jr"]["witness"].update(projects=["e"], voters=["v3"]),
    "not deprived": lambda r: r["axioms"]["jr"]["witness"]["voters"].append("v4"),
    "not cohesive": lambda r: r["axioms"]["jr"]["witness"].update(projects=["c"]),
    "holds": lambda r: r.update(holds=True),
    "no witness": lambda r: r["axioms"]["jr"].update(witness=None),
}


@pytest.mark.parametrize("corruption", sorted(WITNESS_CORRUPTIONS))
def test_violation_check_rejects(corruption, tmp_path):
    inst = small_binary()
    starved = ["c", "d"]  # voters 1-3 get nothing
    code, report = cli_report(tmp_path, inst, ["verify", "--axioms", "jr"], starved)
    assert code == 1
    rejects(wl._violated(inst, starved, "jr"), report, WITNESS_CORRUPTIONS[corruption])


def test_fjr_witness_check_rejects_a_wrong_beta(tmp_path):
    inst = small_binary()
    one_each = ["a", "c", "d"]
    code, report = cli_report(tmp_path, inst, ["verify", "--axioms", "fjr"], one_each)
    assert code == 1
    rejects(wl._violated(inst, one_each, "fjr"), report,
            lambda r: r["axioms"]["fjr"]["witness"].update(beta=1))


def test_not_bb1_check_rejects(tmp_path):
    inst = small_binary()
    code, report = cli_report(tmp_path, inst, ["verify", "--axioms", "bb1"], [])
    assert code == 1
    rejects(wl._not_bb1(inst, []), report,
            lambda r: r["axioms"]["bb1"].update(holds=True))


@pytest.mark.parametrize("corruption", ["lhs", "rhs", "group"])
def test_gfs_check_rejects(corruption, tmp_path):
    inst = small_binary()
    shares = random_dictator(inst)
    code, report = cli_report(
        tmp_path, inst, ["verify", "--axioms", "gfs,ifs"], wl._shares_doc(shares)
    )
    assert code == 0
    witness = lambda r: r["axioms"]["gfs"]["witnesses"][0]  # noqa: E731
    corrupt = {
        "lhs": lambda r: witness(r).update(lhs="0"),
        "rhs": lambda r: witness(r).update(rhs="100"),
        "group": lambda r: witness(r).update(voters=["v4", "v5", "v1"]),
    }[corruption]
    rejects(wl._gfs_holds(inst, shares), report, corrupt)


@pytest.mark.parametrize("corruption", ["over budget", "fails"])
def test_integral_rule_check_rejects(corruption, tmp_path):
    inst = small_binary()
    code, report = cli_report(tmp_path, inst, ["run", "--rule", "mes"])
    assert code == 0
    corrupt = {
        "over budget": lambda r: r.update(outcome=sorted(inst.cost)),
        "fails": lambda r: r["axioms"]["ejr"].update(holds=False),
    }[corruption]
    rejects(wl._integral_rule(inst, "ejr", "outcome"), report, corrupt)


def lottery(r):
    return r["lottery"]


CERTIFICATE_CORRUPTIONS = {
    "weight sum": lambda r: lottery(r)[0].update(probability="1/1000"),
    "zero weight": lambda r: lottery(r).append({"probability": "0", "outcome": ["e"]}),
    "marginal": lambda r: lottery(r)[0].update(outcome=sorted(lottery(r)[0]["outcome"])[1:]),
    "not bb1": lambda r: lottery(r)[0].update(outcome=[]),
    "infeasible": lambda r: r.update(feasible=False),
}


@pytest.mark.parametrize("corruption", sorted(CERTIFICATE_CORRUPTIONS))
def test_bb1_certificate_check_rejects(corruption, tmp_path):
    inst = small_binary()
    ppath = tmp_path / "p.json"
    ppath.write_text(json.dumps(wl._shares_doc(wl.feasible_marginals(random.Random(2), inst))))
    code, report = cli_report(
        tmp_path, inst,
        ["oracle", "--mode", "implementable", "--predicate", "bb1", "--fractional", str(ppath)],
    )
    assert code == 0
    check = wl._bb1_certificate(str(tmp_path / "instance.json"), str(ppath))
    rejects(check, report, CERTIFICATE_CORRUPTIONS[corruption])


@pytest.mark.parametrize("corruption", ["expected cost", "not fjr"])
def test_fjr_certificate_check_rejects(corruption, tmp_path):
    inst = small_binary()
    code, report = cli_report(tmp_path, inst, ["oracle", "--mode", "joint", "--predicate", "fjr-binary"])
    assert code == 0

    def cheaper(r):
        r["lottery"][:] = [{"probability": "1", "outcome": ["a", "b"]}]

    def unfair(r):  # voters 1-3 can claim {a, b} but win nothing
        r["lottery"][:] = [{"probability": "1", "outcome": ["c", "d"]}]

    corrupt = cheaper if corruption == "expected cost" else unfair
    rejects(wl._fjr_certificate(inst), report, corrupt)


def test_infeasible_and_family_checks_reject(tmp_path):
    with pytest.raises(CheckError):
        wl._infeasible({"feasible": True, "lottery": []})
    family = Instance(F(2), {"c": F(1), "x": F(1), "y": F(1)}, {"v1": {"c": F(1)}})
    wl._family(3, 1, F(2))(family.doc())
    with pytest.raises(CheckError):
        wl._family(3, 1, F(1))(family.doc())


def test_wrong_exit_code_is_a_failure(tmp_path):
    op = wl.Op("x", [], 0, lambda report: None, str(tmp_path / "missing.json"))
    assert run.outcome_of(op, 1) == "exit 1, expected 0"
    assert run.outcome_of(op, 0).startswith("FileNotFoundError")


def test_tracer_reports_missing_names_and_keeps_counting(monkeypatch):
    import pbbobw.cli
    import tracing

    monkeypatch.delattr(pbbobw.cli, "check_gfs")
    monkeypatch.delitem(pbbobw.cli._INTEGRAL_AXIOMS, "ejrx")
    main_before = pbbobw.cli.main
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        assert {"pbbobw.cli:check_gfs", "pbbobw.cli:_INTEGRAL_AXIOMS[ejrx]"} <= tracer.missing
        assert pbbobw.cli.main(["gen", "--family", "ifs-jr", "--n", "4", "--out", "/dev/null"]) == 0
        metrics = tracer.metrics(1)
        assert metrics["cli.commands"] == 1 and metrics["model.calls"] == 1
    finally:
        uninstall()
    assert pbbobw.cli.main is main_before
