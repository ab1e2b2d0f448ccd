import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import pbbobw.cli
import pbbobw.oracle
import pbbobw.rules
from pbbobw import (
    FractionalOutcome,
    IntegralOutcome,
    PBInstance,
    check_gfs,
    gen_gfs_jr_family,
    serialize_instance,
)
from pbbobw.cli import main

from conftest import two_voter_example

REPORTS = Path(__file__).resolve().parent / "data" / "reports"


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "instance.json"
    path.write_text(serialize_instance(two_voter_example()) + "\n")
    return str(path)


@pytest.fixture
def family_file(tmp_path):
    inst = gen_gfs_jr_family(6, Fraction(1), Fraction(1, 12))
    path = tmp_path / "family.json"
    path.write_text(serialize_instance(inst) + "\n")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_frd_reports_budget_exhaustion(capsys, instance_file):
    code, out, _ = run_cli(
        capsys, "run", "--instance", instance_file, "--rule", "frd"
    )
    assert code == 0
    report = json.loads(out)
    assert report["cost_equals_budget"] is True
    assert report["fractional"]["shares"]["a"] == "1"


def test_run_bw_mes_empirical_marginals(capsys, instance_file):
    code, out, _ = run_cli(
        capsys,
        "run",
        "--instance",
        instance_file,
        "--rule",
        "bw-mes",
        "--seed",
        "42",
        "--samples",
        "1000",
    )
    assert code == 0
    report = json.loads(out)
    marginal = Fraction(report["sampling"]["empirical_marginals"]["b"])
    assert abs(marginal - Fraction(1, 2)) <= Fraction(5, 100)
    assert report["axioms"]["strong-ufs"]["holds"] is True
    for entry in report["axioms"]["sampled_outcomes"]:
        assert entry["bb1"] is True
        assert entry["ejr"] is True


def test_out_of_memory_exits_2_with_an_error_line(capsys, monkeypatch, instance_file):
    """Running out of memory is not a failing axiom (exit 1): it exits 2
    with an ``error:`` line and writes no report."""
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(pbbobw.cli, "gcr", exhausted)
    code, out, err = run_cli(
        capsys, "run", "--instance", instance_file, "--rule", "gcr"
    )
    assert (code, out, err) == (2, "", "error: out of memory\n")


def test_bw_invariant_violation_exits_2_with_one_error_line(
    capsys, monkeypatch, instance_file
):
    """A failed BW invariant is reported as one ``error:`` line with exit
    2 and no traceback or report: here a draw that drops BW-GCR's core."""
    monkeypatch.setattr(
        pbbobw.rules.RoundingSampler, "sample", lambda self, seed: IntegralOutcome(())
    )
    code, out, err = run_cli(
        capsys, "run", "--instance", instance_file, "--rule", "bw-gcr"
    )
    assert (code, out, err) == (2, "", "error: sampled outcome lost a core project\n")


@pytest.mark.parametrize("name", ["run-bw-gcr-cells", "run-bw-mes-binary"])
def test_a_bw_run_builds_one_sampler(monkeypatch, name):
    """`run --rule bw-*` samples from the sampler the rule drew its outcome
    from, and its report equals the committed one."""
    from test_reports import CASES, DATA, EXPECTED, _report

    builds = []
    sampler = pbbobw.rules.RoundingSampler

    def counting(*args):
        builds.append(1)
        return sampler(*args)

    monkeypatch.setattr(pbbobw.rules, "RoundingSampler", counting)
    monkeypatch.setattr(pbbobw.cli, "RoundingSampler", counting)
    monkeypatch.chdir(DATA)
    monkeypatch.delenv("PB_BOBW_LIMIT", raising=False)
    expected = json.loads((EXPECTED / f"{name}.json").read_text())
    assert _report(CASES[name]) == expected
    assert len(builds) == 1


def test_run_gcr_on_general_utilities_exits_2(capsys, tmp_path):
    doc = {
        "budget": "1",
        "projects": [{"id": "a", "cost": "1"}],
        "voters": [{"id": "v1", "utilities": {"a": "1/2"}}],
    }
    path = tmp_path / "general.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(
        capsys, "run", "--instance", str(path), "--rule", "gcr"
    )
    assert code == 2
    assert "error" in err


def test_run_is_deterministic_modulo_timing(capsys, instance_file):
    args = (
        "run",
        "--instance",
        instance_file,
        "--rule",
        "bw-gcr",
        "--seed",
        "9",
        "--samples",
        "20",
    )
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("elapsed_seconds")
    r2.pop("elapsed_seconds")
    assert r1 == r2


def test_verify_bb1_holds(capsys, instance_file, tmp_path):
    target = tmp_path / "w.json"
    target.write_text(json.dumps(["a", "b"]))
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--instance",
        instance_file,
        "--target",
        str(target),
        "--axioms",
        "bb1,jr",
    )
    assert code == 0
    assert json.loads(out)["holds"] is True


def test_verify_jr_failure_exits_1(capsys, family_file, tmp_path):
    target = tmp_path / "w.json"
    target.write_text(json.dumps(["a1", "b1"]))
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--instance",
        family_file,
        "--target",
        str(target),
        "--axioms",
        "jr",
    )
    assert code == 1
    report = json.loads(out)
    assert report["holds"] is False
    assert report["axioms"]["jr"]["witness"]["projects"] == ["g"]


def test_verify_sufs_on_bw_mes_fractional(capsys, instance_file, tmp_path):
    code, out, _ = run_cli(
        capsys, "run", "--instance", instance_file, "--rule", "bw-mes"
    )
    assert code == 0
    shares = json.loads(out)["fractional"]
    target = tmp_path / "p.json"
    target.write_text(json.dumps(shares))
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--instance",
        instance_file,
        "--target",
        str(target),
        "--axioms",
        "sufs,feasible",
    )
    assert code == 0
    assert json.loads(out)["holds"] is True


def test_verify_unknown_axiom_exits_2(capsys, instance_file, tmp_path):
    target = tmp_path / "w.json"
    target.write_text(json.dumps(["a"]))
    code, _, err = run_cli(
        capsys,
        "verify",
        "--instance",
        instance_file,
        "--target",
        str(target),
        "--axioms",
        "nonsense",
    )
    assert code == 2
    assert "unknown axiom" in err


def test_verify_within_budget_is_an_integral_axiom(capsys, tmp_path):
    """The budget cap is checked like bb1, and with it in one call."""
    instance = str(REPORTS / "binary.json")
    code, out, _ = run_cli(
        capsys, "verify", "--instance", instance, "--target",
        str(REPORTS / "binary-a.json"), "--axioms", "within-budget,bb1",
    )
    axioms = json.loads(out)["axioms"]
    assert code == 0
    assert axioms["within-budget"] == {"axiom": "within-budget", "holds": True}
    assert axioms["bb1"]["holds"] is True
    everything = tmp_path / "w.json"
    everything.write_text(json.dumps(list("abcdefg")))
    code, out, _ = run_cli(
        capsys, "verify", "--instance", instance, "--target",
        str(everything), "--axioms", "within-budget",
    )
    assert code == 1
    assert json.loads(out)["axioms"]["within-budget"]["holds"] is False


def test_gen_bfx_writes_instance_and_fractional(capsys, tmp_path):
    out = tmp_path / "bfx.json"
    code, _, _ = run_cli(
        capsys,
        "gen",
        "--family",
        "bfx",
        "--B",
        "1",
        "--eps",
        "1/10",
        "--out",
        str(out),
    )
    assert code == 0
    instance_doc = json.loads(out.read_text())
    assert len(instance_doc["projects"]) == 3
    p_doc = json.loads((tmp_path / "bfx.json.p.json").read_text())
    assert p_doc["shares"]["a"] == "1"


def test_gen_range_error_exits_2(capsys):
    code, _, err = run_cli(capsys, "gen", "--family", "ifs-jr", "--n", "3")
    assert code == 2
    assert "requires" in err
    # A 5,001-digit B is past the int-digit limit; without the limit,
    # eps = B is out of the family's range.
    huge = "1" + "0" * 5000
    code, out, err = run_cli(
        capsys, "gen", "--family", "bfx", "--B", huge, "--eps", huge
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_oracle_roundtrip_through_files(capsys, tmp_path):
    out = tmp_path / "bfx.json"
    run_cli(
        capsys,
        "gen",
        "--family",
        "bfx",
        "--B",
        "1",
        "--eps",
        "1/10",
        "--out",
        str(out),
    )
    code, text, _ = run_cli(
        capsys,
        "oracle",
        "--instance",
        str(out),
        "--mode",
        "implementable",
        "--predicate",
        "bfx",
        "--fractional",
        str(tmp_path / "bfx.json.p.json"),
    )
    assert code == 1
    assert json.loads(text)["feasible"] is False
    code, text, _ = run_cli(
        capsys,
        "oracle",
        "--instance",
        str(out),
        "--mode",
        "implementable",
        "--predicate",
        "bb1",
        "--fractional",
        str(tmp_path / "bfx.json.p.json"),
    )
    assert code == 0
    report = json.loads(text)
    assert report["feasible"] is True
    assert sum(Fraction(e["probability"]) for e in report["lottery"]) == 1


def test_oracle_joint_builtin_ifs(capsys, tmp_path):
    path = tmp_path / "fam.json"
    run_cli(
        capsys,
        "gen",
        "--family",
        "ifs-jr",
        "--n",
        "4",
        "--high",
        "5",
        "--out",
        str(path),
    )
    code, text, _ = run_cli(
        capsys,
        "oracle",
        "--instance",
        str(path),
        "--mode",
        "joint",
        "--predicate",
        "jr-general",
        "--builtin",
        "ifs",
    )
    assert code == 1
    assert json.loads(text)["feasible"] is False


def test_oracle_joint_builtin_gfs(capsys, family_file):
    code, text, _ = run_cli(
        capsys,
        "oracle",
        "--instance",
        family_file,
        "--mode",
        "joint",
        "--predicate",
        "jr-binary",
        "--builtin",
        "gfs",
    )
    assert code == 1
    assert json.loads(text)["feasible"] is False


def test_oracle_joint_builtin_gfs_on_general_utilities(capsys, tmp_path):
    third, two = Fraction(1, 3), Fraction(2)
    inst = PBInstance(
        budget=Fraction(2),
        cost=(Fraction(1), Fraction(1), Fraction(3, 2)),
        utilities=((two, third, Fraction(0)), (Fraction(0), third, two)),
        project_ids=("a", "b", "c"),
        voter_ids=("v1", "v2"),
    )
    path = tmp_path / "general.json"
    path.write_text(serialize_instance(inst) + "\n")
    code, text, _ = run_cli(
        capsys,
        "oracle",
        "--instance",
        str(path),
        "--mode",
        "joint",
        "--predicate",
        "all",
        "--builtin",
        "gfs",
    )
    assert code == 0
    report = json.loads(text)
    assert report["feasible"] is True
    shares = report["fractional"]
    p = FractionalOutcome(Fraction(shares[pid]) for pid in inst.project_ids)
    assert p.cost(inst) == inst.budget
    assert check_gfs(inst, p).holds


@pytest.mark.parametrize("constraints", [["a"], [{"coefficients": ["a"]}]])
def test_oracle_malformed_constraints_exit_2(capsys, tmp_path, constraints):
    inst = tmp_path / "bfx.json"
    run_cli(capsys, "gen", "--family", "bfx", "--out", str(inst))
    path = tmp_path / "c.json"
    path.write_text(json.dumps(constraints))
    code, out, err = run_cli(
        capsys,
        "oracle",
        "--instance",
        str(inst),
        "--mode",
        "joint",
        "--constraints",
        str(path),
    )
    assert (code, out) == (2, "")
    assert "must be an object" in err


def test_oracle_joint_with_fractional_exits_2_before_any_work(
    capsys, monkeypatch
):
    """Joint mode decides the marginals itself, so a given p would be
    ignored: the flag is a usage error, as implementable mode without it
    is."""

    def refuse(*args):
        raise AssertionError("outcomes enumerated")

    monkeypatch.setattr(pbbobw.oracle, "enumerate_outcomes", refuse)
    for mode, fractional in (("joint", ["--fractional"]), ("implementable", [])):
        argv = ["oracle", "--instance", str(REPORTS / "binary.json"),
                "--mode", mode, "--predicate", "bb1"]
        if fractional:
            argv += [*fractional, str(REPORTS / "binary-p.json")]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: --mode {mode} ") and "--fractional" in err


def test_oracle_class_names_keep_the_budget_cap(capsys, tmp_path):
    """``jr-general`` is capped, so it cannot implement the outcome that
    funds every project (cost 7 > B = 3); the uncapped registry name
    ``jr`` can."""
    everything = tmp_path / "p.json"
    everything.write_text(json.dumps({"shares": dict.fromkeys("abcdefg", "1")}))
    argv = ["oracle", "--instance", str(REPORTS / "binary.json"), "--mode",
            "implementable", "--fractional", str(everything), "--predicate"]
    code, out, _ = run_cli(capsys, *argv, "jr-general")
    assert (code, json.loads(out)["feasible"]) == (1, False)
    code, out, _ = run_cli(capsys, *argv, "jr")
    lottery = json.loads(out)["lottery"]
    assert code == 0
    assert lottery == [{"probability": "1", "outcome": list("abcdefg")}]


def test_oracle_conjunction_with_its_own_class_accepts_the_same_outcomes(
    capsys,
):
    reports = []
    for name in ("fjr,fjr-binary", "fjr-binary"):
        code, out, _ = run_cli(
            capsys, "oracle", "--instance", str(REPORTS / "binary.json"),
            "--mode", "joint", "--predicate", name, "--builtin", "ifs",
        )
        report = json.loads(out)
        assert code == 0
        assert report.pop("predicate") == name
        report.pop("elapsed_seconds", None)
        reports.append(report)
    assert reports[0] == reports[1]


def test_missing_required_flag_exits_2(capsys):
    assert main(["run", "--rule", "frd"]) == 2


def test_run_negative_samples_exits_2(capsys, instance_file):
    code, out, err = run_cli(
        capsys,
        "run",
        "--instance",
        instance_file,
        "--rule",
        "bw-mes",
        "--samples",
        "-5",
    )
    assert code == 2
    assert out == ""
    assert "--samples" in err


@pytest.mark.parametrize(
    "flag", ["--instance", "--target", "--fractional", "--constraints"]
)
def test_input_that_is_not_utf8_exits_2(capsys, instance_file, tmp_path, flag):
    """A file that starts with the bytes ff fe, one nested 100,000 arrays
    deep, and one holding a 5,000-digit integer literal are each a usage
    error naming the file, whichever input flag reads it."""
    bad = str(tmp_path / "bad.json")
    argv = {
        "--instance": ["run", "--instance", bad, "--rule", "frd"],
        "--target": ["verify", "--instance", instance_file, "--target", bad,
                     "--axioms", "bb1"],
        "--fractional": ["oracle", "--instance", instance_file, "--mode",
                         "implementable", "--fractional", bad],
        "--constraints": ["oracle", "--instance", instance_file, "--mode",
                          "joint", "--constraints", bad],
    }[flag]
    for content, prefix in [
        (b"\xff\xfe{}", f"error: {bad}: not valid UTF-8"),
        (b"[" * 100_000, f"error: {bad}: invalid JSON"),
        # Without an int-digit limit the literal parses, and the document
        # is rejected for its shape instead.
        (b"[" + b"7" * 5000 + b"]", "error: "),
    ]:
        Path(bad).write_bytes(content)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(prefix) and err.count("\n") == 1


def test_unwritable_out_exits_2(capsys, instance_file, tmp_path):
    """Every command that writes a file turns a failed write into a usage
    error naming the path."""
    target = tmp_path / "w.json"
    target.write_text(json.dumps(["a", "b"]))
    missing = str(tmp_path / "missing" / "x.json")
    for argv in (
        ["run", "--instance", instance_file, "--rule", "frd"],
        ["verify", "--instance", instance_file, "--target", str(target),
         "--axioms", "bb1"],
        ["oracle", "--instance", instance_file, "--mode", "joint"],
        ["gen", "--family", "bfx"],
        ["gen", "--family", "gfs-jr"],
    ):
        code, out, err = run_cli(capsys, *argv, "--out", missing)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {missing}: ")
    # Both paths are checked before anything is computed or written.
    out = tmp_path / "bfx.json"
    code, _, err = run_cli(
        capsys, "gen", "--family", "bfx", "--out", str(out),
        "--out-fractional", missing,
    )
    assert code == 2 and not out.exists()
    assert err.startswith(f"error: cannot write {missing}: ")


def test_out_under_a_file_exits_2_before_any_work(capsys, tmp_path):
    parent = tmp_path / "plain"
    parent.write_text("")
    out = str(parent / "x.json")
    code, stdout, err = run_cli(
        capsys, "run", "--instance", str(tmp_path / "absent.json"),
        "--rule", "mes", "--out", out,
    )
    assert (code, stdout) == (2, "")
    assert err.startswith(f"error: cannot write {out}: ")


def test_overwritten_out_is_a_new_file_with_the_same_bytes(capsys, tmp_path):
    """An existing output is replaced, not truncated in place; a symlink
    is still written through."""
    out = tmp_path / "i.json"
    assert run_cli(capsys, "gen", "--family", "ifs-jr", "--out", str(out))[0] == 0
    first = out.read_bytes()
    kept = tmp_path / "kept.json"
    os.link(out, kept)  # holds the old inode so it cannot be reused
    assert run_cli(capsys, "gen", "--family", "ifs-jr", "--out", str(out))[0] == 0
    assert out.stat().st_ino != kept.stat().st_ino
    assert out.read_bytes() == first == kept.read_bytes()

    link = tmp_path / "link.json"
    link.symlink_to(kept)
    kept.write_text("old")
    assert run_cli(capsys, "gen", "--family", "ifs-jr", "--out", str(link))[0] == 0
    assert link.is_symlink() and kept.read_bytes() == first


def _wide_binary_file(tmp_path, m):
    """m unit-cost projects, B = 3: v1 approves all of them, so the EJR
    gate, on the largest approval set, meets m as the FJR and GCR gates do."""
    ids = [f"p{j:02d}" for j in range(m)]
    doc = {
        "budget": "3",
        "projects": [{"id": pid, "cost": "1"} for pid in ids],
        "voters": [
            {"id": "v1", "utilities": {pid: "1" for pid in ids}},
            {"id": "v2", "utilities": {pid: "1" for pid in ids[1::3]}},
        ],
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_run_mes_above_the_limit_skips_the_ex_post_checks(capsys, tmp_path):
    path = _wide_binary_file(tmp_path, 21)
    code, out, _ = run_cli(capsys, "run", "--instance", path, "--rule", "mes")
    assert code == 0
    report = json.loads(out)
    assert len(report["outcome"]) == 3
    assert report["axioms"]["ejr"] == {
        "skipped": "EJR enumeration over 2^21 subsets of the largest approval set"
    }
    code, out, _ = run_cli(
        capsys, "run", "--instance", path, "--rule", "bw-mes", "--samples", "3"
    )
    assert code == 0
    for entry in json.loads(out)["axioms"]["sampled_outcomes"]:
        assert entry["bb1"] is True
        assert entry["ejr"] == {
            "skipped": "EJR enumeration over 2^21 subsets of the largest approval set"
        }
    for rule in ("gcr", "bw-gcr"):
        code, _, err = run_cli(
            capsys, "run", "--instance", path, "--rule", rule
        )
        assert code == 2
        assert "GCR search over 2^21" in err


def _m24_file(path, utility, widest):
    """12 voters over 24 projects of cost ``utility`` (1: binary, 2: cost
    utilities) and B = 12·utility; voter i approves projects 2i, 2i+1 and
    2i+2 (mod 24), each worth ``utility``, and v01 also the first
    ``widest`` projects."""
    ids = [f"p{j:02d}" for j in range(24)]
    voters = []
    for i in range(12):
        approved = {ids[2 * i], ids[2 * i + 1], ids[(2 * i + 2) % 24]}
        if i == 0:
            approved.update(ids[:widest])
        voters.append({"id": f"v{i + 1:02d}",
                       "utilities": {pid: utility for pid in sorted(approved)}})
    path.write_text(json.dumps({
        "budget": str(12 * int(utility)),
        "projects": [{"id": pid, "cost": utility} for pid in ids],
        "voters": voters,
    }))
    return str(path)


@pytest.mark.parametrize("utility, axiom, label", [
    ("1", "ejr", "EJR enumeration"), ("2", "ejrx", "EJR-x enumeration"),
])
def test_ejr_and_ejrx_gate_on_the_largest_approval_set(
    capsys, monkeypatch, tmp_path, utility, axiom, label
):
    """At m = 24 > 20 EJR and EJR-x are answered while every approval set
    is small, and skipped once one holds more than 20 projects; FJR keeps
    the gate on m."""
    monkeypatch.delenv("PB_BOBW_LIMIT", raising=False)
    narrow = _m24_file(tmp_path / "narrow.json", utility, 3)
    code, out, _ = run_cli(capsys, "run", "--instance", narrow, "--rule", "mes")
    assert code == 0
    entry = json.loads(out)["axioms"][axiom]
    assert entry["holds"] is True and entry["witness"] is None
    wide = _m24_file(tmp_path / "wide.json", utility, 21)
    code, out, _ = run_cli(capsys, "run", "--instance", wide, "--rule", "mes")
    assert code == 0
    assert json.loads(out)["axioms"][axiom] == {
        "skipped": f"{label} over 2^21 subsets of the largest approval set"
    }
    if axiom == "ejr":
        target = tmp_path / "w.json"
        target.write_text(json.dumps(["p00", "p01"]))
        code, _, err = run_cli(
            capsys, "verify", "--instance", narrow, "--target", str(target),
            "--axioms", "ejr,fjr",
        )
        assert code == 2
        assert err == "error: FJR enumeration over 2^24 project sets\n"
        code, out, _ = run_cli(
            capsys, "verify", "--instance", narrow, "--target", str(target),
            "--axioms", "ejr",
        )
        assert code == 1
        assert json.loads(out)["axioms"]["ejr"]["holds"] is False


def test_limit_exp_caps_the_ex_post_checks(capsys, tmp_path):
    path = _wide_binary_file(tmp_path, 5)
    code, out, _ = run_cli(
        capsys, "run", "--instance", path, "--rule", "mes", "--limit-exp", "3"
    )
    assert code == 0
    assert json.loads(out)["axioms"]["ejr"] == {
        "skipped": "EJR enumeration over 2^5 subsets of the largest approval set"
    }
    target = tmp_path / "w.json"
    target.write_text(json.dumps(["p00", "p01", "p02"]))
    code, _, err = run_cli(
        capsys, "verify", "--instance", path, "--target", str(target),
        "--axioms", "ejr", "--limit-exp", "3",
    )
    assert code == 2
    assert "EJR enumeration over 2^5" in err
    code, _, _ = run_cli(
        capsys, "verify", "--instance", path, "--target", str(target),
        "--axioms", "jr,ejr,fjr", "--limit-exp", "5",
    )
    assert code in (0, 1)


def test_limit_exp_leaves_the_jr_checks_ungated(capsys, tmp_path):
    path = _wide_binary_file(tmp_path, 5)
    target = tmp_path / "w.json"
    target.write_text(json.dumps(["p00", "p01", "p02"]))
    code, _, err = run_cli(
        capsys, "verify", "--instance", path, "--target", str(target),
        "--axioms", "jr,jr-general", "--limit-exp", "3",
    )
    assert code in (0, 1), err


def test_oracle_limit_exp_reaches_the_predicate_checks(
    capsys, monkeypatch, instance_file
):
    monkeypatch.setenv("PB_BOBW_LIMIT", "2")
    code, _, err = run_cli(
        capsys, "oracle", "--instance", instance_file, "--mode", "joint",
        "--predicate", "fjr-binary", "--limit-exp", "3",
    )
    assert code in (0, 1), err


def _limited_commands(instance_file, tmp_path):
    """One run, verify and oracle command line on the two-voter example."""
    target = tmp_path / "w.json"
    target.write_text(json.dumps(["a"]))
    return [
        ["run", "--instance", instance_file, "--rule", "mes"],
        ["verify", "--instance", instance_file, "--target", str(target),
         "--axioms", "ejr"],
        ["oracle", "--instance", instance_file, "--mode", "joint",
         "--predicate", "fjr-binary"],
    ]


def test_malformed_env_limit_exits_2_before_any_work(
    capsys, monkeypatch, instance_file, tmp_path
):
    """A PB_BOBW_LIMIT that is not an integer is a usage error, not a
    skipped check, even where --limit-exp overrides it."""
    monkeypatch.setenv("PB_BOBW_LIMIT", "abc")
    out = tmp_path / "report.json"
    for argv in _limited_commands(instance_file, tmp_path):
        for extra in ([], ["--limit-exp", "5"]):
            code, stdout, err = run_cli(capsys, *argv, *extra, "--out", str(out))
            assert code == 2
            assert err == "error: PB_BOBW_LIMIT must be an integer, got 'abc'\n"
            assert stdout == ""
            assert not out.exists()


def test_negative_env_limit_exits_2_before_any_work(
    capsys, monkeypatch, instance_file, tmp_path
):
    """A negative PB_BOBW_LIMIT is a usage error, as a negative
    --limit-exp is, and not a limit that skips every check."""
    monkeypatch.setenv("PB_BOBW_LIMIT", "-3")
    out = tmp_path / "report.json"
    for argv in _limited_commands(instance_file, tmp_path):
        for extra in ([], ["--limit-exp", "5"]):
            code, stdout, err = run_cli(capsys, *argv, *extra, "--out", str(out))
            assert code == 2
            assert err == "error: PB_BOBW_LIMIT must be non-negative, got -3\n"
            assert stdout == ""
            assert not out.exists()
    # 0 is valid and allows no exponential work.
    monkeypatch.setenv("PB_BOBW_LIMIT", "0")
    code, stdout, _ = run_cli(capsys, *_limited_commands(instance_file, tmp_path)[0])
    assert code == 0
    assert json.loads(stdout)["axioms"]["ejr"] == {
        "skipped": "EJR enumeration over 2^2 subsets of the largest approval set"
    }


def test_limit_exp_must_be_non_negative(
    capsys, monkeypatch, instance_file, tmp_path
):
    monkeypatch.delenv("PB_BOBW_LIMIT", raising=False)
    commands = _limited_commands(instance_file, tmp_path)
    for argv in commands:
        code, out, err = run_cli(capsys, *argv, "--limit-exp", "-1")
        assert code == 2
        assert out == ""
        assert "--limit-exp: must be non-negative, got -1" in err
    # 0 is valid and allows no exponential work.
    code, out, _ = run_cli(capsys, *commands[0], "--limit-exp", "0")
    assert code == 0
    assert json.loads(out)["axioms"]["ejr"] == {
        "skipped": "EJR enumeration over 2^2 subsets of the largest approval set"
    }


@pytest.mark.parametrize("axioms", ["ifs,jr", "jr,ifs"])
def test_verify_cannot_mix_fractional_and_integral(
    capsys, instance_file, tmp_path, axioms
):
    target = tmp_path / "w.json"
    target.write_text(json.dumps(["a"]))
    code, _, err = run_cli(
        capsys, "verify", "--instance", instance_file, "--target",
        str(target), "--axioms", axioms,
    )
    assert code == 2
    assert "cannot mix" in err


def test_verify_without_axioms_exits_2(capsys, instance_file, tmp_path):
    target = tmp_path / "w.json"
    target.write_text(json.dumps(["a"]))
    code, _, err = run_cli(
        capsys, "verify", "--instance", instance_file, "--target",
        str(target), "--axioms", " , ",
    )
    assert code == 2
    assert "no axioms" in err


@pytest.mark.parametrize(
    "alias, name", [("sifs", "strong-ifs"), ("sufs", "strong-ufs")]
)
def test_verify_aliases_report_like_their_axiom(
    capsys, instance_file, tmp_path, alias, name
):
    target = tmp_path / "p.json"
    target.write_text(json.dumps({"a": "1", "b": "1/2", "c": "1/2"}))
    reports = {}
    for axiom in (alias, name):
        code, out, _ = run_cli(
            capsys, "verify", "--instance", instance_file, "--target",
            str(target), "--axioms", axiom,
        )
        assert code in (0, 1)
        reports[axiom] = json.loads(out)["axioms"][axiom]
    assert reports[alias] == reports[name]


def test_axiom_tables_keep_the_shape_the_tracer_wraps():
    # bench/tracing.py replaces these entries in place and calls them as
    # check(instance, target, limit); its hooks read .holds.
    one = Fraction(1)
    inst = PBInstance(
        budget=Fraction(2),
        cost=(one, one, one),
        utilities=((one, one, Fraction(0)), (one, Fraction(0), one)),
        project_ids=("a", "b", "c"),
        voter_ids=("v1", "v2"),
    )
    targets = (
        (pbbobw.cli._FRACTIONAL_AXIOMS,
         FractionalOutcome((one, Fraction(1, 2), Fraction(1, 2)))),
        (pbbobw.cli._INTEGRAL_AXIOMS, IntegralOutcome({0, 1})),
    )
    for table, target in targets:
        assert table
        for name, check in table.items():
            assert callable(check), name
            result = check(inst, target, None)
            assert isinstance(result.holds, bool), name
            assert isinstance(result.to_dict(inst), dict), name
    assert callable(pbbobw.cli.check_gfs)


# Arbitrary JSON, and documents shaped like instances with arbitrary parts.
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
_ids = st.sampled_from(["a", "b", "c", "d"])
_rationals = st.sampled_from(["0", "1", "2", "1/2", "3/4", "-1", "1/0", "x"])
_projects = st.lists(
    st.fixed_dictionaries({"id": _ids, "cost": _rationals}) | _json,
    max_size=4,
)
_voters = st.lists(
    st.fixed_dictionaries(
        {
            "id": st.sampled_from(["v1", "v2", "v3"]),
            "utilities": st.dictionaries(_ids, _rationals, max_size=4) | _json,
        }
    )
    | _json,
    max_size=3,
)
_small = st.sampled_from(["0", "1/2", "1", "2"])
_plausible = st.fixed_dictionaries(
    {
        "budget": _small,
        "projects": st.lists(
            st.fixed_dictionaries({"id": _ids, "cost": _small}),
            min_size=1,
            max_size=4,
            unique_by=lambda e: e["id"],
        ),
        "voters": st.lists(
            st.fixed_dictionaries(
                {
                    "id": st.sampled_from(["v1", "v2", "v3"]),
                    "utilities": st.dictionaries(_ids, _small, max_size=4),
                }
            ),
            min_size=1,
            max_size=3,
            unique_by=lambda e: e["id"],
        ),
    }
)
_instances = (
    _json
    | _plausible
    | st.fixed_dictionaries(
        {
            "budget": _rationals | _json,
            "projects": _projects | _json,
            "voters": _voters | _json,
        }
    )
)


def _exit_code(argv, files):
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in files.items():
            (Path(tmp) / name).write_text(json.dumps(doc))
        argv = [str(Path(tmp) / a) if a in files else a for a in argv]
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return main(argv)


@settings(max_examples=150, deadline=None)
@given(
    _instances,
    st.sampled_from(["frd", "gcr", "mes", "bw-gcr", "bw-mes"]),
    st.integers(min_value=0, max_value=3),
)
def test_run_never_raises_on_arbitrary_instances(doc, rule, samples):
    argv = ["run", "--instance", "i.json", "--rule", rule,
            "--samples", str(samples)]
    assert _exit_code(argv, {"i.json": doc}) in (0, 1, 2)


@settings(max_examples=150, deadline=None)
@given(
    _instances,
    st.lists(_ids, max_size=4) | st.dictionaries(_ids, _rationals) | _json,
    st.sampled_from(
        [
            "jr,ejr,fjr,bb1",
            "bfx,jr-general,ejrx",
            "ifs,gfs,feasible",
            "sufs,ufs",
            "nonsense",
        ]
    ),
)
def test_verify_never_raises_on_arbitrary_instances(doc, target, axioms):
    argv = ["verify", "--instance", "i.json", "--target", "t.json",
            "--axioms", axioms]
    code = _exit_code(argv, {"i.json": doc, "t.json": target})
    assert code in (0, 1, 2)


def test_run_mes_on_general_utilities_skips_ejrx(capsys, tmp_path):
    """MES runs on any utilities; its EJR-x check needs cost utilities, so
    on general ones the entry is a skip note and the run still exits 0.
    Rules that cannot run on general utilities still exit 2."""
    doc = {
        "budget": "2",
        "projects": [{"id": pid, "cost": "1"} for pid in ("a", "b", "c")],
        "voters": [
            {"id": "v1", "utilities": {"a": "3", "b": "1"}},
            {"id": "v2", "utilities": {"c": "2"}},
        ],
    }
    path = tmp_path / "general.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(
        capsys, "run", "--instance", str(path), "--rule", "mes"
    )
    assert code == 0, err
    report = json.loads(out)
    assert report["outcome"]
    assert report["axioms"]["ejrx"] == {
        "skipped": "check_ejrx_cost requires cost utilities"
    }
    for rule in ("gcr", "bw-gcr", "bw-mes"):
        code, _, err = run_cli(
            capsys, "run", "--instance", str(path), "--rule", rule
        )
        assert code == 2
        assert err.startswith("error: ")


def test_successive_main_calls_share_no_parser_state(monkeypatch):
    """The parser is built once per process, and one call's subcommand or
    --limit-exp does not leak into the next: each report below equals the
    committed one of the same command run on its own."""
    from test_reports import CASES, DATA, EXPECTED, _report

    builds = []
    build = pbbobw.cli.build_parser

    def counting():
        builds.append(1)
        return build()

    monkeypatch.setattr(pbbobw.cli, "build_parser", counting)
    pbbobw.cli._parser.cache_clear()
    monkeypatch.chdir(DATA)
    monkeypatch.delenv("PB_BOBW_LIMIT", raising=False)
    try:
        for name in ("gate-run-gcr", "run-gcr-binary", "gate-verify-ejr",
                     "verify-binary-a", "gate-run-gcr"):
            expected = json.loads((EXPECTED / f"{name}.json").read_text())
            assert _report(CASES[name]) == expected, name
    finally:
        pbbobw.cli._parser.cache_clear()
    assert len(builds) == 1


def test_each_voters_optimum_at_b_is_computed_once_per_command(monkeypatch):
    """FRD, GFS, IFS and UFS read every voter's optimum at B from the
    instance: an FRD run (FRD, its GFS and IFS checks) and a verify of
    every fractional axiom each compute it n times, as n ``greedy_spend``
    calls at B, and their reports equal the committed ones."""
    from test_reports import CASES, DATA, EXPECTED, _report

    at_b = []
    optimum = PBInstance.greedy_spend

    def counting(instance, voter, budget):
        if budget == instance.budget:
            at_b.append(voter)
        return optimum(instance, voter, budget)

    monkeypatch.setattr(PBInstance, "greedy_spend", counting)
    monkeypatch.chdir(DATA)
    monkeypatch.delenv("PB_BOBW_LIMIT", raising=False)
    n = len(json.loads((DATA / "general.json").read_text())["voters"])
    for name in ("run-frd-general", "verify-fractional-general"):
        at_b.clear()
        expected = json.loads((EXPECTED / f"{name}.json").read_text())
        assert _report(CASES[name]) == expected, name
        assert sorted(at_b) == list(range(n)), name
