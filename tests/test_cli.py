import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import pbbobw.cli
from pbbobw import (
    FractionalOutcome,
    IntegralOutcome,
    PBInstance,
    gen_gfs_jr_family,
    serialize_instance,
)
from pbbobw.cli import main

from conftest import two_voter_example


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


def _wide_binary_file(tmp_path, m):
    ids = [f"p{j:02d}" for j in range(m)]
    doc = {
        "budget": "3",
        "projects": [{"id": pid, "cost": "1"} for pid in ids],
        "voters": [
            {"id": "v1", "utilities": {pid: "1" for pid in ids[0::2]}},
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
        "skipped": "EJR enumeration over 2^21 project sets"
    }
    code, out, _ = run_cli(
        capsys, "run", "--instance", path, "--rule", "bw-mes", "--samples", "3"
    )
    assert code == 0
    for entry in json.loads(out)["axioms"]["sampled_outcomes"]:
        assert entry["bb1"] is True
        assert entry["ejr"] == {
            "skipped": "EJR enumeration over 2^21 project sets"
        }
    for rule in ("gcr", "bw-gcr"):
        code, _, err = run_cli(
            capsys, "run", "--instance", path, "--rule", rule
        )
        assert code == 2
        assert "GCR search over 2^21" in err


def test_limit_exp_caps_the_ex_post_checks(capsys, tmp_path):
    path = _wide_binary_file(tmp_path, 5)
    code, out, _ = run_cli(
        capsys, "run", "--instance", path, "--rule", "mes", "--limit-exp", "3"
    )
    assert code == 0
    assert json.loads(out)["axioms"]["ejr"] == {
        "skipped": "EJR enumeration over 2^5 project sets"
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



def test_oracle_limit_exp_reaches_the_predicate_checks(
    capsys, monkeypatch, instance_file
):
    monkeypatch.setenv("PB_BOBW_LIMIT", "2")
    code, _, err = run_cli(
        capsys, "oracle", "--instance", instance_file, "--mode", "joint",
        "--predicate", "fjr-binary", "--limit-exp", "3",
    )
    assert code in (0, 1), err


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
