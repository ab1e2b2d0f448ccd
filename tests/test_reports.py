"""Golden CLI reports: fixed commands on small committed inputs must give
the committed exit code, stderr and stdout documents.

Inputs and expected reports live in ``tests/data/reports``. The timing
field ``elapsed_seconds`` is dropped before comparing. ``gen`` writes the
canonical instance text, so its cases also compare stdout as raw text,
key order and layout included. A refactor that claims byte-identical
output must leave every case unchanged. To rewrite the expected reports
(only when a change of output is intended), run

    PYTHONPATH=src python tests/test_reports.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
from pathlib import Path

import pytest

from pbbobw.cli import main

DATA = Path(__file__).resolve().parent / "data" / "reports"
EXPECTED = DATA / "expected"

_FRACTIONAL = "ifs,strong-ifs,sifs,ufs,strong-ufs,sufs,gfs,feasible"

# name -> argv, with file names relative to DATA.
CASES = {
    "run-frd-binary": ["run", "--instance", "binary.json", "--rule", "frd",
                       "--seed", "3", "--samples", "25"],
    "run-gcr-binary": ["run", "--instance", "binary.json", "--rule", "gcr"],
    "run-mes-binary": ["run", "--instance", "binary.json", "--rule", "mes"],
    "run-bw-gcr-binary": ["run", "--instance", "binary.json", "--rule", "bw-gcr",
                          "--seed", "5", "--samples", "25"],
    # BW-GCR at n = m = 20, where every unanimous cell is a single voter.
    "run-bw-gcr-binary20": ["run", "--instance", "binary20.json", "--rule",
                            "bw-gcr", "--seed", "7", "--samples", "100"],
    # Two unanimous cells of 3 and 2 voters, both qualifying and topped up,
    # a zero-cost project in the core and one that nobody approves.
    "run-bw-gcr-cells": ["run", "--instance", "cells.json", "--rule", "bw-gcr",
                         "--seed", "3", "--samples", "40"],
    "run-bw-mes-binary": ["run", "--instance", "binary.json", "--rule", "bw-mes",
                          "--seed", "5", "--samples", "25"],
    "run-mes-cost": ["run", "--instance", "cost.json", "--rule", "mes"],
    "run-bw-mes-cost": ["run", "--instance", "cost.json", "--rule", "bw-mes",
                        "--seed", "2", "--samples", "25"],
    "run-frd-general": ["run", "--instance", "general.json", "--rule", "frd",
                        "--seed", "1", "--samples", "10"],
    "run-mes-general": ["run", "--instance", "general.json", "--rule", "mes"],
    # More samples than one block of seeds in `RoundingSampler.sample_counts`.
    "run-frd-general-blocks": ["run", "--instance", "general.json", "--rule",
                               "frd", "--seed", "4", "--samples", "2500"],
    "run-bw-mes-binary-blocks": ["run", "--instance", "binary.json", "--rule",
                                 "bw-mes", "--seed", "6", "--samples", "2049"],
    "verify-binary-a": ["verify", "--instance", "binary.json", "--target",
                        "binary-a.json", "--axioms", "jr,jr-general,ejr,fjr,bb1,bfx"],
    "verify-binary-ae": ["verify", "--instance", "binary.json", "--target",
                         "binary-ae.json", "--axioms", "jr,ejr,fjr"],
    "verify-binary-aef": ["verify", "--instance", "binary.json", "--target",
                          "binary-aef.json", "--axioms", "jr,jr-general,ejr,fjr,bb1,bfx"],
    "verify-cost-b": ["verify", "--instance", "cost.json", "--target",
                      "cost-b.json", "--axioms", "ejrx,jr-general,bb1,bfx"],
    "verify-cost-d": ["verify", "--instance", "cost.json", "--target",
                      "cost-d.json", "--axioms", "ejrx,bb1"],
    "verify-general-a": ["verify", "--instance", "general.json", "--target",
                         "general-a.json", "--axioms", "jr-general,bb1,bfx"],
    "verify-fractional-binary": ["verify", "--instance", "binary.json", "--target",
                                 "binary-p.json", "--axioms", _FRACTIONAL],
    "verify-fractional-general": ["verify", "--instance", "general.json", "--target",
                                  "general-p.json", "--axioms", _FRACTIONAL],
    "verify-jr-ungated": ["verify", "--instance", "binary.json", "--target",
                          "binary-a.json", "--axioms", "jr,jr-general",
                          "--limit-exp", "3"],
    "oracle-implementable-bb1": ["oracle", "--instance", "binary.json", "--mode",
                                 "implementable", "--predicate", "bb1",
                                 "--fractional", "binary-p.json"],
    # A wide LP (14 rows x 2,905 BB1 outcomes) whose entries outgrow
    # 64-bit lanes, so `solve_feasibility` widens its tableau mid-solve.
    "oracle-implementable-bb1-wide13": ["oracle", "--instance", "wide13.json",
                                        "--mode", "implementable", "--predicate",
                                        "bb1", "--fractional", "wide13-p.json"],
    "oracle-joint-fjr-ifs": ["oracle", "--instance", "binary.json", "--mode",
                             "joint", "--predicate", "fjr-binary", "--builtin", "ifs"],
    # A certificate that depends on how `gfs_rows` scales each GFS row.
    "oracle-joint-gfs-general": ["oracle", "--instance", "general.json", "--mode",
                                 "joint", "--predicate", "within-budget",
                                 "--builtin", "gfs"],
    # A tall LP (63 GFS `>=` rows over BB1 outcomes) on the GFS-vs-JR
    # family: GFS alone is implementable, so the report pins the vertex.
    "oracle-joint-gfs-bb1-gfsjr6": ["oracle", "--instance", "gfsjr6.json",
                                    "--mode", "joint", "--predicate", "bb1",
                                    "--builtin", "gfs"],
    # 14 unit-cost projects, B = 6: 6,476 within-budget outcomes, most of
    # whose FJR verdicts follow from their immediate subsets.
    "oracle-joint-fjr-unit14": ["oracle", "--instance", "unit14.json", "--mode",
                                "joint", "--predicate", "fjr-binary"],
    # User rows with mixed denominators, signs and relations, substituted
    # into the free-marginal LP.
    "oracle-joint-rows-general": ["oracle", "--instance", "general.json",
                                  "--mode", "joint", "--predicate", "bb1",
                                  "--constraints", "general-rows.json"],
    # Fixed marginals whose GFS rows all hold at p, so the LP runs.
    "oracle-implementable-gfs-general": ["oracle", "--instance", "general.json",
                                         "--mode", "implementable", "--predicate",
                                         "bb1", "--fractional", "general-p.json",
                                         "--builtin", "gfs"],
    # Fixed marginals that miss an IFS row: refused before the LP.
    "oracle-implementable-ifs-binary": ["oracle", "--instance", "binary.json",
                                        "--mode", "implementable", "--predicate",
                                        "bb1", "--fractional", "binary-p.json",
                                        "--builtin", "ifs"],
    # Conjunctions of a budget-capped class with bb1 or bfx.
    "oracle-joint-ejrx-bb1-cost": ["oracle", "--instance", "cost.json", "--mode",
                                   "joint", "--predicate", "ejrx-cost,bb1"],
    "oracle-joint-bfx-jr-general": ["oracle", "--instance", "general.json",
                                    "--mode", "joint", "--predicate",
                                    "bfx,jr-general", "--builtin", "ifs"],
    # BW-GCR's p on binary.json: no lottery over the capped FJR ∧ BB1
    # class implements it.
    "oracle-implementable-fjr-binary-bb1": ["oracle", "--instance", "binary.json",
                                            "--mode", "implementable", "--predicate",
                                            "fjr-binary,bb1", "--fractional",
                                            "binary-bwgcr-p.json"],
    # The main theorem's class, FJR ∧ BB1 without the cap: a lottery exists.
    "oracle-implementable-fjr-bb1": ["oracle", "--instance", "binary.json",
                                     "--mode", "implementable", "--predicate",
                                     "fjr,bb1", "--fractional",
                                     "binary-bwgcr-p.json"],
    "gen-bfx": ["gen", "--family", "bfx", "--B", "2"],
    "gen-gfs-jr": ["gen", "--family", "gfs-jr", "--n", "6"],
    "gen-ifs-jr": ["gen", "--family", "ifs-jr", "--n", "4"],
    "run-bw-mes-binary20": ["run", "--instance", "binary20.json", "--rule",
                            "bw-mes", "--seed", "7", "--samples", "100"],
    "run-gcr-binary20": ["run", "--instance", "binary20.json", "--rule", "gcr"],
    "verify-binary20-mes": ["verify", "--instance", "binary20.json", "--target",
                            "binary20-mes.json", "--axioms", "ejr,fjr"],
    # GFS over 2^18 - 1 voter groups against an FRD p that meets them all,
    # so the report names the least-slack group.
    "verify-gfs18": ["verify", "--instance", "gfs18.json", "--target",
                     "gfs18-p.json", "--axioms", "gfs", "--limit-exp", "18"],
    "gate-verify-ejr": ["verify", "--instance", "binary.json", "--target",
                        "binary-a.json", "--axioms", "ejr", "--limit-exp", "3"],
    "gate-run-gcr": ["run", "--instance", "binary.json", "--rule", "gcr",
                     "--limit-exp", "3"],
    # MES and its EJR check at n = m = 200 on sparse approvals
    # (`sparse_document(200)`): a guard on MES's per-project work.
    "run-mes-sparse200": ["run", "--instance", "sparse200.json", "--rule", "mes"],
    # BW-MES on the same instance: MES's money denominator grows over the
    # most selections here, and the completion phase spends on it.
    "run-bw-mes-sparse200": ["run", "--instance", "sparse200.json", "--rule",
                             "bw-mes", "--samples", "1", "--seed", "1"],
    # FRD's p at n = m = 200: every voter's optimum at B, averaged.
    "run-frd-sparse200": ["run", "--instance", "sparse200.json", "--rule",
                          "frd", "--samples", "1", "--seed", "1"],
}


def sparse_document(m: int) -> dict:
    """The recipe of ``sparse200.json`` (m = 200): n = m voters and m
    projects of cost 1 or 2, each voter approving 3 to 7 random projects,
    and B = m // 2, all drawn from ``random.Random(m)``. The file is
    ``json.dumps(sparse_document(200), indent=2, sort_keys=True)`` and a
    newline."""
    rng = random.Random(m)
    pid = [f"p{j:03d}" for j in range(m)]
    projects = [{"id": pid[j], "cost": str(rng.randint(1, 2))} for j in range(m)]
    voters = []
    for i in range(m):
        approved = rng.sample(range(m), rng.randint(3, 7))
        voters.append({"id": f"v{i:03d}", "utilities": {pid[j]: "1" for j in approved}})
    return {"budget": str(m // 2), "projects": projects, "voters": voters}


def _documents(text: str) -> list:
    """The JSON documents written one after another to stdout, each
    without its timing field."""
    decoder, space = json.JSONDecoder(), re.compile(r"\s*")
    docs, at = [], space.match(text).end()
    while at < len(text):
        doc, end = decoder.raw_decode(text, at)
        at = space.match(text, end).end()
        if isinstance(doc, dict):
            doc.pop("elapsed_seconds", None)
        docs.append(doc)
    return docs


def _run(argv: list[str]) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _report(argv: list[str]) -> dict:
    code, out, err = _run(argv)
    return {"exit": code, "stderr": err, "stdout": _documents(out)}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_the_committed_one(name, monkeypatch):
    monkeypatch.chdir(DATA)
    monkeypatch.delenv("PB_BOBW_LIMIT", raising=False)
    expected = json.loads((EXPECTED / f"{name}.json").read_text())
    code, out, err = _run(CASES[name])
    assert {"exit": code, "stderr": err, "stdout": _documents(out)} == expected
    if name.startswith("gen-"):
        assert out == "".join(
            json.dumps(doc, indent=2, sort_keys=True) + "\n"
            for doc in expected["stdout"]
        )


def test_sparse200_is_its_recipe():
    text = (DATA / "sparse200.json").read_text()
    assert text == json.dumps(sparse_document(200), indent=2, sort_keys=True) + "\n"


def test_every_expected_report_has_a_case():
    assert sorted(p.stem for p in EXPECTED.glob("*.json")) == sorted(CASES)


if __name__ == "__main__":
    os.chdir(DATA)
    EXPECTED.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        text = json.dumps(_report(argv), indent=2, sort_keys=True) + "\n"
        (EXPECTED / f"{name}.json").write_text(text)
