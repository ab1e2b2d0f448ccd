"""Golden CLI reports: fixed commands on small committed inputs must give
the committed exit code, stderr and stdout documents.

Inputs and expected reports live in ``tests/data/reports``. The timing
field ``elapsed_seconds`` is dropped before comparing. A refactor that
claims byte-identical output must leave every case unchanged. To rewrite
the expected reports (only when a change of output is intended), run

    PYTHONPATH=src python tests/test_reports.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
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
    # 14 unit-cost projects, B = 6: 6,476 within-budget outcomes, most of
    # whose FJR verdicts follow from their immediate subsets.
    "oracle-joint-fjr-unit14": ["oracle", "--instance", "unit14.json", "--mode",
                                "joint", "--predicate", "fjr-binary"],
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
}


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


def _report(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "stderr": err.getvalue(), "stdout": _documents(out.getvalue())}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_the_committed_one(name, monkeypatch):
    monkeypatch.chdir(DATA)
    monkeypatch.delenv("PB_BOBW_LIMIT", raising=False)
    expected = json.loads((EXPECTED / f"{name}.json").read_text())
    assert _report(CASES[name]) == expected


def test_every_expected_report_has_a_case():
    assert sorted(p.stem for p in EXPECTED.glob("*.json")) == sorted(CASES)


if __name__ == "__main__":
    os.chdir(DATA)
    EXPECTED.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        text = json.dumps(_report(argv), indent=2, sort_keys=True) + "\n"
        (EXPECTED / f"{name}.json").write_text(text)
