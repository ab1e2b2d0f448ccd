"""Command-line interface: run rules, verify axioms, query oracles, generate
counterexample instances.

Exit codes: 0 success / axiom holds / feasible; 1 axiom fails / infeasible;
2 usage, parse, or validation error. All file outputs are canonical JSON
(sorted keys) with rationals as strings, so reports are byte-stable modulo
the timing field.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional, Sequence

from .exante import check_gfs, check_ifs, check_strong_ufs
from .expost import SettingError
from .limits import ScaleError
from .lp import LinearConstraint
from .model import (
    FractionalOutcome,
    IntegralOutcome,
    PBInstance,
    Setting,
    ValidationError,
    classify,
    parse_instance,
    parse_rational,
    rational_str,
    serialize_instance,
)
# The benchmark's tracer replaces entries of the axiom tables by these
# names (``_FRACTIONAL_AXIOMS[...]``, ``_INTEGRAL_AXIOMS[...]``), so the
# registry is bound here under them.
from .oracle import FRACTIONAL_AXIOMS as _FRACTIONAL_AXIOMS
from .oracle import INTEGRAL_AXIOMS as _INTEGRAL_AXIOMS
from .oracle import (
    gen_bfx_family,
    gen_gfs_jr_family,
    gen_ifs_jr_family,
    gfs_rows,
    ifs_rows,
    lottery_feasible,
    predicate,
)
from .rounding import RoundingSampler, derive_seed, is_bb1
from .rules import (
    InvariantViolation,
    bw_gcr,
    bw_mes,
    fractional_random_dictator,
    gcr,
    mes,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# File helpers


def _load_json(path: str):
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: invalid JSON ({exc})") from exc


def _load_instance(path: str) -> PBInstance:
    return parse_instance(_load_json(path))


def parse_fractional(instance: PBInstance, document) -> FractionalOutcome:
    """Read {project-id: rational-string}, optionally under a "shares" key.

    Omitted projects get share zero.
    """
    if isinstance(document, dict) and "shares" in document:
        document = document["shares"]
    if not isinstance(document, dict):
        raise ValidationError("fractional outcome must be an object")
    shares = [Fraction(0)] * instance.m
    for pid, raw in document.items():
        j = instance.project_index(pid)
        shares[j] = parse_rational(str(raw), f"share of {pid}")
    return FractionalOutcome(shares)


def parse_integral(instance: PBInstance, document) -> IntegralOutcome:
    """Read a project-id list, optionally under an "outcome" key."""
    if isinstance(document, dict) and "outcome" in document:
        document = document["outcome"]
    if not isinstance(document, list):
        raise ValidationError("integral outcome must be a list of project ids")
    return IntegralOutcome(instance.project_index(str(pid)) for pid in document)


def fractional_to_dict(instance: PBInstance, p: FractionalOutcome) -> dict:
    return {
        "shares": {
            instance.project_ids[j]: rational_str(s)
            for j, s in enumerate(p.shares)
        }
    }


def _emit(report: dict, out: Optional[str]) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _digest(instance: PBInstance) -> str:
    return hashlib.sha256(serialize_instance(instance).encode()).hexdigest()


# ---------------------------------------------------------------------------
# run


def _sample_block(
    instance: PBInstance, p: FractionalOutcome, seed: int, samples: int
) -> tuple[dict, list[IntegralOutcome]]:
    counts = RoundingSampler(instance, p).sample_counts(
        derive_seed(seed, k) for k in range(samples)
    )
    block: dict = {
        "samples": samples,
        "outcomes": [
            {
                "count": counts[w],
                "projects": sorted(
                    instance.project_ids[j] for j in w.projects
                ),
            }
            for w in sorted(counts, key=lambda w: sorted(w.projects))
        ],
    }
    if samples > 1:
        block["empirical_marginals"] = {
            instance.project_ids[j]: rational_str(
                Fraction(
                    sum(c for w, c in counts.items() if j in w.projects),
                    samples,
                )
            )
            for j in range(instance.m)
        }
    return block, list(counts)


def _unless_over_limit(entry: Callable[[], object]) -> object:
    """A report entry, or a skip note if its enumeration is over the limit."""
    try:
        return entry()
    except ScaleError as exc:
        return {"skipped": str(exc)}


def cmd_run(args: argparse.Namespace) -> int:
    instance = _load_instance(args.instance)
    started = time.monotonic()
    report: dict = {
        "command": "run",
        "rule": args.rule,
        "instance_digest": _digest(instance),
        "seed": args.seed,
    }
    if args.rule in ("gcr", "bw-gcr"):
        ex_post = "fjr"
    elif classify(instance) in (Setting.BINARY, Setting.COMMITTEE):
        ex_post = "ejr"
    else:
        ex_post = "ejrx"
    check = _INTEGRAL_AXIOMS[ex_post]
    axioms: dict = {}

    if args.rule == "frd":
        p = fractional_random_dictator(instance)
        report["fractional"] = fractional_to_dict(instance, p)
        report["cost_equals_budget"] = p.cost(instance) == instance.budget
        axioms["ifs"] = check_ifs(instance, p).to_dict(instance)
        axioms["gfs"] = _unless_over_limit(
            lambda: check_gfs(instance, p, args.limit_exp).to_dict(instance)
        )
        sampled, distinct = _sample_block(instance, p, args.seed, args.samples)
        report["sampling"] = sampled
    elif args.rule == "gcr":
        trace = gcr(instance, args.limit_exp)
        report["trace"] = trace.to_dict(instance)
        outcome = trace.outcome
    elif args.rule == "mes":
        result = mes(instance)
        outcome = result.outcome
        report["outcome"] = sorted(
            instance.project_ids[j] for j in outcome.projects
        )
        report["selection"] = [
            {"project": instance.project_ids[j], "rho": rational_str(r)}
            for j, r in result.rho
        ]
    elif args.rule in ("bw-gcr", "bw-mes"):
        if args.rule == "bw-gcr":
            result = bw_gcr(instance, args.seed, args.limit_exp)
        else:
            result = bw_mes(instance, args.seed)
        p = result.fractional
        report["fractional"] = fractional_to_dict(instance, p)
        axioms["strong-ufs"] = check_strong_ufs(instance, p).to_dict(instance)
        sampled, distinct = _sample_block(instance, p, args.seed, args.samples)
        report["sampling"] = sampled
        per_outcome = []
        for w in distinct:
            entry = {
                "projects": sorted(
                    instance.project_ids[j] for j in w.projects
                ),
                "bb1": is_bb1(instance, w),
                ex_post: _unless_over_limit(
                    lambda: check(instance, w, args.limit_exp).holds
                ),
            }
            per_outcome.append(entry)
        per_outcome.sort(key=lambda e: e["projects"])
        axioms["sampled_outcomes"] = per_outcome
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown rule {args.rule!r}")
    if args.rule in ("gcr", "mes"):
        axioms[ex_post] = _unless_over_limit(
            lambda: check(instance, outcome, args.limit_exp).to_dict(instance)
        )

    report["axioms"] = axioms
    report["elapsed_seconds"] = time.monotonic() - started
    _emit(report, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args: argparse.Namespace) -> int:
    instance = _load_instance(args.instance)
    document = _load_json(args.target)
    axioms = [a.strip() for a in args.axioms.split(",") if a.strip()]
    if not axioms:
        raise UsageError("no axioms requested")
    for a in axioms:
        if a not in _FRACTIONAL_AXIOMS and a not in _INTEGRAL_AXIOMS:
            raise UsageError(f"unknown axiom {a!r}")
    fractional = axioms[0] in _FRACTIONAL_AXIOMS
    table = _FRACTIONAL_AXIOMS if fractional else _INTEGRAL_AXIOMS
    if any(a not in table for a in axioms):
        raise UsageError(
            "cannot mix fractional and integral axioms in one target"
        )
    parse = parse_fractional if fractional else parse_integral
    target = parse(instance, document)
    results = {a: table[a](instance, target, args.limit_exp) for a in axioms}
    all_hold = all(result.holds for result in results.values())
    report: dict = {
        "command": "verify",
        "instance_digest": _digest(instance),
        "axioms": {a: r.to_dict(instance) for a, r in results.items()},
        "holds": all_hold,
    }
    _emit(report, args.out)
    return EXIT_OK if all_hold else EXIT_FAIL


# ---------------------------------------------------------------------------
# oracle


def _parse_constraints(
    instance: PBInstance, document
) -> list[LinearConstraint]:
    if not isinstance(document, list):
        raise ValidationError("constraints file must hold a list")
    rows = []
    for entry in document:
        if not isinstance(entry, dict):
            raise ValidationError("constraint must be an object")
        coefficients = entry.get("coefficients", {})
        if not isinstance(coefficients, dict):
            raise ValidationError("constraint coefficients must be an object")
        coeffs = [Fraction(0)] * instance.m
        for pid, raw in coefficients.items():
            coeffs[instance.project_index(pid)] = parse_rational(
                str(raw), f"coefficient of {pid}"
            )
        relation = entry.get("relation", ">=")
        if relation not in ("<=", "=", ">="):
            raise ValidationError(f"unknown relation {relation!r}")
        bound = parse_rational(str(entry.get("bound", "0")), "bound")
        rows.append(LinearConstraint(tuple(coeffs), relation, bound))
    return rows


def cmd_oracle(args: argparse.Namespace) -> int:
    instance = _load_instance(args.instance)
    pred = predicate(args.predicate)
    extra: list[LinearConstraint] = []
    if args.constraints:
        extra.extend(_parse_constraints(instance, _load_json(args.constraints)))
    if args.builtin == "ifs":
        extra.extend(ifs_rows(instance))
    elif args.builtin == "gfs":
        extra.extend(gfs_rows(instance, args.limit_exp))

    fractional: Optional[FractionalOutcome] = None
    if args.mode == "implementable":
        if not args.fractional:
            raise UsageError("--mode implementable requires --fractional")
        fractional = parse_fractional(instance, _load_json(args.fractional))
    verdict = lottery_feasible(
        instance, pred, fractional, extra, args.limit_exp
    )
    report = {
        "command": "oracle",
        "instance_digest": _digest(instance),
        "mode": args.mode,
        "predicate": args.predicate,
        **verdict.to_dict(instance),
    }
    _emit(report, args.out)
    return EXIT_OK if verdict.feasible else EXIT_FAIL


# ---------------------------------------------------------------------------
# gen


def cmd_gen(args: argparse.Namespace) -> int:
    budget = parse_rational(args.B, "B")
    fractional: Optional[FractionalOutcome] = None
    if args.family == "bfx":
        eps = parse_rational(args.eps, "eps") if args.eps else budget / 10
        instance, fractional = gen_bfx_family(budget, eps)
    elif args.family == "gfs-jr":
        eps = parse_rational(args.eps, "eps") if args.eps else budget / 12
        instance = gen_gfs_jr_family(args.n, budget, eps)
    elif args.family == "ifs-jr":
        high = (
            parse_rational(args.high, "high")
            if args.high
            else Fraction(args.n + 1)
        )
        instance = gen_ifs_jr_family(args.n, high)
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown family {args.family!r}")

    text = serialize_instance(instance) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    if fractional is not None:
        ptext = (
            json.dumps(
                fractional_to_dict(instance, fractional),
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
        if args.out:
            ppath = args.out_fractional or args.out + ".p.json"
            Path(ppath).write_text(ptext)
        elif args.out_fractional:
            Path(args.out_fractional).write_text(ptext)
        else:
            sys.stdout.write(ptext)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pb-bobw",
        description=(
            "Fair lotteries over participatory-budgeting outcomes: "
            "run rules, verify axioms, query implementability oracles, "
            "and generate counterexample instances."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a rule and report")
    run.add_argument("--instance", required=True)
    run.add_argument(
        "--rule",
        required=True,
        choices=["frd", "gcr", "mes", "bw-gcr", "bw-mes"],
    )
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--samples", type=_count, default=1)
    run.add_argument("--out")
    run.add_argument("--limit-exp", type=int, default=None)
    run.set_defaults(handler=cmd_run)

    verify = sub.add_parser("verify", help="check axioms on an outcome")
    verify.add_argument("--instance", required=True)
    verify.add_argument("--target", required=True)
    verify.add_argument("--axioms", required=True)
    verify.add_argument("--out")
    verify.add_argument("--limit-exp", type=int, default=None)
    verify.set_defaults(handler=cmd_verify)

    oracle = sub.add_parser("oracle", help="lottery feasibility queries")
    oracle.add_argument("--instance", required=True)
    oracle.add_argument(
        "--mode", required=True, choices=["implementable", "joint"]
    )
    oracle.add_argument("--predicate", default="within-budget")
    oracle.add_argument("--fractional")
    oracle.add_argument("--constraints")
    oracle.add_argument("--builtin", choices=["ifs", "gfs"])
    oracle.add_argument("--out")
    oracle.add_argument("--limit-exp", type=int, default=None)
    oracle.set_defaults(handler=cmd_oracle)

    gen = sub.add_parser("gen", help="write a counterexample instance")
    gen.add_argument(
        "--family", required=True, choices=["bfx", "gfs-jr", "ifs-jr"]
    )
    gen.add_argument("--B", default="1")
    gen.add_argument("--eps")
    gen.add_argument("--n", type=int, default=6)
    gen.add_argument("--high")
    gen.add_argument("--out")
    gen.add_argument("--out-fractional")
    gen.set_defaults(handler=cmd_gen)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes.
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        return args.handler(args)
    except (
        UsageError,
        ValidationError,
        SettingError,
        ScaleError,
        InvariantViolation,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
