"""Command-line interface: run rules, verify axioms, query oracles, generate
counterexample instances.

Exit codes: 0 success / axiom holds / feasible; 1 axiom fails / infeasible;
2 usage, parse, or validation error, or out of memory. All file outputs are
canonical JSON (sorted keys) with rationals as strings, so reports are
byte-stable modulo the timing field.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional, Sequence

from .exante import check_gfs, check_ifs, check_strong_ufs, gfs_rows, ifs_rows
from .expost import SettingError
from .limits import ScaleError, exponential_limit
from .lp import LinearConstraint
from .model import (
    FractionalOutcome,
    IntegralOutcome,
    PBInstance,
    Setting,
    ValidationError,
    marginals,
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
    lottery_feasible,
    predicate,
)
from .rounding import RoundingSampler, is_bb1
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
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not valid UTF-8 ({exc})") from exc
    except (RecursionError, ValueError) as exc:
        # Malformed JSON, nesting past the recursion limit, or an integer
        # literal past the int-digit limit.
        raise UsageError(f"{path}: invalid JSON ({exc})") from exc


def _write(text: str, path: Optional[str]) -> None:
    """Write `text` to `path`, or to stdout when no path is given.

    An existing regular file is unlinked and written anew rather than
    truncated in place: on ext4 a file truncated and rewritten is flushed
    to disk when it is closed, which costs tens of milliseconds.
    """
    if not path:
        sys.stdout.write(text)
        return
    target = Path(path)
    try:
        if target.is_file() and not target.is_symlink():
            target.unlink()
        target.write_text(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _check_before_work(args: argparse.Namespace) -> None:
    """Fail before any work when an output file's directory is missing or
    PB_BOBW_LIMIT is malformed, which a check would report as a skip."""
    for name in ("out", "out_fractional"):
        path = getattr(args, name, None)
        if path and not Path(path).parent.is_dir():
            raise UsageError(
                f"cannot write {path}: {Path(path).parent} is not a directory"
            )
    if hasattr(args, "limit_exp"):
        exponential_limit(None)


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
    return {"shares": instance.share_map(p.shares)}


def _emit(report: dict, out: Optional[str]) -> None:
    _write(json.dumps(report, indent=2, sort_keys=True) + "\n", out)


def _digest(instance: PBInstance) -> str:
    return hashlib.sha256(serialize_instance(instance).encode()).hexdigest()


# ---------------------------------------------------------------------------
# run


def _sample_block(
    instance: PBInstance, sampler: RoundingSampler, seed: int, samples: int
) -> tuple[dict, list[IntegralOutcome]]:
    counts = sampler.derived_counts(seed, samples)
    block: dict = {
        "samples": samples,
        "outcomes": [
            {"count": counts[w], "projects": instance.sorted_ids(w.projects)}
            for w in sorted(counts, key=lambda w: sorted(w.projects))
        ],
    }
    if samples > 1:
        funded = marginals(instance.m, ((c, w) for w, c in counts.items()))
        block["empirical_marginals"] = instance.share_map(
            Fraction(k, samples) for k in funded
        )
    return block, list(counts)


def _unless_skipped(entry: Callable[[], object]) -> object:
    """A report entry, or a skip note if its check is over the limit or
    does not apply to the instance's setting."""
    try:
        return entry()
    except (ScaleError, SettingError) as exc:
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
    elif instance.setting in (Setting.BINARY, Setting.COMMITTEE):
        ex_post = "ejr"
    else:
        ex_post = "ejrx"
    check = _INTEGRAL_AXIOMS[ex_post]
    axioms: dict = {}

    if args.rule == "frd":
        p = fractional_random_dictator(instance)
        report["fractional"] = fractional_to_dict(instance, p)
        report["cost_equals_budget"] = p.is_feasible(instance)
        axioms["ifs"] = check_ifs(instance, p).to_dict(instance)
        axioms["gfs"] = _unless_skipped(
            lambda: check_gfs(instance, p, args.limit_exp).to_dict(instance)
        )
        sampler = RoundingSampler(instance, p)
        sampled, distinct = _sample_block(instance, sampler, args.seed, args.samples)
        report["sampling"] = sampled
    elif args.rule == "gcr":
        trace = gcr(instance, args.limit_exp)
        report["trace"] = trace.to_dict(instance)
        outcome = trace.outcome
    elif args.rule == "mes":
        result = mes(instance)
        outcome = result.outcome
        report["outcome"] = instance.sorted_ids(outcome.projects)
        report["selection"] = [
            {"project": instance.project_ids[j], "rho": rational_str(r)}
            for j, r in result.rho
        ]
    elif args.rule in ("bw-gcr", "bw-mes"):
        if args.rule == "bw-gcr":
            result = bw_gcr(instance, args.seed, args.limit_exp)
        else:
            result = bw_mes(instance, args.seed)
        p, sampler = result.fractional, result.sampler
        report["fractional"] = fractional_to_dict(instance, p)
        axioms["strong-ufs"] = check_strong_ufs(instance, p).to_dict(instance)
        sampled, distinct = _sample_block(instance, sampler, args.seed, args.samples)
        report["sampling"] = sampled
        per_outcome = []
        for w in distinct:
            entry = {
                "projects": instance.sorted_ids(w.projects),
                "bb1": is_bb1(instance, w),
                ex_post: _unless_skipped(
                    lambda: check(instance, w, args.limit_exp).holds
                ),
            }
            per_outcome.append(entry)
        per_outcome.sort(key=lambda e: e["projects"])
        axioms["sampled_outcomes"] = per_outcome
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown rule {args.rule!r}")
    if args.rule in ("gcr", "mes"):
        axioms[ex_post] = _unless_skipped(
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
        # The row as integers on its least common denominator d.
        entries = (*coeffs, bound)
        d = math.lcm(*(c.denominator for c in entries))
        *ints, top = (c.numerator * (d // c.denominator) for c in entries)
        rows.append(LinearConstraint(tuple(ints), relation, top, d))
    return rows


def cmd_oracle(args: argparse.Namespace) -> int:
    if args.mode == "implementable" and not args.fractional:
        raise UsageError("--mode implementable requires --fractional")
    if args.mode == "joint" and args.fractional:
        raise UsageError("--mode joint takes no --fractional")
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
    if args.fractional:
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

    _write(serialize_instance(instance) + "\n", args.out)
    if fractional is not None:
        _emit(
            fractional_to_dict(instance, fractional),
            args.out_fractional or (args.out and args.out + ".p.json"),
        )
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
    run.add_argument("--limit-exp", type=_count, default=None)
    run.set_defaults(handler=cmd_run)

    verify = sub.add_parser("verify", help="check axioms on an outcome")
    verify.add_argument("--instance", required=True)
    verify.add_argument("--target", required=True)
    verify.add_argument("--axioms", required=True)
    verify.add_argument("--out")
    verify.add_argument("--limit-exp", type=_count, default=None)
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
    oracle.add_argument("--limit-exp", type=_count, default=None)
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it as it
    was, and each call gets a fresh namespace."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes.
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        _check_before_work(args)
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
    except MemoryError:
        # Exit 1 is kept for a failing axiom. The work's memory is normally
        # freed once the stack has unwound to here; if the line still
        # cannot be written, the exit code alone tells.
        with contextlib.suppress(MemoryError):
            print("error: out of memory", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
