"""Per-layer self times and counts, recorded from the benchmark's side.

`install` replaces pbbobw's public functions at the names where their
callers look them up (module globals and the CLI's axiom tables) with
timing wrappers. A wrapper's self time is its duration minus the time of
the wrapped calls made inside it, so the layers add up to the time spent
in the CLI. Counts come from the arguments and return values at the
wrapped call. A name that no longer exists is reported as missing; the
run goes on without it.
"""

from __future__ import annotations

import importlib
from collections import Counter
from time import perf_counter

# (lookup site, span key). "module:name" is a module attribute,
# "module:table[key]" an entry of a dict held by the module.
TARGETS = [
    ("pbbobw.cli:main", "cli"),
    ("pbbobw.cli:parse_instance", "model"),
    ("pbbobw.cli:serialize_instance", "model"),
    ("pbbobw.cli:fractional_random_dictator", "rules.frd"),
    ("pbbobw.cli:gcr", "rules.gcr"),
    ("pbbobw.rules:gcr", "rules.gcr"),
    ("pbbobw.cli:mes", "rules.mes"),
    ("pbbobw.rules:mes", "rules.mes"),
    ("pbbobw.cli:bw_gcr", "rules.bw"),
    ("pbbobw.cli:bw_mes", "rules.bw"),
    ("pbbobw.rules:dependent_round", "rounding.direct"),
    ("pbbobw.cli:RoundingSampler", "rounding.build"),
    ("pbbobw.cli:check_gfs", "exante.gfs"),
    ("pbbobw.cli:check_ifs", "exante.share"),
    ("pbbobw.cli:check_strong_ufs", "exante.share"),
    ("pbbobw.cli:_FRACTIONAL_AXIOMS[ifs]", "exante.share"),
    ("pbbobw.cli:_FRACTIONAL_AXIOMS[strong-ifs]", "exante.share"),
    ("pbbobw.cli:_FRACTIONAL_AXIOMS[sifs]", "exante.share"),
    ("pbbobw.cli:_FRACTIONAL_AXIOMS[ufs]", "exante.share"),
    ("pbbobw.cli:_FRACTIONAL_AXIOMS[strong-ufs]", "exante.share"),
    ("pbbobw.cli:_FRACTIONAL_AXIOMS[sufs]", "exante.share"),
    ("pbbobw.cli:check_ejr_binary", "expost.ejr"),
    ("pbbobw.cli:check_fjr_binary", "expost.fjr"),
    ("pbbobw.cli:check_ejrx_cost", "expost.ejrx"),
    ("pbbobw.cli:_INTEGRAL_AXIOMS[jr]", "expost.jr"),
    ("pbbobw.cli:_INTEGRAL_AXIOMS[jr-general]", "expost.jr"),
    ("pbbobw.cli:_INTEGRAL_AXIOMS[ejr]", "expost.ejr"),
    ("pbbobw.cli:_INTEGRAL_AXIOMS[fjr]", "expost.fjr"),
    ("pbbobw.cli:_INTEGRAL_AXIOMS[ejrx]", "expost.ejrx"),
    ("pbbobw.oracle:check_jr_binary", "expost.jr"),
    ("pbbobw.oracle:check_jr_general", "expost.jr"),
    ("pbbobw.oracle:check_ejr_binary", "expost.ejr"),
    ("pbbobw.oracle:check_fjr_binary", "expost.fjr"),
    ("pbbobw.oracle:check_ejrx_cost", "expost.ejrx"),
    ("pbbobw.cli:lottery_feasible", "oracle.self"),
    ("pbbobw.oracle:enumerate_outcomes", "oracle.enumerate"),
    ("pbbobw.cli:gfs_rows", "oracle.rows"),
    ("pbbobw.cli:ifs_rows", "oracle.rows"),
    ("pbbobw.oracle:solve_feasibility", "lp.solve"),
]

# (metric, unit). Per-round values: times in seconds unless named otherwise.
LAYER_METRICS = [
    ("cli.self_s", "s"), ("cli.commands", "count"),
    ("model.self_s", "s"), ("model.calls", "count"),
    ("rules.gcr_s", "s"), ("rules.mes_s", "s"), ("rules.frd_s", "s"),
    ("rules.bw_s", "s"), ("rules.calls", "count"),
    ("rounding.build_s", "s"), ("rounding.builds", "count"),
    ("rounding.frac_projects", "count"), ("rounding.sample_s", "s"),
    ("rounding.samples", "count"), ("rounding.sample_us", "us"),
    ("rounding.direct_s", "s"), ("rounding.direct_calls", "count"),
    ("rounding.distinct_outcomes", "count"),
    ("exante.gfs_s", "s"), ("exante.gfs_calls", "count"),
    ("exante.share_s", "s"), ("exante.share_calls", "count"),
    ("expost.jr_s", "s"), ("expost.ejr_s", "s"), ("expost.fjr_s", "s"),
    ("expost.ejrx_s", "s"), ("expost.checks", "count"),
    ("expost.violations", "count"), ("expost.check_ms", "ms"),
    ("oracle.enumerate_s", "s"), ("oracle.outcomes", "count"),
    ("oracle.rows_s", "s"), ("oracle.rows", "count"), ("oracle.self_s", "s"),
    ("lp.solve_s", "s"), ("lp.solves", "count"), ("lp.cells", "count"),
    ("lp.solve_ms", "ms"),
]


class Tracer:
    """Self time and call count per span key, plus counters from hooks."""

    def __init__(self):
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._child = []  # time covered by child spans, one slot per open span
        self._distinct: list[set] = []
        self.missing: set[str] = set()  # targets that could not be wrapped

    def wrap(self, key, fn, hook=None):
        def traced(*args, **kwargs):
            self._child.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self.self_s[key] += elapsed - self._child.pop()
                if self._child:
                    self._child[-1] += elapsed
                self.calls[key] += 1
            if hook is not None:
                hook(args, result)
            return result

        return traced

    # Hooks reading counts off arguments and return values.

    def _expost(self, args, report):
        if getattr(report, "holds", True) is False:
            self.counts["expost.violations"] += 1

    def _rows(self, args, rows):
        self.counts["oracle.rows"] += len(rows)

    def _outcomes(self, args, outcomes):
        self.counts["oracle.outcomes"] += len(outcomes)

    def _lp(self, args, solution):
        constraints, num_vars = args[0], args[1]
        rows = len(constraints)
        slack = sum(1 for c in constraints if c.relation != "=")
        self.counts["lp.cells"] += rows * (num_vars + slack + rows + 1)

    def _sampler(self, args, sampler):
        p = args[1]
        self.counts["rounding.frac_projects"] += sum(1 for s in p.shares if 0 < s < 1)
        seen: set = set()
        self._distinct.append(seen)
        try:
            sampler.sample = self.wrap("rounding.sample", sampler.sample,
                                       lambda a, w: seen.add(w))
        except AttributeError:
            self.missing.add("pbbobw.cli:RoundingSampler.sample")

    def hook_for(self, key):
        if key.startswith("expost."):
            return self._expost
        return {
            "oracle.rows": self._rows,
            "oracle.enumerate": self._outcomes,
            "lp.solve": self._lp,
            "rounding.build": self._sampler,
        }.get(key)

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-round layer metrics (totals divided by the rounds run)."""
        t, c, n = self.self_s, self.calls, self.counts
        expost_s = sum(v for k, v in t.items() if k.startswith("expost."))
        expost_n = sum(v for k, v in c.items() if k.startswith("expost."))
        raw = {
            "cli.self_s": t["cli"], "cli.commands": c["cli"],
            "model.self_s": t["model"], "model.calls": c["model"],
            "rules.gcr_s": t["rules.gcr"], "rules.mes_s": t["rules.mes"],
            "rules.frd_s": t["rules.frd"], "rules.bw_s": t["rules.bw"],
            "rules.calls": sum(v for k, v in c.items() if k.startswith("rules.")),
            "rounding.build_s": t["rounding.build"],
            "rounding.builds": c["rounding.build"],
            "rounding.frac_projects": n["rounding.frac_projects"],
            "rounding.sample_s": t["rounding.sample"],
            "rounding.samples": c["rounding.sample"],
            "rounding.direct_s": t["rounding.direct"],
            "rounding.direct_calls": c["rounding.direct"],
            "rounding.distinct_outcomes": sum(len(s) for s in self._distinct),
            "exante.gfs_s": t["exante.gfs"], "exante.gfs_calls": c["exante.gfs"],
            "exante.share_s": t["exante.share"], "exante.share_calls": c["exante.share"],
            "expost.jr_s": t["expost.jr"], "expost.ejr_s": t["expost.ejr"],
            "expost.fjr_s": t["expost.fjr"], "expost.ejrx_s": t["expost.ejrx"],
            "expost.checks": expost_n,
            "expost.violations": n["expost.violations"],
            "oracle.enumerate_s": t["oracle.enumerate"],
            "oracle.outcomes": n["oracle.outcomes"],
            "oracle.rows_s": t["oracle.rows"],
            "oracle.rows": n["oracle.rows"],
            "oracle.self_s": t["oracle.self"],
            "lp.solve_s": t["lp.solve"], "lp.solves": c["lp.solve"],
            "lp.cells": n["lp.cells"],
        }
        out = {k: v / rounds for k, v in raw.items()}
        out["rounding.sample_us"] = _ratio(t["rounding.sample"], c["rounding.sample"], 1e6)
        out["expost.check_ms"] = _ratio(expost_s, expost_n, 1e3)
        out["lp.solve_ms"] = _ratio(t["lp.solve"], c["lp.solve"], 1e3)
        return {name: out[name] for name, _ in LAYER_METRICS}


def _ratio(total: float, count: int, scale: float) -> float:
    return total / count * scale if count else 0.0


def install(tracer: Tracer):
    """Wrap every target that exists and record the others in
    tracer.missing. Returns a function that puts the originals back."""
    undo = []
    for site, key in TARGETS:
        module_name, _, name = site.partition(":")
        table, _, entry = name.partition("[")
        try:
            module = importlib.import_module(module_name)
            holder = getattr(module, table) if entry else vars(module)
            attr = entry.rstrip("]") if entry else name
            original = holder[attr]
        except (ImportError, AttributeError, KeyError, TypeError):
            tracer.missing.add(site)
            continue
        holder[attr] = tracer.wrap(key, original, tracer.hook_for(key))
        undo.append((holder, attr, original))

    def uninstall():
        for holder, attr, original in reversed(undo):
            holder[attr] = original

    return uninstall
