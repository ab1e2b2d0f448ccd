"""Acceptance suite: one test per headline guarantee, each printing a single
pass/fail line at its stated tolerance.

Statistical checks pin both the tolerance and the seed; everything else is
exact rational arithmetic with zero tolerance.
"""

import gc
import random
import time
from fractions import Fraction

import numpy as np

from pbbobw import (
    FractionalOutcome,
    IntegralOutcome,
    RoundingSampler,
    bw_gcr,
    bw_mes,
    check_ejr_binary,
    check_ejrx_cost,
    check_fjr_binary,
    check_gfs,
    check_ifs,
    check_jr_binary,
    check_jr_general,
    check_strong_ifs,
    check_strong_ufs,
    check_ufs,
    dependent_round,
    derive_seed,
    derive_seeds,
    enumerate_outcomes,
    fractional_random_dictator,
    gen_bfx_family,
    gen_gfs_jr_family,
    gen_ifs_jr_family,
    gfs_rows,
    group_ladder,
    ifs_rows,
    is_bb1,
    lottery_feasible,
    mes,
    optimal_fractional_utility,
    predicate,
    round_with_hard_cap,
    utility,
)

from conftest import (
    random_budget_outcome,
    random_feasible_p,
    random_instance,
)


def report(capsys, number: int, title: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(
            f"\ncriterion {number:2d} [{title}]: "
            f"{'PASS' if ok else 'FAIL'}{tail}"
        )
    assert ok, f"criterion {number} failed: {title} {detail}"


def _rounding_sweep():
    """Shared 50-instance sweep for the marginal and BB1 criteria."""
    rng = random.Random(20260826)
    sweep = []
    for _ in range(50):
        inst = random_instance(rng, n_max=6, m_max=6)
        p = random_feasible_p(rng, inst)
        sweep.append((inst, p))
    return sweep


SAMPLES_PER_INSTANCE = 100_000
_sweep_cache = {}


def _sampled_sweep():
    if "data" not in _sweep_cache:
        data = []
        for idx, (inst, p) in enumerate(_rounding_sweep()):
            sampler = RoundingSampler(inst, p)
            counts = sampler.sample_counts(
                derive_seeds(idx, range(SAMPLES_PER_INSTANCE))
            )
            data.append((inst, p, counts))
        _sweep_cache["data"] = data
    return _sweep_cache["data"]


def test_criterion_1_marginal_preservation(capsys):
    started = time.monotonic()
    worst = 0.0
    for inst, p, counts in _sampled_sweep():
        for j in range(inst.m):
            hits = sum(c for w, c in counts.items() if j in w.projects)
            worst = max(
                worst, abs(hits / SAMPLES_PER_INSTANCE - float(p.shares[j]))
            )
    elapsed = time.monotonic() - started
    report(
        capsys,
        1,
        "marginal preservation",
        worst <= 0.01 and elapsed < 60,
        f"max |phat - p| = {worst:.5f} over 50x{SAMPLES_PER_INSTANCE} "
        f"samples in {elapsed:.1f}s",
    )


def test_criterion_2_ex_post_bb1(capsys):
    bad = 0
    outcomes = 0
    for inst, _, counts in _sampled_sweep():
        for w in counts:
            outcomes += 1
            if not is_bb1(inst, w):
                bad += 1
    report(
        capsys,
        2,
        "ex-post BB1",
        bad == 0,
        f"{outcomes} distinct sampled outcomes, {bad} non-BB1",
    )


def test_criterion_3_conservation(capsys):
    rng = random.Random(333)
    checked = 0
    ok = True
    for _ in range(50):
        inst = random_instance(rng, n_max=6, m_max=6)
        p = random_feasible_p(rng, inst)
        for seed in range(40):
            _, trace = dependent_round(inst, p, derive_seed(seed, 3))
            spend = sum(
                s * c for s, c in zip(p.shares, inst.cost)
            )
            for rnd in trace.rounds:
                after = sum(q * c for q, c in zip(rnd.q, inst.cost))
                if len(rnd.indices) >= 2:
                    ok = ok and after == spend
                    checked += 1
                spend = after
    report(
        capsys,
        3,
        "exact spend conservation",
        ok,
        f"{checked} pairwise rounds checked, zero tolerance",
    )


def test_criterion_4_bfx_impossibility_grid(capsys):
    started = time.monotonic()
    ok = True
    budgets = [Fraction(1), Fraction(2), Fraction(3, 2), Fraction(5), Fraction(7, 3)]
    ratios = [
        Fraction(1, 20),
        Fraction(1, 12),
        Fraction(1, 10),
        Fraction(1, 6),
        Fraction(1, 5),
    ]
    for budget in budgets:
        for ratio in ratios:
            inst, p = gen_bfx_family(budget, budget * ratio)
            ok = ok and not lottery_feasible(inst, predicate("bfx"), p).feasible
            ok = ok and lottery_feasible(inst, predicate("bb1"), p).feasible
    elapsed = time.monotonic() - started
    report(
        capsys,
        4,
        "BFx impossibility grid",
        ok and elapsed < 5,
        f"5x5 grid, exact verdicts in {elapsed:.2f}s",
    )


def test_criterion_5_hard_cap(capsys):
    rng = random.Random(555)
    overruns = 0
    for idx in range(20):
        inst = random_instance(rng, n_max=6, m_max=6)
        reduced = inst.budget - max(inst.cost)
        scale = reduced / inst.budget
        p = FractionalOutcome(
            [s * scale for s in random_feasible_p(rng, inst).shares]
        )
        sampler = RoundingSampler(inst, p, target=reduced)
        counts = sampler.sample_counts(derive_seeds(idx, range(10_000)))
        overruns += sum(
            c for w, c in counts.items() if w.cost(inst) > inst.budget
        )
        # Spot-check agreement with the direct implementation.
        for k in range(20):
            seed = derive_seed(idx, k)
            assert round_with_hard_cap(inst, p, seed) == sampler.sample(seed)
    report(
        capsys,
        5,
        "hard-cap corollary",
        overruns == 0,
        f"20 instances x 10000 seeds, {overruns} overruns",
    )


def test_criterion_6_frd_budget_and_gfs(capsys):
    started = time.monotonic()
    rng = random.Random(666)
    ok = True
    for _ in range(100):
        inst = random_instance(rng, n_max=8, m_max=8)
        p = fractional_random_dictator(inst)
        ok = ok and p.is_feasible(inst)
        ok = ok and check_gfs(inst, p).holds
    elapsed = time.monotonic() - started
    report(
        capsys,
        6,
        "FRD exhausts budget and satisfies GFS",
        ok and elapsed < 120,
        f"100 instances, all 2^n - 1 groups, in {elapsed:.1f}s",
    )


def test_criterion_7_gfs_jr_impossibility(capsys):
    started = time.monotonic()
    inst = gen_gfs_jr_family(6, Fraction(1), Fraction(1, 12))
    g = inst.project_index("g")
    jr_outcomes = enumerate_outcomes(inst, predicate("jr-binary"))
    contains_g = all(g in w.projects for w in jr_outcomes)
    rows = gfs_rows(inst)
    infeasible = not lottery_feasible(
        inst, predicate("jr-binary"), None, rows
    ).feasible
    elapsed = time.monotonic() - started
    report(
        capsys,
        7,
        "GFS + JR impossibility",
        contains_g and len(rows) == 63 and infeasible and elapsed < 120,
        f"{len(jr_outcomes)} JR outcomes all contain the common project; "
        f"joint LP infeasible in {elapsed:.1f}s",
    )


def _qualifying_cells(inst, core):
    """Unanimous cells whose members' utility from the core equals their
    group-ladder optimum."""
    result = []
    for cell in inst.unanimous_cells:
        ladder = group_ladder(inst, cell)
        approved = inst.approval_set(cell[0])
        if len(approved & core) == ladder.kappa:
            result.append((cell, ladder))
    return result


def test_criterion_8_bw_gcr(capsys):
    rng = random.Random(888)
    ok = True
    outcomes_checked = 0
    for idx in range(50):
        inst = random_instance(rng, n_max=5, m_max=6, utilities="binary")
        result = bw_gcr(inst, seed=idx)
        p = result.fractional
        core = result.trace.outcome.projects
        ok = ok and check_strong_ufs(inst, p).holds
        # Lemma: total handed-out budget fits in the leftover.
        ok = ok and sum(result.budgets) <= inst.budget - inst.total_cost(core)
        # Claim: a qualifying cell's deactivating step bought no more than
        # the cell's ladder costs.
        step_of_voter = {}
        for step in result.trace.steps:
            for i in step.voters:
                step_of_voter[i] = step
        for cell, ladder in _qualifying_cells(inst, core):
            steps = {id(step_of_voter[i]) for i in cell if i in step_of_voter}
            ok = ok and len(steps) <= 1
            for i in cell:
                if i in step_of_voter:
                    step = step_of_voter[i]
                    ok = ok and inst.total_cost(step.projects) <= inst.total_cost(
                        ladder.projects
                    )
                    break
        sampler = RoundingSampler(inst, p)
        counts = sampler.sample_counts(
            derive_seed(idx, k) for k in range(100)
        )
        for w in counts:
            outcomes_checked += 1
            ok = ok and is_bb1(inst, w)
            ok = ok and check_fjr_binary(inst, w).holds
    report(
        capsys,
        8,
        "BW-GCR guarantees",
        ok,
        f"50 instances, {outcomes_checked} distinct sampled outcomes, exact",
    )


def test_criterion_9_bw_mes(capsys):
    rng = random.Random(999)
    ok = True
    outcomes_checked = 0
    for idx in range(50):
        inst = random_instance(rng, n_max=5, m_max=6, utilities="binary")
        result = bw_mes(inst, seed=idx)
        p = result.fractional
        ok = ok and check_strong_ufs(inst, p).holds
        # Payment comparison per qualifying unanimous cell, on the
        # payments made during the equal-shares phase.
        core = result.mes.outcome.projects
        y = result.mes.payments.y
        for cell, ladder in _qualifying_cells(inst, core):
            i = cell[0]
            spent = sum(
                (
                    y[i][j]
                    for j in inst.approval_set(i) & core
                ),
                Fraction(0),
            )
            ok = ok and len(cell) * spent <= inst.total_cost(ladder.projects)
        sampler = RoundingSampler(inst, p)
        counts = sampler.sample_counts(
            derive_seed(idx, k) for k in range(100)
        )
        for w in counts:
            outcomes_checked += 1
            ok = ok and is_bb1(inst, w)
            ok = ok and check_ejr_binary(inst, w).holds

    # Polynomial-runtime smoke test: the deterministic part's CPU time
    # over growing n*m is well explained by a cubic fit. Timing is noisy
    # even with min-of-k CPU clocks, so allow a few measurement attempts.
    # A point is the sum of each instance's own minimum over the
    # repetitions: a slow call spoils it only if the same instance is slow
    # in every repetition, not whenever any instance of the batch is.
    sizes = list(range(5, 15))
    timing_rng = random.Random(9090)
    batches = []
    for k in sizes:
        batch = []
        for _ in range(3):
            inst = random_instance(
                timing_rng, n_max=k, m_max=k, utilities="binary"
            )
            while inst.n != k or inst.m != k:
                inst = random_instance(
                    timing_rng, n_max=k, m_max=k, utilities="binary"
                )
            batch.append(inst)
        batches.append(batch)
    r_squared = 0.0
    for _attempt in range(3):
        xs, ys = [], []
        for k, batch in zip(sizes, batches):
            for inst in batch:
                _timed_bw_mes_deterministic(inst)  # warm-up
            times = [
                [_timed_bw_mes_deterministic(inst) for inst in batch]
                for _ in range(7)
            ]
            best = sum(map(min, zip(*times)))
            xs.append(k * k)
            ys.append(best)
        coeffs = np.polyfit(xs, ys, 3)
        fitted = np.polyval(coeffs, xs)
        residual = np.sum((np.array(ys) - fitted) ** 2)
        total = np.sum((np.array(ys) - np.mean(ys)) ** 2)
        r_squared = max(
            r_squared, 1 - residual / total if total > 0 else 1.0
        )
        if r_squared >= 0.9:
            break
    report(
        capsys,
        9,
        "BW-MES guarantees",
        ok and r_squared >= 0.9,
        f"50 instances, {outcomes_checked} sampled outcomes; cubic fit "
        f"R^2 = {r_squared:.3f} over n*m up to {max(xs)}",
    )


def test_criterion_9_mes_rho_searches_are_bounded(monkeypatch):
    """A machine-independent complement to criterion 9's timing fit: on
    its n = m = 5..14 binary instances, an MES run searches for some
    project's rho at most m·(|W| + 1) times, at most once per project in
    each of its |W| + 1 rounds."""
    import pbbobw.rules

    searches = []
    search = pbbobw.rules._min_rho

    def counting(*args):
        searches.append(1)
        return search(*args)

    monkeypatch.setattr(pbbobw.rules, "_min_rho", counting)
    rng = random.Random(9090)
    for k in range(5, 15):
        for _ in range(3):
            inst = random_instance(rng, n_max=k, m_max=k, utilities="binary")
            while inst.n != k or inst.m != k:
                inst = random_instance(rng, n_max=k, m_max=k, utilities="binary")
            searches.clear()
            chosen = mes(inst).outcome.projects
            assert len(searches) <= inst.m * (len(chosen) + 1)


def test_criteria_8_and_9_exact_lotteries(capsys):
    """The main theorems decided exactly rather than sampled: BW-GCR's p
    is a lottery over FJR ∧ BB1 outcomes and BW-MES's p one over
    EJR ∧ BB1 outcomes. A BB1 outcome may overspend, so the classes are
    uncapped; the capped classes fail on some instance."""
    rng = random.Random(8989)
    queries = {
        bw_gcr: ("fjr,bb1", "fjr-binary,bb1"),
        bw_mes: ("ejr,bb1", "ejr-binary,bb1"),
    }
    ok = True
    capped_infeasible = {rule: 0 for rule in queries}
    for idx in range(200):
        inst = random_instance(rng, n_max=4, m_max=5, utilities="binary")
        for rule, (uncapped, capped) in queries.items():
            p = rule(inst, seed=idx).fractional
            ok = ok and lottery_feasible(inst, predicate(uncapped), p).feasible
            if not lottery_feasible(inst, predicate(capped), p).feasible:
                capped_infeasible[rule] += 1
    ok = ok and all(capped_infeasible.values())
    report(
        capsys,
        8,
        "BW-GCR and BW-MES lotteries over FJR/EJR ∧ BB1",
        ok,
        f"200 instances, exact; capped classes infeasible on "
        f"{capped_infeasible[bw_gcr]} (fjr-binary,bb1) and "
        f"{capped_infeasible[bw_mes]} (ejr-binary,bb1)",
    )


def _timed_bw_mes_deterministic(inst) -> float:
    # CPU time with the collector paused: wall-clock scheduling noise would
    # otherwise dominate sub-millisecond runs.
    gc.disable()
    try:
        start = time.process_time()
        bw_mes(inst, seed=0)
        return time.process_time() - start
    finally:
        gc.enable()


def test_criterion_10_ifs_jr_impossibility(capsys):
    started = time.monotonic()
    n, high = 4, Fraction(5)
    inst = gen_ifs_jr_family(n, high)
    infeasible = not lottery_feasible(
        inst, predicate("jr-general"), None, ifs_rows(inst)
    ).feasible
    # Proof identities: every budget-exhausting JR outcome has total
    # utility exactly n + H, so the average voter gets 1 + H/n, strictly
    # below the IFS demand of 2H/n when H > n.
    identities = True
    jr_outcomes = enumerate_outcomes(inst, predicate("jr-general"))
    full_cost = [
        w for w in jr_outcomes if w.cost(inst) == inst.budget
    ]
    identities = identities and len(full_cost) > 0
    for w in full_cost:
        total = sum(
            (utility(inst, i, w) for i in range(inst.n)), Fraction(0)
        )
        identities = identities and total == inst.n + high
        identities = identities and min(
            utility(inst, i, w) for i in range(inst.n)
        ) <= 1 + high / inst.n
    for i in range(inst.n):
        identities = identities and (
            optimal_fractional_utility(inst, i, inst.budget) == 2 * high
        )
    identities = identities and 2 * high / n > 1 + high / n
    elapsed = time.monotonic() - started
    report(
        capsys,
        10,
        "IFS + JR impossibility",
        infeasible and identities and elapsed < 60,
        f"joint LP infeasible; {len(full_cost)} budget-exhausting JR "
        f"outcomes match the utility identities; {elapsed:.1f}s",
    )


def test_criterion_11_cost_utilities(capsys):
    rng = random.Random(1111)
    ok = True
    outcomes_checked = 0
    for idx in range(50):
        inst = random_instance(rng, n_max=5, m_max=6, utilities="cost")
        result = bw_mes(inst, seed=idx)
        p = result.fractional
        ok = ok and check_gfs(inst, p).holds
        ok = ok and check_strong_ufs(inst, p).holds
        # Per-voter spend bound on the full Alg-2 payments (equal-shares
        # phase plus the remaining-budget spending).
        y = result.payments.y
        for i in range(inst.n):
            approved = inst.approval_set(i)
            spent = sum((y[i][j] for j in approved), Fraction(0))
            entitled = min(inst.budget, inst.total_cost(approved))
            ok = ok and spent * inst.n >= entitled
        sampler = RoundingSampler(inst, p)
        counts = sampler.sample_counts(
            derive_seed(idx, k) for k in range(100)
        )
        for w in counts:
            outcomes_checked += 1
            ok = ok and is_bb1(inst, w)
            ok = ok and check_ejrx_cost(inst, w).holds
    report(
        capsys,
        11,
        "cost-utility BW-MES guarantees",
        ok,
        f"50 instances, {outcomes_checked} sampled outcomes, exact",
    )


def test_criterion_12_axiom_hierarchy(capsys):
    rng = random.Random(1212)
    ok = True
    for _ in range(200):
        inst = random_instance(rng, n_max=5, m_max=5, utilities="binary")
        p = random_feasible_p(rng, inst)
        sufs = check_strong_ufs(inst, p).holds
        ufs = check_ufs(inst, p).holds
        ifs = check_ifs(inst, p).holds
        sifs = check_strong_ifs(inst, p).holds
        ok = ok and (not sufs or ufs) and (not ufs or ifs) and (not sifs or ifs)
        w = random_budget_outcome(rng, inst)
        fjr = check_fjr_binary(inst, w).holds
        ejr = check_ejr_binary(inst, w).holds
        jr = check_jr_binary(inst, w).holds
        ok = ok and (not fjr or ejr) and (not ejr or jr)
        ok = ok and check_jr_general(inst, w).holds == jr
    report(
        capsys,
        12,
        "axiom hierarchy",
        ok,
        "200 random (instance, p, W) triples, zero tolerance",
    )
