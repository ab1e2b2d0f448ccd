import functools
import gc
import hashlib
import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import pbbobw.rounding as rounding
from pbbobw import (
    FractionalOutcome,
    IntegralOutcome,
    PBInstance,
    RoundingSampler,
    bw_mes,
    dependent_round,
    derive_seed,
    derive_seeds,
    fractional_random_dictator,
    is_bb1,
    is_bfx,
    parse_instance,
    round_with_hard_cap,
    splitmix64,
)

from pbbobw.cli import main

from conftest import random_feasible_p, random_instance, two_voter_example

BINARY = Path(__file__).resolve().parent / "data" / "reports" / "binary.json"


def test_splitmix64_reference_vector():
    # First three outputs of the standard splitmix64 stream from state 0:
    # splitmix64(k * gamma) scrambles state (k+1) * gamma.
    gamma = 0x9E3779B97F4A7C15
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(gamma) == 0x6E789E6AA1B965F4
    assert splitmix64(2 * gamma & (2**64 - 1)) == 0x06C45D188009454F


def test_threshold_is_exact_at_the_boundary():
    """u < ceil(num * 2**64 / den) iff u * den < num * 2**64, tested at
    the draws just below and at the threshold."""
    two64 = 2**64
    for num, den in [(1, 2), (1, 3), (2, 3), (5, 7), (1, 1), (0, 4),
                     (10**20 + 1, 3 * 10**20), (2**64 - 1, 2**64 + 5)]:
        t = rounding._threshold(num, den)
        for u in (t - 1, t):
            if 0 <= u < two64:
                assert (u < t) == (u * den < num * two64)


def _seed_with_first_draw(draw):
    """The seed whose first splitmix64 draw is `draw`: splitmix64 inverted
    (each xor-shift undone by iterating it, each odd multiplier by its
    inverse modulo 2**64)."""
    mask = 2**64 - 1

    def unshift(z, s):
        x = z
        for _ in range(64 // s + 1):
            x = z ^ (x >> s)
        return x

    z = unshift(draw, 31)
    z = unshift(z * pow(0x94D049BB133111EB, -1, 2**64) & mask, 27)
    z = unshift(z * pow(0xBF58476D1CE4E5B9, -1, 2**64) & mask, 30)
    return (z - 0x9E3779B97F4A7C15) & mask


def _top_byte_neighbours(t):
    """Draws around threshold `t`: t - 1, t and t + 1 share t's top byte,
    and the last draw of the top byte below and the first of the one
    above are one top byte apart from it, where these are 64-bit."""
    top = t >> 56
    draws = [t - 1, t, t + 1, (top << 56) - 1, (top + 1) << 56]
    return [u for u in draws if 0 <= u < 2**64]


def test_draws_at_the_threshold_branch_like_dependent_round():
    """A first draw of t - 1 goes up and one of t or t + 1 goes down,
    both in a zero-cost round and at the root of the DAG, as in
    `dependent_round`; so do draws one top byte below and above t's, and
    so do all of them in a block big enough to be split per state."""
    zero_cost = PBInstance(
        budget=Fraction(1),
        cost=(Fraction(0), Fraction(1), Fraction(1)),
        utilities=((Fraction(1), Fraction(1), Fraction(1)),),
        project_ids=("a", "b", "c"),
        voter_ids=("v1",),
    )
    for inst, p in [
        (zero_cost, FractionalOutcome(["1/3", "1", "0"])),
        (two_voter_example(), FractionalOutcome([1, "1/3", "2/3"])),
    ]:
        sampler = RoundingSampler(inst, p)
        t = sampler._thr[0]
        draws = _top_byte_neighbours(t)
        seeds = [_seed_with_first_draw(u) for u in draws]
        assert [splitmix64(s) for s in seeds] == draws
        up, down = (dependent_round(inst, p, s)[0] for s in seeds[:2])
        assert up != down
        branches = [up, down, down, up, down]
        assert [sampler.sample(s) for s in seeds] == branches
        assert sampler.sample_counts(seeds[:2]) == {up: 1, down: 1}
        block = seeds + list(derive_seeds(3, range(rounding._SEEDS_PER_GROUP)))
        expected = Counter(dependent_round(inst, p, s)[0] for s in block)
        counts = sampler.sample_counts(block)
        assert list(counts.items()) == list(expected.items())


def test_split_decides_top_byte_ties_exactly():
    """`_below` takes a draw with a smaller top byte as below the
    threshold and one with a larger top byte as not; a draw sharing the
    threshold's top byte is below it exactly when it is smaller."""
    mask = 2**64 - 1
    for t in (0x3A_1234_5678_9ABC_DE, 0x80 << 56 | 0x42, (1 << 56) + 7,
              0xFF << 56 | 5, 5):
        draws = _top_byte_neighbours(t) + [0, mask, t >> 1]
        n = len(draws)
        raw = rounding._pack(draws).to_bytes(16 * n, "little")
        tops = raw[7::16]
        assert list(tops) == [u >> 56 for u in draws]
        everyone = int.from_bytes(b"\1" * n, "little")
        below = rounding._below(raw, tops, everyone, t)
        assert list(below.to_bytes(n, "little")) == [u < t for u in draws]
        # Seeds outside the set stay out, ties included.
        some = int.from_bytes(bytes(k % 3 > 0 for k in range(n)), "little")
        assert rounding._below(raw, tops, some, t) == below & some
    # A branch probability within 2**-64 of 1 has threshold 2**64.
    raw = rounding._pack([mask, 0]).to_bytes(32, "little")
    assert rounding._below(raw, raw[7::16], 0x0101, 2**64) == 0x0101


def test_zero_cost_round_with_threshold_two_to_the_64():
    """A zero-cost share of 1 - 2**-70 rounds its threshold up to 2**64,
    past every draw: each seed funds it, in a split block and alone."""
    inst = PBInstance(
        budget=Fraction(1),
        cost=(Fraction(0), Fraction(1), Fraction(1)),
        utilities=((Fraction(1),) * 3,),
        project_ids=("a", "b", "c"),
        voter_ids=("v1",),
    )
    p = FractionalOutcome([Fraction(2**70 - 1, 2**70), "1/2", "1/2"])
    sampler = RoundingSampler(inst, p)
    assert sampler._thr[0] == 2**64
    seeds = list(derive_seeds(70, range(100)))
    counts = sampler.sample_counts(seeds)
    assert counts == Counter(dependent_round(inst, p, s)[0] for s in seeds)
    assert all(0 in w.projects for w in counts)
    assert sampler.sample(seeds[0]) == dependent_round(inst, p, seeds[0])[0]


def test_derive_seed_distinct_and_stable():
    seeds = [derive_seed(42, k) for k in range(1000)]
    assert len(set(seeds)) == 1000
    assert seeds[:3] == [derive_seed(42, k) for k in range(3)]


def test_derive_seed_streams_of_nearby_seeds_do_not_overlap():
    seeds = {derive_seed(s, k) for s in range(50) for k in range(50)}
    assert len(seeds) == 2500
    for s in range(50):
        for k in range(50):
            assert derive_seed(s + 1, k) != derive_seed(s, k + 1)


def test_derive_seeds_match_derive_seed_one_index_at_a_time():
    mask = 2**64 - 1
    for s in (0, 1, 42, -1, 2**64 - 1, 2**70 + 3):
        seeds = list(derive_seeds(s, range(200)))
        assert seeds == [derive_seed(s, k) for k in range(200)]
        assert seeds == [
            splitmix64((splitmix64(s) + k) & mask) for k in range(200)
        ]
    assert list(derive_seeds(7, [5, 2])) == [derive_seed(7, 5), derive_seed(7, 2)]


def test_packed_kernel_matches_scalar_splitmix64():
    """Every draw of a packed block equals the scalar splitmix64 of its
    stream, at the ends of the 64-bit range, where a state + d * gamma
    wraps past 2**64, in a full block and in a block of one."""
    mask = 2**64 - 1
    gamma = 0x9E3779B97F4A7C15
    rng = random.Random(64)
    edges = [0, 1, mask, mask - 1, 2**63, (-gamma) & mask, (-2 * gamma) & mask]
    states = edges + [
        rng.getrandbits(64) for _ in range(rounding._BLOCK - len(edges))
    ]
    # Word k sits in the low half of 128-bit lane k on either byte order.
    assert rounding._pack(states[:3]) == sum(
        s << 128 * k for k, s in enumerate(states[:3])
    )
    assert list(rounding._unpack(rounding._pack(states), len(states))) == states
    for block in (states, states[:1], states[2:3]):
        rows = rounding._draw_rows(rounding._pack(block), len(block), 4)
        assert len(rows) == 4
        for d, row in enumerate(rows):
            assert list(rounding._unpack(row, len(block))) == [
                splitmix64((s + d * gamma) & mask) for s in block
            ]


def test_derive_seeds_wrap_past_two_to_the_64():
    """base + k wraps for indices near 2**64 - splitmix64(seed)."""
    mask = 2**64 - 1
    base = splitmix64(5)
    wrap = range(2**64 - base - 3, 2**64 - base + 3)
    assert list(derive_seeds(5, wrap)) == [
        splitmix64((base + k) & mask) for k in wrap
    ]
    assert [derive_seed(5, k) for k in wrap] == list(derive_seeds(5, wrap))


def test_derive_seeds_is_lazy():
    assert next(derive_seeds(3, itertools.count())) == derive_seed(3, 0)


@pytest.mark.parametrize(
    "count",
    [0, 1, rounding._BLOCK - 1, rounding._BLOCK, rounding._BLOCK + 1],
)
def test_sample_counts_across_block_boundaries(count):
    """The block tally equals a tally of single samples and of the
    reference path, for seed counts around the block size."""
    rng = random.Random(count)
    inst = random_instance(rng)
    p = random_feasible_p(rng, inst)
    inst, p = with_zero_cost_projects(rng, inst, p)
    sampler = RoundingSampler(inst, p)
    seeds = list(derive_seeds(count, range(count)))
    counts = sampler.sample_counts(seeds)
    assert counts == Counter(sampler.sample(s) for s in seeds)
    assert counts == Counter(dependent_round(inst, p, s)[0] for s in seeds)
    assert sum(counts.values()) == count


def test_sample_counts_of_seeds_outside_64_bits():
    """Seeds are taken modulo 2**64, as `dependent_round` takes them."""
    rng = random.Random(65)
    inst = random_instance(rng)
    p = random_feasible_p(rng, inst)
    seeds = [-1, -(2**70) - 9, 2**64, 2**64 + 5, 2**100 + 3, 2**64 - 1]
    seeds += [rng.randrange(-(2**80), 2**80) for _ in range(1500)]
    sampler = RoundingSampler(inst, p)
    assert sampler.sample_counts(seeds) == Counter(
        dependent_round(inst, p, s)[0] for s in seeds
    )
    for s in seeds[:6]:
        assert sampler.sample(s) == sampler.sample(s % 2**64)


def test_sample_counts_without_priced_rounds():
    """An integral p has a leaf for its root (no draws at all), and a p
    whose only fractional projects cost nothing takes only the zero-cost
    rounds; every seed is still counted."""
    inst = two_voter_example()
    p = FractionalOutcome([1, 1, 0])
    sampler = RoundingSampler(inst, p)
    assert sampler.sample_counts(range(1500)) == {IntegralOutcome({0, 1}): 1500}
    assert sampler.sample(7) == IntegralOutcome({0, 1})
    assert sampler.sample_counts([]) == {}
    inst = PBInstance(
        budget=Fraction(1),
        cost=(Fraction(0), Fraction(1), Fraction(0), Fraction(1)),
        utilities=((Fraction(1),) * 4,),
        project_ids=("a", "b", "c", "d"),
        voter_ids=("v1",),
    )
    p = FractionalOutcome(["1/3", "1", "3/4", "0"])
    sampler = RoundingSampler(inst, p)
    seeds = list(derive_seeds(8, range(1500)))
    counts = sampler.sample_counts(seeds)
    assert counts == Counter(dependent_round(inst, p, s)[0] for s in seeds)
    assert len(counts) == 4
    assert sum(counts.values()) == 1500


def test_rounding_is_deterministic():
    inst = two_voter_example()
    p = FractionalOutcome([1, "1/2", "1/2"])
    w1, t1 = dependent_round(inst, p, 7)
    w2, t2 = dependent_round(inst, p, 7)
    assert w1 == w2
    assert t1.to_dict() == t2.to_dict()


def test_two_voter_example_outcomes():
    inst = two_voter_example()
    p = FractionalOutcome([1, "1/2", "1/2"])
    sampler = RoundingSampler(inst, p)
    probs = sampler.probabilities()
    assert probs == {
        IntegralOutcome({0, 1}): Fraction(1, 2),
        IntegralOutcome({0, 2}): Fraction(1, 2),
    }


def test_exact_marginals_and_bb1_support():
    """The sampler's exact distribution has marginals equal to p and
    only BB1 outcomes in its support."""
    rng = random.Random(101)
    for case in range(40):
        inst = random_instance(rng)
        p = random_feasible_p(rng, inst)
        if case % 4 == 3:
            inst, p = with_zero_cost_projects(rng, inst, p)
        sampler = RoundingSampler(inst, p)
        probs = sampler.probabilities()
        assert sum(probs.values()) == 1
        for j in range(inst.m):
            marginal = sum(
                weight for w, weight in probs.items() if j in w.projects
            )
            assert marginal == p.shares[j]
        for w in probs:
            assert is_bb1(inst, w)


def with_zero_cost_projects(rng, inst, p):
    """Insert one to three zero-cost projects with fractional shares."""
    cost, shares = list(inst.cost), list(p.shares)
    rows = [list(row) for row in inst.utilities]
    for _ in range(rng.randint(1, 3)):
        at = rng.randint(0, len(cost))
        cost.insert(at, Fraction(0))
        shares.insert(at, Fraction(rng.randint(1, 6), 7))
        for row in rows:
            row.insert(at, Fraction(rng.randint(0, 2)))
    instance = PBInstance(
        budget=inst.budget,
        cost=tuple(cost),
        utilities=tuple(tuple(row) for row in rows),
        project_ids=tuple(f"p{j + 1}" for j in range(len(cost))),
        voter_ids=inst.voter_ids,
    )
    return instance, FractionalOutcome(shares)


def test_sampler_agrees_with_dependent_round():
    rng = random.Random(55)
    for case in range(20):
        inst = random_instance(rng)
        p = random_feasible_p(rng, inst)
        if case % 2:
            inst, p = with_zero_cost_projects(rng, inst, p)
        sampler = RoundingSampler(inst, p)
        for k in range(200):
            seed = derive_seed(1234, k)
            w, _ = dependent_round(inst, p, seed)
            assert sampler.sample(seed) == w


def test_sample_counts_match_dependent_round():
    """The bulk tally equals a tally of the reference path over the same
    seeds, for B-spending and hard-cap (B - max cost) samplers."""
    rng = random.Random(66)
    for case in range(16):
        inst = random_instance(rng)
        p = random_feasible_p(rng, inst)
        if case % 2:
            inst, p = with_zero_cost_projects(rng, inst, p)
        reduced = inst.budget - max(inst.cost)
        capped = FractionalOutcome(
            [s if c == 0 else s * reduced / inst.budget
             for s, c in zip(p.shares, inst.cost)]
        )
        seeds = list(derive_seeds(rng.getrandbits(64), range(300)))
        sampler = RoundingSampler(inst, p)
        assert sampler.sample_counts(seeds) == Counter(
            dependent_round(inst, p, s)[0] for s in seeds
        )
        sampler = RoundingSampler(inst, capped, target=reduced)
        assert sampler.sample_counts(seeds) == Counter(
            round_with_hard_cap(inst, capped, s) for s in seeds
        )


def _tuple_alone(costs, spends, ell):
    """Reference: round project `ell` alone on an m-tuple of spends,
    up to its full cost with probability spends[ell] / costs[ell]."""
    up, down = list(spends), list(spends)
    up[ell], down[ell] = costs[ell], 0
    return (ell,), spends[ell], costs[ell], tuple(up), tuple(down)


def _tuple_step(costs, spends):
    """Reference: the rounding transition on an m-tuple of spends. The
    first two fractional projects trade spend until one is integral; a
    last fractional project is rounded alone; None when none is left."""
    frac = [c for c in range(len(costs)) if 0 < spends[c] < costs[c]]
    if not frac:
        return None
    if len(frac) == 1:
        return _tuple_alone(costs, spends, frac[0])
    up, down = list(spends), list(spends)
    i, j = frac[0], frac[1]
    delta_up = min(costs[i] - spends[i], spends[j])
    delta_down = min(spends[i], costs[j] - spends[j])
    up[i] += delta_up
    up[j] -= delta_up
    down[i] -= delta_down
    down[j] += delta_down
    return (i, j), delta_down, delta_up + delta_down, tuple(up), tuple(down)


def _tuple_round(costs, spends, zero, seed):
    """Reference: each fractional zero-cost project of `zero` rounded
    alone, then `_tuple_step` to a leaf, one splitmix64 draw per round.
    Returns the rounds as ``(indices, alpha, beta, branch, q)`` and the
    outcome."""
    draws = rounding._draws(seed)
    rounds = []
    while True:
        if len(rounds) < len(zero):
            step = _tuple_alone(costs, spends, zero[len(rounds)])
        elif (step := _tuple_step(costs, spends)) is None:
            break
        indices, num, den, up, down = step
        go_up = next(draws) * den < num * 2**64
        spends = up if go_up else down
        i = indices[0]
        rounds.append((
            indices,
            Fraction(den - num, costs[i]),
            Fraction(num, costs[i]),
            "up" if go_up else "down",
            tuple(Fraction(s, c) for s, c in zip(spends, costs)),
        ))
    outcome = IntegralOutcome(j for j, c in enumerate(costs) if spends[j] == c)
    return rounds, outcome


def _spends_of(sampler, state):
    """The m-tuple of spends a sampler state ``(carry, spend, k, full)``
    stands for: full projects at cost, the carry at its spend, the
    projects of ``order[k:]`` at their root spend, and the rest at 0."""
    costs, root, order, _ = sampler._space
    carry, spend, k, full = state
    untouched = set(order[k:])
    return tuple(
        c if full >> j & 1 else spend if j == carry
        else root[j] if j in untouched else 0
        for j, c in enumerate(costs)
    )


def _capped_sweep(seed, cases):
    """``(instance, p, target)`` on random instances, every other one with
    zero-cost projects, at B and with p scaled to B - max cost."""
    rng = random.Random(seed)
    for case in range(cases):
        inst = random_instance(rng)
        p = random_feasible_p(rng, inst)
        if case % 2:
            inst, p = with_zero_cost_projects(rng, inst, p)
        reduced = inst.budget - max(inst.cost)
        capped = FractionalOutcome(
            [s if c == 0 else s * reduced / inst.budget
             for s, c in zip(p.shares, inst.cost)]
        )
        yield inst, p, inst.budget
        yield inst, capped, reduced


def test_rounds_equal_the_spend_tuple_reference():
    """Seed for seed, `dependent_round`'s trace (indices, alpha, beta,
    branch and q of each round) and outcome equal the m-tuple reference
    walk's at B, and the sampler's outcome equals the reference's at B
    and at B - max cost (`round_with_hard_cap`)."""
    for inst, p, target in _capped_sweep(3131, 40):
        costs, spends, zero = rounding._spend_space(inst, p, target)
        sampler = RoundingSampler(inst, p, target=target)
        for seed in derive_seeds(len(zero), range(40)):
            rounds, outcome = _tuple_round(costs, spends, zero, seed)
            assert sampler.sample(seed) == outcome
            if target != inst.budget:
                assert round_with_hard_cap(inst, p, seed) == outcome
                continue
            w, trace = dependent_round(inst, p, seed)
            assert w == trace.outcome == outcome
            assert [
                (r.indices, r.alpha, r.beta, r.branch, r.q) for r in trace.rounds
            ] == rounds


def test_sampler_states_are_distinct_spend_tuples_stepped_like_the_reference():
    """Every state a used sampler made stands for a distinct spend tuple,
    and its branch probability and children's tuples are the m-tuple
    reference's (a zero-cost round while ``k < len(zero)``)."""
    for inst, p, target in _capped_sweep(3132, 24):
        sampler = RoundingSampler(inst, p, target=target)
        sampler.sample_counts(derive_seeds(7, range(300)))
        costs, _, _, zero = sampler._space
        spends = [_spends_of(sampler, state) for state in sampler._states]
        assert len(set(spends)) == len(spends)
        for i, state in enumerate(sampler._states):
            if i in sampler._unmade:
                continue
            k = state[2]
            if k < len(zero):
                step = _tuple_alone(costs, spends[i], zero[k])
            else:
                step = _tuple_step(costs, spends[i])
            if step is None:
                assert not sampler._thr[i]
                assert sampler._steps[i] == IntegralOutcome(
                    j for j, c in enumerate(costs) if spends[i][j] == c
                )
                continue
            _, num, den, up, down = step
            assert sampler._steps[i] == (num, den)
            assert spends[sampler._up[i]] == up
            assert spends[sampler._down[i]] == down


def _lcm_spend_space(instance, p, target):
    """The spend space on one LCM rescaling over the cost denominators
    and the m products share·cost, each built in fractions: the
    reference for `_spend_space`."""
    spent = sum((s * c for s, c in zip(p.shares, instance.cost)), Fraction(0))
    if spent != target:
        raise ValueError(f"fractional outcome spends {spent}, expected {target}")
    denoms = [c.denominator for c in instance.cost]
    denoms += [(s * c).denominator for s, c in zip(p.shares, instance.cost)]
    scale = math.lcm(*denoms)
    costs, spends = [], []
    for s, c in zip(p.shares, instance.cost):
        costs.append(int(c * scale) if c else s.denominator)
        spends.append(int(s * c * scale) if c else s.numerator)
    zero = tuple(
        j for j, c in enumerate(instance.cost)
        if c == 0 and 0 < spends[j] < costs[j]
    )
    return costs, tuple(spends), zero


def test_spend_space_is_the_lcm_spend_space_up_to_one_factor():
    """On p's integers the priced costs and spends are the LCM ones times
    one common factor, so every spend/cost ratio, and with it every
    threshold, is the same; the zero-cost entries and `zero` are equal,
    at B and at B - max cost, and a wrong cost raises the same message."""
    rng = random.Random(2405)
    for case in range(120):
        inst = random_instance(rng)
        p = random_feasible_p(rng, inst)
        if case % 3:
            inst, p = with_zero_cost_projects(rng, inst, p)
        reduced = inst.budget - max(inst.cost)
        capped = FractionalOutcome(
            [s if c == 0 else s * reduced / inst.budget
             for s, c in zip(p.shares, inst.cost)]
        )
        priced = [j for j, c in enumerate(inst.cost) if c]
        for outcome, target in ((p, inst.budget), (capped, reduced)):
            costs, spends, zero = rounding._spend_space(inst, outcome, target)
            ref_costs, ref_spends, ref_zero = _lcm_spend_space(inst, outcome, target)
            assert zero == ref_zero
            for j in range(inst.m):
                assert Fraction(spends[j], costs[j]) == outcome.shares[j]
                if not inst.cost[j]:
                    assert (costs[j], spends[j]) == (ref_costs[j], ref_spends[j])
            factor = Fraction(costs[priced[0]], ref_costs[priced[0]])
            for j in priced:
                assert costs[j] == ref_costs[j] * factor
                assert spends[j] == ref_spends[j] * factor
            wrong = target + Fraction(1, 7)
            with pytest.raises(ValueError) as got:
                rounding._spend_space(inst, outcome, wrong)
            with pytest.raises(ValueError) as expected:
                _lcm_spend_space(inst, outcome, wrong)
            assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("rule", ["frd", "bw-mes"])
def test_p_is_scaled_once_per_run(monkeypatch, tmp_path, rule):
    """`run --rule frd` reads its p's integers for the feasibility flag,
    IFS, GFS and the sampler, and `run --rule bw-mes` for the sampler and
    Strong UFS: `scaled_shares` is computed once for the one p."""
    calls = []
    scale = FractionalOutcome.__dict__["scaled_shares"].func

    def counting(p):
        calls.append(p.shares)
        return scale(p)

    counted = functools.cached_property(counting)
    counted.__set_name__(FractionalOutcome, "scaled_shares")
    monkeypatch.setattr(FractionalOutcome, "scaled_shares", counted)
    argv = ["run", "--instance", str(BINARY), "--rule", rule, "--seed", "3",
            "--samples", "64", "--out", str(tmp_path / "report.json")]
    assert main(argv) == 0
    assert len(calls) == 1


def _count_steps(monkeypatch) -> list:
    """The states `RoundingSampler._make` steps from now on, in call order."""
    calls = []
    make = RoundingSampler._make

    def counting(sampler, i):
        calls.append(sampler._states[i])
        return make(sampler, i)

    monkeypatch.setattr(RoundingSampler, "_make", counting)
    return calls


def test_sampler_makes_one_node_per_spend_state(monkeypatch):
    """Eight projects of equal cost at share 1/4 reach 46 distinct spend
    states over 127 tree paths; the sampler steps each state once."""
    calls = _count_steps(monkeypatch)
    m = 8
    inst = PBInstance(
        budget=Fraction(2),
        cost=(Fraction(1),) * m,
        utilities=((Fraction(1),) * m,),
        project_ids=tuple(f"p{j + 1}" for j in range(m)),
        voter_ids=("v1",),
    )
    p = FractionalOutcome(["1/4"] * m)
    probs = RoundingSampler(inst, p).probabilities()
    assert len(calls) == len(set(calls)) == 46
    assert len(probs) == 16
    calls.clear()
    sampler = RoundingSampler(inst, p)
    sampler.sample_counts(derive_seeds(9, range(2000)))
    assert len(calls) <= 46
    assert sampler.probabilities() == probs
    assert len(calls) == len(set(calls)) == 46


def _fourteen_fractional_projects(seed):
    """14 projects of cost 1-4 with shares k/8 and B = cost(p): over 1,500
    outcomes at seeds 0 and 1, so 1,024 seeds leave states unmade."""
    rng = random.Random(seed)
    m = 14
    cost = tuple(Fraction(rng.randint(1, 4)) for _ in range(m))
    shares = [Fraction(rng.randint(1, 7), 8) for _ in range(m)]
    inst = PBInstance(
        budget=sum(s * c for s, c in zip(shares, cost)),
        cost=cost,
        utilities=((Fraction(1),) * m,),
        project_ids=tuple(f"p{j + 1}" for j in range(m)),
        voter_ids=("v1",),
    )
    return inst, FractionalOutcome(shares)


def test_later_blocks_grow_the_dag_and_agree_with_dependent_round(monkeypatch):
    """Blocks after the first still reach states no earlier block made,
    and step a pinned number of them; every block's counts equal
    `dependent_round`'s over the same seeds, each state is stepped once,
    and `probabilities()` on the used sampler equals a fresh sampler's."""
    inst, p = _fourteen_fractional_projects(0)
    seeds = list(derive_seeds(14, range(3 * rounding._BLOCK)))
    blocks = [
        seeds[k * rounding._BLOCK:(k + 1) * rounding._BLOCK] for k in range(3)
    ]
    expected = [
        Counter(dependent_round(inst, p, s)[0] for s in block)
        for block in blocks
    ]
    calls = _count_steps(monkeypatch)
    sampler = RoundingSampler(inst, p)
    per_block = []
    for block, reference in zip(blocks, expected):
        before = len(calls)
        assert sampler.sample_counts(block) == reference
        per_block.append(len(calls) - before)
    assert per_block == [1765, 517, 288]
    assert len(calls) == len(set(calls))
    probs = sampler.probabilities()
    assert len(calls) == len(set(calls))
    assert probs == RoundingSampler(inst, p).probabilities()


def _disjoint_blocks(rng, voters, block):
    """Voters approving disjoint blocks of projects of cost 9/2 to 11/2,
    with B = 12: each voter funds two of its projects and part of a
    third, so FRD's p has 3 * voters fractional projects."""
    m = voters * block
    return PBInstance(
        budget=Fraction(12),
        cost=tuple(Fraction(rng.randint(9, 11), 2) for _ in range(m)),
        utilities=tuple(
            tuple(
                Fraction(rng.randint(1, 9)) if j // block == i else Fraction(0)
                for j in range(m)
            )
            for i in range(voters)
        ),
        project_ids=tuple(f"p{j + 1}" for j in range(m)),
        voter_ids=tuple(f"v{i + 1}" for i in range(voters)),
    )


def _bw_instance(rng):
    """Six voters approving two or three of eight projects with B = 5:
    BW-MES's p has four fractional projects."""
    cost = [Fraction(c) for c in ("1/2", "1", "1", "3/2", "2", "2", "5/2", "3")]
    rng.shuffle(cost)
    m = len(cost)
    rows = []
    for _ in range(6):
        approved = rng.sample(range(m), rng.choice((2, 3)))
        rows.append(tuple(Fraction(j in approved) for j in range(m)))
    return PBInstance(
        budget=Fraction(5),
        cost=tuple(cost),
        utilities=tuple(rows),
        project_ids=tuple(f"p{j + 1}" for j in range(m)),
        voter_ids=tuple(f"v{i + 1}" for i in range(6)),
    )


def _count_walks(monkeypatch) -> dict:
    """How many rows `_split` takes and how many blocks `_walk_seeds`
    finishes, from now on."""
    counts = {"split": 0, "seeds": 0}
    split, walk_seeds = rounding._split, RoundingSampler._walk_seeds

    def counting_split(*args):
        counts["split"] += 1
        return split(*args)

    def counting_walk_seeds(*args):
        counts["seeds"] += 1
        return walk_seeds(*args)

    monkeypatch.setattr(rounding, "_split", counting_split)
    monkeypatch.setattr(RoundingSampler, "_walk_seeds", counting_walk_seeds)
    return counts


@pytest.mark.parametrize("zero_cost", [False, True])
@pytest.mark.parametrize("rule", ["frd", "bw-mes"])
def test_split_and_stepped_blocks_match_dependent_round(
    monkeypatch, rule, zero_cost
):
    """`derived_counts` and `sample_counts` on fresh samplers equal
    `dependent_round`'s tally of the same seeds, in the order its
    outcomes are first drawn, for blocks too small to split, blocks
    split for one row, and full blocks. FRD's blocks fan out into
    per-seed steps; BW-MES's end split."""
    if rule == "frd":
        inst = _disjoint_blocks(random.Random(0), 4, 4)
        p = fractional_random_dictator(inst)
    else:
        inst = _bw_instance(random.Random(0))
        p = bw_mes(inst, 0).fractional
    if zero_cost:
        inst, p = with_zero_cost_projects(random.Random(1), inst, p)
    seeds = list(derive_seeds(28, range(3 * rounding._BLOCK - 5)))
    reference = [dependent_round(inst, p, s)[0] for s in seeds]
    walks = _count_walks(monkeypatch)
    for count in (1, 39, 40, 41, rounding._BLOCK, len(seeds)):
        expected = list(Counter(reference[:count]).items())
        derived = RoundingSampler(inst, p).derived_counts(28, count)
        assert list(derived.items()) == expected
        sampled = RoundingSampler(inst, p).sample_counts(seeds[:count])
        assert list(sampled.items()) == expected
    assert walks["split"] > 0
    if rule == "frd":
        assert walks["seeds"] > 2 * 4
    else:
        # Blocks of 1 and 39 seeds are stepped from the first row, and
        # of 40 and 41 from the second; the full blocks end split.
        assert walks["seeds"] == 2 * 4


BINARY20 = Path(__file__).resolve().parent / "data" / "reports" / "binary20.json"


def test_fresh_sampler_on_the_committed_frd_lottery_is_pinned(monkeypatch):
    """A machine-independent work guard: 20,000 derived draws of FRD's
    lottery on the committed n = m = 20 binary instance step 19,434
    states once each, give 23,029 state ids and 5,174 outcomes, and the
    sorted counts hash to a pinned digest."""
    inst = parse_instance(BINARY20.read_text())
    p = fractional_random_dictator(inst)
    calls = _count_steps(monkeypatch)
    sampler = RoundingSampler(inst, p)
    counts = sampler.derived_counts(9, 20000)
    assert len(calls) == len(set(calls)) == 19434
    assert len(sampler._states) == 23029
    assert len(counts) == 5174
    assert sum(counts.values()) == 20000
    tally = sorted((sorted(w.projects), c) for w, c in counts.items())
    assert hashlib.sha256(repr(tally).encode()).hexdigest() == (
        "a2426ddcd17cdd2db21d24feb2dc6a9445b9ebd51a3941d06d87ec52181e66a4"
    )


def test_split_rows_per_block_on_the_committed_frd_lottery_are_pinned(
    monkeypatch,
):
    """A machine-independent guard on the per-state split: of the 20
    draws of each block of `derived_counts(9, 20000)` on FRD's lottery
    over the committed n = m = 20 binary instance, the first six are
    split per state (they start from about 1, 2, 3, 6, 10 and 17 states
    of 1,024 seeds; the seventh, from about 28, is stepped per seed), and
    five in the last block of 544 seeds."""
    inst = parse_instance(BINARY20.read_text())
    p = fractional_random_dictator(inst)
    per_block = []
    draw_rows, split = rounding._draw_rows, rounding._split

    def counting_draw_rows(*args):
        per_block.append(0)
        return draw_rows(*args)

    def counting_split(*args):
        per_block[-1] += 1
        return split(*args)

    monkeypatch.setattr(rounding, "_draw_rows", counting_draw_rows)
    monkeypatch.setattr(rounding, "_split", counting_split)
    sampler = RoundingSampler(inst, p)
    sampler.derived_counts(9, 20000)
    assert sampler._depth == 20
    assert per_block == [6] * 19 + [5]


SPARSE200 = Path(__file__).resolve().parent / "data" / "reports" / "sparse200.json"


def test_sampler_on_the_frd_lottery_at_m_200_is_pinned(monkeypatch):
    """A machine-independent guard on the m = 200 path: 1,000 derived
    draws of FRD's lottery on the committed n = m = 200 instance give
    158,678 state ids, of which 89,906 are made, each once."""
    inst = parse_instance(SPARSE200.read_text())
    p = fractional_random_dictator(inst)
    calls = _count_steps(monkeypatch)
    sampler = RoundingSampler(inst, p)
    counts = sampler.derived_counts(1, 1000)
    assert sum(counts.values()) == 1000
    assert len(sampler._states) == 158678
    assert len(calls) == len(set(calls)) == 89906


@pytest.mark.parametrize("zero_cost", [False, True])
def test_counts_come_in_the_order_outcomes_are_first_drawn(zero_cost):
    """`sample_counts` and `derived_counts` list outcomes in the order
    `sample` first meets them, over three blocks of seeds."""
    rng = random.Random(21 + zero_cost)
    inst, p = _fourteen_fractional_projects(int(zero_cost))
    if zero_cost:
        inst, p = with_zero_cost_projects(rng, inst, p)
    count = 3 * rounding._BLOCK - 5
    seeds = list(derive_seeds(5, range(count)))
    single = RoundingSampler(inst, p)
    first = list(dict.fromkeys(single.sample(s) for s in seeds))
    counts = RoundingSampler(inst, p).sample_counts(seeds)
    assert list(counts) == first
    derived = RoundingSampler(inst, p).derived_counts(5, count)
    assert list(derived.items()) == list(counts.items())
    assert len(first) > 100


def test_dropped_sampler_leaves_no_cyclic_garbage():
    """The DAG's tables hold ints, not nodes that refer to each other, so
    refcounting alone frees a used sampler."""
    inst, p = _fourteen_fractional_projects(1)
    inst, p = with_zero_cost_projects(random.Random(3), inst, p)
    sampler = RoundingSampler(inst, p)
    sampler.sample_counts(derive_seeds(2, range(2 * rounding._BLOCK)))
    sampler.derived_counts(3, 100)
    sampler.probabilities()
    gc.collect()
    gc.disable()
    try:
        del sampler
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "count",
    [0, 1, rounding._BLOCK - 1, rounding._BLOCK, rounding._BLOCK + 1],
)
def test_derived_counts_equal_sample_counts_of_derived_seeds(count):
    """The seeds derived inside the packed block are `derive_seeds`', so
    both entry points give the same counts in the same order."""
    rng = random.Random(500 + count)
    inst = random_instance(rng)
    p = random_feasible_p(rng, inst)
    inst, p = with_zero_cost_projects(rng, inst, p)
    for seed in (count, -1, 2**64 - 1):
        expected = RoundingSampler(inst, p).sample_counts(
            derive_seeds(seed, range(count))
        )
        got = RoundingSampler(inst, p).derived_counts(seed, count)
        assert list(got.items()) == list(expected.items())
        assert sum(got.values()) == count


def test_derived_states_are_the_derived_seeds():
    """Each lane of a derived block is `derive_seed` of its index, in a
    full block and a partial one, also where splitmix64(seed) + k wraps
    past 2**64."""
    base = splitmix64(5)
    for seed, indices in [
        (0, range(rounding._BLOCK)),
        (9, range(3 * rounding._BLOCK, 3 * rounding._BLOCK + 7)),
        (-5, [2**64 - 1, 0, 17]),
        (5, range(2**64 - base - 3, 2**64 - base + 3)),
    ]:
        packed = rounding._pack(k & (2**64 - 1) for k in indices)
        lanes = rounding._unpack(
            rounding._derived_states(seed, packed, len(indices)), len(indices)
        )
        assert list(lanes) == [derive_seed(seed, k) for k in indices]


def test_zero_cost_draws_split_the_priced_states_at_most_2_to_the_z_ways(
    monkeypatch,
):
    """Two fractional zero-cost projects (shares 1/3 and 1/2) added to the
    eight-project instance above: the sampler makes 3 states for their
    two rounds, then the 46 priced states once per pattern of the two
    draws, 187 = 3 + 4 * 46 in all. With z such projects the priced
    states split into at most 2^z copies, since a state's `full` mask
    holds the zero-cost draws too. The DAG is not shared across them so
    that a state stays four ints and every round runs in
    `dependent_round`'s order, through the one `_step`."""
    calls = _count_steps(monkeypatch)
    cost = [Fraction(1)] * 8
    shares = [Fraction(1, 4)] * 8
    for at, share in ((2, Fraction(1, 3)), (6, Fraction(1, 2))):
        cost.insert(at, Fraction(0))
        shares.insert(at, share)
    m = len(cost)
    inst = PBInstance(
        budget=Fraction(2),
        cost=tuple(cost),
        utilities=((Fraction(1),) * m,),
        project_ids=tuple(f"p{j + 1}" for j in range(m)),
        voter_ids=("v1",),
    )
    p = FractionalOutcome(shares)
    probs = RoundingSampler(inst, p).probabilities()
    assert len(calls) == len(set(calls)) == 187
    assert len(probs) == 64
    calls.clear()
    RoundingSampler(inst, p).sample_counts(derive_seeds(9, range(2000)))
    assert len(calls) <= 187


def test_zero_cost_rounds_in_the_trace():
    """The exact trace of two fixed seeds on an instance with two
    fractional zero-cost projects (a and d): each is rounded alone first,
    with alpha = 1 - share and beta = share, then the priced projects."""
    inst = PBInstance(
        budget=Fraction(2),
        cost=(Fraction(0), Fraction(1), Fraction(2), Fraction(0), Fraction(1)),
        utilities=((Fraction(1),) * 5,),
        project_ids=("a", "b", "c", "d", "e"),
        voter_ids=("v1",),
    )
    p = FractionalOutcome(["1/3", "1/2", "1/2", "2/5", "1/2"])
    expected = {
        3: (
            [
                ([0], "2/3", "1/3", "up", ["1", "1/2", "1/2", "2/5", "1/2"]),
                ([3], "3/5", "2/5", "down", ["1", "1/2", "1/2", "0", "1/2"]),
                ([1, 2], "1/2", "1/2", "down", ["1", "0", "3/4", "0", "1/2"]),
                ([2, 4], "1/4", "1/4", "up", ["1", "0", "1", "0", "0"]),
            ],
            [0, 2],
        ),
        7: (
            [
                ([0], "2/3", "1/3", "down", ["0", "1/2", "1/2", "2/5", "1/2"]),
                ([3], "3/5", "2/5", "up", ["0", "1/2", "1/2", "1", "1/2"]),
                ([1, 2], "1/2", "1/2", "down", ["0", "0", "3/4", "1", "1/2"]),
                ([2, 4], "1/4", "1/4", "down", ["0", "0", "1/2", "1", "1"]),
                ([2], "1/2", "1/2", "up", ["0", "0", "1", "1", "1"]),
            ],
            [2, 3, 4],
        ),
    }
    for seed, (rounds, outcome) in expected.items():
        assert dependent_round(inst, p, seed)[1].to_dict() == {
            "seed": seed,
            "rounds": [
                {"t": t, "indices": indices, "alpha": alpha, "beta": beta,
                 "branch": branch, "q": q}
                for t, (indices, alpha, beta, branch, q) in enumerate(rounds)
            ],
            "outcome": outcome,
        }


def test_sampler_with_forty_fractional_projects():
    """A full tree would have about 2^40 nodes; the sampler makes only the
    nodes its samples reach."""
    rng = random.Random(40)
    m = 40
    cost = tuple(Fraction(rng.randint(1, 9)) for _ in range(m))
    shares = [Fraction(rng.randint(1, 9), 10) for _ in range(m)]
    inst = PBInstance(
        budget=sum(s * c for s, c in zip(shares, cost)),
        cost=cost,
        utilities=((Fraction(1),) * m,),
        project_ids=tuple(f"p{j + 1}" for j in range(m)),
        voter_ids=("v1",),
    )
    p = FractionalOutcome(shares)
    sampler = RoundingSampler(inst, p)
    for k in range(200):
        seed = derive_seed(40, k)
        w, _ = dependent_round(inst, p, seed)
        assert sampler.sample(seed) == w


def test_trace_conserves_expected_spend():
    rng = random.Random(77)
    for _ in range(30):
        inst = random_instance(rng)
        p = random_feasible_p(rng, inst)
        _, trace = dependent_round(inst, p, rng.getrandbits(64))
        previous = None
        for rnd in trace.rounds:
            spend = sum(
                q * c for q, c in zip(rnd.q, inst.cost)
            )
            if previous is not None and len(rnd.indices) >= 2:
                assert spend == previous
            previous = spend
            assert all(0 <= q <= 1 for q in rnd.q)


def test_rounds_terminate_quickly():
    rng = random.Random(13)
    for _ in range(30):
        inst = random_instance(rng)
        p = random_feasible_p(rng, inst)
        _, trace = dependent_round(inst, p, rng.getrandbits(64))
        assert len(trace.rounds) <= inst.m


def test_integral_p_is_fixed_point():
    inst = two_voter_example()
    p = FractionalOutcome([1, 1, 0])
    for seed in range(20):
        w, trace = dependent_round(inst, p, seed)
        assert w == IntegralOutcome({0, 1})
        assert trace.rounds == ()


def test_hard_cap_never_overspends():
    rng = random.Random(31)
    for _ in range(20):
        inst = random_instance(rng)
        reduced = inst.budget - max(inst.cost)
        scale = reduced / inst.budget
        p = FractionalOutcome(
            [s * scale for s in random_feasible_p(rng, inst).shares]
        )
        for seed in range(50):
            w = round_with_hard_cap(inst, p, seed)
            assert w.cost(inst) <= inst.budget


def test_zero_cost_projects_round_independently():
    inst = PBInstance(
        budget=Fraction(1),
        cost=(Fraction(0), Fraction(1), Fraction(1)),
        utilities=((Fraction(1), Fraction(1), Fraction(1)),),
        project_ids=("a", "b", "c"),
        voter_ids=("v1",),
    )
    p = FractionalOutcome(["1/3", "1/2", "1/2"])
    sampler = RoundingSampler(inst, p)
    probs = sampler.probabilities()
    assert sum(probs.values()) == 1
    for j in range(3):
        marginal = sum(w for o, w in probs.items() if j in o.projects)
        assert marginal == p.shares[j]


def test_is_bb1_and_is_bfx():
    inst = two_voter_example()
    assert is_bb1(inst, IntegralOutcome({0, 1}))  # cost exactly B
    assert is_bb1(inst, IntegralOutcome({0}))  # adding any project crosses B
    assert is_bb1(inst, IntegralOutcome({0, 1, 2}))  # dropping one reaches B
    assert is_bfx(inst, IntegralOutcome({0, 1, 2}))
    assert not is_bfx(
        PBInstance(
            budget=Fraction(1),
            cost=(Fraction(1), Fraction(1), Fraction(1)),
            utilities=((Fraction(1), Fraction(1), Fraction(1)),),
            project_ids=("a", "b", "c"),
            voter_ids=("v1",),
        ),
        IntegralOutcome({0, 1, 2}),
    )
