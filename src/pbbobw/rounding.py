"""Dependent rounding of feasible fractional outcomes into BB1 outcomes.

The randomized rounding is carried out in one integer "spend space"
(`_spend_space`): on p's integers of 1/q (`scaled_shares`), each project
c has an integer cost C_c and an integer spend w_c in [0, C_c] with
q_c = w_c / C_c. A priced project's C_c is its scaled cost times q, over
a common gcd; a zero-cost project's is its share's denominator. `_step`
is the one transition: it moves an integer amount of spend between the
first two fractional projects, or rounds the last fractional one
`_alone`, so every intermediate state is exact. Each branch decision
takes the next draw of a splitmix64 stream and compares it against the
exact rational branch probability by integer cross-multiplication
(per-decision bias at most 2**-64).

Zero-cost projects never affect the spend conservation, so each fractional
zero-cost project is rounded `_alone` first, in index order, one draw
each; `_step` takes the draws that follow. A leaf is the set of fully
spent projects.

`dependent_round` follows one seed's path and records it. `RoundingSampler`
replays the same draws over a DAG of spend states: a branch depends only
on the state, so it holds at most one state per distinct spend tuple,
stepped the first time a sample reaches it, and it grows with the states
visited, not with 2^m. The DAG is flat int tables indexed by state id:
each state's integer threshold ceil(num * 2**64 / den) and its two
children's ids, and a draw u < threshold exactly when u * den < num *
2**64, so the sampler returns the same outcome seed for seed. A leaf has
threshold 0 and is its own two children, so a seed's walk is one table
step per draw; the states a draw reaches are made before the next draw is
taken. While a row of draws holds few states for a block's seeds, the
seeds on each state are split at once: the top bytes of their draws,
compared against the threshold's by one `bytes.translate`, decide all but
about one seed in 256, whose whole draw is compared. Callers that need
only the outcome (the BW rules, `round_with_hard_cap`) draw through the
sampler; `RoundingSampler.probabilities()` gives the
exact distribution in one forward pass over the same tables.

The sampler and `derive_seeds` draw for a block of up to `_BLOCK` seeds at
once (`_draw_rows`): the block's 64-bit states are packed into one Python
int, one 128-bit lane per seed, and splitmix64's add, xor-shift and
multiply steps run on the packed int, masked back to the low 64 bits of
every lane wherever a bit could cross a lane. One kernel call per depth
gives that draw of every seed in the block; the draws are the scalar
`splitmix64` ones, bit for bit. `RoundingSampler.derived_counts` makes a
block's per-sample seeds (`derive_seeds`) the same way, from one packed
row of indices, and draws from them without unpacking. A packed row is
read as little-endian bytes wherever single draws or their top bytes are
taken from it, and as native-order words only by `_pack` and `_unpack`.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, repeat
from math import gcd
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .model import (
    FractionalOutcome,
    IntegralOutcome,
    PBInstance,
    rational_str,
)

_MASK64 = (1 << 64) - 1
_TWO64 = 1 << 64
_GAMMA = 0x9E3779B97F4A7C15

# Seeds drawn per packed kernel call: the packed ints are 16 KiB.
_BLOCK = 1024

# The packed lanes are read and written as native-order 64-bit words; a
# lane's low word sits first on a little-endian machine, second otherwise.
assert array("Q").itemsize == 8, "array('Q') must hold 64-bit words"
_LOW = 0 if sys.byteorder == "little" else 1


def _mix(z: int, mask: int) -> int:
    """splitmix64's output function on every lane of `z`.

    `mask` keeps the low 64 bits of each lane: one lane of 64 bits for a
    scalar state, 128-bit lanes for a packed block (`_draw_rows`). The low
    word of each lane is the output; the last xor-shift leaves the next
    lane's low bits in a lane's high word, so a packed result feeds
    another kernel step only after ``& mask``.
    """
    z = ((z ^ (z >> 30) & mask) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27) & mask) * 0x94D049BB133111EB) & mask
    return z ^ z >> 31


def splitmix64(state: int) -> int:
    """One output of the splitmix64 scrambler (used for seed derivation)."""
    return _mix((state + _GAMMA) & _MASK64, _MASK64)


def _threshold(num: int, den: int) -> int:
    """ceil(num * 2**64 / den): an integer draw u is below it exactly when
    ``u * den < num * 2**64``."""
    return -(-num * _TWO64 // den)


def _pack(words: Iterable[int]) -> int:
    """The 64-bit `words` as one int, word k in the low half of lane k."""
    words = array("Q", words)
    lanes = array("Q", bytes(16 * len(words)))
    lanes[_LOW::2] = words
    return int.from_bytes(lanes, sys.byteorder)


def _unpack(packed: int, n: int) -> array:
    """The low words of the `n` lanes of `packed` (inverse of `_pack`)."""
    lanes = array("Q")
    lanes.frombytes(packed.to_bytes(16 * n, sys.byteorder))
    return lanes[_LOW::2]


# A one in the low word of every lane of a full block; shifted right by
# the lanes a smaller block leaves unused, and scaled to a word per lane.
_LANE_ONE = _pack(repeat(1, _BLOCK))
_LANE_MASK = _LANE_ONE * _MASK64
# Lane k of a full block holds index k; adding j * _LANE_ONE gives j + k.
_LANE_INDEX = _pack(range(_BLOCK))

# A block's seeds are split per key (`_split`) while a row holds at most
# one key per this many seeds of the block; past that each seed is stepped.
# A split at most doubles the keys, so fewer than 256 reach `_walk_seeds`.
_SEEDS_PER_GROUP = 40
assert 2 * _BLOCK // _SEEDS_PER_GROUP < 256


def _draw_rows(packed: int, n: int, depth: int) -> list[int]:
    """Row d holds draw d of each stream: splitmix64(state + d * GAMMA).

    `packed` holds the 64-bit states of `n` <= `_BLOCK` streams, one per
    lane; each row costs one packed kernel call for all of them and is
    itself packed, each draw in its lane's low word (`_unpack`).
    """
    unused = 128 * (_BLOCK - n)
    mask = _LANE_MASK >> unused
    gamma = (_LANE_ONE >> unused) * _GAMMA
    rows = []
    for _ in range(depth):
        # splitmix64's add is also the step to the stream's next state.
        packed = (packed + gamma) & mask
        rows.append(_mix(packed, mask))
    return rows


def _derived_states(seed: int, indices: int, n: int) -> int:
    """The per-sample seeds of the `n` <= `_BLOCK` 64-bit indices packed
    in the low lanes of `indices` (see `derive_seeds`), packed one per
    lane: the indices plus splitmix64(seed), mixed in one kernel call.
    Lanes of `indices` past the first `n` are ignored."""
    unused = 128 * (_BLOCK - n)
    mask = _LANE_MASK >> unused
    base = (_LANE_ONE >> unused) * (splitmix64(seed) + _GAMMA)
    return _mix((indices + base) & mask, mask) & mask


def _below(raw: bytes, tops: bytes, seeds: int, t: int) -> int:
    """The `seeds` of a block whose draw is below threshold `t`.

    `seeds` and the result hold one byte per seed, 1 where the seed is
    in. `raw` is a row of draws as little-endian bytes, 16 per lane, and
    `tops` the top byte of each draw (``raw[7::16]``). A draw whose top
    byte is below t's is below t and one whose top byte is above is not;
    the ties, about one seed in 256, are compared in full.
    """
    top = t >> 56
    if top > 255:
        # t = 2**64, from a branch probability within 2**-64 of 1.
        return seeds
    # Per seed: 1 if its draw's top byte is below t's, 2 if it is t's.
    split = int.from_bytes(
        tops.translate(b"\1" * top + b"\2" + bytes(255 - top)), "little"
    )
    below = split & seeds
    ties = (split >> 1 & seeds).to_bytes(len(tops), "little")
    k = ties.find(1)
    while k >= 0:
        if int.from_bytes(raw[16 * k:16 * k + 8], "little") < t:
            below |= 1 << 8 * k
        k = ties.find(1, k + 1)
    return below


def _split(
    groups: dict[int, int], row: int, n: int, step: Callable
) -> dict[int, int]:
    """One row of draws taken by the `n` seeds of a block, per key.

    `groups` maps each key to its seeds, one byte per seed (`_below`);
    ``step(key)`` gives the key's ``(threshold, up, down)``. Returns the
    seeds of each key the row reaches.
    """
    raw = row.to_bytes(16 * n, "little")
    tops = raw[7::16]
    split: dict[int, int] = {}
    for key, seeds in groups.items():
        t, up, down = step(key)
        below = _below(raw, tops, seeds, t) if t else 0
        for child, part in ((up, below), (down, seeds ^ below)):
            if part:
                split[child] = split.get(child, 0) | part
    return split


def _blocks(values: Iterable[int]) -> Iterator[list[int]]:
    """`values` in consecutive lists of at most `_BLOCK`, read lazily."""
    values = iter(values)
    while block := list(islice(values, _BLOCK)):
        yield block


def _draws(seed: int) -> Iterator[int]:
    """The splitmix64 stream from `seed`; one draw per branch decision."""
    state = seed & _MASK64
    while True:
        yield splitmix64(state)
        state = (state + _GAMMA) & _MASK64


def derive_seeds(seed: int, indices: Iterable[int]) -> Iterator[int]:
    """Per-sample seeds splitmix64(splitmix64(seed) + k), k in `indices`.

    Scrambling `seed` before adding the index keeps the streams of nearby
    seeds apart; with splitmix64(seed + k), seed s + 1 would draw the
    samples of seed s shifted by one. The seeds are derived one packed
    block of indices at a time, as they are consumed (`_derived_states`);
    `RoundingSampler.derived_counts` draws from the seeds of indices
    0 .. samples - 1 without unpacking them.
    """
    for block in _blocks(indices):
        packed = _pack(k & _MASK64 for k in block)
        yield from _unpack(_derived_states(seed, packed, len(block)), len(block))


def derive_seed(seed: int, index: int) -> int:
    """The per-sample seed of one index (see `derive_seeds`), computed
    with scalar `splitmix64`: for one seed a packed block costs more."""
    return splitmix64((splitmix64(seed) + index) & _MASK64)


@dataclass(frozen=True)
class RoundingRound:
    """One round of the process: indices touched, thresholds, branch, state."""

    t: int
    indices: tuple[int, ...]
    alpha: Fraction
    beta: Fraction
    branch: str
    q: tuple[Fraction, ...]

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "indices": list(self.indices),
            "alpha": rational_str(self.alpha),
            "beta": rational_str(self.beta),
            "branch": self.branch,
            "q": [rational_str(v) for v in self.q],
        }


@dataclass(frozen=True)
class RoundingTrace:
    rounds: tuple[RoundingRound, ...]
    outcome: IntegralOutcome
    seed: int

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "rounds": [r.to_dict() for r in self.rounds],
            "outcome": sorted(self.outcome.projects),
        }


def _spend_space(
    instance: PBInstance, p: FractionalOutcome, target: Fraction
) -> tuple[list[int], tuple[int, ...], tuple[int, ...]]:
    """The integer spend space of `p`: ``(costs, spends, zero)``.

    On p's ``scaled_shares`` (q, a) and the instance's ``scaled_costs`` C,
    a priced project's cost and spend are C_j·q and C_j·a_j, divided by
    the gcd of all of them. A zero-cost project's cost here is its share's
    denominator and its spend the numerator, so project j is funded with
    probability spends[j] / costs[j] for every j. `zero` lists the
    fractional zero-cost projects in index order.
    """
    q, shares = p.scaled_for(instance)
    scaled = [c * a for c, a in zip(instance.scaled_costs, shares)]
    spent, unit = sum(scaled), q * instance.cost_scale
    if spent * target.denominator != target.numerator * unit:
        raise ValueError(
            f"fractional outcome spends {Fraction(spent, unit)}, expected {target}"
        )
    g = gcd(*(c * q for c in instance.scaled_costs), *scaled) or 1
    costs, spends = [], []
    for c, x, s in zip(instance.scaled_costs, scaled, p.shares):
        costs.append(c * q // g if c else s.denominator)
        spends.append(x // g if c else s.numerator)
    zero = tuple(
        j for j, c in enumerate(instance.cost) if not c and 0 < spends[j] < costs[j]
    )
    return costs, tuple(spends), zero


def _alone(costs: Sequence[int], spends: tuple[int, ...], ell: int):
    """Round project `ell` alone: `_step`'s ``(indices, num, den, up, down)``
    moving its spend to its full cost with probability
    spends[ell] / costs[ell] and to zero otherwise."""
    up, down = list(spends), list(spends)
    up[ell], down[ell] = costs[ell], 0
    return (ell,), spends[ell], costs[ell], tuple(up), tuple(down)


def _step(costs: Sequence[int], spends: tuple[int, ...]):
    """The one rounding transition from an integer spend state.

    None once every spend is 0 or its full cost. Otherwise
    ``(indices, num, den, up, down)``: the state moves to the spend tuple
    `up` with probability num/den and to `down` otherwise. The first two
    fractional projects trade spend until one of them is integral, each
    keeping its expected spend; a last fractional project is rounded
    `_alone`.
    """
    frac = [c for c in range(len(costs)) if 0 < spends[c] < costs[c]]
    if not frac:
        return None
    up, down = list(spends), list(spends)
    if len(frac) >= 2:
        i, j = frac[0], frac[1]
        delta_up = min(costs[i] - spends[i], spends[j])
        delta_down = min(spends[i], costs[j] - spends[j])
        up[i] += delta_up
        up[j] -= delta_up
        down[i] -= delta_down
        down[j] += delta_down
        # P[up] = delta_down / (delta_up + delta_down)
        den = delta_up + delta_down
        return (i, j), delta_down, den, tuple(up), tuple(down)
    return _alone(costs, spends, frac[0])


def _leaf(costs: Sequence[int], spends: Sequence[int]) -> IntegralOutcome:
    """The outcome of an integral spend state: every fully spent project."""
    return IntegralOutcome(j for j, c in enumerate(costs) if spends[j] == c)


def dependent_round(
    instance: PBInstance, p: FractionalOutcome, seed: int
) -> tuple[IntegralOutcome, RoundingTrace]:
    """Round a feasible fractional outcome to a BB1 integral outcome.

    Deterministic function of (instance, p, seed). The returned trace
    records every round with exact thresholds and state snapshots.
    """
    costs, spends, zero = _spend_space(instance, p, instance.budget)
    draws = _draws(seed)
    rounds: list[RoundingRound] = []
    while True:
        t = len(rounds)
        if t < len(zero):
            step = _alone(costs, spends, zero[t])
        elif (step := _step(costs, spends)) is None:
            break
        indices, num, den, up, down = step
        go_up = next(draws) * den < num * _TWO64
        spends = up if go_up else down
        # The first project moves up by den - num or down by num.
        i = indices[0]
        rounds.append(
            RoundingRound(
                t=t,
                indices=indices,
                alpha=Fraction(den - num, costs[i]),
                beta=Fraction(num, costs[i]),
                branch="up" if go_up else "down",
                q=tuple(Fraction(s, c) for s, c in zip(spends, costs)),
            )
        )
    outcome = _leaf(costs, spends)
    return outcome, RoundingTrace(rounds=tuple(rounds), outcome=outcome, seed=seed)


def round_with_hard_cap(
    instance: PBInstance, p: FractionalOutcome, seed: int
) -> IntegralOutcome:
    """Round a fractional outcome spending B' = B - max cost; cost(W) <= B always."""
    reduced = instance.budget - max(instance.cost)
    return RoundingSampler(instance, p, target=reduced).sample(seed)


def is_bb1(instance: PBInstance, outcome: IntegralOutcome) -> bool:
    """Budget balanced up to one project. Sums the integer
    ``scaled_costs``, which compare as the costs do."""
    w = outcome.projects
    cost, budget = instance.scaled_costs, instance.scaled_budget
    total = instance.scaled_total(w)
    if total <= budget and any(
        total + cost[c] >= budget for c in range(instance.m) if c not in w
    ):
        return True
    if total >= budget and any(total - cost[c] <= budget for c in w):
        return True
    # Degenerate cases (W = C, or no project outside W reaching B) fall back
    # to exact balance.
    return total == budget


def is_bfx(instance: PBInstance, outcome: IntegralOutcome) -> bool:
    """Budget feasible up to any project: removing any one funds within B."""
    cost, budget = instance.scaled_costs, instance.scaled_budget
    total = instance.scaled_total(outcome.projects)
    return all(total - cost[c] <= budget for c in outcome.projects)


class RoundingSampler:
    """Bulk sampler replaying `dependent_round`'s draws over a lazy DAG.

    A sample first draws each fractional zero-cost project's `_alone`
    round, in index order, one draw each, as `dependent_round` does. It
    then walks one DAG over spend states, shared by every pattern of those
    draws: it starts from state 0, the state with each of them at spend 0,
    and the drawn ones are added to the leaf. For an integer draw u, the
    threshold ``t = ceil(num * 2**64 / den)`` of a `_step`
    ``(indices, num, den, up, down)`` or of a zero-cost round gives
    ``u < t`` exactly when ``u * den < num * 2**64``, so each seed meets
    the same draws and the same exact comparisons as in `dependent_round`.

    The DAG is parallel tables indexed by state id: `_thr`, `_up` and
    `_down` hold the threshold and the children's ids, and `_steps` the
    state's branch probability ``(num, den)``, its leaf outcome, or None
    while it is unmade.
    Ids are memoised by spend tuple, so every path into a state shares
    it. A state gets its id when its parent is made, and `_step` runs on
    it once, the first time a sample or `probabilities()` reaches it. A
    leaf has threshold 0 and is its own two children.

    Seeds are drawn a block at a time: every `_step` makes a fractional
    project integral, so no walk takes more draws than the root has
    fractional projects, and `_draw_rows` computes that many draws of
    every seed in the block. `_walk` takes every seed from state 0
    through them one row of draws at a time, and after each row makes
    the states it reached first (`_unmade` holds the ids still without
    a step), so no seed draws from an unmade state and a seed on a leaf
    stays there. While a row holds at most one state per
    `_SEEDS_PER_GROUP` seeds of the block, the seeds on each state are
    one byte mask, split by the row in one pass (`_split`); a block that
    never holds more is counted from the masks' popcounts. From the
    first row that does, each seed takes one table step per draw,
    ``i = up[i] if u < thr[i] else down[i]`` (`_walk_seeds`). `sample`
    is a block of one seed, which is stepped from the first row.
    """

    def __init__(
        self,
        instance: PBInstance,
        p: FractionalOutcome,
        target: Optional[Fraction] = None,
    ) -> None:
        costs, spends, zero = _spend_space(
            instance, p, instance.budget if target is None else target
        )
        self._costs = costs
        # (j, threshold, exact share) of each zero-cost `_alone` round; the
        # DAG starts from the state where all of them went down.
        self._zero = []
        for j in zero:
            _, num, den, _, spends = _alone(costs, spends, j)
            self._zero.append((j, _threshold(num, den), Fraction(num, den)))
        # Draws per seed: the zero-cost rounds, then at most one per
        # fractional project of the root, since each `_step` makes one
        # integral.
        self._depth = len(zero) + sum(
            1 for s, c in zip(spends, costs) if 0 < s < c
        )
        self._ids: dict[tuple[int, ...], int] = {}
        self._spends: list[tuple[int, ...]] = []
        self._steps: list = []
        self._thr: list[int] = []
        self._up: list[int] = []
        self._down: list[int] = []
        self._unmade: set[int] = set()
        self._make(self._id(spends))

    def _id(self, spends: tuple[int, ...]) -> int:
        """The id of a spend state, given once as an unmade state."""
        i = self._ids.get(spends)
        if i is None:
            i = self._ids[spends] = len(self._spends)
            self._spends.append(spends)
            self._steps.append(None)
            self._unmade.add(i)
            self._thr.append(0)
            self._up.append(i)
            self._down.append(i)
        return i

    def _make(self, i: int) -> None:
        """Run `_step` on unmade state `i`: a leaf keeps its self-loops."""
        self._unmade.discard(i)
        spends = self._spends[i]
        step = _step(self._costs, spends)
        if step is None:
            self._steps[i] = _leaf(self._costs, spends)
            return
        _, num, den, up, down = step
        self._steps[i] = num, den
        self._thr[i] = _threshold(num, den)
        self._up[i] = self._id(up)
        self._down[i] = self._id(down)

    def probabilities(self) -> dict[IntegralOutcome, Fraction]:
        """Exact outcome distribution implied by the branch probabilities.

        One forward pass over the reachable spend states: each state pushes
        its exact weight to its two children. States are taken in
        decreasing order of their number of fractional projects, which is
        topological because every `_step` makes at least one more project
        integral. Branch probabilities here are the exact rational ones;
        the 2**-64 dyadic draw bias is below any statistical tolerance
        used in tests.
        """
        costs, spends = self._costs, self._spends
        steps, thr, up, down = self._steps, self._thr, self._up, self._down
        levels: dict[int, dict[int, Fraction]] = {}

        def push(i: int, weight: Fraction) -> None:
            level = levels.setdefault(
                sum(1 for s, c in zip(spends[i], costs) if 0 < s < c), {}
            )
            level[i] = level.get(i, 0) + weight

        push(0, Fraction(1))
        probs: dict[IntegralOutcome, Fraction] = {}
        for fractional in range(max(levels), -1, -1):
            for i, weight in levels.pop(fractional, {}).items():
                if steps[i] is None:
                    self._make(i)
                if not thr[i]:
                    # Distinct integral spend states are distinct outcomes.
                    probs[steps[i]] = weight
                    continue
                q = Fraction(*steps[i])
                push(up[i], weight * q)
                push(down[i], weight * (1 - q))
        for j, _, share in self._zero:
            split: dict[IntegralOutcome, Fraction] = {}
            for w, weight in probs.items():
                up_w = IntegralOutcome(w.projects | {j})
                split[up_w] = split.get(up_w, Fraction(0)) + weight * share
                split[w] = split.get(w, Fraction(0)) + weight * (1 - share)
            probs = split
        return probs

    def sample(self, seed: int) -> IntegralOutcome:
        """The outcome `dependent_round` reaches from `seed`."""
        (outcome,) = self.sample_counts((seed,))
        return outcome

    def sample_counts(
        self, seeds: Iterable[int]
    ) -> dict[IntegralOutcome, int]:
        """Sample every seed and tally counts per distinct outcome, in the
        order the outcomes are first drawn."""
        blocks = ([s & _MASK64 for s in block] for block in _blocks(seeds))
        return self._counts((_pack(block), len(block)) for block in blocks)

    def derived_counts(
        self, seed: int, samples: int
    ) -> dict[IntegralOutcome, int]:
        """``sample_counts(derive_seeds(seed, range(samples)))``, with each
        block's per-sample seeds derived and drawn in packed form: block k's
        indices are one packed row of 0 .. `_BLOCK` - 1 plus k."""
        blocks = (
            (k, min(_BLOCK, samples - k)) for k in range(0, samples, _BLOCK)
        )
        return self._counts(
            (_derived_states(seed, _LANE_INDEX + k * _LANE_ONE, n), n)
            for k, n in blocks
        )

    def _counts(
        self, blocks: Iterable[tuple[int, int]]
    ) -> dict[IntegralOutcome, int]:
        """Walk every ``(packed seed states, n)`` block and tally the
        outcomes in the order they are first drawn."""
        tally: Counter = Counter()
        for states, n in blocks:
            tally.update(self._walk(states, n))
        zero = self._zero
        z = len(zero)
        counts: dict[IntegralOutcome, int] = {}
        for key, count in tally.items():
            w = self._steps[key >> z]
            chosen = [
                j for b, (j, _, _) in enumerate(zero) if key >> (z - 1 - b) & 1
            ]
            if chosen:
                w = IntegralOutcome(w.projects.union(chosen))
            counts[w] = count
        return counts

    def _walk(self, states: int, n: int) -> dict[int, int]:
        """The count of each key over the `n` packed seed `states` of one
        block, in the order the keys are first drawn. A seed's key is its
        leaf's id, shifted left by one bit per zero-cost round, set where
        the round went up (first round highest).

        The seeds take the priced draws, then the zero-cost rounds' draws,
        one row at a time, and the states a row reaches are made before
        the next row. While a row holds at most one key per
        `_SEEDS_PER_GROUP` seeds, each key's seeds are split at once
        (`_split`), and a block that ends so is counted per key; from the
        first row with more keys, each seed is stepped (`_walk_seeds`).
        """
        rows = _draw_rows(states, n, self._depth)
        thr, up, down = self._thr, self._up, self._down
        z = len(self._zero)
        # Each row with its zero-cost round's threshold, or None if priced.
        walk = [(row, None) for row in rows[z:]]
        walk += [(row, t) for row, (_, t, _) in zip(rows, self._zero)]
        groups = {0: int.from_bytes(b"\1" * n, "little")}
        for r, (row, t) in enumerate(walk):
            if len(groups) * _SEEDS_PER_GROUP > n:
                return self._walk_seeds(groups, walk[r:], n)
            if t is None:
                groups = _split(
                    groups, row, n, lambda i: (thr[i], up[i], down[i])
                )
                for i in self._unmade.intersection(groups):
                    self._make(i)
            else:
                groups = _split(
                    groups, row, n, lambda k: (t, k << 1 | 1, k << 1)
                )
        # A key's lowest set byte is its first seed.
        first = sorted(groups.items(), key=lambda group: group[1] & -group[1])
        return {key: seeds.bit_count() for key, seeds in first}

    def _walk_seeds(
        self,
        groups: dict[int, int],
        walk: list[tuple[int, Optional[int]]],
        n: int,
    ) -> Counter:
        """`_walk`'s count, from the seeds of each key in `groups` through
        the rows of `walk` left: each seed takes one table step per draw,
        ``up[i] if u < thr[i] else down[i]``, or a zero-cost round's bit."""
        thr, up, down, unmade = self._thr, self._up, self._down, self._unmade
        # Each seed's byte holds its group's index: the groups' seeds are
        # disjoint, and there are fewer than 256 groups.
        keys = list(groups)
        index = sum(g * seeds for g, seeds in enumerate(groups.values()))
        ends = [keys[g] for g in index.to_bytes(n, "little")]
        for row, t in walk:
            draws = _unpack(row, n)
            if t is None:
                ends = [
                    up[i] if u < thr[i] else down[i]
                    for i, u in zip(ends, draws)
                ]
                for i in unmade.intersection(ends):
                    self._make(i)
            else:
                ends = [i << 1 | (u < t) for i, u in zip(ends, draws)]
        return Counter(ends)
