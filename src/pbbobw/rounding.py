"""Dependent rounding of feasible fractional outcomes into BB1 outcomes.

The randomized rounding is carried out in one integer "spend space"
(`_spend_space`): on p's integers of 1/q (`scaled_shares`), each project
c has an integer cost C_c and an integer spend w_c in [0, C_c] with
q_c = w_c / C_c. A priced project's C_c is its scaled cost times q, over
a common gcd; a zero-cost project's is its share's denominator. Each
branch decision takes the next draw of a splitmix64 stream and compares
it against the exact rational branch probability by integer
cross-multiplication (per-decision bias at most 2**-64).

`_step` is the one transition. The fractional projects are rounded in one
`order` (`_order`): the zero-cost ones first, each alone with one draw,
as they never affect the spend conservation; then the priced ones, each
in index order, where the first two fractional projects trade an integer
amount of spend until one of them is integral, so every intermediate
state is exact, and a last fractional one is rounded alone. At most one
touched project is still fractional, the carry, and every project of
``order[k:]`` still has its root spend, so a node ``(carry, spend, k)``
and the mask `full` of the fully spent projects stand for the whole spend
tuple, and `_step` runs in O(1). A leaf is the set `full`.

`dependent_round` follows one seed's path and records it. `RoundingSampler`
replays the same draws over a DAG of states ``(carry, spend, k, full)``:
a branch depends only on the state, so it holds at most one state per
distinct spend tuple, stepped the first time a sample reaches it, and it
grows with the states visited, not with 2^m. The DAG is flat int tables
indexed by state id: each state's integer threshold ceil(num * 2**64 /
den) and its two children's ids, and a draw u < threshold exactly when
u * den < num * 2**64, so the sampler returns the same outcome seed for
seed. A leaf has threshold 0 and is its own two children, so a seed's
walk is one table step per draw; the states a draw reaches are made
before the next draw is taken. While a row of draws holds few states for
a block's seeds, the seeds on each state are split at once: the top bytes
of their draws, compared against the threshold's by one
`bytes.translate`, decide all but about one seed in 256, whose whole draw
is compared. Callers that need only the outcome (the BW rules,
`round_with_hard_cap`) draw through the sampler;
`RoundingSampler.probabilities()` gives the exact distribution in one
forward pass over the same tables.

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
from typing import Iterable, Iterator, Optional, Sequence

from .model import (
    FractionalOutcome,
    IntegralOutcome,
    PBInstance,
    members,
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

# A block's seeds are split per state (`_split`) while a row holds at most
# one state per this many seeds of the block; past that each seed is
# stepped. A split at most doubles the states, so fewer than 256 reach
# `_walk_seeds`.
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
    groups: dict[int, int],
    row: int,
    n: int,
    thr: Sequence[int],
    up: Sequence[int],
    down: Sequence[int],
) -> dict[int, int]:
    """One row of draws taken by the `n` seeds of a block, per state.

    `groups` maps each state id to its seeds, one byte per seed
    (`_below`); `thr`, `up` and `down` are the sampler's tables. Returns
    the seeds on each state the row reaches.
    """
    raw = row.to_bytes(16 * n, "little")
    tops = raw[7::16]
    split: dict[int, int] = {}
    for i, seeds in groups.items():
        t = thr[i]
        below = _below(raw, tops, seeds, t) if t else 0
        for child, part in ((up[i], below), (down[i], seeds ^ below)):
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


def _order(
    costs: Sequence[int], root: Sequence[int], zero: tuple[int, ...]
) -> tuple[tuple[int, ...], int]:
    """``(order, full)`` at the root: `order` holds the fractional
    zero-cost projects `zero`, then the fractional priced projects, each
    in index order, and `full` is the mask of the fully spent projects."""
    order = zero + tuple(
        j for j, (s, c) in enumerate(zip(root, costs))
        if 0 < s < c and j not in zero
    )
    full = sum(1 << j for j, (s, c) in enumerate(zip(root, costs)) if s == c)
    return order, full


def _step(
    costs: Sequence[int],
    root: Sequence[int],
    order: tuple[int, ...],
    zero: tuple[int, ...],
    node: tuple[int, int, int],
):
    """The one rounding transition, from node ``(carry, spend, k)``.

    `carry` is the one touched project still fractional (-1 if none) and
    `spend` its spend; every project of ``order[k:]`` still has its root
    spend. None at a leaf. Otherwise ``(indices, num, den, up, down)``:
    the node moves to `up` with probability num/den and to `down`
    otherwise, each a ``(node, mask)`` whose mask holds the projects that
    branch fills. A zero-cost project, or a last fractional one, is
    rounded alone. Otherwise the first two fractional projects, the carry
    (or ``order[k]``) and the next of `order`, trade spend until one of
    them is integral, each keeping its expected spend; the one left
    fractional is the new carry, whose spend is never its root spend.
    """
    carry, spend, k = node
    if carry < 0:
        if k == len(order):
            return None
        carry, k = order[k], k + 1
        spend = root[carry]
    if k <= len(zero) or k == len(order):
        rest = (-1, 0, k)
        return (carry,), spend, costs[carry], (rest, 1 << carry), (rest, 0)
    j = order[k]
    k += 1
    sj = root[j]
    gap, room = costs[carry] - spend, costs[j] - sj
    # Up, the carry takes min(gap, sj) from j; down, it gives j
    # min(spend, room). P[up] = min(spend, room) / (the sum of both).
    if sj < gap:
        up = (carry, spend + sj, k), 0
    else:
        up = ((j, sj - gap, k) if sj > gap else (-1, 0, k)), 1 << carry
    if room < spend:
        down = (carry, spend - room, k), 1 << j
    elif room > spend:
        down = (j, sj + spend, k), 0
    else:
        down = (-1, 0, k), 1 << j
    num = min(spend, room)
    return (carry, j), num, min(gap, sj) + num, up, down


def dependent_round(
    instance: PBInstance, p: FractionalOutcome, seed: int
) -> tuple[IntegralOutcome, RoundingTrace]:
    """Round a feasible fractional outcome to a BB1 integral outcome.

    Deterministic function of (instance, p, seed). The returned trace
    records every round with exact thresholds and state snapshots.
    """
    costs, root, zero = _spend_space(instance, p, instance.budget)
    order, full = _order(costs, root, zero)
    q = [Fraction(s, c) for s, c in zip(root, costs)]
    node = (-1, 0, 0)
    draws = _draws(seed)
    rounds: list[RoundingRound] = []
    while (step := _step(costs, root, order, zero, node)) is not None:
        indices, num, den, up, down = step
        go_up = next(draws) * den < num * _TWO64
        node, mask = up if go_up else down
        full |= mask
        carry, spend, _ = node
        for j in indices:
            s = spend if j == carry else costs[j] if full >> j & 1 else 0
            q[j] = Fraction(s, costs[j])
        # The first project moves up by den - num or down by num.
        i = indices[0]
        rounds.append(
            RoundingRound(
                t=len(rounds),
                indices=indices,
                alpha=Fraction(den - num, costs[i]),
                beta=Fraction(num, costs[i]),
                branch="up" if go_up else "down",
                q=tuple(q),
            )
        )
    outcome = IntegralOutcome(members(full))
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

    A state is four ints ``(carry, spend, k, full)``: `_step`'s node and
    the mask of the fully spent projects. The rounds come in
    `dependent_round`'s order, the fractional zero-cost projects first,
    and state 0 is the root ``(-1, 0, 0, full)``. For an integer draw u,
    the threshold ``t = ceil(num * 2**64 / den)`` of a `_step`
    ``(indices, num, den, up, down)`` gives ``u < t`` exactly when
    ``u * den < num * 2**64``, so each seed meets the same draws and the
    same exact comparisons as in `dependent_round`. A leaf's outcome is
    its `full` mask.

    The DAG is parallel tables indexed by state id: `_thr`, `_up` and
    `_down` hold the threshold and the children's ids, and `_steps` the
    state's branch probability ``(num, den)``, its leaf outcome, or None
    while it is unmade.
    Ids are memoised by state in `_ids`, so every path into a state
    shares it; on reachable states the four ints are a bijection with the
    spend tuples (the carry is the lowest fractional project, and one
    that has just become the carry never has its root spend). A state
    gets its id when its parent is made, up child first, and `_step`
    runs on it once, the first time a sample or `probabilities()`
    reaches it. A leaf has threshold 0 and is its own two children.
    Priced states are not shared across the zero-cost draws: with z
    fractional zero-cost projects they split into up to 2^z copies.

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
        costs, root, zero = _spend_space(
            instance, p, instance.budget if target is None else target
        )
        order, full = _order(costs, root, zero)
        self._space = costs, root, order, zero
        # Draws per seed: at most one per fractional project of the root,
        # since each `_step` makes one integral.
        self._depth = len(order)
        self._ids: dict[tuple[int, int, int, int], int] = {}
        self._states: list[tuple[int, int, int, int]] = []
        self._steps: list = []
        self._thr: list[int] = []
        self._up: list[int] = []
        self._down: list[int] = []
        self._unmade: set[int] = set()
        self._make(self._id((-1, 0, 0, full)))

    def _id(self, state: tuple[int, int, int, int]) -> int:
        """The id of a state, given once as an unmade state."""
        i = self._ids.get(state)
        if i is None:
            i = self._ids[state] = len(self._states)
            self._states.append(state)
            self._steps.append(None)
            self._unmade.add(i)
            self._thr.append(0)
            self._up.append(i)
            self._down.append(i)
        return i

    def _make(self, i: int) -> None:
        """Run `_step` on unmade state `i`: a leaf keeps its self-loops."""
        self._unmade.discard(i)
        carry, spend, k, full = self._states[i]
        step = _step(*self._space, (carry, spend, k))
        if step is None:
            self._steps[i] = IntegralOutcome(members(full))
            return
        _, num, den, (up, up_full), (down, down_full) = step
        self._steps[i] = num, den
        self._thr[i] = _threshold(num, den)
        self._up[i] = self._id((*up, full | up_full))
        self._down[i] = self._id((*down, full | down_full))

    def probabilities(self) -> dict[IntegralOutcome, Fraction]:
        """Exact outcome distribution implied by the branch probabilities.

        One forward pass over the reachable states: each state pushes its
        exact weight to its two children. States are taken in decreasing
        order of their number of fractional projects, the carry and
        ``order[k:]``, which is topological because every `_step` makes
        at least one more project integral. Branch probabilities here are
        the exact rational ones; the 2**-64 dyadic draw bias is below any
        statistical tolerance used in tests.
        """
        states, depth = self._states, self._depth
        steps, thr, up, down = self._steps, self._thr, self._up, self._down
        levels: dict[int, dict[int, Fraction]] = {}

        def push(i: int, weight: Fraction) -> None:
            carry, _, k, _ = states[i]
            level = levels.setdefault((carry >= 0) + depth - k, {})
            level[i] = level.get(i, 0) + weight

        push(0, Fraction(1))
        probs: dict[IntegralOutcome, Fraction] = {}
        for level in range(max(levels), -1, -1):
            for i, weight in levels.pop(level, {}).items():
                if steps[i] is None:
                    self._make(i)
                if not thr[i]:
                    # Distinct leaves are distinct outcomes.
                    probs[steps[i]] = weight
                    continue
                q = Fraction(*steps[i])
                push(up[i], weight * q)
                push(down[i], weight * (1 - q))
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
        return {self._steps[i]: count for i, count in tally.items()}

    def _walk(self, states: int, n: int) -> dict[int, int]:
        """The count of each leaf id over the `n` packed seed `states` of
        one block, in the order the leaves are first drawn.

        The seeds take their draws one row at a time, and the states a row
        reaches are made before the next row. While a row holds at most
        one state per `_SEEDS_PER_GROUP` seeds, each state's seeds are
        split at once (`_split`), and a block that ends so is counted per
        state; from the first row with more states, each seed is stepped
        (`_walk_seeds`).
        """
        rows = _draw_rows(states, n, self._depth)
        thr, up, down = self._thr, self._up, self._down
        groups = {0: int.from_bytes(b"\1" * n, "little")}
        for r, row in enumerate(rows):
            if len(groups) * _SEEDS_PER_GROUP > n:
                return self._walk_seeds(groups, rows[r:], n)
            groups = _split(groups, row, n, thr, up, down)
            for i in self._unmade.intersection(groups):
                self._make(i)
        # A state's lowest set byte is its first seed.
        first = sorted(groups.items(), key=lambda group: group[1] & -group[1])
        return {i: seeds.bit_count() for i, seeds in first}

    def _walk_seeds(
        self, groups: dict[int, int], rows: list[int], n: int
    ) -> Counter:
        """`_walk`'s count, from the seeds of each state in `groups`
        through the `rows` left: each seed takes one table step per draw,
        ``up[i] if u < thr[i] else down[i]``."""
        thr, up, down, unmade = self._thr, self._up, self._down, self._unmade
        # Each seed's byte holds its group's index: the groups' seeds are
        # disjoint, and there are fewer than 256 groups.
        keys = list(groups)
        index = sum(g * seeds for g, seeds in enumerate(groups.values()))
        ends = [keys[g] for g in index.to_bytes(n, "little")]
        for row in rows:
            draws = _unpack(row, n)
            ends = [up[i] if u < thr[i] else down[i] for i, u in zip(ends, draws)]
            for i in unmade.intersection(ends):
                self._make(i)
        return Counter(ends)
