"""The fraction-free simplex against the plain Fraction simplex.

`reference` below is the Fraction-tableau phase-one simplex that
`solve_feasibility` replaced, kept as it was apart from inlining the
basis-membership test and counting ratio-test ties. Both use Bland's rule,
so equal returned vectors mean the same final vertex, and therefore the
same lottery certificate from the oracles.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

import pytest

from pbbobw import (
    LinearConstraint,
    gen_bfx_family,
    gen_ifs_jr_family,
    ifs_rows,
    lottery_feasible,
    predicate,
    solve_feasibility,
)
from pbbobw import lp, oracle

from conftest import random_feasible_p, random_instance

F = Fraction


def reference(
    constraints: Sequence[LinearConstraint],
    num_vars: int,
    stats: Optional[Counter] = None,
) -> Optional[list[Fraction]]:
    rows: list[list[Fraction]] = []
    relations: list[str] = []
    rhs: list[Fraction] = []
    for con in constraints:
        if len(con.coefficients) != num_vars:
            raise ValueError("constraint has wrong arity")
        coeffs = [Fraction(c, con.denominator) for c in con.coefficients]
        bound = Fraction(con.bound, con.denominator)
        rel = con.relation
        if bound < 0:
            coeffs = [-c for c in coeffs]
            bound = -bound
            rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
        rows.append(coeffs)
        relations.append(rel)
        rhs.append(bound)

    num_rows = len(rows)
    num_slack = sum(1 for r in relations if r != "=")
    slack_base = num_vars
    art_base = num_vars + num_slack
    total = art_base + num_rows
    tableau = [[Fraction(0)] * (total + 1) for _ in range(num_rows)]
    basis = [0] * num_rows
    cost = [Fraction(0)] * total

    slack_index = 0
    for r in range(num_rows):
        for j in range(num_vars):
            tableau[r][j] = rows[r][j]
        tableau[r][total] = rhs[r]
        if relations[r] == "<=":
            tableau[r][slack_base + slack_index] = Fraction(1)
            basis[r] = slack_base + slack_index
            slack_index += 1
        elif relations[r] == ">=":
            tableau[r][slack_base + slack_index] = Fraction(-1)
            slack_index += 1
            tableau[r][art_base + r] = Fraction(1)
            basis[r] = art_base + r
            cost[art_base + r] = Fraction(1)
        else:
            tableau[r][art_base + r] = Fraction(1)
            basis[r] = art_base + r
            cost[art_base + r] = Fraction(1)

    while True:
        duals = [cost[basis[r]] for r in range(num_rows)]
        entering = -1
        for j in range(total):
            if j in basis:
                continue
            reduced = cost[j] - sum(
                duals[r] * tableau[r][j] for r in range(num_rows)
            )
            if reduced < 0:
                entering = j
                break
        if entering < 0:
            break
        leaving = -1
        best_ratio: Optional[Fraction] = None
        for r in range(num_rows):
            a = tableau[r][entering]
            if a > 0:
                ratio = tableau[r][total] / a
                if stats is not None and ratio == best_ratio:
                    stats["ratio ties"] += 1
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[r] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = r
        if leaving < 0:
            raise ArithmeticError("phase-one simplex unbounded")
        pivot = tableau[leaving][entering]
        tableau[leaving] = [v / pivot for v in tableau[leaving]]
        for r in range(num_rows):
            if r == leaving:
                continue
            factor = tableau[r][entering]
            if factor != 0:
                row_l = tableau[leaving]
                tableau[r] = [
                    v - factor * w for v, w in zip(tableau[r], row_l)
                ]
        basis[leaving] = entering

    objective = sum(
        cost[basis[r]] * tableau[r][total] for r in range(num_rows)
    )
    if objective != 0:
        return None
    solution = [Fraction(0)] * num_vars
    for r in range(num_rows):
        if basis[r] < num_vars:
            solution[basis[r]] = tableau[r][total]
    return solution


# Small values with shared denominators, so ratio ties are frequent.
COEFFICIENTS = [F(0)] * 6 + [F(v) for v in (1, -1, 2, -2, 3)] + [
    F(1, 2), F(-1, 3), F(3, 4), F(5, 6), F(-7, 4),
]
BOUNDS = [F(0)] * 3 + [F(v) for v in (1, 2, 4, -1, -3)] + [
    F(1, 2), F(-3, 2), F(2, 3), F(7, 5),
]
RELATIONS = ["<=", "=", ">="]


def random_system(rng: random.Random, stats: Counter):
    """A random system that mixes in the features the sweep must cover."""
    num_vars = rng.randint(1, 7)
    rows: list[LinearConstraint] = []
    for _ in range(rng.randint(1, 8)):
        draw = rng.random()
        if draw < 0.08:
            coeffs = (F(0),) * num_vars
        elif draw < 0.25 and rows:
            # A positive multiple of an earlier row: a guaranteed tie
            # whenever both rows compete in the ratio test.
            base = rng.choice(rows)
            scale = F(rng.randint(1, 3), rng.randint(1, 2))
            rows.append(
                LinearConstraint(
                    tuple(c * scale for c in base.coefficients),
                    rng.choice([base.relation, rng.choice(RELATIONS)]),
                    base.bound * scale,
                )
            )
            continue
        else:
            coeffs = tuple(rng.choice(COEFFICIENTS) for _ in range(num_vars))
        rows.append(
            LinearConstraint(coeffs, rng.choice(RELATIONS), rng.choice(BOUNDS))
        )
    for con in rows:
        stats["all-zero rows"] += all(c == 0 for c in con.coefficients)
        stats["'=' rows with zero bound"] += (
            con.relation == "=" and con.bound == 0
        )
        stats["negative bounds"] += con.bound < 0
    return rows, num_vars


@pytest.mark.parametrize("block", range(6))
def test_matches_fraction_simplex_on_random_systems(block):
    stats: Counter = Counter()
    for seed in range(block * 500, (block + 1) * 500):
        rows, num_vars = random_system(random.Random(seed), stats)
        expected = reference(rows, num_vars, stats)
        assert solve_feasibility(rows, num_vars) == expected, f"seed {seed}"
        stats["feasible" if expected is not None else "infeasible"] += 1
    for feature in (
        "ratio ties",
        "all-zero rows",
        "'=' rows with zero bound",
        "negative bounds",
        "feasible",
        "infeasible",
    ):
        assert stats[feature] >= 20, (feature, stats)


def test_matches_fraction_simplex_on_oracle_lps(monkeypatch):
    lps = []

    def capture(rows, num_vars):
        lps.append((list(rows), num_vars))
        return solve_feasibility(rows, num_vars)

    monkeypatch.setattr(oracle, "solve_feasibility", capture)
    ifs = gen_ifs_jr_family(4, F(5))
    lottery_feasible(ifs, predicate("jr-general"), None, ifs_rows(ifs))
    bfx, p = gen_bfx_family(F(2), F(1, 5))
    for name in ("bb1", "bfx"):
        lottery_feasible(bfx, predicate(name), p)
    rng = random.Random(5)
    for _ in range(12):
        inst = random_instance(rng, n_max=4, m_max=6, utilities="binary")
        lottery_feasible(inst, predicate("bb1"), random_feasible_p(rng, inst))
        lottery_feasible(inst, predicate("jr-binary"), None, ifs_rows(inst))
    assert len(lps) == 27
    for rows, num_vars in lps:
        assert solve_feasibility(rows, num_vars) == reference(rows, num_vars)


def large_system(rng: random.Random):
    """A random system with coefficients up to 10^12, some of them over
    small denominators: its Bareiss entries outgrow 64-bit lanes."""
    num_vars = rng.randint(1, 6)
    rows = []
    for _ in range(rng.randint(2, 6)):
        coeffs = tuple(
            0 if rng.random() < 0.2
            else F(rng.randint(-10**12, 10**12), rng.choice((1, 1, 2, 3, 7)))
            for _ in range(num_vars)
        )
        bound = F(rng.randint(-10**12, 10**12), rng.choice((1, 5)))
        rows.append(LinearConstraint(coeffs, rng.choice(RELATIONS), bound))
    return rows, num_vars


def test_matches_fraction_simplex_on_large_coefficients(monkeypatch):
    widened = []

    def counting(packed, width, lanes):
        widened.append(width)
        return widen(packed, width, lanes)

    widen = lp._widen
    monkeypatch.setattr(lp, "_widen", counting)
    verdicts: Counter = Counter()
    for seed in range(300):
        rows, num_vars = large_system(random.Random(seed))
        expected = reference(rows, num_vars)
        assert solve_feasibility(rows, num_vars) == expected, f"seed {seed}"
        verdicts[expected is None] += 1
    assert len(widened) >= 20, widened
    assert verdicts[True] >= 20 and verdicts[False] >= 20, verdicts


def tall_system(rng: random.Random, top: int):
    """20-40 rows over 5-15 variables, mostly `>=`, with coefficients in
    [1, top] over small denominators, and one `=` row: the sum of the
    variables. In half of them every row holds at a planted integer
    point, many of them exactly."""
    num_vars = rng.randint(5, 15)
    point = [rng.choice((0, 0, 1, 2)) for _ in range(num_vars)]
    planted = rng.random() < 0.5
    rows = []
    for _ in range(rng.randint(20, 40)):
        coeffs = tuple(
            0 if rng.random() < 0.4 else rng.randint(1, top)
            for _ in range(num_vars)
        )
        value = sum(c * x for c, x in zip(coeffs, point))
        relation = ">=" if rng.random() < 0.85 else "<="
        slack = rng.choice((0, 0, 1)) if planted else rng.randint(-top, top)
        bound = value - slack if relation == ">=" else value + slack
        rows.append(
            LinearConstraint(coeffs, relation, bound, rng.choice((1, 1, 2, 3)))
        )
    total = LinearConstraint((1,) * num_vars, "=", sum(point) or 1)
    rows.insert(rng.randrange(len(rows) + 1), total)
    return rows, num_vars


def wide_system(rng: random.Random):
    """6-12 `=` rows over 100-300 random 0/1 columns, as in the oracle's
    fixed-marginal LPs. Half of them have the marginals of a planted
    lottery over a few columns, the others random ones."""
    num_rows, num_vars = rng.randint(6, 12), rng.randint(100, 300)
    columns = [
        [int(rng.random() < 0.4) for _ in range(num_rows)]
        for _ in range(num_vars)
    ]
    if rng.random() < 0.5:
        support = rng.sample(range(num_vars), num_rows)
        weights = [rng.randint(1, 9) for _ in support]
        bounds = [
            F(sum(w for w, j in zip(weights, support) if columns[j][r]),
              sum(weights))
            for r in range(num_rows)
        ]
    else:
        bounds = [F(rng.randint(0, 6), 6) for _ in range(num_rows)]
    rows = [
        LinearConstraint(tuple(col[r] for col in columns), "=", bounds[r])
        for r in range(num_rows)
    ]
    return rows, num_vars


@pytest.mark.parametrize("shape, count", [("tall", 6), ("wide", 10)])
def test_matches_fraction_simplex_on_tall_and_wide_systems(shape, count):
    verdicts: Counter = Counter()
    for seed in range(count):
        rng = random.Random(seed)
        rows, num_vars = (
            tall_system(rng, 6) if shape == "tall" else wide_system(rng)
        )
        expected = reference(rows, num_vars)
        assert solve_feasibility(rows, num_vars) == expected, f"seed {seed}"
        verdicts[expected is None] += 1
    assert verdicts[True] >= 1 and verdicts[False] >= 1, verdicts


@pytest.fixture
def widened(monkeypatch) -> list[int]:
    """The widths `lp._widen` is called at, in order."""
    calls: list[int] = []
    widen = lp._widen

    def counting(packed, width, lanes):
        calls.append(width)
        return widen(packed, width, lanes)

    monkeypatch.setattr(lp, "_widen", counting)
    return calls


def test_matches_fraction_simplex_on_tall_systems_that_widen(widened):
    """Coefficients up to 10^9: every solve widens its lanes at least once."""
    verdicts: Counter = Counter()
    for seed in range(4):
        rows, num_vars = tall_system(random.Random(seed), 10**9)
        before = len(widened)
        expected = reference(rows, num_vars)
        assert solve_feasibility(rows, num_vars) == expected, f"seed {seed}"
        assert len(widened) > before, f"seed {seed}"
        verdicts[expected is None] += 1
    assert verdicts[True] >= 1 and verdicts[False] >= 1, verdicts


def test_matches_fraction_simplex_when_only_the_basis_inverse_grows(widened):
    """Chains x_i - a·x_{i+1} (rel) b_i with a up to 2^29: a basis of
    them has determinant 1 and an inverse with entries up to a^(k-1), so
    the lanes widen for the basis block while the pivots and the rhs
    stay small."""
    for seed in range(100):
        rng = random.Random(seed)
        k = rng.randint(3, 6)
        a = rng.choice((2**20, 2**25, 2**29, 3**18))
        rows = [
            LinearConstraint(
                tuple(1 if j == i else -a if j == i + 1 else 0 for j in range(k)),
                rng.choice(RELATIONS),
                rng.choice((0, 1, 2)),
            )
            for i in range(k)
        ]
        assert solve_feasibility(rows, k) == reference(rows, k), f"seed {seed}"
    assert len(widened) >= 20, widened


@pytest.mark.parametrize("width", [64, 128, 256])
def test_lane_fit_test_at_the_boundary(width):
    """Entries fit a lane of width W iff they lie in [-2^(b-1), 2^(b-1))
    for b = W/2, and every packed row decodes to its entries."""
    edge = 1 << width // 2 - 1
    lanes = 4
    signs, bias, high, _ = lp._lane_masks(width, lanes)

    def fits(values):
        packed = lp._pack(values, width, signs)
        assert lp._unpack(packed, width, lanes, signs) == values
        return not (packed + bias) & high

    assert fits([-edge, edge - 1, 0, -edge])
    assert fits([edge - 1, -edge, -edge, edge - 1])
    for at in range(lanes):
        for value in (edge, -edge - 1, 2 * edge, -(1 << width - 1)):
            values = [0, -edge, edge - 1, 0]
            values[at] = value
            assert not fits(values), (at, value)


@pytest.mark.parametrize("b", [32, 64])
def test_entries_on_a_lane_boundary_match_the_fraction_simplex(b):
    edge = 1 << b - 1
    values = (edge - 1, edge, edge + 1, -edge, -edge - 1, 1, -1, 0)
    rng = random.Random(b)
    for _ in range(200):
        num_vars = rng.randint(1, 3)
        rows = [
            LinearConstraint(
                tuple(rng.choice(values) for _ in range(num_vars)),
                rng.choice(RELATIONS),
                rng.choice(values),
            )
            for _ in range(rng.randint(1, 4))
        ]
        assert solve_feasibility(rows, num_vars) == reference(rows, num_vars)


def _over_multiple(rng: random.Random, con: LinearConstraint) -> LinearConstraint:
    """The row as integers over a random positive multiple of its least
    denominator."""
    entries = [F(c) for c in (*con.coefficients, con.bound)]
    d = lcm(*(c.denominator for c in entries)) * rng.randint(1, 6)
    *ints, bound = (int(c * d) for c in entries)
    return LinearConstraint(tuple(ints), con.relation, bound, d)


def test_int_coefficients_match_equal_fraction_rows():
    """The vertex is the rational rows' vertex however each row is
    written: ints, Fractions, or ints over any multiple of the row's
    least denominator, on small int systems and on the rational sweep's."""
    rng = random.Random(3)
    for seed in range(500):
        num_vars = rng.randint(1, 6)
        ints = [
            LinearConstraint(
                tuple(rng.choice((0, 0, 1, -1, 2, 3)) for _ in range(num_vars)),
                rng.choice(RELATIONS),
                rng.randint(-3, 4),
            )
            for _ in range(rng.randint(1, 6))
        ]
        fractions = [
            LinearConstraint(tuple(map(F, c.coefficients)), c.relation, F(c.bound))
            for c in ints
        ]
        # Int coefficients with Fraction bounds, as in the oracle's rows.
        mixed = [
            LinearConstraint(c.coefficients, c.relation, F(c.bound)) for c in ints
        ]
        expected = solve_feasibility(fractions, num_vars)
        assert expected == reference(fractions, num_vars)
        assert solve_feasibility(ints, num_vars) == expected
        assert solve_feasibility(mixed, num_vars) == expected
        scaled = [_over_multiple(rng, c) for c in ints]
        assert solve_feasibility(scaled, num_vars) == expected
        assert reference(scaled, num_vars) == expected
        rows, num_vars = random_system(random.Random(seed), Counter())
        expected = reference(rows, num_vars)
        scaled = [_over_multiple(rng, c) for c in rows]
        assert solve_feasibility(scaled, num_vars) == expected, f"seed {seed}"
        assert reference(scaled, num_vars) == expected, f"seed {seed}"
    for denominator in (0, -1):
        row = LinearConstraint((1, 2), "<=", 3, denominator)
        with pytest.raises(ValueError, match="denominator"):
            solve_feasibility([row], 2)


def test_arity_mismatch_raises():
    rows = [LinearConstraint((F(1), F(2)), "<=", F(3))]
    with pytest.raises(ValueError, match="arity"):
        solve_feasibility(rows, 3)
    with pytest.raises(ValueError, match="arity"):
        reference(rows, 3)


def test_empty_system_is_the_origin():
    assert solve_feasibility([], 3) == reference([], 3) == [F(0)] * 3
