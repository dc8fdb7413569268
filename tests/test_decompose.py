"""Cycle construction, digraph peeling, and the convex decomposition."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

import helpers
import oracles
from corrhit import decompose
from corrhit.decompose import (
    DecompositionPart,
    convex_cycle_decomposition,
    cycle_rho,
    decomposition_guarantees,
    make_cycle,
)
from corrhit.dist_core import Alphabet, StepDistribution, alpha, equal_marginals, rho

# ---------------------------------------------------------------------------
# cycle distributions


def test_make_cycle_weights():
    p = make_cycle(3, Fraction(1, 2))
    assert p.steps == 2
    for x in range(3):
        assert p.weight((x, x)) == Fraction(1, 6)
        assert p.weight((x, (x + 1) % 3)) == Fraction(1, 6)
    assert sum(p.weights) == 1


@pytest.mark.parametrize("s", [2, 3, 5])
def test_make_cycle_weights_in_float_mode(s):
    p = make_cycle(s, 0.3)
    assert not p.exact
    for x in range(s):
        for y in range(s):
            want = 0.3 / s if y == x else (1 - 0.3) / s if y == (x + 1) % s else 0.0
            assert p.weight((x, y)) == want and type(p.weight((x, y))) is float


def test_three_cycle_half_is_the_basic_distribution():
    assert make_cycle(3, Fraction(1, 2)).weights == helpers.basic_dist().weights


def test_make_cycle_rejects_bad_parameters():
    with pytest.raises(ValueError):
        make_cycle(1, Fraction(1, 2))
    with pytest.raises(ValueError):
        make_cycle(3, Fraction(0))
    with pytest.raises(ValueError):
        make_cycle(3, Fraction(1, 2), vertices=("a", "a", "b"))


def test_cycle_rho_golden_values():
    r, bound = cycle_rho(3, Fraction(1, 2))
    assert r == pytest.approx(0.5, abs=1e-12)
    assert bound == pytest.approx(1.0 - 7.0 * 0.25 / 9.0, abs=1e-15)

    r4, bound4 = cycle_rho(4, Fraction(1, 4))
    assert r4 == pytest.approx(0.7905694150420949, abs=1e-12)
    assert bound4 == pytest.approx(0.91796875, abs=1e-15)


def test_cycle_rho_matches_kernel_route():
    for s in range(2, 7):
        for num in (1, 2, 3):
            p = Fraction(num, 7)
            closed, bound = cycle_rho(s, p)
            numeric = rho(make_cycle(s, p))
            assert numeric == pytest.approx(closed, abs=1e-8)
            assert closed <= bound + 1e-12
            formula = oracles.cycle_eigen_formula(s, float(p))
            assert closed == pytest.approx(math.sqrt(max(formula, 0.0)), abs=1e-12)


# ---------------------------------------------------------------------------
# digraph cycle peeling


def _peeled(rows) -> list[tuple[tuple[int, ...], int]]:
    """The cycles `_peel_cycles` takes from a copy of an int matrix, checked
    for the walk's bound and shape: at most m^2 cycles, each of distinct
    vertices and positive weight."""
    m = len(rows)
    cycles = decompose._peel_cycles([list(row) for row in rows])
    assert len(cycles) <= m * m
    for vertices, w in cycles:
        assert vertices and len(set(vertices)) == len(vertices)
        assert all(0 <= v < m for v in vertices)
        assert w > 0
    return cycles


def _rebuilt(cycles, m: int) -> list[list[int]]:
    """Edge weights summed back from (vertices, weight) cycles."""
    rebuilt = [[0] * m for _ in range(m)]
    for vertices, w in cycles:
        for u, v in zip(vertices, vertices[1:] + vertices[:1]):
            rebuilt[u][v] += w
    return rebuilt


def test_digraph_decomposition_reproduces_edge_weights():
    rows = [
        [0, 3, 0],
        [1, 0, 2],
        [2, 0, 0],
    ]
    assert _rebuilt(_peeled(rows), 3) == rows


def test_digraph_decomposition_rejects_irregular():
    with pytest.raises(ValueError, match="not regular"):
        decompose._peel_cycles([[0, 1], [0, 0]])


def test_digraph_decomposition_random_regular_instances():
    rng = random.Random(2718)
    for _ in range(20):
        m = rng.choice((2, 3, 4))
        # random circulation: superpose random simple cycles
        rows = [[0] * m for _ in range(m)]
        for _ in range(rng.randint(1, 4)):
            size = rng.randint(1, m)
            verts = rng.sample(range(m), size)
            w = rng.randint(1, 5)
            for a, b in zip(verts, verts[1:] + verts[:1]):
                rows[a][b] += w
        assert _rebuilt(_peeled(rows), m) == rows


# ---------------------------------------------------------------------------
# convex decomposition


def test_golden_decomposition_of_the_basic_distribution():
    p = helpers.basic_dist()
    dec = convex_cycle_decomposition(p)
    assert dec.reconstruct() == p.weights

    cycle_parts = [q for q in dec.parts if q.kind == "cycle"]
    point_parts = [q for q in dec.parts if q.kind == "point"]
    assert len(cycle_parts) == 1 and len(point_parts) == 3

    c = cycle_parts[0]
    assert c.weight == Fraction(5, 9)
    assert c.cycle.s == 3
    assert c.cycle.p == Fraction(1, 10)
    for q in point_parts:
        assert q.weight == Fraction(4, 27)

    rep = decomposition_guarantees(dec, p)
    assert rep.alpha_base == Fraction(1, 6)
    assert rep.alpha_floor == Fraction(1, 1296)
    assert rep.rho_ceiling == pytest.approx(0.9996141975308642, abs=1e-15)
    assert rep.all_ok


def test_decomposition_rejects_unequal_marginals():
    with pytest.raises(ValueError):
        convex_cycle_decomposition(helpers.skew_dist())


def test_decomposition_rejects_three_steps():
    with pytest.raises(ValueError):
        convex_cycle_decomposition(helpers.ap3_dist())


def test_decomposition_random_instances_recompose_exactly():
    rng = random.Random(62)
    for _ in range(30):
        m = rng.choice((2, 3, 4))
        p = helpers.random_dist(rng, m=m, steps=2, symmetric=True, positive_diagonal=True)
        assert equal_marginals(p)
        dec = convex_cycle_decomposition(p)
        assert dec.reconstruct() == p.weights
        assert len(dec.parts) <= m * m + m
        a = alpha(p)
        for part in dec.parts:
            if part.kind == "cycle":
                assert a**3 <= part.cycle.p <= Fraction(1, 2)
        assert decomposition_guarantees(dec, p).all_ok


def test_point_mass_parts_are_diagonal():
    rng = random.Random(63)
    p = helpers.random_dist(rng, m=3, steps=2, symmetric=True, positive_diagonal=True)
    dec = convex_cycle_decomposition(p)
    for part in dec.parts:
        if part.kind == "point":
            support = part.dist.support()
            assert len(support) == 1
            tup, w = support[0]
            assert tup[0] == tup[1] and w == 1


def _circulation_dist(rng: random.Random, m: int) -> StepDistribution:
    """Equal-marginal, mostly asymmetric: random directed cycles plus a diagonal."""
    counts = [[0] * m for _ in range(m)]
    for x in range(m):
        counts[x][x] = rng.randint(1, 6)
    for _ in range(rng.randint(1, 5)):
        verts = rng.sample(range(m), rng.randint(2, m))
        w = rng.randint(1, 9)
        for a, b in zip(verts, verts[1:] + verts[:1]):
            counts[a][b] += w
    total = sum(map(sum, counts))
    weights = [Fraction(counts[x][y], total) for y in range(m) for x in range(m)]
    return StepDistribution(Alphabet(tuple(str(i) for i in range(m))), 2, tuple(weights), True)


def test_decomposition_matches_fraction_reference():
    rng = random.Random(4401)
    dists = []
    for _ in range(40):
        m = rng.randint(2, 5)
        dists.append(_circulation_dist(rng, m))
        dists.append(
            helpers.random_dist(rng, m=m, steps=2, symmetric=True, positive_diagonal=True)
        )
    for p in dists:
        m = len(p.alphabet)
        want = oracles.convex_cycle_decomposition_fraction(list(p.weights), m)
        got = [
            (
                part.kind,
                part.weight,
                part.dist.weights,
                None
                if part.cycle is None
                else (part.cycle.s, part.cycle.p, part.cycle.vertices),
            )
            for part in convex_cycle_decomposition(p).parts
        ]
        want = [
            (kind, weight, dist, None if cyc is None else (cyc[0], cyc[1], tuple(str(v) for v in cyc[2])))
            for kind, weight, dist, cyc in want
        ]
        assert got == want
        for kind, weight, dist, cyc in got:
            assert isinstance(weight, Fraction)
            assert all(isinstance(w, Fraction) for w in dist)
            assert cyc is None or isinstance(cyc[1], Fraction)


def test_guarantees_reject_another_distribution():
    p = helpers.basic_dist()
    dec = convex_cycle_decomposition(p)
    other = make_cycle(3, Fraction(1, 3))
    assert equal_marginals(other) and alpha(other) != alpha(p)
    with pytest.raises(ValueError):
        decomposition_guarantees(dec, other)
    # an equal distribution from another source is accepted
    assert decomposition_guarantees(dec, helpers.basic_dist()).all_ok


# ---------------------------------------------------------------------------
# parts read from their records


def test_parts_are_read_from_their_records():
    # circulations and symmetric tables with small diagonals, so that
    # two-cycles, longer cycles and q = 1/2 parts all occur
    rng = random.Random(8128)
    seen = set()
    for _ in range(300):
        m = rng.randint(2, 5)
        if rng.random() < 0.5:
            p = _circulation_dist(rng, m)
        else:
            p = helpers.random_dist(rng, m=m, steps=2, symmetric=True, positive_diagonal=True)
        dec = convex_cycle_decomposition(p)
        rep = decomposition_guarantees(dec, p)
        want = oracles.convex_cycle_decomposition_fraction(list(p.weights), m)
        assert len(want) == len(dec.parts) == len(rep.parts)
        for part, row, (kind, weight, weights, _) in zip(dec.parts, rep.parts, want):
            # the check built no part distribution; the first read builds the
            # eager one, and the second returns it
            assert "dist" not in part.__dict__
            d = part.dist
            assert d == StepDistribution(p.alphabet, 2, tuple(weights), True)
            assert part.dist is d
            assert part.kind == kind and part.weight == weight
            support = {x for tup, _ in d.support() for x in tup}
            assert row.support_alpha == min(d.weight((x, x)) for x in support)
            assert isinstance(row.support_alpha, Fraction)
            if part.kind == "point":
                assert row.part_rho == 0.0 and not row.rho_defined
                continue
            s, q = part.cycle.s, part.cycle.p
            seen.add("s=2" if s == 2 else "s>2")
            if q == Fraction(1, 2):
                seen.add("q=1/2")
            assert row.part_rho == pytest.approx(rho(d), abs=1e-12)
            # the oracle gives lambda_1; near rho = 0 its square root would
            # carry the cancellation of its own formula
            lam = oracles.cycle_eigen_formula(s, float(q))
            assert row.part_rho**2 == pytest.approx(lam, abs=1e-12)
    assert seen == {"s=2", "s>2", "q=1/2"}


def test_parts_compare_by_record():
    p = helpers.basic_dist()
    a, b = convex_cycle_decomposition(p), convex_cycle_decomposition(helpers.basic_dist())
    a.parts[0].dist  # one side built, the other not
    assert a == b and a.parts == b.parts


@pytest.mark.parametrize("vertices, q", [
    ((0,), Fraction(1, 2)), ((0, 1), Fraction(1)), ((0, 0), Fraction(1, 2)),
    ((0, 3), Fraction(1, 2)),
])
def test_part_record_refuses_bad_parameters(vertices, q):
    with pytest.raises(ValueError):
        DecompositionPart(Fraction(1), Alphabet(("0", "1", "2")), vertices, q)


def test_two_cycle_correlation_is_exact_near_one_half():
    # lambda_1 = (1 - 2q)^2 for s = 2; rho must not lose it to cancellation
    for q in (Fraction(1, 2), Fraction(499999, 1000000), Fraction(1, 3)):
        r, _ = cycle_rho(2, q)
        assert r == float(1 - 2 * q)
        assert r == pytest.approx(rho(make_cycle(2, q)), abs=1e-12)
