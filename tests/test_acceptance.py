"""Acceptance gate: one timed test per criterion.

Each test implements its criterion from scratch against the public API,
recomputing certificates independently instead of trusting library flags
wherever the criterion states a formula.  The conftest plugin prints one
pass/fail line per criterion after the run.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from collections import defaultdict
from fractions import Fraction

import pytest

import helpers
from corrhit import (
    MultilinearPolynomial,
    ThresholdForm,
    alpha,
    analyze,
    build_basis,
    check_edge_variance,
    convex_cycle_decomposition,
    counterexample_three_sets,
    counterexample_unequal_marginals,
    cycle_rho,
    decomposition_guarantees,
    density_increment,
    discrete_ensemble,
    double_sample_kernel,
    estimate_hitting_exponent,
    evaluate,
    expectation,
    gaussian_rhc_check,
    hypercontractivity_check,
    influence,
    influence_reduction,
    is_resilient,
    kernel_second_eigenvalue,
    make_anchored_symmetric,
    make_mod_linear,
    make_table_function,
    marginal,
    markov_same_set_check,
    max_gain_check,
    maximal_correlation,
    multi_set_expectation,
    noise_operator,
    parse_distribution,
    projection_subset,
    rho,
    synthesize,
    total_influence,
    variance,
)

TRIT = ("0", "1", "2")


def _uniform_marginal(m: int):
    text = "alphabet " + " ".join(str(i) for i in range(m)) + "\nsteps 1\n"
    text += "".join(f"entry {i} 1/{m}\n" for i in range(m))
    return marginal(parse_distribution(text), 1)


def _elapsed_ok(t0: float, cap: float):
    elapsed = time.monotonic() - t0
    assert elapsed < cap, f"criterion exceeded its {cap}s budget: {elapsed:.2f}s"


def test_criterion_01_rho_pipeline():
    t0 = time.monotonic()
    p = helpers.basic_dist()
    k = double_sample_kernel(p, 1)
    for y in range(3):
        assert k.rows[y][y] == Fraction(1, 2)
        assert k.rows[y][(y + 1) % 3] == Fraction(1, 4)
        assert k.rows[y][(y + 2) % 3] == Fraction(1, 4)
    lam2 = kernel_second_eigenvalue(k)
    assert lam2 == pytest.approx(0.25, abs=1e-12)
    # eigenvalue formula for the (s, p) = (3, 1/2) cycle, maximized over k != 0
    s, q = 3, 0.5
    formula = max(
        1 - 2 * q * (1 - q) * (1 - math.cos(2 * math.pi * j / s))
        for j in range(1, s)
    )
    assert lam2 == pytest.approx(formula, abs=1e-12)
    eigen_route = rho(p)
    svd_route = maximal_correlation(p, [1], [2])
    assert eigen_route == pytest.approx(0.5, abs=1e-10)
    assert abs(eigen_route - svd_route) <= 1e-8
    _elapsed_ok(t0, 1.0)


def test_criterion_02_cycle_rho_bound():
    t0 = time.monotonic()
    for s in range(2, 9):
        for tenths in range(1, 6):
            q = Fraction(tenths, 10)
            r, bound = cycle_rho(s, q)
            qf = float(q)
            lam = max(
                1 - 2 * qf * (1 - qf) * (1 - math.cos(2 * math.pi * j / s))
                for j in range(1, s)
            )
            assert abs(r - math.sqrt(max(lam, 0.0))) <= 1e-8
            assert bound == pytest.approx(1 - 7 * qf * (1 - qf) / s**2, abs=1e-12)
            assert r <= bound + 1e-12
    _elapsed_ok(t0, 5.0)


def _support_alpha(d) -> Fraction:
    """Minimum diagonal mass over the symbols the distribution actually uses."""
    by_tuple = dict(d.support())
    live = set(marginal(d, 1).support_indices())
    return min(by_tuple.get((a, a), Fraction(0)) for a in live)


def _random_equal_marginal_dist(rng: random.Random):
    """Exact 2-step distribution with equal marginals and positive diagonal.

    Off-diagonal mass arrives as superposed directed cycles, which keeps
    per-symbol in-weight equal to out-weight, so the construction covers
    non-symmetric instances as well.
    """
    m = rng.randint(2, 6)
    cells: dict[tuple[int, int], Fraction] = defaultdict(Fraction)
    for a in range(m):
        cells[(a, a)] += Fraction(rng.randint(1, 4))
    for _ in range(rng.randint(0, 2 * m)):
        length = rng.randint(2, m)
        verts = rng.sample(range(m), length)
        w = Fraction(rng.randint(1, 3))
        for i, v in enumerate(verts):
            cells[(v, verts[(i + 1) % length])] += w
    return helpers.dist_from_cells(dict(cells), m, 2)


def test_criterion_03_decomposition_exactness():
    t0 = time.monotonic()
    rng = random.Random(2718)
    for _ in range(100):
        p = _random_equal_marginal_dist(rng)
        m = len(p.alphabet)
        a = alpha(p)
        assert a > 0
        dec = convex_cycle_decomposition(p)
        # entrywise exact recomposition
        acc: dict[tuple[int, ...], Fraction] = defaultdict(Fraction)
        for part in dec.parts:
            for tup, w in part.dist.support():
                acc[tup] += part.weight * w
        assert dict(acc) == dict(p.support())
        assert sum(part.weight for part in dec.parts) == 1
        assert len(dec.parts) <= m * m + m
        ceiling = 1 - 3 * float(a) ** 5
        for part in dec.parts:
            assert _support_alpha(part.dist) >= a**4
            if part.kind == "cycle":
                assert a**3 <= part.cycle.p <= Fraction(1, 2)
                assert rho(part.dist) <= ceiling + 1e-12
        assert decomposition_guarantees(dec, p).all_ok
    # the basic-distribution decomposition equals its derived golden value
    dec = convex_cycle_decomposition(helpers.basic_dist())
    cycles = [q for q in dec.parts if q.kind == "cycle"]
    points = [q for q in dec.parts if q.kind == "point"]
    assert len(cycles) == 1 and len(points) == 3
    assert cycles[0].weight == Fraction(5, 9)
    assert cycles[0].cycle.s == 3
    assert cycles[0].cycle.p == Fraction(1, 10)
    assert all(q.weight == Fraction(4, 27) for q in points)
    _elapsed_ok(t0, 30.0)


def test_criterion_04_fourier_suite():
    t0 = time.monotonic()
    rng = random.Random(4242)
    for _ in range(100):
        m = rng.choice((2, 3))
        n = rng.randint(1, 4)
        symbols = tuple(str(i) for i in range(m))
        if rng.random() < 0.5:
            pi = _uniform_marginal(m)
        else:
            pi = marginal(helpers.random_dist(rng, m=m, steps=2, full_support=True), 1)
        f = make_table_function(n, symbols, helpers.random_unit_table(rng, n, m))
        basis = build_basis(pi)
        exp = analyze(f, basis)
        # Parseval
        second = float(variance(f, pi)) + float(expectation(f, pi)) ** 2
        assert abs(exp.second_moment() - second) <= 1e-9
        # conditional-variance influence vs coefficient-sum influence
        for i in range(1, n + 1):
            assert abs(
                float(influence(f, pi, i=i)) - exp.influence(i)
            ) <= 1e-10
        # noise operator: averaging route vs explicit coefficient scaling
        r = Fraction(rng.randint(1, 3), 4)
        via_avg = noise_operator(f, r, pi)
        scaled = {
            sigma: c * float(r) ** sum(1 for v in sigma if v)
            for sigma, c in exp.coeffs.items()
        }
        scaled_poly = MultilinearPolynomial.from_coeffs(n, basis.size - 1, scaled)
        via_coeffs = synthesize(scaled_poly, basis)
        for x in itertools.product(pi.support_indices(), repeat=n):
            assert abs(
                float(evaluate(via_avg, x)) - float(evaluate(via_coeffs, x))
            ) <= 1e-10
        # total influence bounded by degree times variance
        assert float(total_influence(f, pi)) <= exp.degree() * float(
            variance(f, pi)
        ) + 1e-10
        # projected-variance identity
        s = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, n))))
        proj = projection_subset(f, s, pi)
        mass = sum(
            c * c
            for sigma, c in exp.coeffs.items()
            if any(v != 0 for v in sigma)
            and all(sigma[i] == 0 for i in range(n) if (i + 1) not in s)
        )
        assert abs(float(variance(proj, pi)) - mass) <= 1e-10
    _elapsed_ok(t0, 60.0)


def test_criterion_05_hitting_oracle_equivalence():
    t0 = time.monotonic()
    p = helpers.basic_dist()
    f = make_mod_linear(2, TRIT, 3, (1, 1), 0, (0, 1, 2))
    for engine in ("enumerate", "dp"):
        assert multi_set_expectation(p, 2, (f, f), engine=engine) == Fraction(1, 12)
    rng = random.Random(505)
    for _ in range(50):
        n = rng.randint(1, 6)
        anchor_coord = rng.randint(1, n) if rng.random() < 0.5 else None
        fns = []
        for _ in range(2):
            if rng.random() < 0.5:
                windows = {rng.randrange(3): (0, rng.randint(0, n))}
                anchor = (anchor_coord, rng.randrange(3)) if anchor_coord else None
                fns.append(make_anchored_symmetric(n, TRIT, windows, anchor=anchor))
            else:
                fns.append(
                    make_mod_linear(
                        n, TRIT, 3,
                        [rng.randrange(3) for _ in range(n)],
                        rng.randrange(3),
                        (0, 1, 2),
                    )
                )
        dp = multi_set_expectation(p, n, fns, engine="dp")
        enum = multi_set_expectation(p, n, fns, engine="enumerate")
        assert dp == enum
    _elapsed_ok(t0, 60.0)


def test_criterion_06_density_increment():
    t0 = time.monotonic()
    rng = random.Random(606)
    eps = Fraction(1, 4)
    k = 2
    done = 0
    while done < 50:
        m = rng.choice((2, 3))
        p = helpers.random_dist(
            rng, m=m, steps=2, symmetric=True, positive_diagonal=True
        )
        symbols = tuple(str(i) for i in range(m))
        n = rng.randint(2, 3)
        vals = helpers.random_unit_table(rng, n, m)
        if sum(vals) == 0:
            vals[0] = Fraction(1, 2)
        f = make_table_function(n, symbols, vals)
        pi = marginal(p, 1)
        mu = expectation(f, pi)
        if mu <= 0:
            continue
        done += 1
        g, chain, log = density_increment(p, n, f, eps, k)
        # iteration bound recomputed from the criterion's formula
        eps_prime = alpha(p) ** k * eps
        bound = (
            math.ceil(2 * math.log(1 / float(mu)) / float(eps_prime))
            if mu < 1 else 0
        )
        assert len(chain) <= bound
        ok, _ = is_resilient(g, eps, k, pi)
        assert ok
        assert expectation(g, pi) >= mu
    _elapsed_ok(t0, 120.0)


def test_criterion_07_influence_reduction():
    t0 = time.monotonic()
    p = helpers.basic_dist()
    tau = Fraction(1, 10)
    r = Fraction(1, 2)  # rho of the base distribution, exact
    assert rho(p) == pytest.approx(float(r), abs=1e-12)
    gain_floor = tau * (1 - r**2) / 2
    ratio_floor = tau * (1 - r**2) / (2 * 2 * 3**3)
    cap = math.floor(2 * 2 / (tau * (1 - r**2)))
    assert cap == 53
    pis = [marginal(p, j) for j in (1, 2)]
    rng = random.Random(707)
    for _ in range(20):
        n = rng.randint(1, 3)
        fns = tuple(
            make_table_function(n, TRIT, helpers.random_unit_table(rng, n, 3))
            for _ in range(2)
        )
        out, log = influence_reduction(p, n, fns, tau)
        assert len(log.iterations) <= cap
        for step in log.iterations:
            recomputed_gain = sum(step.after) - sum(step.before)
            assert recomputed_gain == step.gain
            assert recomputed_gain >= gain_floor
            assert step.product_before >= ratio_floor * step.product_after
        for g, pi in zip(out, pis):
            for i in range(1, n + 1):
                assert influence(g, pi, i=i) <= tau
        for j_star in (1, 2):
            for i in range(1, n + 1):
                assert max_gain_check(p, j_star, i, n, out[j_star - 1]).holds
    _elapsed_ok(t0, 120.0)


def test_criterion_08_counterexamples():
    t0 = time.monotonic()
    skew = counterexample_unequal_marginals([6, 9, 12])
    by_n = {e.n: e for e in skew.entries}
    assert by_n[6].value > by_n[9].value > by_n[12].value > 0
    assert all(isinstance(e.value, Fraction) for e in skew.entries)
    assert by_n[6].ratio > by_n[9].ratio > by_n[12].ratio
    assert skew.ratios_strictly_decreasing

    for n in range(2, 9):
        assert counterexample_three_sets(n, engine="enumerate").triple_product == 0
    big = counterexample_three_sets(60, engine="dp")
    assert big.triple_product == 0
    assert all(mu >= Fraction(45, 100) for mu in big.measures)
    half = Fraction(1, 2)
    three = {60: big}
    for n in (30, 120):
        three[n] = counterexample_three_sets(n, engine="dp")
    gaps = [
        max(abs(half - mu) for mu in three[n].measures) for n in (30, 60, 120)
    ]
    assert gaps[0] > gaps[1] > gaps[2]
    assert all(mu < half for rep in three.values() for mu in rep.measures)
    infl = [
        max(counterexample_three_sets(n, engine="dp").max_influences)
        for n in (6, 12, 24)
    ]
    assert infl[0] > infl[1] > infl[2]
    _elapsed_ok(t0, 60.0)


def test_criterion_09_hypercontractivity():
    t0 = time.monotonic()
    rng = random.Random(909)
    for _ in range(100):
        m = rng.choice((2, 3))
        n = rng.randint(1, 3)
        a = 1.0 / m
        coeffs = {}
        for sigma in itertools.product(range(m), repeat=n):
            deg = sum(1 for v in sigma if v)
            if deg <= 2 and rng.random() < 0.6:
                coeffs[sigma] = rng.uniform(-1, 1)
        if not coeffs:
            coeffs[(0,) * n] = 1.0
        q = MultilinearPolynomial.from_coeffs(n, m - 1, coeffs)
        rep = hypercontractivity_check(q, discrete_ensemble(_uniform_marginal(m), n), a)
        assert rep.method == "exact"
        assert rep.rho == pytest.approx(a ** (1 / 6) / 2, abs=1e-12)
        assert rep.noise_holds
        assert rep.degree_holds
    _elapsed_ok(t0, 60.0)


def test_criterion_10_edge_variance():
    t0 = time.monotonic()
    rng = random.Random(1010)
    for _ in range(50):
        m = rng.choice((2, 3, 4))
        steps = rng.choice((2, 3))
        p = helpers.random_dist(rng, m=m, steps=steps)
        for j in range(1, steps + 1):
            for a in range(m):
                vals = {sym: 1 if b == a else 0
                        for b, sym in enumerate(p.alphabet.symbols)}
                rep = check_edge_variance(p, j, vals)
                assert rep.holds
                assert float(rep.lhs) >= float(rep.rhs) - 1e-10
    _elapsed_ok(t0, 10.0)


def test_criterion_11_gaussian_rhc():
    t0 = time.monotonic()
    cov = [[1.0, 0.5], [0.5, 1.0]]
    forms = (ThresholdForm(), ThresholdForm())
    rep = gaussian_rhc_check(cov, forms, samples=10**6, seed=11)
    assert rep.quadrature_value == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert abs(rep.product_estimate - rep.quadrature_value) <= 3 * rep.product_stderr
    floor = 0.25 ** (8.0 / 3.0)
    assert floor == pytest.approx(0.0248, abs=5e-4)
    assert rep.product_estimate >= floor + 0.25  # far above the bound
    assert rep.eq46a_holds
    assert rep.holds
    _elapsed_ok(t0, 30.0)


def test_criterion_12_markov_reduction():
    t0 = time.monotonic()
    rng = random.Random(1212)
    for _ in range(20):
        m = rng.choice((2, 3))
        p = helpers.random_markov_dist(rng, m=m, steps=3)
        n = rng.randint(1, 3)
        f = make_table_function(
            n, p.alphabet.symbols, helpers.random_unit_table(rng, n, m)
        )
        rep = markov_same_set_check(p, n, f)
        assert rep.ell == 3
        assert rep.equal
        assert rep.pointwise_ok
    _elapsed_ok(t0, 30.0)


def test_criterion_13_exponent_fit():
    t0 = time.monotonic()
    grid = (0.05, 0.08, 0.12, 0.2, 0.3, 0.45, 0.6)
    independent = parse_distribution(helpers.UNIFORM_BITS_TEXT)
    identity = parse_distribution(helpers.IDENTITY_BITS_TEXT)
    slope_ind = estimate_hitting_exponent(independent, grid, n=30).slope
    slope_id = estimate_hitting_exponent(identity, grid, n=30).slope
    assert abs(slope_ind - 2.0) <= 0.05
    assert abs(slope_id - 1.0) <= 0.05
    _elapsed_ok(t0, 60.0)
