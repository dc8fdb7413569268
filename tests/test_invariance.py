"""Polynomial algebra, ensembles, Gaussian counterparts, and the numeric checks."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import helpers
import oracles
from corrhit import invariance
from corrhit.dist_core import Alphabet, MarginalDistribution, marginal, parse_distribution
from corrhit.fourier import (
    BudgetExceeded,
    analyze,
    build_basis,
    make_anchored_symmetric,
    make_junta,
    make_table_function,
)
from corrhit.invariance import (
    MultilinearPolynomial,
    ThresholdForm,
    discrete_ensemble,
    gaussian_counterpart,
    gaussian_ensemble,
    gaussian_rhc_check,
    hypercontractivity_check,
    invariance_gap,
    mollifier_phi,
    poly_from_function,
    smoothing_gap,
    t_rho_poly,
)

TRIT = ("0", "1", "2")
BIT = ("0", "1")


def uniform_marginal(m: int):
    text = "alphabet " + " ".join(str(i) for i in range(m)) + "\nsteps 1\n"
    text += "".join(f"entry {i} 1/{m}\n" for i in range(m))
    return marginal(parse_distribution(text), 1)


def random_poly(rng: random.Random, n: int, p: int, max_degree: int | None = None):
    coeffs = {}
    for sigma in itertools.product(range(p + 1), repeat=n):
        deg = sum(1 for s in sigma if s)
        if max_degree is not None and deg > max_degree:
            continue
        if rng.random() < 0.5:
            coeffs[sigma] = rng.uniform(-1, 1)
    if not coeffs:
        coeffs[(0,) * n] = 1.0
    return MultilinearPolynomial.from_coeffs(n, p, coeffs)


def correlated_bits(r: Fraction):
    """Exact two-step distribution of +-1-correlated uniform bits, E[XY] = r."""
    same = (1 + r) / 4
    diff = (1 - r) / 4
    cells = {(0, 0): same, (1, 1): same, (0, 1): diff, (1, 0): diff}
    return helpers.dist_from_cells(cells, 2, 2)


# ---------------------------------------------------------------------------
# polynomial algebra


def test_polynomial_statistics():
    q = MultilinearPolynomial.from_coeffs(
        2, 1, {(0, 0): 0.5, (1, 0): 0.25, (1, 1): -0.25}
    )
    assert q.degree() == 2
    assert q.expectation() == 0.5
    assert q.second_moment() == pytest.approx(0.5**2 + 0.25**2 + 0.25**2)
    assert q.variance() == pytest.approx(0.25**2 + 0.25**2)
    assert q.influence(1) == pytest.approx(0.125)
    assert q.influence(2) == pytest.approx(0.0625)
    assert q.coefficient((1, 0)) == 0.25
    assert q.coefficient((0, 1)) == 0.0


def test_from_coeffs_drops_zeros():
    q = MultilinearPolynomial.from_coeffs(1, 1, {(0,): 0.0, (1,): 1.0})
    assert q.terms == (((1,), 1.0),)


def test_polynomial_validates_shapes():
    with pytest.raises(ValueError):
        MultilinearPolynomial(1, 1, (((0, 0), 1.0),))
    with pytest.raises(ValueError):
        MultilinearPolynomial(1, 1, (((2,), 1.0),))
    with pytest.raises(ValueError):
        MultilinearPolynomial(1, 1, (((1,), float("nan")),))


def test_t_rho_twice_equals_t_rho_squared():
    rng = random.Random(3)
    for _ in range(10):
        q = random_poly(rng, 2, 2)
        twice = t_rho_poly(t_rho_poly(q, 0.6), 0.5)
        combined = t_rho_poly(q, 0.3)
        assert twice.coeffs().keys() == combined.coeffs().keys()
        for sigma, c in combined.coeffs().items():
            assert twice.coefficient(sigma) == pytest.approx(c, abs=1e-12)


def test_vectorized_values_equal_pointwise_evaluation():
    # the support grid and a block of draws give, bit for bit, the values
    # that evaluate() gives one point at a time
    rng = random.Random(9)
    for m, n in ((2, 3), (3, 2), (4, 2)):
        basis = build_basis(uniform_marginal(m))
        funcs = np.array(basis.functions)
        q = random_poly(rng, n, m - 1)
        grid = invariance._grid_values(q, funcs)
        for t, pos in enumerate(itertools.product(range(m), repeat=n)):
            point = [funcs[:, d] for d in pos]
            assert grid[t] == q.evaluate(point)
        draws = np.ones((50, n, m))
        draws[:, :, 1:] = np.random.Generator(np.random.Philox(key=2)).standard_normal(
            (50, n, m - 1)
        )
        block = invariance._poly_values(q, lambda i, s: draws[:, i, s], 50)
        assert [q.evaluate(d) for d in draws] == list(block)


def test_evaluate_multiplies_in_coordinate_order():
    q = MultilinearPolynomial.from_coeffs(3, 1, {(1, 1, 1): 0.1, (0, 1, 0): 0.7})
    values = [[1.0, 0.3], [1.0, 1.7], [1.0, -2.9]]
    assert q.evaluate(values) == ((0.7 * 1.7) + ((0.1 * 0.3) * 1.7) * -2.9)


# ---------------------------------------------------------------------------
# ensembles


def test_discrete_ensemble_orthonormality():
    # the Gram matrix sum_x pi(x) phi_a(x) phi_b(x) over the support is the
    # identity, and phi_0 is the constant 1
    rng = random.Random(7)
    for _ in range(10):
        pi = marginal(helpers.random_dist(rng, m=rng.choice((2, 3, 4)), steps=2), 1)
        basis = build_basis(pi)
        probs = np.array([float(pi.probs[s]) for s in basis.support])
        funcs = np.array(basis.functions)
        gram = (funcs * probs) @ funcs.T
        assert np.abs(gram - np.eye(basis.size)).max() < 1e-10
        assert np.abs(funcs[0] - 1.0).max() < 1e-10


def test_gaussian_ensemble_rejects_basis():
    with pytest.raises(ValueError):
        gaussian_ensemble(0, 1)


def test_poly_from_function_dictator_golden():
    pi = uniform_marginal(2)
    f = make_junta(1, BIT, [(1, "1")])
    q = poly_from_function(f, build_basis(pi))
    assert q.coefficient((0,)) == pytest.approx(0.5, abs=1e-12)
    assert q.coefficient((1,)) == pytest.approx(-0.5, abs=1e-12)


def test_poly_from_function_reads_the_support_budget():
    """On a 3-symbol alphabet whose marginal lives on {0, 1}, a window function
    at n = 4 has 2^4 = 16 support points and 3^4 alphabet points: a budget of
    16 admits it, as it does for `analyze`, whose coefficients it keeps."""
    pi = MarginalDistribution(Alphabet(TRIT), (Fraction(2, 3), Fraction(1, 3), Fraction(0)), True)
    f = make_anchored_symmetric(4, TRIT, {"0": (1, 2)}, anchor=(2, "1"))
    basis = build_basis(pi)
    q = poly_from_function(f, basis, budget=16)
    assert q.coeffs() == analyze(f, basis, budget=16).coeffs
    with pytest.raises(BudgetExceeded):
        poly_from_function(f, basis, budget=15)


def test_poly_from_function_random_tables_round_trip():
    rng = random.Random(8)
    for _ in range(8):
        m = rng.choice((2, 3))
        n = rng.randint(1, 2)
        pi = marginal(helpers.random_dist(rng, m=m, steps=2, full_support=True), 1)
        f = make_table_function(
            n, tuple(str(i) for i in range(m)), helpers.random_unit_table(rng, n, m)
        )
        basis = build_basis(pi)
        q = poly_from_function(f, basis)  # re-verifies pointwise internally
        # second moment equals the weighted square sum over the support grid
        acc = 0.0
        for pos in itertools.product(range(basis.size), repeat=n):
            w = 1.0
            for pq in pos:
                w *= float(pi.probs[basis.support[pq]])
            point = tuple(basis.support[pq] for pq in pos)
            idx = 0
            for d in reversed(point):
                idx = idx * m + d
            acc += w * float(f.payload["values"][idx]) ** 2
        assert q.second_moment() == pytest.approx(acc, abs=1e-10)


# ---------------------------------------------------------------------------
# Gaussian counterparts


def test_counterpart_correlated_bits():
    for r in (Fraction(1, 2), Fraction(3, 5)):
        cp = gaussian_counterpart(correlated_bits(r))
        assert cp.rows == ((1, 1), (2, 1))
        cov = cp.gaussian_cov()
        want = np.array([[1.0, float(r)], [float(r), 1.0]])
        assert np.max(np.abs(cov - want)) < 1e-10
        assert cp.max_deviation < 1e-10


def test_counterpart_basic_distribution_golden():
    p = helpers.basic_dist()
    cp = gaussian_counterpart(p)
    assert cp.rows == ((1, 1), (1, 2), (2, 1), (2, 2))
    cov = cp.gaussian_cov()
    assert np.max(np.abs(np.diag(cov) - 1.0)) < 1e-10
    cross = cov[0:2, 2:4]
    s3 = math.sqrt(3.0) / 4.0
    want = np.array([[0.25, s3], [-s3, 0.25]])
    assert np.max(np.abs(cross - want)) < 1e-9
    # the singular values of the cross block realize the correlation
    sv = np.linalg.svd(cross, compute_uv=False)
    assert sv[0] == pytest.approx(0.5, abs=1e-10)
    assert sv[1] == pytest.approx(0.5, abs=1e-10)


def test_counterpart_independent_product_has_zero_cross_block():
    cells = {
        (x, y): Fraction(1, 4) for x in range(2) for y in range(2)
    }
    cp = gaussian_counterpart(helpers.dist_from_cells(cells, 2, 2))
    cov = cp.gaussian_cov()
    assert abs(cov[0, 1]) < 1e-12


def test_counterpart_rejects_unequal_supports():
    text = "alphabet 0 1 2\nsteps 2\nentry 0 0 1/3\nentry 1 1 1/3\nentry 0 2 1/3\n"
    with pytest.raises(ValueError):
        gaussian_counterpart(parse_distribution(text))


def test_counterpart_rejects_degenerate_weights():
    text = (
        "alphabet 0 1\nsteps 2\n"
        "entry 0 0 0.4999999999999999\nentry 1 1 0.5\nentry 0 1 1e-16\n"
    )
    with pytest.raises(ValueError):
        gaussian_counterpart(parse_distribution(text))


def test_counterpart_sampling_matches_covariance():
    cp = gaussian_counterpart(helpers.basic_dist())
    rng = np.random.Generator(np.random.Philox(key=5))
    draws = cp.sample(rng, 200_000, 1)[:, 0, :]
    emp = draws.T @ draws / draws.shape[0]
    assert np.max(np.abs(emp - cp.gaussian_cov())) < 0.02


def test_counterpart_samples_equal_the_stacked_product():
    # (distribution, size, n): the shapes of this suite's invariance_gap and
    # sampling calls (basic_dist: six support tuples, four rows) at reduced
    # size, and of the benchmark's gap job (two-symbol dist, n = 3)
    two_bits = helpers.dist_from_cells(
        {(0, 0): 3, (0, 1): 1, (1, 0): 2, (1, 1): 4}, 2, 2
    )
    cases = [(helpers.basic_dist(), 20_000, n) for n in (1, 2, 3, 4, 8)]
    cases += [(two_bits, 50_000, 3), (two_bits, 1_000, 3), (two_bits, 7, 1)]
    for p, size, n in cases:
        cp = gaussian_counterpart(p)
        got = cp.sample(np.random.Generator(np.random.Philox(key=3)), size, n)
        base = np.random.Generator(np.random.Philox(key=3)).standard_normal(
            (size, n, cp.matrix.shape[1])
        )
        want = base @ cp.matrix.T
        assert got.shape == want.shape == (size, n, len(cp.rows))
        assert got.tobytes() == want.tobytes(), (size, n)


# ---------------------------------------------------------------------------
# hypercontractivity


def test_hypercontractivity_exact_random_low_degree():
    rng = random.Random(11)
    for m, n in ((2, 2), (2, 3), (3, 2), (3, 3)):
        pi = uniform_marginal(m)
        ens = discrete_ensemble(pi, n)
        a = 1.0 / m
        for _ in range(8):
            q = random_poly(rng, n, m - 1, max_degree=2)
            rep = hypercontractivity_check(q, ens, a)
            assert rep.method == "exact"
            assert rep.noise_holds
            assert rep.degree_holds
            assert rep.rho == pytest.approx(a ** (1 / 6) / 2)


def test_hypercontractivity_gaussian_quadrature_route():
    rng = random.Random(12)
    ens = gaussian_ensemble(1, 1)
    for _ in range(5):
        q = random_poly(rng, 1, 1)
        rep = hypercontractivity_check(q, ens, 0.5)
        assert rep.method == "quadrature"
        assert rep.noise_holds and rep.degree_holds


def test_hypercontractivity_gaussian_mc_route():
    rng = random.Random(13)
    ens = gaussian_ensemble(2, 2)
    q = random_poly(rng, 2, 2, max_degree=2)
    rep = hypercontractivity_check(q, ens, 0.5, samples=100_000, seed=4)
    assert rep.method == "mc"
    assert rep.stderr > 0
    assert rep.noise_holds and rep.degree_holds


def test_hypercontractivity_mc_follows_the_raw_philox_stream():
    # the third moments are those of the (samples, n, p) normals of
    # Generator(Philox(key=seed)), each point evaluated on its own
    rng = random.Random(23)
    samples, seed = 500, 91
    for n, p in ((3, 1), (2, 2), (3, 2)):
        q = random_poly(rng, n, p)
        rep = hypercontractivity_check(
            q, gaussian_ensemble(n, p), 0.4, samples=samples, seed=seed
        )
        assert rep.method == "mc"
        noisy = t_rho_poly(q, rep.rho)
        z = np.random.Generator(np.random.Philox(key=seed)).standard_normal((samples, n, p))
        points = [[[1.0, *z[t, i]] for i in range(n)] for t in range(samples)]
        plain_cubes = np.abs(np.array([q.evaluate(x) for x in points])) ** 3
        noisy_cubes = np.abs(np.array([noisy.evaluate(x) for x in points])) ** 3
        assert rep.degree_lhs == float(np.mean(plain_cubes)) ** (1.0 / 3.0)
        assert rep.noise_lhs == float(np.mean(noisy_cubes)) ** (1.0 / 3.0)
        assert rep.stderr == float(np.std(noisy_cubes, ddof=1) / math.sqrt(samples))


def test_grid_weights_multiply_in_coordinate_order():
    rng = random.Random(70)
    for r, n in ((1, 5), (2, 4), (3, 3), (5, 2)):
        w = np.array([rng.random() for _ in range(r)])
        want = []
        for point in itertools.product(range(r), repeat=n):
            mass = 1.0
            for x in point:
                mass *= w[x]
            want.append(mass)
        assert invariance._grid_weights(w, n, None).tolist() == want


def test_hypercontractivity_on_a_grid_of_more_than_64_axes():
    # a one-symbol marginal: the exact grid has one point whatever n is
    pi = MarginalDistribution(Alphabet(BIT), (Fraction(1), Fraction(0)), True)
    ens = discrete_ensemble(pi, 70)
    q = MultilinearPolynomial.from_coeffs(70, 0, {(0,) * 70: 0.5})
    rep = hypercontractivity_check(q, ens, 0.5)
    assert rep.method == "exact"
    assert rep.noise_lhs == pytest.approx(0.5) and rep.noise_holds and rep.degree_holds


def test_hypercontractivity_shape_mismatch():
    ens = discrete_ensemble(uniform_marginal(2), 2)
    q = MultilinearPolynomial.from_coeffs(2, 2, {(1, 2): 1.0})
    with pytest.raises(ValueError):
        hypercontractivity_check(q, ens, 0.5)


# ---------------------------------------------------------------------------
# mollifier


def test_mollifier_piecewise_identities():
    lam = 0.1
    for x in (-5.0, -0.2, -lam):
        assert mollifier_phi(lam, x) == 0.0
    for x in (lam, 0.3, 0.5, 0.9 - 1e-12):
        assert mollifier_phi(lam, x) == pytest.approx(x, abs=1e-12)
    for x in (1.0 + lam, 1.5, 7.0):
        assert mollifier_phi(lam, x) == 1.0
    assert mollifier_phi(lam, 0.5) == 0.5


def test_mollifier_is_continuous_at_the_collar_edges():
    # the value at each exact edge -lambda, lambda, 1 - lambda, 1 + lambda
    # agrees with both neighbouring doubles
    for lam in (0.01, 0.05, 0.1, 0.2, 0.25, 1 / 3, 0.45):
        for edge in (-lam, lam, 1.0 - lam, 1.0 + lam):
            at = mollifier_phi(lam, edge)
            for side in (-np.inf, np.inf):
                near = mollifier_phi(lam, float(np.nextafter(edge, side)))
                assert abs(at - near) <= 1e-12, (lam, edge, at, near)


def test_mollifier_stays_close_to_the_clamp():
    lam = 0.05
    xs = np.linspace(-2.0, 3.0, 10_001)
    clamp = np.clip(xs, 0.0, 1.0)
    vals = np.array([mollifier_phi(lam, float(x)) for x in xs])
    assert float(np.max(np.abs(vals - clamp))) <= lam + 1e-12
    # monotone non-decreasing
    assert np.all(np.diff(vals) >= -1e-12)
    assert np.all((vals >= 0.0) & (vals <= 1.0))


def test_mollifier_collar_matches_direct_quadrature():
    us = np.linspace(-1.0, 1.0, 401)
    direct = np.array([oracles.collar_profile(float(u)) for u in us])
    assert float(np.max(np.abs(invariance._collar(us) - direct))) <= 1e-13
    lam = 0.2
    for u in (-0.9, -0.5, 0.0, 0.4, 0.95):
        want = lam * oracles.collar_profile(u)
        assert mollifier_phi(lam, lam * u) == pytest.approx(want, abs=1e-13)
        # the upper collar mirrors the lower one
        high = 1.0 + lam * u
        assert mollifier_phi(lam, high) == pytest.approx(high - want, abs=1e-13)


def test_bump_constant_matches_direct_quadrature():
    assert abs(invariance._collar_table()[0] - oracles.bump_constant()) <= 1e-15


def test_mollifier_rejects_bad_lambda():
    with pytest.raises(ValueError):
        mollifier_phi(0.5, 0.0)
    with pytest.raises(ValueError):
        mollifier_phi(0.0, 0.0)


# ---------------------------------------------------------------------------
# invariance gap


def test_invariance_gap_constant_polynomials():
    p = helpers.basic_dist()
    q = MultilinearPolynomial.from_coeffs(1, 2, {(0,): 0.5})
    rep = invariance_gap((q, q), p, lam=0.2, samples=2_000, seed=1)
    assert rep.gap <= 1e-15
    assert rep.holds


def test_invariance_gap_is_reproducible():
    p = helpers.basic_dist()
    basis = build_basis(marginal(p, 1))
    f = make_junta(2, TRIT, [(1, "0")])
    q = poly_from_function(f, basis)
    a = invariance_gap((q, q), p, lam=0.1, samples=50_000, seed=11)
    b = invariance_gap((q, q), p, lam=0.1, samples=50_000, seed=11)
    assert a.gaussian_estimate == b.gaussian_estimate
    assert a.discrete_value == b.discrete_value
    assert a.holds
    c = invariance_gap((q, q), p, lam=0.1, samples=50_000, seed=12)
    assert c.gaussian_estimate != a.gaussian_estimate


def test_invariance_gap_mc_follows_the_raw_philox_stream():
    # the Gaussian side maps the (samples, n, base_dim) normals of
    # Generator(Philox(key=seed)) through the counterpart as
    # GaussianCounterpart.sample documents, then evaluates point by point
    p = helpers.basic_dist()
    cp = gaussian_counterpart(p)
    dim = cp.matrix.shape[1]
    rng = random.Random(29)
    samples, seed, lam = 500, 57, 0.2
    for n in (1, 2, 3):
        polys = (random_poly(rng, n, 2), random_poly(rng, n, 2))
        rep = invariance_gap(polys, p, lam, samples=samples, seed=seed)
        base = np.random.Generator(np.random.Philox(key=seed)).standard_normal(
            (samples, n, dim)
        )
        if n == 1:
            g = base @ cp.matrix.T
        else:
            g = (base.reshape(-1, dim) @ cp.matrix.T).reshape(samples, n, -1)
        prods = []
        for t in range(samples):
            prod = 1.0
            for j, q in enumerate(polys, 1):
                point = [
                    [1.0] + [g[t, i, cp.row_index(j, k)] for k in (1, 2)] for i in range(n)
                ]
                prod *= mollifier_phi(lam, q.evaluate(point))
            prods.append(prod)
        prods = np.array(prods)
        assert rep.gaussian_estimate == float(np.mean(prods))
        assert rep.gaussian_stderr == float(np.std(prods, ddof=1) / math.sqrt(samples))


_ONE = MultilinearPolynomial.from_coeffs(1, 2, {(0,): 0.5})
_MALFORMED_POLYS = {
    "count": ((_ONE,), "need one polynomial per step"),
    "shared_n": (
        (_ONE, MultilinearPolynomial.from_coeffs(2, 2, {(0, 0): 0.5})),
        "polynomials must share n",
    ),
    "basis_size": (
        (_ONE, MultilinearPolynomial.from_coeffs(1, 1, {(0,): 0.5})),
        "polynomial index range disagrees with the step basis",
    ),
}


@pytest.mark.parametrize("refusal", sorted(_MALFORMED_POLYS))
@pytest.mark.parametrize("check", ["invariance_gap", "smoothing_gap"])
def test_gap_checks_refuse_malformed_polynomials(check, refusal):
    """Both gaps refuse, with the same ValueError, a polynomial count other
    than the steps, polynomials over different n, and an index range other
    than the step basis's (basic_dist: two steps, bases of size 3)."""
    p = helpers.basic_dist()
    polys, match = _MALFORMED_POLYS[refusal]
    with pytest.raises(ValueError, match=match):
        if check == "invariance_gap":
            invariance_gap(polys, p, lam=0.2, samples=100)
        else:
            smoothing_gap(polys, p, gamma=0.0, eps=0.25)


def test_invariance_gap_budget_refusal():
    p = helpers.basic_dist()  # six support tuples
    q = MultilinearPolynomial.from_coeffs(8, 2, {(0,) * 8: 0.5})
    with pytest.raises(BudgetExceeded):
        invariance_gap((q, q), p, lam=0.2, budget=100)
    # the support grid of n = 2 has 6^2 points: a budget of exactly that passes
    q2 = MultilinearPolynomial.from_coeffs(2, 2, {(0, 0): 0.5})
    assert invariance_gap((q2, q2), p, lam=0.2, samples=100, budget=36).holds
    with pytest.raises(BudgetExceeded):
        invariance_gap((q2, q2), p, lam=0.2, samples=100, budget=35)
    assert smoothing_gap((q2, q2), p, gamma=0.0, eps=0.25, budget=36).holds
    with pytest.raises(BudgetExceeded):
        smoothing_gap((q2, q2), p, gamma=0.0, eps=0.25, budget=35)


def test_hypercontractivity_budget_refusal():
    ens = discrete_ensemble(uniform_marginal(3), 3)
    q = MultilinearPolynomial.from_coeffs(3, 2, {(1, 0, 2): 1.0})
    assert hypercontractivity_check(q, ens, 1 / 3, budget=27).method == "exact"
    with pytest.raises(BudgetExceeded):
        hypercontractivity_check(q, ens, 1 / 3, budget=26)


SPREAD_DISCRETE = {
    1: 0.166666666667,
    2: 0.138888888889,
    4: 0.135314385726,
    8: 0.133824549515,
}
SPREAD_GAUSSIAN_LIMIT = 0.129969809929
SPREAD_MC_GAPS = {1: 0.036620, 2: 0.008996, 4: 0.004935, 8: 0.003614}


def spread_poly(n: int) -> MultilinearPolynomial:
    c = 1.0 / math.sqrt(n)
    coeffs = {}
    for j in range(n):
        sigma = [0] * n
        sigma[j] = 1
        coeffs[tuple(sigma)] = c
    return MultilinearPolynomial.from_coeffs(n, 2, coeffs)


def test_spread_family_distance_to_gaussian_shrinks():
    p = helpers.basic_dist()
    discrete = {}
    gaps = {}
    for n in (1, 2, 4, 8):
        q = spread_poly(n)
        rep = invariance_gap((q, q), p, lam=0.45, samples=2_000_000, seed=101)
        discrete[n] = rep.discrete_value
        gaps[n] = rep.gap
        assert rep.holds
    for n, want in SPREAD_DISCRETE.items():
        assert discrete[n] == pytest.approx(want, abs=1e-9)
    exact_dist = [abs(discrete[n] - SPREAD_GAUSSIAN_LIMIT) for n in (1, 2, 4, 8)]
    assert exact_dist[0] > exact_dist[1] > exact_dist[2] > exact_dist[3]
    for n, want in SPREAD_MC_GAPS.items():
        assert gaps[n] == pytest.approx(want, abs=1e-5)
    assert gaps[1] > gaps[2] > gaps[4] > gaps[8]


# ---------------------------------------------------------------------------
# smoothing


def test_smoothing_gap_zero_gamma_is_exact_zero():
    p = helpers.basic_dist()
    basis = build_basis(marginal(p, 1))
    q = poly_from_function(make_junta(2, TRIT, [(1, "0")]), basis)
    rep = smoothing_gap((q, q), p, gamma=0.0, eps=0.25)
    assert rep.gap == 0.0
    assert rep.in_range
    assert rep.holds


def test_smoothing_gap_small_gamma_holds():
    p = helpers.basic_dist()
    basis = build_basis(marginal(p, 1))
    q = poly_from_function(make_junta(3, TRIT, [(2, "1")]), basis)
    rep = smoothing_gap((q, q), p, gamma=0.0, eps=0.2)
    gamma = rep.gamma_max * 0.9
    rep2 = smoothing_gap((q, q), p, gamma=gamma, eps=0.2)
    assert rep2.in_range
    assert rep2.gap <= 0.2
    assert rep2.holds


def test_smoothing_gap_out_of_range_gamma_only_reports():
    p = helpers.basic_dist()
    q = MultilinearPolynomial.from_coeffs(1, 2, {(0,): 0.5})
    rep = smoothing_gap((q, q), p, gamma=0.9, eps=0.25)
    assert not rep.in_range
    assert rep.holds  # no claim outside the admissible range


def test_smoothing_gap_rejects_polynomials_leaving_unit_interval():
    p = helpers.basic_dist()
    q = MultilinearPolynomial.from_coeffs(1, 2, {(0,): 2.0})
    with pytest.raises(ValueError):
        smoothing_gap((q, q), p, gamma=0.1, eps=0.25)


# ---------------------------------------------------------------------------
# Gaussian reverse hypercontractivity


def test_rhc_orthant_golden():
    cov = [[1.0, 0.5], [0.5, 1.0]]
    forms = (ThresholdForm(), ThresholdForm())
    rep = gaussian_rhc_check(cov, forms, samples=200_000, seed=3)
    assert rep.quadrature_value == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert rep.quadrature_value == pytest.approx(
        oracles.orthant_probability(0.5), abs=1e-9
    )
    assert abs(rep.product_estimate - 1.0 / 3.0) <= 4 * rep.product_stderr
    assert rep.rhs == pytest.approx(
        (rep.mus[0] * rep.mus[1]) ** (2 / 0.75), abs=1e-12
    )
    assert rep.eq46a_holds
    assert rep.holds


def test_rhc_mc_follows_the_raw_philox_stream():
    # hits of the (samples, l) normals of Generator(Philox(key=seed)) mapped
    # by the covariance's eigen-factor, counted point by point
    samples, seed = 500, 63
    cases = (
        ([[1.0, 0.6], [0.6, 1.0]], (ThresholdForm(-1, 0.3), ThresholdForm(1, -0.4))),
        (
            [[1.0, 0.3, -0.2], [0.3, 1.0, 0.25], [-0.2, 0.25, 1.0]],
            (ThresholdForm(1, -0.5), ThresholdForm(-1, -0.2), ThresholdForm(1, 0.0)),
        ),
    )
    for cov, forms in cases:
        rep = gaussian_rhc_check(cov, forms, samples=samples, seed=seed)
        vals, vecs = np.linalg.eigh(np.asarray(cov))
        transform = vecs @ np.diag(np.sqrt(np.maximum(vals, 0.0)))
        base = np.random.Generator(np.random.Philox(key=seed)).standard_normal(
            (samples, len(forms))
        )
        g = base @ transform.T
        hits = [
            [f.sign * float(g[t, j]) > f.offset for j, f in enumerate(forms)]
            for t in range(samples)
        ]
        assert rep.product_estimate == sum(all(h) for h in hits) / samples
        assert rep.mus == tuple(
            sum(h[j] for h in hits) / samples for j in range(len(forms))
        )


def test_orthant_matches_double_integral():
    rng = random.Random(41)
    limit = 1.0 - 1e-9  # the largest |rho| tested
    cases = []
    for _ in range(24):
        r = rng.choice((-1, 1)) * rng.choice(
            (rng.uniform(0.0, 0.99), 1.0 - 10 ** rng.uniform(-9, -1), limit)
        )
        cases.append((r, rng.uniform(-3, 3), rng.uniform(-3, 3)))
    # offsets whose step layers nearly meet, where the integrand is sharpest
    for _ in range(6):
        t = rng.uniform(-2, 2)
        sign = rng.choice((-1, 1))
        cases.append((sign * limit, t, sign * t + rng.uniform(-1e-4, 1e-4)))
    cases += [(limit, 0.0, 0.0), (-limit, 0.0, 0.0), (0.0, 0.5, -1.0)]
    for r, t1, t2 in cases:
        s1, s2 = rng.choice((-1, 1)), rng.choice((-1, 1))
        cov = np.array([[1.0, r], [r, 1.0]])
        forms = (ThresholdForm(s1, t1), ThresholdForm(s2, t2))
        got = invariance._bivariate_product_probability(cov, forms)
        # s_j G_j are standard normals with correlation s1 s2 r
        want = oracles.bivariate_upper_probability(t1, t2, s1 * s2 * r)
        assert got == pytest.approx(want, abs=1e-12), (r, s1, t1, s2, t2)


def test_rhc_orthant_at_the_correlation_limit():
    r = 1.0 - 1e-9
    forms = (ThresholdForm(), ThresholdForm())
    rep = gaussian_rhc_check([[1.0, r], [r, 1.0]], forms, samples=1_000, seed=5)
    assert rep.quadrature_value == pytest.approx(
        0.25 + math.asin(r) / (2 * math.pi), abs=1e-12
    )
    assert rep.holds


def test_rhc_independent_and_antipodal():
    forms = (ThresholdForm(), ThresholdForm())
    rep = gaussian_rhc_check(np.eye(2), forms, samples=100_000, seed=1)
    assert rep.rho == 0.0
    assert rep.holds

    anti = (ThresholdForm(1, 0.0), ThresholdForm(-1, 0.0))
    rep2 = gaussian_rhc_check([[1.0, 0.9], [0.9, 1.0]], anti, samples=100_000, seed=2)
    assert rep2.holds  # the bound collapses fast as rho grows


def test_rhc_rejections():
    forms = (ThresholdForm(), ThresholdForm())
    with pytest.raises(ValueError):
        gaussian_rhc_check([[1.0, 1.0], [1.0, 1.0]], forms)  # rho = 1
    with pytest.raises(ValueError):
        gaussian_rhc_check([[2.0, 0.1], [0.1, 2.0]], forms)  # non-unit diagonal
    with pytest.raises(ValueError):
        gaussian_rhc_check([[1.0, 0.5], [0.4, 1.0]], forms)  # asymmetric
    with pytest.raises(ValueError):
        gaussian_rhc_check(np.eye(3), forms)  # shape mismatch


def test_threshold_form_validates_sign():
    with pytest.raises(ValueError):
        ThresholdForm(2, 0.0)


# ---------------------------------------------------------------------------
# Monte Carlo sample counts


@pytest.mark.parametrize("samples", [1, 0, -5, 2.5])
def test_monte_carlo_checks_refuse_fewer_than_two_samples(samples):
    # one draw leaves a nan stderr (a false failed certificate in the gap, a
    # false refutation in the hypercontractivity check, a zero stderr in the
    # reverse hypercontractivity check), no draw a division by zero, and a
    # negative count numpy's own error
    q = random_poly(random.Random(5), 2, 2, max_degree=2)
    with pytest.raises(ValueError, match="samples"):
        hypercontractivity_check(q, gaussian_ensemble(2, 2), 0.5, samples=samples)
    p = helpers.basic_dist()
    g = MultilinearPolynomial.from_coeffs(1, 1, {(0,): 0.5, (1,): 0.4})
    with pytest.raises(ValueError, match="samples"):
        invariance_gap((g, g), p, lam=0.2, samples=samples)
    forms = (ThresholdForm(), ThresholdForm())
    with pytest.raises(ValueError, match="samples"):
        gaussian_rhc_check([[1.0, 0.5], [0.5, 1.0]], forms, samples=samples)


def test_routes_that_draw_nothing_ignore_the_sample_count():
    rng = random.Random(6)
    exact = discrete_ensemble(uniform_marginal(2), 2)
    q = random_poly(rng, 2, 1, max_degree=2)
    assert hypercontractivity_check(q, exact, 0.5, samples=0) == (
        hypercontractivity_check(q, exact, 0.5)
    )
    q = random_poly(rng, 1, 1)
    rep = hypercontractivity_check(q, gaussian_ensemble(1, 1), 0.5, samples=1)
    assert rep.method == "quadrature" and rep.noise_holds and rep.degree_holds


def test_two_samples_are_enough():
    q = random_poly(random.Random(5), 2, 2, max_degree=2)
    rep = hypercontractivity_check(q, gaussian_ensemble(2, 2), 0.5, samples=2, seed=1)
    assert rep.method == "mc" and math.isfinite(rep.stderr)
    forms = (ThresholdForm(), ThresholdForm())
    rep = gaussian_rhc_check([[1.0, 0.5], [0.5, 1.0]], forms, samples=2, seed=1)
    assert rep.samples == 2
