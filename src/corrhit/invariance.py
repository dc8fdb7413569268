"""Multilinear polynomial numerics: Gaussian counterparts, hypercontractivity,
mollified indicators, invariance gaps, smoothing, and Gaussian reverse
hypercontractivity.

Polynomials (`fourier.MultilinearPolynomial`, the type `analyze` returns)
live over orthonormal ensembles: per coordinate, index 0 is the constant 1
and indices 1..p are mean-zero orthonormal functions of the step symbol
(discrete) or independent standard normals (Gaussian).  Formal coefficient
algebra is exact in the coefficients; evaluations and Monte Carlo runs are
float, with counter-based RNG so every estimate is reproducible bit-for-bit
from (seed, sample count).  Exact sums run over product grids
(`_grid_weights`, `_grid_values`): the support grid of a discrete ensemble,
or the product Gauss-Hermite rule for third moments over one or two
normals.  All quadrature is fixed numpy rules: Gauss-Legendre for the
mollifier and the two-step orthant, Gauss-Hermite for those third moments.

The Monte Carlo checks draw their normals point-major, in the shapes their
docstrings give, and evaluate polynomials from coordinate-major columns: one
transposed copy of the draws (`_columns`) puts the N values of each
(coordinate, element) pair in one contiguous row.

Importing this module loads nothing that only these routes read: numpy.random
loads at the first Monte Carlo draw (`_philox` builds every stream), and
numpy.polynomial, the mollifier's collar table and the Gauss rules
(`_gauss_rule`: 6- and 20-point Legendre, 96-point Hermite) at their first
use.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from ._util import power_exceeds
from .dist_core import MarginalDistribution, StepDistribution, marginal, rho
from .fourier import (
    TABLE_BUDGET,
    BudgetExceeded,
    FunctionSpec,
    MultilinearPolynomial,
    OrthonormalBasis,
    _poly_values,
    _support_tensor,
    analyze,
    build_basis,
)


# ---------------------------------------------------------------------------
# polynomial values on draws and grids


def _columns(draws: np.ndarray) -> np.ndarray:
    """(N, ...) point-major draws as rows: row k holds trailing index k (in
    C order) of every point, contiguous."""
    flat = draws.reshape(draws.shape[0], -1)
    out = np.empty(flat.shape[::-1])
    # a block of 4096 points at a time, so that the strided reads stay in cache
    for a in range(0, flat.shape[0], 4096):
        out[:, a : a + 4096] = flat[a : a + 4096].T
    return out


def _philox(seed) -> np.random.Generator:
    """The pinned Monte Carlo stream of a seed; numpy.random loads on the
    first call."""
    from numpy.random import Generator, Philox

    return Generator(Philox(key=int(seed)))


def _grid_column(vec, i: int, n: int) -> np.ndarray:
    """vec laid along coordinate i+1 of the flattened grid {0..r-1}^n,
    coordinate 1 most significant: one flat array, so that grids of any
    number of axes stay within numpy's dimension limit."""
    r = len(vec)
    return np.tile(np.repeat(vec, r ** (n - 1 - i)), r**i)


def _grid_weights(w: np.ndarray, n: int, budget: int | None) -> np.ndarray:
    """Product masses of the grid {0..r-1}^n, flattened with coordinate 1
    most significant; each mass multiplies its factors in coordinate order.

    Grids of more than `budget` points raise BudgetExceeded; r^n == budget
    passes.
    """
    r = len(w)
    cap = TABLE_BUDGET if budget is None else budget
    if power_exceeds(r, n, cap):
        raise BudgetExceeded(f"{r}^{n} support assignments exceed the budget {cap}")
    weights = np.ones(1)
    for _ in range(n):
        weights = np.outer(weights, w).ravel()
    return weights


def _grid_values(poly: MultilinearPolynomial, table: np.ndarray) -> np.ndarray:
    """poly on every point of the grid of `_grid_weights`, flattened alike;
    table[s][t] is element s of a coordinate at grid symbol t."""
    n = poly.n
    return _poly_values(
        poly, lambda i, s: _grid_column(table[s], i, n), (table.shape[1] ** n,)
    )


def t_rho_poly(poly: MultilinearPolynomial, rho_value: float) -> MultilinearPolynomial:
    """Noise operator on coefficients: alpha(sigma) -> rho^|sigma| alpha(sigma)."""
    r = float(rho_value)
    return MultilinearPolynomial.from_coeffs(
        poly.n,
        poly.p,
        {
            sigma: c * r ** sum(1 for s in sigma if s)
            for sigma, c in poly.terms
        },
    )


# ---------------------------------------------------------------------------
# ensembles


@dataclass(frozen=True)
class EnsembleSequence:
    """n i.i.d. orthonormal ensembles: discrete (basis of a marginal) or Gaussian."""

    kind: str
    n: int
    p: int
    basis: OrthonormalBasis | None = None

    def __post_init__(self):
        if self.kind not in ("discrete", "gaussian"):
            raise ValueError("kind must be 'discrete' or 'gaussian'")
        if self.kind == "discrete":
            if self.basis is None:
                raise ValueError("discrete ensembles need a basis")
            if self.p != self.basis.size - 1:
                raise ValueError("p must equal basis size - 1")
        elif self.basis is not None:
            raise ValueError("gaussian ensembles carry no basis")
        if self.n < 1 or self.p < 0:
            raise ValueError("need n >= 1 and p >= 0")


def discrete_ensemble(pi: MarginalDistribution, n: int) -> EnsembleSequence:
    basis = build_basis(pi)
    return EnsembleSequence("discrete", n, basis.size - 1, basis)


def gaussian_ensemble(n: int, p: int) -> EnsembleSequence:
    return EnsembleSequence("gaussian", n, p)


# ---------------------------------------------------------------------------
# expansion of table functions


def poly_from_function(
    f: FunctionSpec, basis: OrthonormalBasis, budget: int | None = None,
) -> MultilinearPolynomial:
    """`analyze`, re-verified pointwise.

    The returned polynomial evaluated on the discrete ensemble values of a
    point reproduces f at that point within 1e-10 over the whole support grid,
    the support^n points that bound `analyze`'s budget; a larger error raises
    ArithmeticError.
    """
    poly = analyze(f, basis, budget=budget)
    got = _grid_values(poly, np.array(basis.functions))
    want = _support_tensor(f, basis.support).reshape(-1)
    bad = np.flatnonzero(np.abs(got - want) > 1e-10)
    if bad.size:
        t = bad[0]
        pos = tuple(int(q) for q in np.unravel_index(t, (basis.size,) * f.n))
        raise ArithmeticError(
            f"expansion fails to reproduce the function at {pos}: {got[t]} vs {want[t]}"
        )
    return poly


# ---------------------------------------------------------------------------
# Gaussian counterparts


@dataclass(frozen=True, eq=False)
class GaussianCounterpart:
    """Linear images of one standard-normal vector matching the discrete covariance.

    Row (j, k) of the map gives the Gaussian stand-in for ensemble element k of
    step j; covariance agreement with the discrete ensembles is certified at
    construction.
    """

    steps: int
    sizes: tuple[int, ...]
    rows: tuple[tuple[int, int], ...]
    matrix: np.ndarray  # (#rows, base_dim)
    discrete_cov: np.ndarray
    max_deviation: float

    def row_index(self, j: int, k: int) -> int:
        return self.rows.index((j, k))

    def gaussian_cov(self) -> np.ndarray:
        return self.matrix @ self.matrix.T

    def sample(self, rng: np.random.Generator, size: int, n: int) -> np.ndarray:
        """(size, n, #rows) Gaussian ensemble values, coordinates independent.

        The draws are mapped by one (size * n, base_dim) matrix product, which
        rounds like the stacked product `base @ matrix.T` for n >= 2.  For
        n = 1 numpy runs the stack as one matrix-vector product per draw,
        rounding differently, so that case keeps the stacked form and samples
        stay the same for a given (seed, size, n).
        """
        dim = self.matrix.shape[1]
        base = rng.standard_normal((size, n, dim))
        if n == 1:
            return base @ self.matrix.T
        return (base.reshape(-1, dim) @ self.matrix.T).reshape(size, n, -1)


def gaussian_counterpart(
    p: StepDistribution, bases: tuple[OrthonormalBasis, ...] | None = None,
) -> GaussianCounterpart:
    """Joint Gaussian ensembles whose covariance matches the discrete ones.

    Works in the L2 space of one step tuple: the orthonormal frame is the
    support-tuple indicators (normalized, mixed-radix order), each discrete
    ensemble element is expressed in that frame, and the same coefficients
    applied to independent standard normals give the counterpart.
    """
    ell = p.steps
    if bases is None:
        bases = tuple(build_basis(marginal(p, j)) for j in range(1, ell + 1))
    if len(bases) != ell:
        raise ValueError("need one basis per step")
    support0 = bases[0].support
    for b in bases[1:]:
        if b.support != support0:
            raise ValueError("step supports differ; counterpart needs equal supports")
    support = p.support()
    if not support:
        raise ValueError("empty support")
    min_w = min(float(w) for _, w in support)
    if min_w <= 1e-15:
        raise ValueError("degenerate support weight; the indicator frame loses rank")
    rows = []
    for j in range(1, ell + 1):
        for k in range(1, bases[j - 1].size):
            rows.append((j, k))
    pos = {s: q for q, s in enumerate(support0)}
    mat = np.zeros((len(rows), len(support)))
    for t, (tup, w) in enumerate(support):
        sw = math.sqrt(float(w))
        for r, (j, k) in enumerate(rows):
            mat[r, t] = sw * bases[j - 1].functions[k][pos[tup[j - 1]]]
    cov = np.zeros((len(rows), len(rows)))
    for t, (tup, w) in enumerate(support):
        fw = float(w)
        vals = [bases[j - 1].functions[k][pos[tup[j - 1]]] for j, k in rows]
        for a in range(len(rows)):
            for b in range(len(rows)):
                cov[a, b] += fw * vals[a] * vals[b]
    dev = float(np.max(np.abs(mat @ mat.T - cov)))
    if dev > 1e-10:
        raise ArithmeticError(
            f"counterpart covariance deviates by {dev} from the discrete one"
        )
    sizes = tuple(b.size - 1 for b in bases)
    return GaussianCounterpart(ell, sizes, tuple(rows), mat, cov, dev)


# ---------------------------------------------------------------------------
# hypercontractivity


@dataclass(frozen=True)
class HypercontractivityReport:
    rho: float
    noise_lhs: float
    noise_rhs: float
    noise_holds: bool
    degree: int
    degree_lhs: float
    degree_rhs: float
    degree_holds: bool
    method: str
    stderr: float


def _check_samples(samples) -> None:
    """Refuse a Monte Carlo sample count below 2, which leaves no standard
    error (one draw gives a nan stderr, none a division by zero)."""
    if not isinstance(samples, numbers.Integral) or samples < 2:
        raise ValueError(f"samples must be an integer >= 2, got {samples!r}")


def hypercontractivity_check(
    poly: MultilinearPolynomial, ens: EnsembleSequence, a,
    budget: int | None = None, samples: int = 200_000, seed: int = 0,
) -> HypercontractivityReport:
    """Check the (2, 3, a^(1/6)/2) inequality and the degree-d third-moment bound.

    Discrete ensembles are enumerated exactly over the product grid of the
    basis support.  Gaussian ensembles with n*p <= 2 run the same grid sums
    over the product Gauss-Hermite rule (96 points per normal, whatever
    `budget` is), and Monte Carlo otherwise; the comparisons then include a
    3-standard-error slack.  On the Monte Carlo route, `samples` below 2
    raises ValueError; the other routes ignore it.
    """
    a = float(a)
    if not 0 < a <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    if poly.n != ens.n or poly.p != ens.p:
        raise ValueError("polynomial and ensemble shapes disagree")
    r = a ** (1.0 / 6.0) / 2.0
    noisy = t_rho_poly(poly, r)
    sq = poly.second_moment()
    d = poly.degree()
    stderr = 0.0
    if ens.kind == "discrete":
        basis = ens.basis
        probs = np.array([float(basis.pi.probs[s]) for s in basis.support])
        table = np.array(basis.functions)  # table[s][t]: element s at symbol t
        method = "exact"
    elif ens.n * ens.p <= 2:
        # one coordinate's symbols are the points of the 96-point Hermite
        # rule over each of its p normals, element k the k-th normal's node
        nodes, w = _gauss_rule("hermite", 96)
        table = np.array(
            [np.ones(len(nodes) ** ens.p)]
            + [_grid_column(nodes, k, ens.p) for k in range(ens.p)]
        )
        probs = _grid_weights(w, ens.p, None)
        method = "quadrature"
    else:
        _check_samples(samples)
        # (samples, n, p) normals, point-major; element s of coordinate i+1
        # is row i p + s - 1
        cols = _columns(_philox(seed).standard_normal((samples, ens.n, ens.p)))

        def column(i, s):
            return cols[i * ens.p + s - 1]

        third_plain = float(np.mean(np.abs(_poly_values(poly, column, samples)) ** 3))
        cubes = np.abs(_poly_values(noisy, column, samples)) ** 3
        third_noisy = float(np.mean(cubes))
        stderr = float(np.std(cubes, ddof=1) / math.sqrt(samples))
        method = "mc"
    if method != "mc":
        # the quadrature grid has at most 96^2 points
        weights = _grid_weights(probs, poly.n, budget if method == "exact" else None)
        third_noisy = float(np.sum(weights * np.abs(_grid_values(noisy, table)) ** 3))
        third_plain = float(np.sum(weights * np.abs(_grid_values(poly, table)) ** 3))
    noise_lhs = third_noisy ** (1.0 / 3.0)
    noise_rhs = math.sqrt(sq)
    degree_lhs = third_plain ** (1.0 / 3.0)
    degree_rhs = (2.0 / a ** (1.0 / 6.0)) ** d * math.sqrt(sq)
    slack = 1e-12 if method != "mc" else 3.0 * stderr + 1e-12
    return HypercontractivityReport(
        r, noise_lhs, noise_rhs, noise_lhs <= noise_rhs + slack,
        d, degree_lhs, degree_rhs, degree_lhs <= degree_rhs + slack,
        method, stderr,
    )


# ---------------------------------------------------------------------------
# mollifier


@functools.cache
def _gauss_rule(family: str, nodes: int):
    """The `nodes`-point Gauss rule (points, weights), built on first use:
    'legendre' on [-1, 1], or 'hermite' against the standard normal density
    (the probabilists' Hermite weights over sqrt(2 pi))."""
    if family == "legendre":
        return np.polynomial.legendre.leggauss(nodes)
    nodes, weights = np.polynomial.hermite_e.hermegauss(nodes)
    return nodes, weights / math.sqrt(2.0 * math.pi)


@functools.cache
def _collar_table(cells: int = 4096, nodes: int = 6):
    """The mass c of the bump exp(-1/(x+1)^2 - 1/(x-1)^2) on (-1, 1), and the
    collar profile at the cell edges u_t = -1 + 2t/cells: returns
    (c, edges, g, Psi) at those edges.

    The collar profile g(u) = integral of psi(s) max(u + s, 0) ds, with
    psi = bump / c, equals integral_{-1}^{u} (u - t) psi(t) dt by the
    symmetry of psi, that is u Psi(u) - M(u) with Psi the distribution
    function of psi and M(u) = integral_{-1}^{u} t psi(t) dt.  Its slope is
    exactly g' = Psi.  Both integrals are running sums of a `nodes`-point
    Gauss-Legendre rule on each cell.  Built on the first mollifier call.
    """
    x, w = _gauss_rule("legendre", nodes)
    edges = np.linspace(-1.0, 1.0, cells + 1)
    half = 1.0 / cells
    t = (edges[:-1] + half)[:, None] + half * x
    f = np.exp(-1.0 / (t + 1.0) ** 2 - 1.0 / (t - 1.0) ** 2)
    mass = (f @ w) * half
    first = ((f * t) @ w) * half
    c = math.fsum(mass)
    cdf = np.concatenate(([0.0], np.cumsum(mass))) / c
    moment = np.concatenate(([0.0], np.cumsum(first))) / c
    return c, edges, edges * cdf - moment, cdf


def _collar(u: np.ndarray) -> np.ndarray:
    """g on [-1, 1] by cubic Hermite interpolation of the tabulated values and
    exact slopes (error about 3e-15)."""
    _, edges, g, slope = _collar_table()
    cells = len(edges) - 1
    h = 2.0 / cells
    k = np.clip(((u + 1.0) / h).astype(np.intp), 0, cells - 1)
    s = (u - edges[k]) / h
    s2 = s * s
    s3 = s2 * s
    return (
        (2.0 * s3 - 3.0 * s2 + 1.0) * g[k]
        + (s3 - 2.0 * s2 + s) * h * slope[k]
        + (3.0 * s2 - 2.0 * s3) * g[k + 1]
        + (s3 - s2) * h * slope[k + 1]
    )


def _phi_values(lam: float, x: np.ndarray) -> np.ndarray:
    """phi_lambda on an array: the clamp to [0, 1] outside the collars
    |x| < lambda and |x - 1| < lambda, the tabulated collar profile (error
    about 3e-15 before scaling by lambda) inside."""
    if not 0.0 < lam < 0.5:
        raise ValueError("lambda must lie in (0, 1/2)")
    x = np.asarray(x, dtype=float)
    out = np.clip(x, 0.0, 1.0)
    low = (x > -lam) & (x < lam)
    if low.any():
        out[low] = lam * np.maximum(_collar(x[low] / lam), 0.0)
    high = (x > 1.0 - lam) & (x < 1.0 + lam)
    if high.any():
        # near u = 1 the tabulated profile falls below u by up to 2e-15,
        # which would lift phi above 1
        xh = x[high]
        out[high] = np.minimum(xh - lam * np.maximum(_collar((xh - 1.0) / lam), 0.0), 1.0)
    return out


def mollifier_phi(lam: float, x) -> float:
    """The clamp-to-[0,1] ramp convolved with the width-lambda bump; inside
    the collars |x| < lambda and |x - 1| < lambda it reads the collar profile
    tabulated at import."""
    return float(_phi_values(float(lam), np.asarray([x], dtype=float))[0])


# ---------------------------------------------------------------------------
# invariance gap


@dataclass(frozen=True)
class InvarianceGapReport:
    discrete_value: float
    gaussian_estimate: float
    gaussian_stderr: float
    gap: float
    bound: float
    tau: float
    degree: int
    alpha: float
    holds: bool
    samples: int
    seed: int


def _step_grid(polys, p: StepDistribution, budget: int | None):
    """(n, bases, support, weights) for one polynomial per step of p: the
    shared coordinate count, the step bases, and the grid of support-tuple
    assignments to the n coordinates with its weights.  Refuses a wrong
    polynomial count, unequal n and an index range other than the step
    basis's with ValueError, and a grid over `budget` points with
    BudgetExceeded."""
    ell = p.steps
    if len(polys) != ell:
        raise ValueError("need one polynomial per step")
    n = polys[0].n
    if any(q.n != n for q in polys):
        raise ValueError("polynomials must share n")
    bases = tuple(build_basis(marginal(p, j)) for j in range(1, ell + 1))
    for q, b in zip(polys, bases):
        if q.p != b.size - 1:
            raise ValueError("polynomial index range disagrees with the step basis")
    support = p.support()
    weights = _grid_weights(np.array([float(w) for _, w in support]), n, budget)
    return n, bases, support, weights


def _step_values(polys, bases, support) -> list[np.ndarray]:
    """Each step's polynomial on every point of the support grid."""
    out = []
    for j, (poly, basis) in enumerate(zip(polys, bases)):
        pos = {s: q for q, s in enumerate(basis.support)}
        # element k of this step's ensemble at support tuple t
        elem = np.array(
            [
                [basis.functions[k][pos[tup[j]]] for tup, _ in support]
                for k in range(basis.size)
            ]
        )
        out.append(_grid_values(poly, elem))
    return out


def invariance_gap(
    polys, dist: StepDistribution, lam: float, samples: int = 200_000, seed: int = 0,
    c_const: float = 10.0, budget: int | None = None,
) -> InvarianceGapReport:
    """|E[chi_lam(polys on discrete ensembles)] - E[chi_lam(polys on Gaussian
    counterparts)]|: exact enumeration on the discrete side, seeded Monte Carlo
    on the Gaussian side, compared with the C l^(5/2) tau^(1/8) / alpha^(4d)
    envelope (consistency with some constant, C configurable).  `samples`
    below 2 raises ValueError.
    """
    _check_samples(samples)
    polys = tuple(polys)
    ell = dist.steps
    n, bases, support, weights = _step_grid(polys, dist, budget)
    counterpart = gaussian_counterpart(dist, bases)

    step_vals = _step_values(polys, bases, support)
    prod = np.ones(weights.shape[0])
    for vals in step_vals:
        prod *= _phi_values(lam, vals)
    discrete_value = float(np.sum(weights * prod))

    rows = len(counterpart.rows)
    # row i * rows + r: counterpart row r at coordinate i+1
    cols = _columns(counterpart.sample(_philox(seed), samples, n))
    prod_g = np.ones(samples)
    for j, poly in enumerate(polys, 1):
        pv = _poly_values(
            poly, lambda i, s: cols[i * rows + counterpart.row_index(j, s)], samples
        )
        prod_g *= _phi_values(lam, pv)
    gaussian_estimate = float(np.mean(prod_g))
    stderr = float(np.std(prod_g, ddof=1) / math.sqrt(samples))

    tau = max(
        math.fsum(q.influence(i) for q in polys) for i in range(1, n + 1)
    )
    d = max(q.degree() for q in polys)
    a = min(
        float(min(pi.probs[s] for s in pi.support_indices()))
        for pi in (marginal(dist, j) for j in range(1, ell + 1))
    )
    bound = c_const * ell**2.5 * tau ** (1.0 / 8.0) / a ** (4 * d)
    gap = abs(discrete_value - gaussian_estimate)
    holds = gap <= bound + 3.0 * stderr + 1e-12
    report = InvarianceGapReport(
        discrete_value, gaussian_estimate, stderr, gap, bound, tau, d, a,
        holds, samples, seed,
    )
    if not holds:
        raise ArithmeticError(f"invariance gap {gap} exceeds {bound} + 3 stderr")
    return report


# ---------------------------------------------------------------------------
# smoothing


@dataclass(frozen=True)
class SmoothingReport:
    raw_value: float
    smoothed_value: float
    gap: float
    eps: float
    gamma: float
    gamma_max: float
    in_range: bool
    holds: bool


def smoothing_gap(
    polys, dist: StepDistribution, gamma: float, eps: float,
    budget: int | None = None,
) -> SmoothingReport:
    """|E[prod P_j] - E[prod T_(1-gamma) P_j]| under the step distribution.

    Each polynomial must stay in [0,1] pointwise on its step's support grid.
    Whenever gamma lies in [0, (1-rho) eps / (l ln(l/eps))], the gap must come
    out at most eps; a violation raises.
    """
    polys = tuple(polys)
    ell = dist.steps
    if not 0 <= gamma <= 1:
        raise ValueError("gamma must lie in [0, 1]")
    if not 0 < eps < ell:
        raise ValueError("eps must lie in (0, steps)")
    _, bases, support, weights = _step_grid(polys, dist, budget)
    raw_vals = _step_values(polys, bases, support)
    # a step's symbols on the support grid meet in every combination, so
    # these values cover its whole marginal grid
    for j, vals in enumerate(raw_vals, 1):
        if np.min(vals) < -1e-9 or np.max(vals) > 1.0 + 1e-9:
            raise ValueError(f"step {j} polynomial leaves [0,1] on its support grid")
    smoothed = tuple(t_rho_poly(q, 1.0 - gamma) for q in polys)
    smooth_vals = _step_values(smoothed, bases, support)
    raw = np.ones(weights.shape[0])
    smo = np.ones(weights.shape[0])
    for rv, sv in zip(raw_vals, smooth_vals):
        raw *= rv
        smo *= sv
    raw_value = float(np.sum(weights * raw))
    smoothed_value = float(np.sum(weights * smo))
    gap = abs(raw_value - smoothed_value)

    r = rho(dist)
    gamma_max = (1.0 - r) * eps / (ell * math.log(ell / eps))
    in_range = 0.0 <= gamma <= gamma_max
    holds = (not in_range) or gap <= eps + 1e-12
    report = SmoothingReport(
        raw_value, smoothed_value, gap, eps, gamma, gamma_max, in_range, holds
    )
    if not holds:
        raise ArithmeticError(
            f"smoothing gap {gap} exceeds eps {eps} inside the admissible range"
        )
    return report


# ---------------------------------------------------------------------------
# Gaussian reverse hypercontractivity


@dataclass(frozen=True)
class ThresholdForm:
    """Indicator 1[sign * x > offset] of a half-line."""

    sign: int = 1
    offset: float = 0.0

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")

    def hits(self, x: np.ndarray) -> np.ndarray:
        """Boolean sign * x > offset; negating x and offset is exact."""
        return x > self.offset if self.sign == 1 else x < -self.offset


@dataclass(frozen=True)
class RhcReport:
    product_estimate: float
    product_stderr: float
    mus: tuple[float, ...]
    mu_stderrs: tuple[float, ...]
    rhs: float
    rhs_stderr: float
    rho: float
    p_condition: float
    min_eigenvalue: float
    eq46a_holds: bool
    holds: bool
    quadrature_value: float | None
    samples: int
    seed: int


def gaussian_rhc_check(
    cov, forms, samples: int = 200_000, seed: int = 0,
) -> RhcReport:
    """Monte Carlo check of E[prod f_j(G_j)] >= (prod mu_j)^(l/(1-rho^2)).

    cov is the joint covariance of one standard normal per step (unit
    diagonal); rho is its largest off-diagonal magnitude.  The positive
    semidefiniteness condition cov - p I >= 0 with p = (1-rho^2)/l is reported.
    For two steps a quadrature cross-value of the product probability is
    included.  Estimates come with standard errors; the inequality is asserted
    with 3-sigma slack on both sides.  `samples` below 2 raises ValueError.
    """
    _check_samples(samples)
    cov = np.asarray(cov, dtype=float)
    forms = tuple(forms)
    ell = len(forms)
    if cov.shape != (ell, ell):
        raise ValueError("covariance shape must match the number of functions")
    if np.max(np.abs(cov - cov.T)) > 1e-12:
        raise ValueError("covariance must be symmetric")
    if np.max(np.abs(np.diag(cov) - 1.0)) > 1e-9:
        raise ValueError("steps must be standard normals (unit diagonal)")
    eigs = np.linalg.eigvalsh(cov)
    if eigs[0] < -1e-10:
        raise ValueError("covariance not positive semidefinite")
    off = np.abs(cov - np.diag(np.diag(cov)))
    r = float(np.max(off)) if ell > 1 else 0.0
    if r >= 1.0 - 1e-12:
        raise ValueError("correlation 1 lies outside the admissible range")
    p_cond = (1.0 - r * r) / ell
    eq46a = bool(eigs[0] >= p_cond - 1e-12)

    vals, vecs = np.linalg.eigh(cov)
    transform = vecs @ np.diag(np.sqrt(np.maximum(vals, 0.0)))
    base = _philox(seed).standard_normal((samples, ell))
    g = base @ transform.T
    hits = [form.hits(g[:, j]) for j, form in enumerate(forms)]
    # counts of 0/1 values are exact, so these equal the means of indicators
    prod_hat = int(np.count_nonzero(np.logical_and.reduce(hits))) / samples
    prod_se = math.sqrt(max(prod_hat * (1.0 - prod_hat), 0.0) / samples)
    mus = tuple(int(np.count_nonzero(h)) / samples for h in hits)
    mu_ses = tuple(
        math.sqrt(max(m * (1.0 - m), 0.0) / samples) for m in mus
    )
    exponent = ell / (1.0 - r * r)
    if any(m == 0.0 for m in mus):
        rhs = 0.0
        rhs_se = 0.0
    else:
        prod_mu = 1.0
        for m in mus:
            prod_mu *= m
        rhs = prod_mu**exponent
        rhs_se = rhs * exponent * math.sqrt(
            sum((se / m) ** 2 for se, m in zip(mu_ses, mus))
        )
    holds = prod_hat + 3.0 * prod_se >= rhs - 3.0 * rhs_se
    quad_value = None
    if ell == 2:
        quad_value = _bivariate_product_probability(cov, forms)
    report = RhcReport(
        prod_hat, prod_se, mus, mu_ses, rhs, rhs_se, r, p_cond, float(eigs[0]),
        eq46a, holds, quad_value, samples, seed,
    )
    if not holds:
        raise ArithmeticError(
            f"product estimate {prod_hat} fell below the bound {rhs} beyond 3 sigma"
        )
    return report


def _bivariate_product_probability(cov: np.ndarray, forms) -> float:
    """P[sign_1 G_1 > t_1, sign_2 G_2 > t_2], that is Phi_2(h, k; r) with
    h = -t_1, k = -t_2 and r the correlation of sign_1 G_1 and sign_2 G_2.

    Plackett's reduction, dPhi_2/dr = phi_2, gives Phi(h) Phi(k) plus the
    integral of phi_2 over [0, r].  With r = sin(theta), delta = pi/2 - theta
    and r >= 0 (r < 0 mirrors k), the integrand in theta is
    exp(-((h-k)^2 + 4hk sin^2(delta/2)) / (2 sin^2 delta)) / (2 pi), free of
    cancellation as delta -> 0, where it falls from exp(-hk/2) to 0 across a
    layer of width |h - k|.  So delta runs over pieces doubling from acos|r|
    to pi/2, each with a 20-point Gauss-Legendre rule.
    """
    h, k = -forms[0].offset, -forms[1].offset
    r = forms[0].sign * forms[1].sign * float(cov[0, 1])
    base = math.erfc(-h / math.sqrt(2.0)) * math.erfc(-k / math.sqrt(2.0)) / 4.0
    sign = 1.0 if r >= 0.0 else -1.0
    k *= sign
    edges = [math.acos(abs(r))]
    while 2.0 * edges[-1] < math.pi / 2:
        edges.append(2.0 * edges[-1])
    e = np.array(edges + [math.pi / 2])
    lo, half = e[:-1, None], (e[1:, None] - e[:-1, None]) / 2
    x, w = _gauss_rule("legendre", 20)
    delta = lo + half * (1.0 + x)
    dens = np.exp(
        -((h - k) ** 2 + 4.0 * h * k * np.sin(delta / 2) ** 2) / (2.0 * np.sin(delta) ** 2)
    )
    return base + sign * float(np.sum(dens @ w * half[:, 0])) / (2.0 * math.pi)
