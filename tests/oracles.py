"""Independent reference computations used to freeze golden test values.

Everything here is deliberately brute force and self-contained: no imports
from the package under test. Property tests compare the package against
these routes; running this module prints the golden constants that the test
suite pins as literals.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


# ---------------------------------------------------------------------------
# small exact distributions used throughout the suite


def three_cycle_dist():
    """Uniform start on {0,1,2}, second step stays or moves +1 mod 3."""
    p = {}
    for x in range(3):
        p[(x, x)] = Fraction(1, 6)
        p[(x, (x + 1) % 3)] = Fraction(1, 6)
    return p, 3, 2


def skew_pair_dist():
    """Uniform on {(0,0),(0,1),(1,1)}: monotone coupling with unequal marginals."""
    p = {(0, 0): Fraction(1, 3), (0, 1): Fraction(1, 3), (1, 1): Fraction(1, 3)}
    return p, 2, 2


def ap3_dist():
    """Uniform on the six arithmetic progressions mod 3 (constant + sloped)."""
    tuples = [(0, 0, 0), (1, 1, 1), (2, 2, 2), (0, 1, 2), (1, 2, 0), (2, 0, 1)]
    return {t: Fraction(1, 6) for t in tuples}, 3, 3


def cycle_dist(s, p):
    """Stay with probability p, advance one step with 1-p, uniform start on s points."""
    pf = Fraction(p) if not isinstance(p, Fraction) else p
    d = {}
    for x in range(s):
        d[(x, x)] = pf / s
        d[(x, (x + 1) % s)] = (1 - pf) / s
    return d, s, 2


# ---------------------------------------------------------------------------
# brute-force marginals / kernels / correlations


def marginal(p, ell, j):
    out = {}
    for t, w in p.items():
        out[t[j - 1]] = out.get(t[j - 1], Fraction(0)) + w
    return out


def double_sample_kernel_brute(p, ell, j):
    """K[y][z] = Pr[second resample is z | first resample is y] at step j.

    Both resamples are drawn from step j's conditional law given all the
    other steps. Returned over the support of step j's marginal, row index
    sorted by symbol.
    """
    pi = marginal(p, ell, j)
    support = sorted(y for y, w in pi.items() if w > 0)
    rest = {}
    for t, w in p.items():
        key = tuple(v for i, v in enumerate(t) if i != j - 1)
        rest[key] = rest.get(key, Fraction(0)) + w
    k = {(y, z): Fraction(0) for y in support for z in support}
    for t, w in p.items():
        y = t[j - 1]
        key = tuple(v for i, v in enumerate(t) if i != j - 1)
        for t2, w2 in p.items():
            if tuple(v for i, v in enumerate(t2) if i != j - 1) != key:
                continue
            z = t2[j - 1]
            k[(y, z)] += w * w2 / rest[key]
    return support, {(y, z): k[(y, z)] / pi[y] for y in support for z in support}


def kernel_lambda2(support, k, pi):
    n = len(support)
    d = np.array([float(pi[y]) for y in support])
    m = np.zeros((n, n))
    for a, y in enumerate(support):
        for b, z in enumerate(support):
            m[a, b] = float(k[(y, z)])
    s = np.diag(np.sqrt(d)) @ m @ np.diag(1.0 / np.sqrt(d))
    ev = np.linalg.eigvalsh((s + s.T) / 2)
    return float(np.sort(ev)[-2]) if n > 1 else 0.0


def maximal_correlation_svd(p, ell, s_steps, t_steps):
    """Second singular value of the whitened joint matrix of the two groups."""
    sa = sorted(s_steps)
    ta = sorted(t_steps)
    ga = {}
    gb = {}
    joint = {}
    for t, w in p.items():
        a = tuple(t[j - 1] for j in sa)
        b = tuple(t[j - 1] for j in ta)
        ga[a] = ga.get(a, Fraction(0)) + w
        gb[b] = gb.get(b, Fraction(0)) + w
        joint[(a, b)] = joint.get((a, b), Fraction(0)) + w
    arows = sorted(a for a, w in ga.items() if w > 0)
    brows = sorted(b for b, w in gb.items() if w > 0)
    m = np.zeros((len(arows), len(brows)))
    for i, a in enumerate(arows):
        for jj, b in enumerate(brows):
            w = joint.get((a, b), Fraction(0))
            m[i, jj] = float(w) / math.sqrt(float(ga[a]) * float(gb[b]))
    sv = np.linalg.svd(m, compute_uv=False)
    return float(sv[1]) if min(m.shape) > 1 else 0.0


def rho_brute(p, ell):
    steps = list(range(1, ell + 1))
    return max(
        maximal_correlation_svd(p, ell, [j], [j2 for j2 in steps if j2 != j])
        for j in steps
    )


# ---------------------------------------------------------------------------
# brute-force product expectations


def multi_set_expectation_brute(p, ell, n, fns):
    """E[prod_j f_j(X^(j))] by enumerating support tuples coordinate by coordinate."""
    support = [(t, w) for t, w in p.items() if w > 0]
    total = Fraction(0)
    for assign in itertools.product(support, repeat=n):
        w = Fraction(1)
        for t, wt in assign:
            w *= wt
        val = Fraction(1)
        for j in range(ell):
            x = tuple(assign[i][0][j] for i in range(n))
            val *= fns[j](x)
            if val == 0:
                break
        total += w * val
    return total


def threshold_family_brute(p, n):
    """(t, mu_t, delta_t) for t = 0..n on a two-step distribution p: mu_t the
    chance that symbol 0 fills at least t of the n coordinates of step 1,
    delta_t the chance that it does so at both steps, each summed over every
    sequence of n support tuples."""
    support = [(t, w) for t, w in p.items() if w > 0]
    pairs = {}
    for assign in itertools.product(support, repeat=n):
        w = Fraction(1)
        for _, wt in assign:
            w *= wt
        key = tuple(sum(1 for t, _ in assign if t[j] == 0) for j in range(2))
        pairs[key] = pairs.get(key, Fraction(0)) + w
    return [
        (
            t,
            sum((w for (c1, _), w in pairs.items() if c1 >= t), Fraction(0)),
            sum((w for (c1, c2), w in pairs.items() if min(c1, c2) >= t), Fraction(0)),
        )
        for t in range(n + 1)
    ]


def prefix_marginal_brute(p):
    """Law of all steps but the last: the last step summed out, cell by cell."""
    out = {}
    for t, w in p.items():
        out[t[:-1]] = out.get(t[:-1], 0) + w
    return {t: w for t, w in out.items() if w > 0}


def is_markov_generated_brute(p, ell, m, tol=1e-10):
    """(ok, kernels) for a step-tuple -> weight map: every positive-mass
    prefix must have the conditional law of its next symbol within tol of the
    first such prefix (in sorted order) with the same last symbol, compared
    as the float of the exact difference.  Kernel rows are those first laws,
    zero rows for symbols no positive prefix ends in."""
    kernels = []
    for j in range(2, ell + 1):
        prefixes = sorted({t[: j - 1] for t, w in p.items() if w > 0})
        rows = [None] * m
        for prev in prefixes:
            mass = sum((w for t, w in p.items() if t[: j - 1] == prev), Fraction(0))
            cond = [
                sum((w for t, w in p.items() if t[:j] == prev + (b,)), Fraction(0)) / mass
                for b in range(m)
            ]
            a = prev[-1]
            if rows[a] is None:
                rows[a] = cond
            elif any(abs(float(u - v)) > tol for u, v in zip(rows[a], cond)):
                return False, None
        kernels.append(tuple(
            tuple(r) if r is not None else (Fraction(0),) * m for r in rows
        ))
    return True, kernels


def apply_kernel_brute(rows, values, m, n):
    """h(x) = sum_y prod_i rows[x_i][y_i] f(y) over every pair of points,
    for the mixed-radix value list of f (coordinate 1 least significant)."""
    points = [tuple((idx // m**c) % m for c in range(n)) for idx in range(m**n)]
    out = []
    for x in points:
        total = 0
        for idx, y in enumerate(points):
            w = 1
            for a, b in zip(x, y):
                w *= rows[a][b]
            total += w * values[idx]
        out.append(total)
    return out


# ---------------------------------------------------------------------------
# golden scenario helpers


def modlinear3(x):
    return Fraction(1) if sum(x) % 3 == 0 else Fraction(0)


def skew_windows(n):
    """Window [lo,hi] on the count of ones for the two anchored sets."""
    lo1 = math.ceil(Fraction(n, 3) - Fraction(n, 100))
    hi1 = math.floor(Fraction(n, 3) + Fraction(n, 100))
    lo2 = math.ceil(Fraction(2 * n, 3) - Fraction(n, 100))
    hi2 = math.floor(Fraction(2 * n, 3) + Fraction(n, 100))
    return (lo1, hi1), (lo2, hi2)


def skew_set_indicator(n, which):
    (lo1, hi1), (lo2, hi2) = skew_windows(n)

    def f(x):
        ones = sum(x)
        in1 = x[0] == 1 and lo1 <= ones <= hi1
        in2 = x[0] == 0 and lo2 <= ones <= hi2
        if which == 1:
            return Fraction(int(in1))
        if which == 2:
            return Fraction(int(in2))
        return Fraction(int(in1 or in2))

    return f


def ap3_indicator(n, step):
    """Fewer than n/3 of the blocked symbol: step 1 blocks 2, step 2 blocks 1, step 3 blocks 0."""
    blocked = {1: 2, 2: 1, 3: 0}[step]

    def f(x):
        return Fraction(int(sum(1 for v in x if v == blocked) * 3 < n))

    return f


def binom_pmf(n, k, p):
    return Fraction(math.comb(n, k)) * p**k * (1 - p) ** (n - k)


def binom_tail(n, t, p):
    """Pr[Bin(n, p) >= t]."""
    return sum((binom_pmf(n, k, p) for k in range(t, n + 1)), Fraction(0))


def threshold_same_set(n, t, p, coupling):
    """Pr[both steps put symbol 0 at >= t of n coordinates], each coordinate's
    step-1 symbol being 0 with probability p.

    Under 'product' the two steps draw independently, so the value is the
    squared tail; under 'identity' the second step repeats the first, so it
    is the tail itself.
    """
    tail = binom_tail(n, t, p)
    return tail * tail if coupling == "product" else tail


def ap3_measure_exact(n):
    """Pr[Bin(n,1/3) < n/3] for the blocked-symbol count at a single step."""
    th = (n + 2) // 3  # smallest integer >= n/3; count must be strictly below n/3
    # count < n/3  <=>  3*count < n  <=>  count <= ceil(n/3) - 1
    limit = (n - 1) // 3 if n % 3 == 0 else (n - (n % 3)) // 3
    limit = (n - 1) // 3  # works for all n: 3k <= n-1 <=> k <= (n-1)//3
    del th
    p = Fraction(1, 3)
    return sum(binom_pmf(n, k, p) for k in range(0, limit + 1))


def ap3_influence_exact(n):
    """Influence of any coordinate on the window indicator count('2') < n/3 under uniform {0,1,2}^n."""
    theta = (n - 1) // 3  # accept counts 0..theta
    p = Fraction(1, 3)
    # conditional variance is nonzero only when the other n-1 coordinates sit
    # exactly on the boundary theta; there the value flips with 1[x_i = 2]
    return binom_pmf(n - 1, theta, p) * p * (1 - p)


def skew_measure_exact(n, step):
    """E[1_{S1 union S2}(X^(step))] exactly, by binomial sums over the step marginal."""
    (lo1, hi1), (lo2, hi2) = skew_windows(n)
    p1 = Fraction(1, 3) if step == 1 else Fraction(2, 3)  # Pr[symbol 1]
    total = Fraction(0)
    # S1: x1 = 1 and total ones in [lo1, hi1]
    for k in range(max(lo1 - 1, 0), hi1):  # ones among remaining n-1
        total += p1 * binom_pmf(n - 1, k, p1)
    # S2: x1 = 0 and total ones in [lo2, hi2]
    for k in range(lo2, min(hi2, n - 1) + 1):
        total += (1 - p1) * binom_pmf(n - 1, k, p1)
    return total


def skew_s1_measure_exact(n):
    """E[1_{S1}(X^(1))] exactly: first bit one and total ones within the window."""
    (lo1, hi1), _ = skew_windows(n)
    p1 = Fraction(1, 3)
    return sum(p1 * binom_pmf(n - 1, k, p1) for k in range(max(lo1 - 1, 0), hi1))


def skew_s1_measure_float(n):
    """Same quantity in floating point via log binomials, for large n."""
    (lo1, hi1), _ = skew_windows(n)
    lp = math.log(1.0 / 3.0)
    lq = math.log(2.0 / 3.0)
    total = 0.0
    for k in range(max(lo1 - 1, 0), hi1):
        lb = math.lgamma(n) - math.lgamma(k + 1) - math.lgamma(n - k)
        total += math.exp(lb + (k + 1) * lp + (n - 1 - k) * lq)
    return total


# ---------------------------------------------------------------------------
# max-of-substitutions gain, brute force


def max_gain_brute(p, ell, n, j_star, i, f):
    """Average over the coordinate-i double sample of E[max-substituted f] at step j_star."""
    pi = marginal(p, ell, j_star)
    support_j = sorted(y for y, w in pi.items() if w > 0)
    rest = {}
    for t, w in p.items():
        key = tuple(v for k, v in enumerate(t) if k != j_star - 1)
        rest[key] = rest.get(key, Fraction(0)) + w

    def cond(y, key):
        num = Fraction(0)
        for t, w in p.items():
            if t[j_star - 1] == y and tuple(v for k, v in enumerate(t) if k != j_star - 1) == key:
                num += w
        return num / rest[key]

    def expect_max(y, z):
        # E over X ~ pi^n of max(f with x_i = y, f with x_i = z)
        total = Fraction(0)
        syms = support_j
        for x in itertools.product(syms, repeat=n):
            w = Fraction(1)
            for v in x:
                w *= pi[v]
            xy = list(x)
            xy[i - 1] = y
            xz = list(x)
            xz[i - 1] = z
            total += w * max(f(tuple(xy)), f(tuple(xz)))
        return total

    total = Fraction(0)
    for key, wk in rest.items():
        for y in support_j:
            for z in support_j:
                total += wk * cond(y, key) * cond(z, key) * expect_max(y, z)
    return total


# ---------------------------------------------------------------------------
# misc exact helpers


def fn_expectation_iid(pi, n, f, symbols):
    total = Fraction(0)
    for x in itertools.product(symbols, repeat=n):
        w = Fraction(1)
        for v in x:
            w *= pi[v]
        total += w * f(x)
    return total


def influence_iid(pi, n, f, symbols, i):
    """E over the other coordinates of the conditional variance at coordinate i."""
    total = Fraction(0)
    for x_rest in itertools.product(symbols, repeat=n - 1):
        w = Fraction(1)
        for v in x_rest:
            w *= pi[v]
        mean = Fraction(0)
        mean_sq = Fraction(0)
        for a in symbols:
            x = x_rest[: i - 1] + (a,) + x_rest[i - 1 :]
            v = f(x)
            mean += pi[a] * v
            mean_sq += pi[a] * v * v
        total += w * (mean_sq - mean * mean)
    return total


def indicator_value(kind, payload, m, point):
    """0 or 1: a window ('anchored_symmetric'), junta or residue ('mod_linear')
    function read from its payload dict at a point of symbol indices in
    range(m), coordinate 1 first."""
    if len(point) == 0 or any(not 0 <= s < m for s in point):
        raise ValueError("point outside the alphabet")
    if payload["zero"]:
        return 0
    if kind == "junta":
        return int(all(point[c - 1] == s for c, s in payload["constraints"]))
    if kind == "mod_linear":
        total = sum(c * payload["symbol_map"][s] for c, s in zip(payload["coeffs"], point))
        return int(total % payload["modulus"] == payload["residue"])
    anchor = payload["anchor"]
    if anchor is not None and point[anchor[0] - 1] != anchor[1]:
        return 0
    counted = [s for c, s in enumerate(point, start=1) if c not in payload["ignored"]]
    return int(all(lo <= counted.count(s) <= hi for s, (lo, hi) in payload["windows"].items()))


# ---------------------------------------------------------------------------
# per-point enumeration over a dense table: the reference for the contraction
# kernels.  `values` is the mixed-radix table (coordinate 1 least significant),
# `probs` one probability per symbol; exact mode multiplies Fractions, float
# mode floats, and only positive-probability symbols are visited.


def table_value(values, m, point):
    idx = 0
    for d in reversed(point):
        idx = idx * m + d
    return values[idx]


def table_moments_enumerate(values, m, n, probs, exact):
    """(E[f], E[f^2]) by one product weight per support point."""
    support = [a for a, p in enumerate(probs) if p > 0]
    total = Fraction(0) if exact else 0.0
    sq = Fraction(0) if exact else 0.0
    for point in itertools.product(support, repeat=n):
        w = Fraction(1) if exact else 1.0
        for s in point:
            w *= probs[s]
        v = table_value(values, m, point)
        if not exact:
            w, v = float(w), float(v)
        total += w * v
        sq += w * v * v
    return total, sq


def product_measure_sums(values, m, n, weights, keep):
    """For each choice s of symbols at the coordinates `keep` (ascending; the
    lowest is the least significant digit of the output index): the sum over
    the points x with x_keep = s of values[x] times prod_c weights[x_c] over
    the coordinates c not kept.  Every point's term is formed on its own, in
    object arrays, so ints and Fractions stay exact and zero weights are
    summed like any other."""
    idx = np.arange(m**n)
    digits = [(idx // m**c) % m for c in range(n)]
    w = np.array(list(weights), dtype=object)
    terms = np.array(list(values), dtype=object)
    for c in range(n):
        if c + 1 not in keep:
            terms = terms * w[digits[c]]
    kept = np.zeros(m**n, dtype=np.int64)
    for j, c in enumerate(keep):
        kept += digits[c - 1] * m**j
    return [sum(terms[kept == s].tolist()) for s in range(m ** len(keep))]


def table_influence_enumerate(values, m, n, probs, exact, i):
    """Inf_i as the weighted conditional variance along coordinate i."""
    support = [a for a, p in enumerate(probs) if p > 0]
    zero = Fraction(0) if exact else 0.0
    total = zero
    others = [c for c in range(1, n + 1) if c != i]
    for rest in itertools.product(support, repeat=n - 1):
        w = Fraction(1) if exact else 1.0
        for s in rest:
            w *= probs[s]
        mean = zero
        mean_sq = zero
        point = [0] * n
        for coord, s in zip(others, rest):
            point[coord - 1] = s
        for a in support:
            point[i - 1] = a
            v = table_value(values, m, point)
            if not exact:
                v = float(v)
            mean += probs[a] * v
            mean_sq += probs[a] * v * v
        total += w * (mean_sq - mean * mean)
    return total


# ---------------------------------------------------------------------------
# averaging operators point by point: (Kf)(x) = sum_y prod_i K_i(x_i, y_i) f(y)
# over all m^n points y, in Fractions (float inputs convert exactly).


def _average_brute(values, m, n, kernels):
    """kernels[c](x, y) is K_c(x, y) for coordinate c + 1."""
    vals = [Fraction(v) for v in values]
    mats = [[[kernel(x, y) for y in range(m)] for x in range(m)] for kernel in kernels]
    out = []
    for idx in range(m**n):
        x = [(idx // m**c) % m for c in range(n)]
        total = Fraction(0)
        # only the points y of positive weight
        rows = [mats[c][x[c]] for c in range(n)]
        for y in itertools.product(*[[b for b in range(m) if row[b]] for row in rows]):
            w = Fraction(1)
            for c in range(n):
                w *= rows[c][y[c]]
            total += w * table_value(vals, m, y)
        out.append(total)
    return out


def noise_operator_brute(values, m, n, probs, rho):
    """T_rho f: K(x, y) = rho [x = y] + (1 - rho) pi(y) on every coordinate."""
    r = Fraction(rho)
    p = [Fraction(q) for q in probs]
    return _average_brute(
        values, m, n, [lambda x, y: r * (x == y) + (1 - r) * p[y]] * n
    )


def projection_brute(values, m, n, probs, keep):
    """f^S for S = keep: K(x, y) = [x = y] on S and pi(y) elsewhere."""
    p = [Fraction(q) for q in probs]
    kernels = [
        (lambda x, y: Fraction(x == y)) if c + 1 in keep else (lambda x, y: p[y])
        for c in range(n)
    ]
    return _average_brute(values, m, n, kernels)


# ---------------------------------------------------------------------------
# restriction searches over a dense table: every candidate is restricted and
# averaged on its own.  Search order: size, coordinate subset in lex order,
# then positive-probability symbols with the last coordinate's varying
# fastest.  `fixed` maps 1-based coordinates to symbols.


def table_restrict(values, m, n, fixed):
    """Value list of f with coordinate c replaced by fixed[c] at every point."""
    out = []
    for idx in range(m**n):
        point = [(idx // m**c) % m for c in range(n)]
        for c, s in fixed.items():
            point[c - 1] = s
        out.append(table_value(values, m, point))
    return out


def restriction_search_brute(values, m, n, probs, sizes, hit, exact):
    """First (fixed, E[Rf]) in search order over the given sizes with
    hit(E[Rf]), or None."""
    support = [a for a, p in enumerate(probs) if p > 0]
    for size in sizes:
        for coords in itertools.combinations(range(1, n + 1), size):
            for symbols in itertools.product(support, repeat=size):
                fixed = dict(zip(coords, symbols))
                restricted = table_restrict(values, m, n, fixed)
                value = table_moments_enumerate(restricted, m, n, probs, exact)[0]
                if hit(value):
                    return fixed, value
    return None


def density_increment_brute(values, m, n, probs, eps_prime, k, exact):
    """(final values, steps) of the density-increment loop: while some
    restriction of size 1..k has E[Rg] >= (1 + eps') E[g], apply the first.
    Steps are (fixed, before, after, loss)."""
    cur = table_moments_enumerate(values, m, n, probs, exact)[0]
    steps = []
    while True:
        threshold = (1 + eps_prime) * cur
        found = restriction_search_brute(
            values, m, n, probs, range(1, k + 1), lambda v: v >= threshold, exact
        )
        if found is None:
            return values, steps
        fixed, value = found
        loss = Fraction(1) if exact else 1.0
        for s in fixed.values():
            loss *= probs[s]
        steps.append((fixed, cur, value, loss))
        values = table_restrict(values, m, n, fixed)
        cur = value


def resilience_witness_brute(values, m, n, probs, eps, k, exact):
    """First restriction of size 0..k with E[Rf] > (1+eps) E[f] or
    E[Rf] < (1-eps) E[f], as a fixed dict; None when resilient."""
    mu = table_moments_enumerate(values, m, n, probs, exact)[0]
    lo, hi = (1 - eps) * mu, (1 + eps) * mu
    found = restriction_search_brute(
        values, m, n, probs, range(0, k + 1),
        lambda v: v > hi or v < lo, exact,
    )
    return None if found is None else found[0]


# ---------------------------------------------------------------------------
# the influence-reduction loop point by point: every influence, max-operator
# image, restriction, expectation and product is recomputed from the values
# of every candidate, in the package's scan order and with its certificates.
# `p` maps step tuples to weights, `tables` are mixed-radix value lists
# (coordinate 1 least significant) and `rho_value` is rho(p) as a float.


def table_max_operator(values, m, n, i, y, z):
    """Value list of max(f with x_i = y, f with x_i = z)."""
    return [
        max(a, b) for a, b in zip(
            table_restrict(values, m, n, {i: y}), table_restrict(values, m, n, {i: z})
        )
    ]


def _point_expectation(values, m, n, pi):
    total = Fraction(0)
    for x in itertools.product(range(m), repeat=n):
        w = Fraction(1)
        for s in x:
            w *= pi.get(s, 0)
        total += w * table_value(values, m, x)
    return total


def _point_influence(values, m, n, pi, i):
    """E over the other coordinates of Var[f] along coordinate i."""
    total = Fraction(0)
    for rest in itertools.product(range(m), repeat=n - 1):
        w = Fraction(1)
        for s in rest:
            w *= pi.get(s, 0)
        mean = mean_sq = Fraction(0)
        for a in range(m):
            v = table_value(values, m, rest[: i - 1] + (a,) + rest[i - 1:])
            mean += pi.get(a, 0) * v
            mean_sq += pi.get(a, 0) * v * v
        total += w * (mean_sq - mean * mean)
    return total


def influence_reduction_brute(p, ell, m, n, tables, tau, rho_value):
    """(final tables, iterations, params) of the influence-reduction loop.

    Iterations are tuples (j*, i, x_bar, y, z, prob_y, prob_z, before, after,
    product_before, product_after, gain); certificate failures raise
    ArithmeticError like the package.
    """
    one_minus = 1.0 - rho_value * rho_value
    gain_target = float(tau) * one_minus / 2.0
    beta_hat = float(tau) * one_minus / (2.0 * ell * m ** (ell + 1))
    cap = math.floor(2.0 * ell / (float(tau) * one_minus))
    pis = [marginal(p, ell, j) for j in range(1, ell + 1)]

    def product(ts):
        fns = [lambda x, t=t: table_value(t, m, x) for t in ts]
        return multi_set_expectation_brute(p, ell, n, fns)

    cur = [list(t) for t in tables]
    product_initial = product(cur)
    iterations = []
    while True:
        infl = {
            (j, i): _point_influence(cur[j - 1], m, n, pis[j - 1], i)
            for j in range(1, ell + 1) for i in range(1, n + 1)
        }
        worst = max(infl.values())
        if worst <= tau:
            break
        i, j_star = min((i, j) for (j, i), v in infl.items() if v == worst)
        before = tuple(_point_expectation(t, m, n, pi) for t, pi in zip(cur, pis))
        product_before = product(cur)
        others = [j for j in range(1, ell + 1) if j != j_star]
        hit = None
        for x_bar in itertools.product(range(m), repeat=ell - 1):
            def tup(sym):
                out = [0] * ell
                for j, a in zip(others, x_bar):
                    out[j - 1] = a
                out[j_star - 1] = sym
                return tuple(out)

            for y in range(m):
                prob_y = p.get(tup(y), Fraction(0))
                if prob_y < beta_hat:
                    continue
                for z in range(m):
                    prob_z = p.get(tup(z), Fraction(0))
                    if prob_z < beta_hat:
                        continue
                    trial = list(cur)
                    trial[j_star - 1] = table_max_operator(cur[j_star - 1], m, n, i, y, z)
                    for j, a in zip(others, x_bar):
                        trial[j - 1] = table_restrict(cur[j - 1], m, n, {i: a})
                    after = tuple(_point_expectation(t, m, n, pi) for t, pi in zip(trial, pis))
                    gain = sum(after) - sum(before)
                    if gain >= gain_target:
                        hit = (x_bar, y, z, prob_y, prob_z, trial, after, gain)
                        break
                if hit:
                    break
            if hit:
                break
        if hit is None:
            raise ArithmeticError("no qualifying tuple found although an influence exceeds tau")
        x_bar, y, z, prob_y, prob_z, trial, after, gain = hit
        product_after = product(trial)
        if product_before < beta_hat * product_after:
            raise ArithmeticError("per-step product certificate failed")
        iterations.append((j_star, i, x_bar, y, z, prob_y, prob_z, before, after,
                           product_before, product_after, gain))
        cur = trial
        if len(iterations) > cap:
            raise ArithmeticError("influence reduction ran past its iteration cap")
    params = {
        "tau": tau,
        "rho": rho_value,
        "beta_hat": beta_hat,
        "iteration_cap": cap,
        "beta": beta_hat**cap,
        "product_initial": product_initial,
        "product_final": product(cur),
    }
    return cur, iterations, params


# ---------------------------------------------------------------------------
# the convex cycle decomposition in Fraction arithmetic, as the package ran it
# before it moved to integer-scaled weights: the reference for that version.
# `weights` is the dense two-step table, pair (x, y) at x + m * y; parts come
# back as (kind, weight, dense part weights, cycle) with cycle = (s, q,
# vertex indices) for cycle parts and None for point masses.


def convex_cycle_decomposition_fraction(weights, m):
    a = min(weights[x + m * x] for x in range(m))
    t2 = Fraction(m * m)
    residual = [
        [weights[x + m * y] - (a if x == y else 0) for y in range(m)] for x in range(m)
    ]

    def first_out(v):
        for u in range(m):
            if residual[v][u] > 0:
                return u
        return None

    cycles = []
    while True:
        start = next((v for v in range(m) if first_out(v) is not None), None)
        if start is None:
            break
        path = [start]
        seen = {start: 0}
        cur = start
        while True:
            nxt = first_out(cur)
            if nxt in seen:
                cyc = tuple(path[seen[nxt]:])
                break
            seen[nxt] = len(path)
            path.append(nxt)
            cur = nxt
        s = len(cyc)
        w = min(residual[cyc[i]][cyc[(i + 1) % s]] for i in range(s))
        for i in range(s):
            residual[cyc[i]][cyc[(i + 1) % s]] -= w
        cycles.append((cyc, w))

    parts = []
    used = [Fraction(0)] * m
    for cyc, w in cycles:
        s = len(cyc)
        if s == 1:
            continue
        b = min(w, a / t2)
        q = b / (b + w)
        dist = [Fraction(0)] * (m * m)
        for i in range(s):
            x, y = cyc[i], cyc[(i + 1) % s]
            dist[x + m * x] += q / s
            dist[x + m * y] += (1 - q) / s
        parts.append(("cycle", s * (w + b), tuple(dist), (s, q, cyc)))
        for v in cyc:
            used[v] += b
    for x in range(m):
        leftover = weights[x + m * x] - used[x]
        if leftover > 0:
            dist = [Fraction(0)] * (m * m)
            dist[x + m * x] = Fraction(1)
            parts.append(("point", leftover, tuple(dist), None))
    return parts


def orthant_probability(r):
    """Pr[G1 > 0, G2 > 0] for standard normals with correlation r, by quadrature."""
    from scipy.integrate import dblquad

    det = 1 - r * r

    def dens(y, x):
        return math.exp(-(x * x - 2 * r * x * y + y * y) / (2 * det)) / (
            2 * math.pi * math.sqrt(det)
        )

    val, _ = dblquad(dens, 0, 8.0, lambda _: 0, lambda _: 8.0, epsabs=1e-12)
    return val


def bivariate_upper_probability(t1, t2, r):
    """Pr[G1 > t1, G2 > t2] for standard normals with correlation r, |r| < 1.

    A double integral of the independent pair (x, z) with G1 = x and
    G2 = r x + sqrt(1 - r^2) z: x over (t1, 12), z beyond (t2 - r x) /
    sqrt(1 - r^2).  That lower limit sweeps across the z range within a
    layer of width about sqrt(1 - r^2) around x = t2 / r, so the x range is
    cut there and at that width on either side.
    """
    from scipy.integrate import dblquad

    top = 12.0
    s = math.sqrt((1.0 - r) * (1.0 + r))

    def dens(z, x):
        return math.exp(-(x * x + z * z) / 2) / (2 * math.pi)

    def z_low(x):
        return min(max((t2 - r * x) / s, -top), top)

    cuts = {max(t1, -top), top}
    if r != 0.0:
        mid = t2 / r
        cuts |= {mid + j * s for j in (-8, -1, 0, 1, 8)}
    cuts = sorted(c for c in cuts if max(t1, -top) <= c <= top)
    total = 0.0
    for a, b in zip(cuts, cuts[1:]):
        val, _ = dblquad(dens, a, b, z_low, lambda _: top, epsabs=1e-15, epsrel=1e-13)
        total += val
    return total


def gauss_third_moments(coeffs, n, p, r, nodes=120):
    """(E|P|^3, E|T_r P|^3) for P = sum of c * prod_i G_(i, sigma_i) over n p
    independent standard normals (G_(i, 0) = 1), where T_r scales the term of
    sigma by r^(number of nonzero entries).

    A tensor product of one `nodes`-point Gauss-Hermite rule per normal,
    normal (i, k) on axis i p + k - 1; numpy only, so it runs without scipy.
    """
    from numpy.polynomial.hermite_e import hermegauss

    x, w = hermegauss(nodes)
    w = w / math.sqrt(2.0 * math.pi)
    dims = n * p
    axes = np.meshgrid(*([x] * dims), indexing="ij")
    mass = np.ones((nodes,) * dims)
    for k in range(dims):
        mass = mass * w.reshape([nodes if a == k else 1 for a in range(dims)])
    plain = np.zeros((nodes,) * dims)
    noisy = np.zeros((nodes,) * dims)
    for sigma, c in coeffs.items():
        term = np.full((nodes,) * dims, float(c))
        for i, s in enumerate(sigma):
            if s:
                term = term * axes[i * p + s - 1]
        plain += term
        noisy += r ** sum(1 for s in sigma if s) * term
    return (
        float(np.sum(mass * np.abs(plain) ** 3)),
        float(np.sum(mass * np.abs(noisy) ** 3)),
    )


def bump_raw(s):
    """The unnormalized bump exp(-1/(s+1)^2 - 1/(s-1)^2) on (-1, 1)."""
    if not -1.0 < s < 1.0:
        return 0.0
    return math.exp(-1.0 / (s + 1.0) ** 2) * math.exp(-1.0 / (s - 1.0) ** 2)


def bump_constant():
    """Integral of the bump over (-1, 1) by adaptive quadrature."""
    from scipy.integrate import quad

    val, _ = quad(bump_raw, -1.0, 1.0, epsabs=1e-14, epsrel=1e-13, limit=800)
    return val


def collar_profile(u):
    """g(u) = integral of psi(s) max(u + s, 0) ds, psi the normalized bump,
    by adaptive quadrature over the s range where u + s > 0."""
    from scipy.integrate import quad

    val, _ = quad(
        lambda s: bump_raw(s) * (u + s), max(-u, -1.0), 1.0,
        epsabs=1e-13, epsrel=1e-12, limit=800,
    )
    return val / bump_constant()


def cycle_eigen_formula(s, p):
    vals = [
        1 - 2 * p * (1 - p) * (1 - math.cos(2 * math.pi * k / s)) for k in range(1, s)
    ]
    return max(vals)


# ---------------------------------------------------------------------------


def main():
    print("== three-cycle lazy step ==")
    p, m, ell = three_cycle_dist()
    sup, k = double_sample_kernel_brute(p, ell, 2)
    pi = marginal(p, ell, 2)
    print("kernel rows:", [[str(k[(y, z)]) for z in sup] for y in sup])
    print("lambda2:", kernel_lambda2(sup, k, pi))
    print("rho (svd):", rho_brute(p, ell))
    print("rho (eigen):", math.sqrt(kernel_lambda2(sup, k, pi)))

    f = modlinear3
    val = multi_set_expectation_brute(p, ell, 2, [f, f])
    print("mod-linear same-set value at n=2:", val)

    dict0 = lambda x: Fraction(int(x[0] == 0))
    print("dictator same-set n=1:", multi_set_expectation_brute(p, ell, 1, [dict0, dict0]))
    print(
        "dictator same-set n=4:",
        multi_set_expectation_brute(p, ell, 4, [lambda x: Fraction(int(x[0] == 0))] * 2),
    )

    print("max gain lhs (dictator n=1, j*=2):", max_gain_brute(p, ell, 1, 2, 1, dict0))
    pi1 = marginal(p, ell, 1)
    print("dictator influence n=1:", influence_iid(pi1, 1, dict0, sorted(pi1), 1))

    print()
    print("== cycles ==")
    for s, pv in [(3, Fraction(1, 2)), (4, Fraction(1, 4))]:
        d, _, _ = cycle_dist(s, pv)
        sup_c, kc = double_sample_kernel_brute(d, 2, 2)
        pic = marginal(d, 2, 2)
        lam = kernel_lambda2(sup_c, kc, pic)
        print(f"(s={s}, p={pv}) lambda2 kernel={lam:.15f} formula={cycle_eigen_formula(s, float(pv)):.15f}")
        print(f"  rho={math.sqrt(max(lam, 0.0)):.15f}")

    print()
    print("== skew pair ==")
    sk, _, _ = skew_pair_dist()
    print("marginal 1:", {a: str(w) for a, w in marginal(sk, 2, 1).items()})
    print("marginal 2:", {a: str(w) for a, w in marginal(sk, 2, 2).items()})
    print("rho:", rho_brute(sk, 2))
    for n in (3, 6, 9, 12):
        f = skew_set_indicator(n, 0)
        val = multi_set_expectation_brute(sk, 2, n, [f, f])
        mu1 = skew_measure_exact(n, 1)
        mu2 = skew_measure_exact(n, 2)
        ratio = val / min(mu1, mu2) ** 2
        print(f"n={n}: E[ff]={val}  mu1={mu1}  mu2={mu2}  normalized={float(ratio):.6f}")
    for n in (9,):
        f1 = skew_set_indicator(n, 1)
        pi1 = marginal(sk, 2, 1)
        print("E[1_S1(X^1)] at n=9:", fn_expectation_iid(pi1, n, f1, sorted(pi1)))
    print("union measure at n=300 (step 1):", float(skew_measure_exact(300, 1)))
    v300 = skew_s1_measure_exact(300)
    print("S1 measure at n=300 exact:", v300, float(v300))
    for n in (3000, 30000):
        print(f"S1 measure at n={n} (float):", skew_s1_measure_float(n))

    print()
    print("== ap3 ==")
    ap, _, _ = ap3_dist()
    print("rho:", rho_brute(ap, 3))
    for n in (2, 3):
        fns = [ap3_indicator(n, j) for j in (1, 2, 3)]
        print(f"triple product n={n}:", multi_set_expectation_brute(ap, 3, n, fns))
    print("measure n=60:", float(ap3_measure_exact(60)), ap3_measure_exact(60))
    print("measure n=120:", float(ap3_measure_exact(120)))
    print("measure n=240:", float(ap3_measure_exact(240)))
    for n in (6, 12, 24):
        print(f"influence n={n}:", ap3_influence_exact(n), float(ap3_influence_exact(n)))

    print()
    print("== gaussian orthant ==")
    print("Pr[G1>0, G2>0] at r=1/2:", orthant_probability(0.5))

    print()
    print("== noise operator on a dictator, uniform bit ==")
    # T_rho f(x) = rho f(x) + (1-rho) E[f]; dictator 1[x=1], rho=1/2
    ef = Fraction(1, 2)
    for x, fx in ((0, Fraction(0)), (1, Fraction(1))):
        print(f"T_1/2 f({x}) =", Fraction(1, 2) * fx + Fraction(1, 2) * ef)

    print()
    print("== mod-linear influences, uniform trit, n=2, sum mod 3 ==")
    piu = {0: Fraction(1, 3), 1: Fraction(1, 3), 2: Fraction(1, 3)}
    for i in (1, 2):
        print(f"Inf_{i}:", influence_iid(piu, 2, modlinear3, (0, 1, 2), i))


if __name__ == "__main__":
    main()
