"""Seeded job streams for the three benchmark workloads.

A workload hands out rounds.  A round is a fixed list of job slots: the
structure of each slot (job kind, alphabet size, n) is constant and only its
random content (weights, tables, symbols, coefficients, Monte Carlo seeds)
comes from the workload's seeded generator.  Every run therefore executes
the same mix whatever its seed, and whole rounds keep that mix exact, so
throughput and latency quantiles stay comparable across seeds.  A job is one public call into corrhit plus a check of its
result against an independent reference from `checks`.

Why each workload exists:

- hit_dp: the joint-count dynamic program behind multi_set_expectation at
  large n, in exact Fraction mode and (for a quarter of the random pairs)
  float mode.  The DP state space and rational arithmetic dominate; tables
  and the invariance module are absent.
- reduce_tables: dense-table paths at small n (density increment, influence
  reduction, max-operator gain, Markov identity, enumeration engine).  It
  bypasses the DP.  Functions are drawn against a small fixed pool of
  distributions, so distributions (and rho of them) repeat across jobs and
  any caching shows here.
- spectral_float: the numpy/float side (decomposition, rho, noise operator,
  Fourier analysis, Gaussian Monte Carlo checks) with a fresh random
  distribution for every job, so nothing repeats and a caching change
  should leave it flat.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import corrhit as C

import checks as R


@dataclass(eq=False)
class Job:
    """One timed public call and the check of what it returned."""

    kind: str
    call: Callable[[], object]
    check: Callable[["Job"], None]
    twin: "Job | None" = None
    result: object = None
    error: BaseException | None = None
    latency: float = 0.0


@dataclass
class Dist:
    """A distribution as the benchmark generated it, and the library's parse."""

    cells: dict
    m: int
    steps: int
    lib: C.StepDistribution


def tuples(m: int, steps: int):
    return [tuple((idx // m**j) % m for j in range(steps)) for idx in range(m**steps)]


def make_dist(cells: dict, m: int, steps: int, decimal: bool = False) -> Dist:
    """Parse cells through the public text format; decimal weights select float mode."""
    lines = ["alphabet " + " ".join(str(a) for a in range(m)), f"steps {steps}"]
    for tup, w in sorted(cells.items()):
        weight = repr(float(w)) if decimal else str(w)
        lines.append("entry " + " ".join(str(a) for a in tup) + " " + weight)
    return Dist(dict(cells), m, steps, C.parse_distribution("\n".join(lines) + "\n"))


def unit_cells(rng: random.Random, m: int, steps: int, units: int,
               diagonal: bool = False, symmetric: bool = False, full: bool = False) -> dict:
    """Weights in multiples of 1/units (units divides a power of ten, so every
    weight has an exact decimal form).  Every step marginal covers the whole
    alphabet, so per-step supports agree.  `full` puts mass on every tuple,
    `diagonal` on every constant tuple."""
    cells = tuples(m, steps)
    while True:
        counts = {}
        if full:
            counts = {tup: 1 for tup in cells}
        elif diagonal:
            for a in range(m):
                counts[(a,) * steps] = 1
        while sum(counts.values()) < units:
            tup = rng.choice(cells)
            if symmetric and steps == 2 and tup[0] != tup[1]:
                if sum(counts.values()) + 2 > units:
                    continue
                counts[tup[::-1]] = counts.get(tup[::-1], 0) + 1
            counts[tup] = counts.get(tup, 0) + 1
        covered = all(
            {tup[j] for tup in counts} == set(range(m)) for j in range(steps)
        )
        if covered:
            return {tup: Fraction(c, units) for tup, c in counts.items()}


def random_table(rng: random.Random, m: int, n: int, den: int = 4) -> list:
    return [Fraction(rng.randint(0, den), den) for _ in range(m**n)]


def alphabet(m: int) -> tuple:
    return tuple(str(a) for a in range(m))


# ---------------------------------------------------------------------------
# hit_dp


class HitDP:
    """Joint-count DP at large n: catalogs, exponent fits and random pairs.

    Every round holds the same 19 slots; only the random content of each
    slot (weights, symbols, coefficients, residues) changes, so the cost of a
    round barely depends on the seed.  Sizes are laid out so that nine slots
    cost clearly less and nine clearly more than the n = 24 three-set job,
    which puts the median on a job whose cost has no random part.
    """

    THREE_SET_N = (24, 42, 60)
    SKEW_NS = ((9, 12, 15), (18, 21, 24))
    # (family, alphabet size, n)
    EXPONENT_SLOTS = (("product", 2, 16), ("identity", 3, 20))
    # (alphabet size, step-function kinds, n, with a float twin?)
    PAIR_SLOTS = (
        (2, ("window", "window"), 16, True),
        (2, ("window", "residue"), 24, False),
        (2, ("window", "residue"), 28, False),
        (2, ("window", "residue"), 32, False),
        (2, ("residue", "residue"), 36, True),
        (3, ("window", "residue"), 16, True),
        (3, ("residue", "residue"), 24, False),
        (3, ("residue", "residue"), 48, False),
        (3, ("window", "window"), 10, False),
    )

    def __init__(self, seed: int):
        self.rng = random.Random(f"hit_dp:{seed}")

    def round(self) -> list[Job]:
        jobs = [three_sets_job(n) for n in self.THREE_SET_N]
        jobs += [skew_job(ns) for ns in self.SKEW_NS]
        jobs += [exponent_job(self.rng, *slot) for slot in self.EXPONENT_SLOTS]
        for m, kinds, n, twin in self.PAIR_SLOTS:
            jobs.extend(pair_jobs(self.rng, m, kinds, n, twin))
        self.rng.shuffle(jobs)
        return jobs

    def warm_up_jobs(self) -> list[Job]:
        rng = random.Random(0)
        return [three_sets_job(6), skew_job((3, 6)), exponent_job(rng, "product", 2, 8),
                *pair_jobs(rng, 2, ("window", "residue"), 6, True)]


def three_sets_job(n: int) -> Job:
    def check(job):
        rep = job.result
        R.require(rep.n == n, "three-set report has the wrong n")
        R.require(rep.triple_product == 0, f"triple product {rep.triple_product} != 0")
        want = R.ap3_measure(n)
        R.require(all(mu == want for mu in rep.measures), "three-set measures != binomial sum")
        infl = R.ap3_influence(n)
        R.require(all(v == infl for v in rep.max_influences), "three-set influences != closed form")
        R.close(rep.rho, 1.0, "AP3 correlation")

    return Job("three_sets", lambda: C.counterexample_three_sets(n), check)


def skew_job(ns) -> Job:
    ns = list(ns)

    def check(job):
        rep = job.result
        R.require([e.n for e in rep.entries] == ns, "skew report has the wrong n list")
        R.require(rep.ratios_strictly_decreasing, "skew ratios do not decrease")
        for e in rep.entries:
            want = R.skew_entry(e.n)
            for key, value in want.items():
                R.require(getattr(e, key) == value, f"skew n={e.n} {key} != closed form")

    return Job("skew_pair", lambda: C.counterexample_unequal_marginals(ns), check)


def exponent_job(rng: random.Random, family: str, m: int, n: int) -> Job:
    units = 10
    while True:
        cuts = sorted(rng.sample(range(1, units), m - 1))
        pi = [Fraction(b - a, units) for a, b in zip([0] + cuts, cuts + [units])]
        if Fraction(1, 5) <= pi[0] <= Fraction(4, 5):
            break
    if family == "product":
        cells = {(x, y): pi[x] * pi[y] for x in range(m) for y in range(m)}
    else:
        cells = {(x, x): pi[x] for x in range(m)}
    dist = make_dist(cells, m, 2)
    tails = R.threshold_measures(pi, n)
    # one threshold from each quarter of 1..n; targets on members fix the fit size
    quarter = n // 4
    grid = [tails[rng.randint(1 + k * quarter, (k + 1) * quarter)] for k in range(4)]
    power = 2.0 if family == "product" else 1.0

    def check(job):
        rep = job.result
        R.require(len(rep.points) == len(grid), "fit dropped a threshold set")
        R.close(rep.slope, power, "exponent slope", rel=0.0, abs_tol=1e-9)
        for mu, delta in rep.points:
            R.require(
                any(abs(mu - v) <= 1e-12 * v for v in tails),
                f"fitted measure {mu} is not a threshold-family measure",
            )
            R.close(delta, mu**power, "same-set value of a threshold set")

    return Job(
        "exponent_fit",
        lambda: C.estimate_hitting_exponent(dist.lib, grid, n=n),
        check,
    )


def step_spec(rng: random.Random, kind: str, m: int, n: int) -> dict:
    if kind == "window":
        return {"kind": "window", "symbol": rng.randrange(m), "lo": n // 5, "hi": 2 * n // 3,
                "anchor": (1, rng.randrange(m))}
    q = 5  # nonzero coefficients and an injective symbol map keep all q residues live
    return {"kind": "residue", "modulus": q,
            "coeffs": [rng.randrange(1, q) for _ in range(n)],
            "symbol_map": rng.sample(range(q), m),
            "residue": rng.randrange(q)}


def spec_function(spec: dict, m: int, n: int):
    if spec["kind"] == "window":
        return C.make_anchored_symmetric(
            n, alphabet(m), {spec["symbol"]: (spec["lo"], spec["hi"])}, anchor=spec["anchor"]
        )
    return C.make_mod_linear(
        n, alphabet(m), spec["modulus"], spec["coeffs"], spec["residue"], spec["symbol_map"]
    )


def pair_jobs(rng: random.Random, m: int, kinds, n: int, twin: bool) -> list[Job]:
    """A random two-step window/residue pair, plus its decimal-weight twin."""
    cells = unit_cells(rng, m, 2, 20, full=True)
    specs = [step_spec(rng, kind, m, n) for kind in kinds]
    fns = tuple(spec_function(s, m, n) for s in specs)
    exact = make_dist(cells, m, 2)

    def check_exact(job):
        R.require(isinstance(job.result, Fraction), "exact inputs gave a non-rational result")
        R.close(job.result, R.count_hitting(cells, n, specs), "joint-count expectation")

    exact_job = Job("pair_exact", lambda: C.multi_set_expectation(exact.lib, n, fns), check_exact)
    if not twin:
        return [exact_job]
    floating = make_dist(cells, m, 2, decimal=True)

    def check_float(job):
        R.require(isinstance(job.result, float), "decimal inputs gave a non-float result")
        R.require(job.twin.error is None, "exact twin failed")
        R.close(job.result, job.twin.result, "float mode against its exact twin")

    float_job = Job(
        "pair_float", lambda: C.multi_set_expectation(floating.lib, n, fns), check_float,
        twin=exact_job,
    )
    return [exact_job, float_job]


# ---------------------------------------------------------------------------
# reduce_tables


def rho_below_one(rng: random.Random, m: int) -> Dist:
    """Full support keeps enumeration cost equal across seeds."""
    while True:
        cells = unit_cells(rng, m, 2, 20, full=True)
        if R.rho_ref(cells, m, 2) < 1.0 - 1e-6:
            return make_dist(cells, m, 2)


def markov_dist(rng: random.Random, m: int, steps: int) -> Dist:
    """Reversible chain: start law from the row sums of a symmetric matrix."""
    sym = [[0] * m for _ in range(m)]
    for a in range(m):
        for b in range(a, m):
            sym[a][b] = sym[b][a] = rng.randint(1, 3)
    rows = [sum(r) for r in sym]
    total = sum(rows)
    cells = {}
    for tup in tuples(m, steps):
        w = Fraction(rows[tup[0]], total)
        for a, b in zip(tup, tup[1:]):
            w *= Fraction(sym[a][b], rows[a])
        cells[tup] = w
    return make_dist(cells, m, steps)


class ReduceTables:
    """Table-function reductions against a small pool of fixed distributions."""

    POOL_SIZE = 4  # distributions per alphabet size
    # (job factory name, alphabet size, n); the two costliest slots are the
    # same enumeration, so p90 falls inside one job kind
    SLOTS = (
        ("density", 2, 4), ("density", 2, 5), ("density", 3, 3),
        ("influence", 2, 4), ("influence", 2, 4), ("influence", 3, 3),
        ("max_gain", 2, 5), ("max_gain", 3, 4),
        ("markov", 2, 3), ("markov", 2, 4),
        ("enumerate", 2, 5), ("enumerate", 3, 4), ("enumerate", 3, 4),
    )

    def __init__(self, seed: int):
        self.rng = random.Random(f"reduce_tables:{seed}")
        self.pool = {m: [rho_below_one(self.rng, m) for _ in range(self.POOL_SIZE)]
                     for m in (2, 3)}
        self.markov = markov_dist(self.rng, 2, 3)

    def round(self) -> list[Job]:
        rng = self.rng
        jobs = []
        for kind, m, n in self.SLOTS:
            dist = self.markov if kind == "markov" else rng.choice(self.pool[m])
            jobs.append(TABLE_JOBS[kind](rng, dist, n))
        rng.shuffle(jobs)
        return jobs

    def warm_up_jobs(self) -> list[Job]:
        rng = random.Random(0)
        return [make(rng, self.markov if kind == "markov" else self.pool[2][0], 2)
                for kind, make in TABLE_JOBS.items()]


def density_job(rng: random.Random, dist: Dist, n: int) -> Job:
    m = dist.m
    pi = R.marginal(dist.cells, m, 0)
    while True:  # density_increment refuses E[f] = 0
        values = random_table(rng, m, n)
        mu = R.mean(R.table_tensor(values, m, n), pi)
        if mu > 0:
            break
    f = C.make_table_function(n, alphabet(m), values)
    eps = Fraction(1, 4)

    def check(job):
        g, chain, log = job.result
        want = R.table_tensor(values, m, n)
        for r in chain:
            for coord, sym in r.fixed_items():
                want = R.restrict(want, coord - 1, sym)
        got = R.table_tensor(g.payload["values"], m, n)
        R.require(np.allclose(got, want, rtol=0, atol=1e-12), "output is not f under the logged chain")
        R.close(log.params["final_expectation"], R.mean(want, pi), "final expectation")
        R.require(R.mean(want, pi) >= mu - 1e-12, "expectation dropped")
        bad = R.resilience_violation(want, pi, float(eps), 2)
        R.require(bad is None, f"output not resilient, witness {bad}")

    return Job("density_increment", lambda: C.density_increment(dist.lib, n, f, eps, 2), check)


def influence_job(rng: random.Random, dist: Dist, n: int) -> Job:
    m = dist.m
    tables = [
        [Fraction(int(rng.random() < density)) for _ in range(m**n)]
        for density in (rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8))
    ]
    fns = tuple(C.make_table_function(n, alphabet(m), v) for v in tables)
    tau = Fraction(1, 10)
    pis = [R.marginal(dist.cells, m, j) for j in range(2)]

    def check(job):
        final, log = job.result
        tensors = [R.table_tensor(g.payload["values"], m, n) for g in final]
        for t, pi in zip(tensors, pis):
            for axis in range(n):
                R.require(R.influence(t, pi, axis) <= float(tau) + 1e-12, "influence above tau")
        start = [R.table_tensor(v, m, n) for v in tables]
        R.close(log.params["product_initial"], R.table_hitting(dist.cells, m, 2, start),
                "initial product")
        R.close(log.params["product_final"], R.table_hitting(dist.cells, m, 2, tensors),
                "final product")

    return Job("influence_reduction", lambda: C.influence_reduction(dist.lib, n, fns, tau), check)


def max_gain_job(rng: random.Random, dist: Dist, n: int) -> Job:
    m = dist.m
    values = random_table(rng, m, n)
    f = C.make_table_function(n, alphabet(m), values)
    j_star = rng.randint(1, 2)
    i = rng.randint(1, n)

    def check(job):
        rep = job.result
        t = R.table_tensor(values, m, n)
        pi = R.marginal(dist.cells, m, j_star - 1)
        pair = R.double_sample_weights(dist.cells, m, 2, j_star - 1)
        lhs = sum(
            pair[y, z] * R.mean(R.max_operator(t, i - 1, y, z), pi)
            for y in range(m) for z in range(m) if pair[y, z] > 0
        )
        mu, infl, r = R.mean(t, pi), R.influence(t, pi, i - 1), R.rho_ref(dist.cells, m, 2)
        R.close(rep.mu, mu, "E[f]")
        R.close(rep.influence, infl, "influence", abs_tol=1e-15)
        R.close(rep.lhs, lhs, "averaged max-operator expectation")
        R.close(rep.rhs, mu + infl * (1 - r * r), "gain bound", abs_tol=1e-12)
        R.require(rep.holds, "max-operator gain inequality failed")

    return Job("max_gain_check", lambda: C.max_gain_check(dist.lib, j_star, i, n, f), check)


def markov_job(rng: random.Random, dist: Dist, n: int) -> Job:
    m = dist.m
    values = random_table(rng, m, n)
    f = C.make_table_function(n, alphabet(m), values)

    def check(job):
        rep = job.result
        R.require(rep.equal and rep.pointwise_ok, "Markov product identity failed")
        t = R.table_tensor(values, m, n)
        R.close(rep.lhs, R.table_hitting(dist.cells, m, dist.steps, [t] * dist.steps),
                "Markov same-set product")

    return Job("markov_same_set", lambda: C.markov_same_set_check(dist.lib, n, f), check)


def enumerate_job(rng: random.Random, dist: Dist, n: int) -> Job:
    m = dist.m
    tables = [random_table(rng, m, n) for _ in range(2)]
    fns = tuple(C.make_table_function(n, alphabet(m), v) for v in tables)

    def check(job):
        tensors = [R.table_tensor(v, m, n) for v in tables]
        R.close(job.result, R.table_hitting(dist.cells, m, 2, tensors), "enumerated product")

    return Job(
        "enumerate_tables",
        lambda: C.multi_set_expectation(dist.lib, n, fns, engine="enumerate"),
        check,
    )


# ---------------------------------------------------------------------------
# spectral_float


class SpectralFloat:
    """Float and Gaussian numerics, a fresh random distribution for every job."""

    # Slot counts place the median inside the rho/decomposition/noise jobs and
    # p90 inside the Monte Carlo jobs.
    RHO_SHAPES = ((3, 2), (5, 2), (2, 3), (3, 3))  # (alphabet size, steps)
    DECOMPOSITION_M = (3, 3, 4, 4, 5, 5)
    TABLE_SHAPES = ((2, 6), (3, 4))  # (alphabet size, n)
    POLY_SHAPES = ((2, 2), (3, 2))  # (n, p): both take the Monte Carlo route

    def __init__(self, seed: int):
        self.rng = random.Random(f"spectral_float:{seed}")

    def round(self) -> list[Job]:
        rng = self.rng
        jobs = [rho_job(rng, m, steps) for m, steps in self.RHO_SHAPES]
        jobs += [decomposition_job(rng, m) for m in self.DECOMPOSITION_M]
        jobs += [noise_job(rng, m, n) for m, n in self.TABLE_SHAPES]
        jobs += [analyze_job(rng, m, n) for m, n in self.TABLE_SHAPES]
        jobs += [hyper_job(rng, n, p) for n, p in self.POLY_SHAPES]
        jobs += [rhc_job(rng), gap_job(rng)]
        rng.shuffle(jobs)
        return jobs

    def warm_up_jobs(self) -> list[Job]:
        rng = random.Random(0)
        return [decomposition_job(rng, 3), rho_job(rng, 3, 2), noise_job(rng, 2, 2),
                analyze_job(rng, 2, 2), rhc_job(rng, samples=1000),
                hyper_job(rng, 3, 1, samples=1000), gap_job(rng, samples=1000)]


def float_cells(rng: random.Random, m: int, steps: int) -> dict:
    """Random weights with full marginal support, rounded to 1e-6 so they sum to 1."""
    while True:
        raw = {tup: rng.random() ** 2 for tup in tuples(m, steps)}
        total = sum(raw.values())
        cells = {tup: Fraction(round(w / total * 10**6), 10**6) for tup, w in raw.items()}
        last = max(cells, key=cells.get)
        cells[last] += 1 - sum(cells.values())
        cells = {tup: w for tup, w in cells.items() if w > 0}
        if all({t[j] for t in cells} == set(range(m)) for j in range(steps)):
            return cells


def decomposition_job(rng: random.Random, m: int) -> Job:
    cells = unit_cells(rng, m, 2, 100, diagonal=True, symmetric=True)
    dist = make_dist(cells, m, 2)

    def call():
        dec = C.convex_cycle_decomposition(dist.lib)
        return dec, C.decomposition_guarantees(dec, dist.lib)

    def check(job):
        dec, rep = job.result
        total = {}
        for part in dec.parts:
            R.require(part.weight > 0, "non-positive part weight")
            for tup, w in part.dist.support():
                total[tup] = total.get(tup, Fraction(0)) + part.weight * w
        R.require(total == {t: w for t, w in cells.items() if w > 0}, "parts do not recompose P")
        R.require(rep.all_ok and len(rep.parts) == len(dec.parts), "guarantees failed")
        a = min(cells.get((x, x), Fraction(0)) for x in range(m))
        for part, row in zip(dec.parts, rep.parts):
            R.require(row.support_alpha >= a**4, "part alpha below alpha^4")
            if part.kind == "cycle":
                part_cells = dict(part.dist.support())
                R.close(row.part_rho, R.rho_ref(part_cells, m, 2), "part rho", abs_tol=1e-9)
                R.require(row.part_rho <= 1 - 3 * float(a) ** 5 + 1e-12, "part rho above ceiling")

    return Job("decomposition", call, check)


def rho_job(rng: random.Random, m: int, steps: int) -> Job:
    cells = float_cells(rng, m, steps)
    dist = make_dist(cells, m, steps, decimal=True)

    def check(job):
        R.close(job.result, R.rho_ref(cells, m, steps), "rho", abs_tol=1e-9)

    return Job("rho", lambda: C.rho(dist.lib), check)


def float_table(rng: random.Random, m: int, n: int) -> list:
    return [rng.random() for _ in range(m**n)]


def noise_job(rng: random.Random, m: int, n: int) -> Job:
    cells = float_cells(rng, m, 2)
    pi_lib = C.marginal(make_dist(cells, m, 2, decimal=True).lib, 1)
    values = float_table(rng, m, n)
    f = C.make_table_function(n, alphabet(m), values)
    r = rng.uniform(0.1, 0.9)

    def check(job):
        want = R.noise(R.table_tensor(values, m, n), R.marginal(cells, m, 0), r)
        got = R.table_tensor(job.result.payload["values"], m, n)
        R.require(np.allclose(got, want, rtol=0, atol=1e-10), "noise operator table differs")

    return Job("noise_operator", lambda: C.noise_operator(f, r, pi_lib), check)


def analyze_job(rng: random.Random, m: int, n: int) -> Job:
    cells = float_cells(rng, m, 2)
    pi_lib = C.marginal(make_dist(cells, m, 2, decimal=True).lib, 1)
    values = float_table(rng, m, n)
    f = C.make_table_function(n, alphabet(m), values)

    def check(job):
        coeffs = job.result.coeffs
        t = R.table_tensor(values, m, n)
        pi = R.marginal(cells, m, 0)
        R.close(sum(c * c for c in coeffs.values()), R.mean(t * t, pi), "Parseval total")
        R.close(coeffs.get((0,) * n, 0.0), R.mean(t, pi), "constant coefficient")

    return Job("analyze", lambda: C.analyze(f, C.build_basis(pi_lib)), check)


def rhc_job(rng: random.Random, samples: int | None = None) -> Job:
    r = rng.uniform(0.2, 0.9)
    sign = rng.choice((1, -1))
    samples = samples or 100_000
    seed = rng.randrange(2**32)
    cov = [[1.0, r], [r, 1.0]]
    forms = (C.ThresholdForm(sign, 0.0), C.ThresholdForm(sign, 0.0))

    def check(job):
        rep = job.result
        R.require(rep.holds, "reverse hypercontractivity bound failed")
        R.close(rep.quadrature_value, R.orthant(r), "bivariate quadrature", rel=0.0, abs_tol=1e-5)
        R.within_sigmas(rep.product_estimate, rep.product_stderr, rep.quadrature_value,
                        "Monte Carlo product probability")

    return Job("gaussian_rhc", lambda: C.gaussian_rhc_check(cov, forms, samples, seed), check)


def hyper_job(rng: random.Random, n: int, p: int, samples: int = 50_000) -> Job:
    sigmas = [s for s in np.ndindex(*(p + 1,) * n)]
    chosen = rng.sample(sigmas, min(len(sigmas), rng.randint(3, 6)))
    coeffs = {tuple(int(x) for x in s): rng.gauss(0.0, 1.0) for s in chosen}
    poly = C.MultilinearPolynomial.from_coeffs(n, p, coeffs)
    a = rng.uniform(0.2, 1.0)
    seed = rng.randrange(2**32)

    def check(job):
        rep = job.result
        R.require(rep.noise_holds and rep.degree_holds, "hypercontractive bound failed")
        R.close(rep.noise_rhs, math.sqrt(sum(c * c for c in coeffs.values())), "L2 norm")
        deg = max(sum(1 for x in s if x) for s, c in coeffs.items() if c != 0)
        R.require(rep.degree == deg, "degree mismatch")
        R.require(rep.method == ("mc" if n * p > 2 else "quadrature"), "wrong method")

    return Job(
        "hypercontractivity",
        lambda: C.hypercontractivity_check(poly, C.gaussian_ensemble(n, p), a,
                                           samples=samples, seed=seed),
        check,
    )


def gap_job(rng: random.Random, samples: int = 50_000) -> Job:
    m, n = 2, 3
    cells = float_cells(rng, m, 2)
    dist = make_dist(cells, m, 2, decimal=True)
    fns = [C.make_table_function(n, alphabet(m), float_table(rng, m, n)) for _ in range(2)]
    lam = rng.uniform(0.05, 0.3)
    seed = rng.randrange(2**32)

    def call():
        polys = tuple(
            C.poly_from_function(f, C.build_basis(C.marginal(dist.lib, j)))
            for j, f in enumerate(fns, 1)
        )
        return polys, C.invariance_gap(polys, dist.lib, lam, samples=samples, seed=seed)

    def check(job):
        polys, rep = job.result
        R.require(rep.holds, "invariance gap above its envelope")
        R.require(0.0 <= rep.discrete_value <= 1.0 and 0.0 <= rep.gaussian_estimate <= 1.0,
                  "mollified product outside [0, 1]")
        R.close(rep.gap, abs(rep.discrete_value - rep.gaussian_estimate), "gap", abs_tol=1e-15)
        tau = max(
            sum(c * c for q in polys for s, c in q.terms if s[i]) for i in range(n)
        )
        R.close(rep.tau, tau, "max total influence")

    return Job("invariance_gap", call, check)


TABLE_JOBS = {
    "density": density_job,
    "influence": influence_job,
    "max_gain": max_gain_job,
    "markov": markov_job,
    "enumerate": enumerate_job,
}

WORKLOADS = {"hit_dp": HitDP, "reduce_tables": ReduceTables, "spectral_float": SpectralFloat}
