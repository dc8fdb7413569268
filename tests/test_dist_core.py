"""Distribution parsing, quantities, kernels, and correlation routes."""

from __future__ import annotations

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import oracles
from corrhit._util import format_number
from corrhit.dist_core import (
    Alphabet,
    DistributionFormatError,
    MarginalDistribution,
    StepDistribution,
    alpha,
    beta,
    check_edge_variance,
    double_sample_kernel,
    equal_marginals,
    format_distribution,
    is_markov_generated,
    kernel_second_eigenvalue,
    marginal,
    maximal_correlation,
    parse_distribution,
    rho,
)

# ---------------------------------------------------------------------------
# parsing and serialization


def test_parse_basic_fields():
    p = helpers.basic_dist()
    assert p.alphabet.symbols == ("0", "1", "2")
    assert p.steps == 2
    assert p.exact
    assert p.weight((0, 0)) == Fraction(1, 6)
    assert p.weight((1, 0)) == 0


def test_parse_accepts_comments_and_blank_lines():
    text = "# header\n\nalphabet a b\nsteps 2\nentry a a 1/2  # trailing\nentry b b 1/2\n"
    p = parse_distribution(text)
    assert p.weight((0, 0)) == Fraction(1, 2)


def test_parse_rejects_duplicate_entry():
    text = helpers.SKEW_TEXT + "entry 0 0 0\n"
    with pytest.raises(DistributionFormatError):
        parse_distribution(text)


def test_parse_rejects_bad_total():
    text = "alphabet 0 1\nsteps 2\nentry 0 0 1/2\nentry 1 1 1/3\n"
    with pytest.raises(DistributionFormatError):
        parse_distribution(text)


def test_parse_rejects_unknown_symbol():
    text = "alphabet 0 1\nsteps 2\nentry 0 2 1\n"
    with pytest.raises(DistributionFormatError):
        parse_distribution(text)


def test_parse_rejects_negative_weight():
    text = "alphabet 0 1\nsteps 2\nentry 0 0 3/2\nentry 1 1 -1/2\n"
    with pytest.raises(DistributionFormatError):
        parse_distribution(text)


def test_parse_rejects_zero_denominator():
    text = "alphabet 0 1\nsteps 2\nentry 0 0 1/0\nentry 1 1 1/2\n"
    with pytest.raises(DistributionFormatError, match="zero denominator"):
        parse_distribution(text)


@pytest.mark.parametrize("value", ["\u00b2", "1" * 5000, "0", "1_0", "+2", "2 3", ""],
                         ids=["superscript-two", "5000-digits", "zero", "underscore",
                              "plus-sign", "two-numbers", "none"])
def test_parse_rejects_a_steps_value_that_is_not_one_positive_integer(value):
    with pytest.raises(DistributionFormatError, match="line 2: steps needs one positive integer"):
        parse_distribution(f"alphabet 0 1\nsteps {value}\nentry 0 1\n")


@pytest.mark.parametrize("text, message", [
    ("alphabet 0 1\nsteps 40\nentry " + "0 " * 40 + "1\n", "2 symbols over 40 steps"),
    ("steps 100000000000\nalphabet 0 1 2\n", "3 symbols over 100000000000 steps"),
    ("alphabet 0 1\nsteps 25\n", "2 symbols over 25 steps"),
    ("alphabet 0 1 2\nsteps 16\n", "3 symbols over 16 steps"),
], ids=["steps-40", "steps-1e11", "two-to-the-25", "three-to-the-16"])
def test_parse_refuses_more_than_the_table_budget_of_weights(text, message):
    # m^steps is compared with 2^24 before any weight list is built, and the
    # bit lengths before the power, so a huge steps returns at once
    tracemalloc.start()
    try:
        with pytest.raises(DistributionFormatError, match=f"{message} make more than 16777216"):
            parse_distribution(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16


def test_decimal_weights_force_float_mode():
    text = "alphabet 0 1\nsteps 2\nentry 0 0 0.5\nentry 1 1 0.5\n"
    p = parse_distribution(text)
    assert not p.exact
    assert p.weight((0, 0)) == pytest.approx(0.5)


def test_format_parse_roundtrip_is_exact():
    for p in (helpers.basic_dist(), helpers.skew_dist(), helpers.ap3_dist()):
        q = parse_distribution(format_distribution(p))
        assert q.alphabet == p.alphabet
        assert q.steps == p.steps
        assert q.weights == p.weights


@pytest.mark.parametrize("exact", [True, False])
def test_from_cells_equals_parsing_the_same_cells(exact):
    """`StepDistribution.from_cells` lays out the weights, the exact flag and
    the name exactly as parsing a file of the same entries does."""
    rng = random.Random(11)
    for k in range(40):
        m, steps = rng.randint(1, 4), rng.randint(1, 3)
        alphabet = Alphabet(tuple(f"s{a}" for a in range(m)))
        tuples = sorted({tuple(rng.randrange(m) for _ in range(steps)) for _ in range(5)})
        raw = [rng.randint(0, 6) for _ in tuples]
        raw[0] += 1
        cells = {
            tup: Fraction(w, sum(raw)) if exact else w / sum(raw)
            for tup, w in zip(tuples, raw)
        }
        if not exact and abs(sum(cells.values()) - 1) > 1e-12:
            continue
        lines = [f"alphabet {' '.join(alphabet.symbols)}", f"steps {steps}"] + [
            f"entry {' '.join(alphabet.symbols[a] for a in tup)} {format_number(w)}"
            for tup, w in cells.items()
        ]
        name = f"cells-{k}" if k % 2 else None
        want = parse_distribution("\n".join(lines) + "\n", name=name)
        got = StepDistribution.from_cells(alphabet, steps, cells, name=name)
        assert got == want and got.name == want.name
        assert got.exact is exact
        assert list(map(type, got.weights)) == list(map(type, want.weights))


@st.composite
def rational_dists(draw, max_m: int = 4, max_steps: int = 3):
    m = draw(st.integers(2, max_m))
    steps = draw(st.integers(2, max_steps))
    raw = draw(
        st.lists(st.integers(0, 4), min_size=m**steps, max_size=m**steps).filter(
            lambda xs: sum(xs) > 0
        )
    )
    total = sum(raw)
    alphabet = Alphabet(tuple(str(i) for i in range(m)))
    weights = tuple(Fraction(x, total) for x in raw)
    return StepDistribution(alphabet, steps, weights, exact=True)


@given(rational_dists())
@settings(max_examples=60, deadline=None)
def test_roundtrip_property(p):
    q = parse_distribution(format_distribution(p))
    assert q.weights == p.weights


def test_non_finite_float_weights_are_rejected():
    alphabet = Alphabet(("0", "1"))
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(DistributionFormatError):
            StepDistribution(alphabet, 2, (0.5, bad, 0.0, 0.5), False)
        with pytest.raises(DistributionFormatError):
            StepDistribution(alphabet, 1, (bad, 0.5), False)


def test_support_returns_a_fresh_list():
    p = helpers.basic_dist()
    first = p.support()
    want = list(first)
    first.append(((0, 0), Fraction(1)))
    first[0] = ((2, 2), Fraction(0))
    assert p.support() == want
    assert p.support() is not p.support()


# ---------------------------------------------------------------------------
# scalar quantities


def test_alpha_beta_basic():
    p = helpers.basic_dist()
    assert alpha(p) == Fraction(1, 6)
    assert beta(p) == 0


def test_alpha_beta_skew():
    p = helpers.skew_dist()
    assert alpha(p) == Fraction(1, 3)
    assert beta(p) == 0  # (1, 0) has product-support coordinates but no mass


def test_marginals_and_equality():
    basic = helpers.basic_dist()
    assert marginal(basic, 1).probs == (Fraction(1, 3),) * 3
    assert marginal(basic, 2).probs == (Fraction(1, 3),) * 3
    assert equal_marginals(basic)

    skew = helpers.skew_dist()
    assert marginal(skew, 1).probs == (Fraction(2, 3), Fraction(1, 3))
    assert marginal(skew, 2).probs == (Fraction(1, 3), Fraction(2, 3))
    assert not equal_marginals(skew)

    # float distributions compare their marginals as floats, and agree with
    # their exact twins; the weights are dyadic, so the float sums are exact
    bits = Alphabet(("0", "1"))
    for weights, equal in [
        ((0.375, 0.125, 0.125, 0.375), True),
        ((0.25, 0.25, 0.5, 0.0), False),
    ]:
        fp = StepDistribution(bits, 2, weights, False)
        exact = StepDistribution(bits, 2, tuple(map(Fraction, weights)), True)
        assert equal_marginals(fp) is equal_marginals(exact) is equal


def test_marginal_views_hold_the_probabilities():
    """probs[t] == ints[t] / scale, exactly or as the same float, for step
    marginals (scaled by the distribution's lcm) and built ones (own lcm)."""
    rng = random.Random(4242)
    for _ in range(60):
        p = helpers.random_dist(rng, rng.choice((2, 3, 4)), rng.choice((1, 2, 3)))
        fp = StepDistribution(p.alphabet, p.steps, tuple(float(w) for w in p.weights), False)
        for j in range(1, p.steps + 1):
            pi, fpi = marginal(p, j), marginal(fp, j)
            assert pi.view.exact and not fpi.view.exact and fpi.view.scale == 1
            assert [Fraction(v, pi.view.scale) for v in pi.view.ints] == list(pi.probs)
            assert list(fpi.view.ints) == list(fpi.probs)
            built = MarginalDistribution(pi.alphabet, pi.probs, True)
            assert built.view.scale == math.lcm(*(q.denominator for q in pi.probs))
            assert [Fraction(v, built.view.scale) for v in built.view.ints] == list(pi.probs)


def test_marginal_rejects_bad_step():
    with pytest.raises(ValueError):
        marginal(helpers.basic_dist(), 3)


# ---------------------------------------------------------------------------
# double-sample kernel


def test_basic_kernel_is_circulant_half_quarter_quarter():
    p = helpers.basic_dist()
    for j in (1, 2):
        k = double_sample_kernel(p, j)
        assert k.reversible
        assert k.stationary.probs == (Fraction(1, 3),) * 3
        for y in range(3):
            row = k.rows[y]
            assert row[y] == Fraction(1, 2)
            assert row[(y + 1) % 3] == Fraction(1, 4)
            assert row[(y + 2) % 3] == Fraction(1, 4)


def test_basic_kernel_matches_brute_force_oracle():
    p = helpers.basic_dist()
    k = double_sample_kernel(p, 1)
    cells, _, _ = oracles.three_cycle_dist()
    support, brute = oracles.double_sample_kernel_brute(cells, 2, 1)
    assert support == [0, 1, 2]
    for y in range(3):
        for z in range(3):
            assert k.rows[y][z] == brute[(y, z)]


def test_kernel_drops_unsupported_symbols():
    text = "alphabet 0 1 2\nsteps 2\nentry 0 0 1/2\nentry 1 2 1/2\n"
    p = parse_distribution(text)
    k = double_sample_kernel(p, 1)
    assert k.alphabet.symbols == ("0", "1")
    assert k.rows == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))


def _random_cells(rng: random.Random, m: int, steps: int, shape: str) -> dict:
    """Random exact cells; `shape` adds a zero-mass symbol or a one-symbol step."""
    zero = rng.randrange(m) if shape == "zero_symbol" else None
    const_step, const_sym = rng.randrange(steps), rng.randrange(m)
    while True:
        cells = {}
        for idx in range(m**steps):
            tup = tuple((idx // m**k) % m for k in range(steps))
            if zero is not None and zero in tup:
                continue
            if shape == "one_symbol" and tup[const_step] != const_sym:
                continue
            w = rng.choice((0, 1, 2, 3, 5, rng.randint(1, 97)))
            if w:
                cells[tup] = Fraction(w)
        if cells:
            total = sum(cells.values())
            return {tup: w / total for tup, w in cells.items()}


def _oracle_cases(seed: int):
    rng = random.Random(seed)
    for m in range(2, 6):
        for steps in (2, 3):
            for shape in ("plain", "zero_symbol", "one_symbol"):
                for _ in range(3):
                    yield _random_cells(rng, m, steps, shape), m, steps


def _make(cells: dict, m: int, steps: int, exact: bool) -> StepDistribution:
    zero = Fraction(0) if exact else 0.0
    weights = [zero] * (m**steps)
    for tup, w in cells.items():
        idx = sum(x * m**k for k, x in enumerate(tup))
        weights[idx] = w if exact else float(w)
    alphabet = Alphabet(tuple(str(i) for i in range(m)))
    return StepDistribution(alphabet, steps, tuple(weights), exact)


def test_kernel_rows_equal_brute_oracle_exactly():
    for cells, m, steps in _oracle_cases(7301):
        p = _make(cells, m, steps, exact=True)
        for j in range(1, steps + 1):
            k = double_sample_kernel(p, j)
            support, brute = oracles.double_sample_kernel_brute(cells, steps, j)
            assert k.alphabet.symbols == tuple(str(y) for y in support)
            assert k.rows == tuple(
                tuple(brute[(y, z)] for z in support) for y in support
            )
            assert all(isinstance(x, Fraction) for row in k.rows for x in row)
            pi = oracles.marginal(cells, steps, j)
            assert k.stationary.probs == tuple(pi[y] for y in support)


def test_rho_matches_brute_oracle_in_both_modes():
    # the oracle is the SVD route on the same exact values; both routes are
    # accurate to about 1e-15 here, including where rho is exactly 0
    for cells, m, steps in _oracle_cases(7302):
        want = oracles.rho_brute(cells, steps)
        assert rho(_make(cells, m, steps, exact=True)) == pytest.approx(want, abs=1e-12)
        q = _make(cells, m, steps, exact=False)
        float_cells = {tup: Fraction(float(w)) for tup, w in cells.items()}
        want = oracles.rho_brute(float_cells, steps)
        assert rho(q) == pytest.approx(want, abs=1e-12)


def test_float_kernel_matches_exact_kernel():
    for cells, m, steps in _oracle_cases(7303):
        p = _make(cells, m, steps, exact=True)
        q = _make(cells, m, steps, exact=False)
        for j in range(1, steps + 1):
            kp, kq = double_sample_kernel(p, j), double_sample_kernel(q, j)
            assert kq.alphabet == kp.alphabet and not kq.exact
            for rp, rq in zip(kp.rows, kq.rows):
                assert all(isinstance(x, float) for x in rq)
                assert rq == pytest.approx([float(x) for x in rp], abs=1e-15)


def test_lambda2_basic_is_one_quarter():
    p = helpers.basic_dist()
    lam2 = kernel_second_eigenvalue(double_sample_kernel(p, 1))
    assert lam2 == pytest.approx(0.25, abs=1e-12)


def test_lambda2_matches_brute_oracle_on_skew():
    p = helpers.skew_dist()
    lam2 = kernel_second_eigenvalue(double_sample_kernel(p, 1))
    cells, _, _ = oracles.skew_pair_dist()
    support, kern = oracles.double_sample_kernel_brute(cells, 2, 1)
    pi = oracles.marginal(cells, 2, 1)
    brute = oracles.kernel_lambda2(support, kern, pi)
    assert lam2 == pytest.approx(brute, abs=1e-10)


# ---------------------------------------------------------------------------
# correlation


def test_rho_golden_values():
    assert rho(helpers.basic_dist()) == pytest.approx(0.5, abs=1e-10)
    assert rho(helpers.skew_dist()) == pytest.approx(0.5, abs=1e-10)
    assert rho(helpers.ap3_dist()) == pytest.approx(1.0, abs=1e-10)


def test_rho_extremes():
    independent = parse_distribution(helpers.UNIFORM_BITS_TEXT)
    identity = parse_distribution(helpers.IDENTITY_BITS_TEXT)
    assert rho(independent) == pytest.approx(0.0, abs=1e-12)
    assert rho(identity) == pytest.approx(1.0, abs=1e-12)


def test_rho_single_step_is_zero():
    p = parse_distribution("alphabet 0 1\nsteps 1\nentry 0 1/2\nentry 1 1/2\n")
    assert rho(p) == 0.0


def test_maximal_correlation_rejects_overlapping_groups():
    p = helpers.ap3_dist()
    with pytest.raises(ValueError):
        maximal_correlation(p, [1, 2], [2, 3])


def test_maximal_correlation_matches_svd_oracle():
    cases = [
        (helpers.basic_dist(), oracles.three_cycle_dist()[0]),
        (helpers.skew_dist(), oracles.skew_pair_dist()[0]),
    ]
    for p, cells in cases:
        ours = maximal_correlation(p, [1], [2])
        brute = oracles.maximal_correlation_svd(cells, 2, [1], [2])
        assert ours == pytest.approx(brute, abs=1e-10)


def test_rho_routes_agree_on_random_instances():
    rng = random.Random(4021)
    for _ in range(40):
        p = helpers.random_dist(rng, m=rng.choice((2, 3, 4)), steps=rng.choice((2, 3)))
        r = rho(p)  # raises if the eigen and SVD routes disagree past 1e-8
        assert 0.0 <= r <= 1.0


@given(rational_dists(max_m=3, max_steps=2))
@settings(max_examples=40, deadline=None)
def test_rho_bounds_property(p):
    r = rho(p)
    assert 0.0 <= r <= 1.0


def test_rho_of_independent_product_is_zero():
    rng = random.Random(77)
    for _ in range(10):
        m = rng.choice((2, 3))
        a = [rng.randint(1, 4) for _ in range(m)]
        b = [rng.randint(1, 4) for _ in range(m)]
        ta, tb = sum(a), sum(b)
        cells = {
            (x, y): Fraction(a[x], ta) * Fraction(b[y], tb)
            for x in range(m)
            for y in range(m)
        }
        p = helpers.dist_from_cells(cells, m, 2)
        assert rho(p) <= 1e-8


# ---------------------------------------------------------------------------
# Markov structure


def test_markov_recognition():
    assert is_markov_generated(helpers.basic_dist())[0]
    ok, kernels = is_markov_generated(helpers.ap3_dist())
    assert not ok and kernels is None


def test_markov_kernels_reproduce_random_chains():
    rng = random.Random(913)
    for _ in range(10):
        p = helpers.random_markov_dist(rng, m=3, steps=3)
        ok, kernels = is_markov_generated(p)
        assert ok
        assert len(kernels) == 2
        # rebuild every support weight from pi_1 and the recovered kernels
        pi1 = marginal(p, 1).probs
        for tup, w in p.support():
            rebuilt = pi1[tup[0]]
            for j, (a, b) in enumerate(zip(tup, tup[1:])):
                rebuilt *= kernels[j][a][b]
            assert rebuilt == w


def test_two_steps_are_vacuously_markov():
    assert is_markov_generated(helpers.skew_dist())[0]


def _markov_agrees_with_brute(p):
    cells = dict(p.support())
    got = is_markov_generated(p)
    want = oracles.is_markov_generated_brute(cells, p.steps, len(p.alphabet))
    assert got == want
    return got[0]


def test_markov_check_matches_brute_on_chains_and_perturbations():
    rng = random.Random(4711)
    verdicts = []
    for m in (2, 3):
        for steps in (3, 4):
            for _ in range(3):
                chain = helpers.random_markov_dist(rng, m, steps)
                assert _markov_agrees_with_brute(chain)
                # moving mass between two support tuples breaks the chain
                cells = dict(chain.support())
                tups = sorted(cells)
                a, b = rng.sample(tups, 2)
                cells[a] += cells[b] / 2
                cells[b] /= 2
                verdicts.append(_markov_agrees_with_brute(helpers.dist_from_cells(cells, m, steps)))
    assert not all(verdicts)


def test_markov_check_skips_zero_mass_prefixes():
    # symbol 2 never starts and 0 -> 2 never happens, so the prefixes (2,),
    # (0, 2) and (2, x) carry no mass; the row of 2 at step 2 is zero-filled
    row = {0: (1, 2, 0), 1: (1, 1, 1), 2: (0, 1, 1)}
    start = (1, 3, 0)
    cells = {}
    for tup in itertools.product(range(3), repeat=3):
        w = Fraction(start[tup[0]])
        for x, y in zip(tup, tup[1:]):
            w *= Fraction(row[x][y], sum(row[x]))
        if w:
            cells[tup] = w
    p = helpers.dist_from_cells(cells, 3, 3)
    assert _markov_agrees_with_brute(p)
    _, kernels = is_markov_generated(p)
    assert kernels[0][2] == (Fraction(0),) * 3
    assert kernels[1][1] == (Fraction(1, 3),) * 3


def test_markov_check_on_three_step_non_markov_distributions():
    rng = random.Random(4712)
    seen_false = 0
    for m in (2, 3):
        for _ in range(6):
            p = helpers.random_dist(rng, m, 3)
            seen_false += not _markov_agrees_with_brute(p)
    assert seen_false >= 6
    assert not _markov_agrees_with_brute(helpers.ap3_dist())


def test_markov_check_uses_the_float_of_the_exact_difference():
    # the two step-3 laws after symbol 0 at step 2 differ by 10^-12 < tol
    eps = Fraction(1, 10**12)
    cells = {
        (0, 0, 0): Fraction(1, 4) * (Fraction(1, 2) + eps),
        (0, 0, 1): Fraction(1, 4) * (Fraction(1, 2) - eps),
        (1, 0, 0): Fraction(1, 8),
        (1, 0, 1): Fraction(1, 8),
        (1, 1, 1): Fraction(1, 2),
    }
    p = helpers.dist_from_cells(cells, 2, 3)
    assert _markov_agrees_with_brute(p)
    assert not is_markov_generated(p, tol=1e-13)[0]
    assert oracles.is_markov_generated_brute(dict(p.support()), 3, 2, tol=1e-13) == (False, None)


def test_markov_check_float_twin_agrees():
    rng = random.Random(4713)
    for m in (2, 3):
        chain = helpers.random_markov_dist(rng, m, 3)
        twin = StepDistribution(
            chain.alphabet, 3, tuple(float(w) for w in chain.weights), False
        )
        ok, kernels = is_markov_generated(twin)
        assert ok
        _, exact = is_markov_generated(chain)
        for got, want in zip(kernels, exact):
            for got_row, want_row in zip(got, want):
                assert all(isinstance(x, float) for x in got_row)
                assert got_row == pytest.approx([float(x) for x in want_row], rel=1e-12, abs=1e-15)


def test_markov_needs_two_steps():
    p = parse_distribution("alphabet 0 1\nsteps 1\nentry 0 1/2\nentry 1 1/2\n")
    with pytest.raises(ValueError):
        is_markov_generated(p)


# ---------------------------------------------------------------------------
# edge variance


def test_edge_variance_equality_case_on_basic():
    # indicator of one symbol under the (3, 1/2)-cycle meets the bound exactly
    p = helpers.basic_dist()
    rep = check_edge_variance(p, 1, [1, 0, 0])
    assert rep.lhs == Fraction(1, 3)
    assert rep.variance == Fraction(2, 9)
    assert rep.rho == pytest.approx(0.5, abs=1e-10)
    assert rep.rhs == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert rep.holds


def test_edge_variance_accepts_dict_functions():
    rep = check_edge_variance(helpers.basic_dist(), 2, {"0": 2, "1": 0, "2": 1})
    assert rep.holds


def test_edge_variance_holds_on_random_instances():
    rng = random.Random(5150)
    for _ in range(30):
        p = helpers.random_dist(rng, m=rng.choice((2, 3)), steps=2)
        for j in (1, 2):
            k = double_sample_kernel(p, j)
            vals = [rng.randint(0, 3) for _ in k.alphabet.symbols]
            rep = check_edge_variance(p, j, vals)
            assert rep.holds, (p.weights, j, vals)
        # cross-check one lhs against a direct sum
        k = double_sample_kernel(p, 1)
        vals = [rng.randint(0, 2) for _ in k.alphabet.symbols]
        rep = check_edge_variance(p, 1, vals)
        direct = sum(
            k.stationary.probs[y] * k.rows[y][z] * (vals[y] - vals[z]) ** 2
            for y in range(len(vals))
            for z in range(len(vals))
        )
        assert rep.lhs == direct


def test_lambda2_cycle_goldens():
    lam_3 = kernel_second_eigenvalue(
        double_sample_kernel(helpers.basic_dist(), 1)
    )
    assert lam_3 == pytest.approx(0.25, abs=1e-12)
    # the closed-form eigenvalue of the (4, 1/4)-cycle kernel
    formula = oracles.cycle_eigen_formula(4, 0.25)
    assert formula == pytest.approx(0.625, abs=1e-12)
    assert math.sqrt(formula) == pytest.approx(0.7905694150420949, abs=1e-12)


# ---------------------------------------------------------------------------
# the stored correlation


def test_rho_is_computed_once_and_leaves_equality_alone():
    rng = random.Random(2024)
    for _ in range(20):
        p = helpers.random_dist(rng, m=rng.choice((2, 3)), steps=rng.choice((2, 3)))
        twin = StepDistribution(p.alphabet, p.steps, p.weights, p.exact)
        assert "_rho" not in p.__dict__  # a fresh distribution carries none
        first = rho(p)
        assert rho(p) == first and p._rho == first
        assert rho(twin) == first
        assert p == twin and hash(p) == hash(twin)
        assert {p: 1}[twin] == 1
