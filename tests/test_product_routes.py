"""Every route to a product of step functions against a brute-force oracle.

The enumeration engine of `multi_set_expectation`, the Markov kernel
application and the partial contractions behind the restriction searches
all run on the one per-axis kernel `_util.contract_axes`; the joint-count dp
is the second route for window and residue functions, with any anchors and
ignored coordinates.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import helpers
import oracles
from corrhit._util import mixed_radix_index
from corrhit.dist_core import StepDistribution, is_markov_generated
from corrhit.fourier import (
    Restriction,
    _contract,
    make_anchored_symmetric,
    make_junta,
    make_mod_linear,
    make_table_function,
    restrict,
)
from corrhit.hitting import _apply_kernel_tensor, markov_same_set_check, multi_set_expectation

KINDS = ("table", "table", "junta", "mod_linear", "window")
DP_KINDS = ("mod_linear", "window")


def _float_twin(p):
    return StepDistribution(p.alphabet, p.steps, tuple(float(w) for w in p.weights), False)


def _cells(p):
    return dict(zip(p.tuples(), p.weights))


def _table_oracle(values, m):
    return lambda x: oracles.table_value(values, m, x)


@st.composite
def step_function(draw, n, alphabet, kinds):
    """One step function and its corrhit-free oracle."""
    m = len(alphabet)
    kind = draw(st.sampled_from(kinds))
    if kind == "table":
        values = [Fraction(v, 4) for v in draw(st.lists(st.integers(0, 4), min_size=m**n, max_size=m**n))]
        return make_table_function(n, alphabet, values), _table_oracle(values, m)
    if kind == "junta":
        coord, sym = draw(st.integers(1, n)), draw(st.integers(0, m - 1))
        return (
            make_junta(n, alphabet, [(coord, alphabet[sym])]),
            lambda x: Fraction(int(x[coord - 1] == sym)),
        )
    if kind == "mod_linear":
        q = draw(st.integers(2, 3))
        coeffs = draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n))
        smap = draw(st.lists(st.integers(0, q - 1), min_size=m, max_size=m))
        residue = draw(st.integers(0, q - 1))
        return (
            make_mod_linear(n, alphabet, q, coeffs, residue, smap),
            lambda x: Fraction(int(sum(c * smap[s] for c, s in zip(coeffs, x)) % q == residue)),
        )
    # a count window on one symbol, anchored at any coordinate or not, then
    # restricted at random coordinates, which it ignores from then on
    sym = draw(st.integers(0, m - 1))
    lo = draw(st.integers(0, n))
    hi = draw(st.integers(lo, n))
    anchor = (draw(st.integers(1, n)), draw(st.integers(0, m - 1))) if draw(st.booleans()) else None
    fixed = draw(st.dictionaries(st.integers(1, n), st.integers(0, m - 1), max_size=n))

    def window(x):
        x = [fixed.get(c, s) for c, s in enumerate(x, start=1)]
        if anchor is not None and x[anchor[0] - 1] != anchor[1]:
            return Fraction(0)
        return Fraction(int(lo <= x.count(sym) <= hi))

    f = make_anchored_symmetric(n, alphabet, {sym: (lo, hi)}, anchor=anchor)
    return restrict(f, Restriction.from_dict(n, fixed)), window


@st.composite
def product_instances(draw, kinds=KINDS):
    """(p, n, fns, oracle fns): zero-weight tuples, and a first step whose
    support may be narrower than the alphabet."""
    m = draw(st.integers(2, 4))
    ell = draw(st.integers(2, 3))
    tuples = list(itertools.product(range(m), repeat=ell))
    first = draw(st.sets(st.integers(0, m - 1), min_size=1))
    weights = draw(st.lists(st.integers(0, 3), min_size=len(tuples), max_size=len(tuples)))
    cells = {t: Fraction(w) for t, w in zip(tuples, weights) if w and t[0] in first}
    assume(cells)
    p = helpers.dist_from_cells(cells, m, ell)
    n = draw(st.integers(1, 4))
    while n > 1 and len(p.support()) ** n > 1500:
        n -= 1
    pairs = [draw(step_function(n, p.alphabet.symbols, kinds)) for _ in range(ell)]
    return p, n, tuple(f for f, _ in pairs), [o for _, o in pairs]


def _check_against_brute(p, n, fns, oracle_fns, engines):
    brute = oracles.multi_set_expectation_brute(_cells(p), p.steps, n, oracle_fns)
    twin = _float_twin(p)
    for engine in engines:
        ours = multi_set_expectation(p, n, fns, engine=engine)
        assert isinstance(ours, Fraction)
        assert ours == brute
        approx = multi_set_expectation(twin, n, fns, engine=engine)
        assert isinstance(approx, float)
        assert approx == pytest.approx(float(brute), rel=1e-12, abs=1e-300)


@given(product_instances())
@settings(max_examples=150, deadline=None)
def test_enumeration_matches_brute_oracle(instance):
    _check_against_brute(*instance, engines=("enumerate",))


@given(product_instances(kinds=DP_KINDS))
@settings(max_examples=80, deadline=None)
def test_dp_equals_enumeration_on_window_and_residue_functions(instance):
    _check_against_brute(*instance, engines=("dp", "enumerate"))


@given(product_instances(kinds=("table",)))
@settings(max_examples=40, deadline=None)
def test_enumeration_float_tables_agree_and_return_floats(instance):
    p, n, fns, oracle_fns = instance
    brute = oracles.multi_set_expectation_brute(_cells(p), p.steps, n, oracle_fns)
    floats = tuple(
        make_table_function(n, p.alphabet, [float(v) for v in f.payload["values"]]) for f in fns
    )
    for q in (p, _float_twin(p)):
        approx = multi_set_expectation(q, n, floats, engine="enumerate")
        assert isinstance(approx, float)
        assert approx == pytest.approx(float(brute), rel=1e-12, abs=1e-300)


@given(st.randoms(use_true_random=False), st.integers(2, 3), st.integers(2, 3), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_markov_kernel_and_reduced_function_match_brute(rnd, m, steps, n):
    p = helpers.random_markov_dist(rnd, m, steps)
    values = helpers.random_unit_table(rnd, n, m)
    f = make_table_function(n, p.alphabet, values)
    _, kernels = is_markov_generated(p)
    rows = kernels[-1]
    h_brute = oracles.apply_kernel_brute(rows, values, m, n)
    scale, h = _apply_kernel_tensor(rows, f, True)
    assert [Fraction(v, scale) for v in h] == h_brute
    g_brute = [fv * hv for fv, hv in zip(values, h_brute)]

    rep = markov_same_set_check(p, n, f)
    cells = _cells(p)
    prefix: dict = {}
    for tup, w in cells.items():
        prefix[tup[:-1]] = prefix.get(tup[:-1], Fraction(0)) + w
    fn, gn = _table_oracle(values, m), _table_oracle(g_brute, m)
    assert rep.lhs == oracles.multi_set_expectation_brute(cells, steps, n, [fn] * steps)
    assert rep.rhs == oracles.multi_set_expectation_brute(
        prefix, steps - 1, n, [fn] * (steps - 2) + [gn]
    )
    assert rep.equal and rep.ell == steps
    assert rep.pointwise_ok == all(g <= v for g, v in zip(g_brute, values))

    twin = _float_twin(p)
    _, float_kernels = is_markov_generated(twin)
    scale, h = _apply_kernel_tensor(float_kernels[-1], f, False)
    assert scale == 1
    assert h == pytest.approx([float(v) for v in h_brute], rel=1e-12, abs=1e-15)
    approx = markov_same_set_check(twin, n, f)
    assert isinstance(approx.lhs, float) and approx.equal
    assert approx.lhs == pytest.approx(float(rep.lhs), rel=1e-12)


@given(
    st.integers(2, 4).flatmap(
        lambda m: st.tuples(
            st.just(m),
            st.integers(1, 3 if m < 4 else 2).flatmap(
                lambda n: st.tuples(
                    st.just(n),
                    st.lists(st.integers(0, 6), min_size=m**n, max_size=m**n),
                )
            ),
            st.lists(st.integers(0, 3), min_size=m, max_size=m).filter(any),
        )
    )
)
@settings(max_examples=60, deadline=None)
def test_partial_contraction_equals_restricted_expectations(case):
    m, (n, raw), raw_w = case
    values = [Fraction(v, 6) for v in raw]
    probs = [Fraction(w, sum(raw_w)) for w in raw_w]
    for size in range(n + 1):
        for keep in itertools.combinations(range(1, n + 1), size):
            kept = _contract(values, probs, n, keep)
            assert len(kept) == m**size
            for syms in itertools.product(range(m), repeat=size):
                restricted = oracles.table_restrict(values, m, n, dict(zip(keep, syms)))
                want, _ = oracles.table_moments_enumerate(restricted, m, n, probs, True)
                assert kept[mixed_radix_index(syms, m)] == want
