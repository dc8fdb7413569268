"""Every route to a product of step functions against a brute-force oracle.

Exact sums under a product measure (expectations, influences, the partial
contractions behind the restriction searches) run as one dot against the
product weights (`fourier._contract`); float ones, the enumeration engine of
`multi_set_expectation` and the Markov kernel application run on the
per-axis kernel `_util.contract_axes`.  The joint-count dp is the second
route for window and residue functions, with any anchors and ignored
coordinates.
"""

from __future__ import annotations

import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import helpers
import oracles
from corrhit._util import contract_axes, mixed_radix_index
from corrhit.dist_core import StepDistribution, is_markov_generated
from corrhit.fourier import (
    _BLOCK,
    Restriction,
    _contract,
    make_anchored_symmetric,
    make_junta,
    make_mod_linear,
    make_table_function,
    restrict,
)
from corrhit.hitting import (
    _apply_kernel_tensor,
    _EnumerationPlan,
    _MarkovPlan,
    markov_same_set_check,
    multi_set_expectation,
)

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
    scale, h = _apply_kernel_tensor(_MarkovPlan.of(p).modes[True], f, True)
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
    scale, h = _apply_kernel_tensor(_MarkovPlan.of(twin).modes[False], f, False)
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


# ---------------------------------------------------------------------------
# the product-measure kernel


def _axis_by_axis(t, weights, n, keep=()):
    """The per-axis route of `contract_axes`: a pass with the weight row per
    summed axis, an identity pass per run of consecutive kept axes."""
    m = len(weights)
    mats: list = []
    for c in range(1, n + 1):
        if c not in keep:
            mats.append([weights])
        elif mats and isinstance(mats[-1], int):
            mats[-1] *= m
        else:
            mats.append(m)
    return contract_axes(t, mats)


def _bits(xs):
    return [x.hex() for x in xs]


@pytest.mark.parametrize("m, n", [(m, n) for m in (2, 3, 4) for n in range(1, 9)])
def test_contract_equals_brute_sums_and_the_per_axis_route(m, n):
    """Exact sums are equal ints on both routes and against the oracle, for
    every kept set of size <= 2; float sums equal the per-axis route bit for
    bit.  Weights include zeros; 3^8, 4^7 and 4^8 cross the `_BLOCK` of the
    dot's product weights."""
    rng = random.Random(f"contract:{m}:{n}")
    values = [rng.randint(-5, 40) for _ in range(m**n)]
    weights = [rng.randint(0, 9) for _ in range(m)]
    weights[rng.randrange(m)] = 0
    floats = [rng.randint(0, 999) / 1000 for _ in range(m**n)]
    float_weights = [w / 17 for w in weights]
    for size in range(min(n, 2) + 1):
        for keep in itertools.combinations(range(1, n + 1), size):
            ours = _contract(values, weights, n, keep)
            assert all(type(v) is int for v in ours)
            assert ours == oracles.product_measure_sums(values, m, n, weights, keep)
            assert ours == _axis_by_axis(values, weights, n, keep)
            got = _contract(floats, float_weights, n, keep)
            assert _bits(got) == _bits(_axis_by_axis(floats, float_weights, n, keep))


def test_contract_allocates_no_more_than_the_per_axis_route():
    """On a 3^9 table the dot, blocked at `_BLOCK` entries, allocates less at
    its peak than the per-axis passes do."""
    m, n = 3, 9
    assert m**n > _BLOCK
    rng = random.Random("contract-memory")
    values = [rng.randint(0, 10**6) for _ in range(m**n)]
    weights = [rng.randint(300, 900) for _ in range(m)]
    peaks = {}
    for name, route in (("dot", _contract), ("per_axis", _axis_by_axis)):
        tracemalloc.start()
        try:
            for keep in ((), (5,)):
                route(values, weights, n, keep)
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert _contract(values, weights, n) == _axis_by_axis(values, weights, n)
    assert peaks["dot"] <= peaks["per_axis"]


# ---------------------------------------------------------------------------
# the enumeration plan


def _enumerate_per_axis(p, n, fns, exact):
    """The enumeration route with every lift applied and the last sum as a
    contraction: what `_multi_enumerate` computes, without its plan, its
    identity-lift skip or its final dot (n small, so no walk)."""
    m, ell = len(p.alphabet), p.steps
    support = p.support()
    weights = [w if exact else float(w) for _, w in support]
    prefixes = [sorted({tup[:k] for tup, _ in support}) for k in range(ell)]
    rank = {q: r for r, q in enumerate(prefixes[-1])}
    last = [[0] * m for _ in prefixes[-1]]
    for (tup, _), w in zip(support, weights):
        last[rank[tup[:-1]]][tup[-1]] = w
    g = contract_axes(list(fns[-1].payload["values"]), [last] * n)
    for k in range(ell - 1, 0, -1):
        lift = [[int(q[-1] == x) for x in range(m)] for q in prefixes[k]]
        up = [[int(q[:-1] == r) for q in prefixes[k]] for r in prefixes[k - 1]]
        f_k = contract_axes(list(fns[k - 1].payload["values"]), [lift] * n)
        g = contract_axes([a * b for a, b in zip(g, f_k)], [up] * n)
    return g[0]


def _plan_cases():
    """(p, which lifts are the identity): full support; a first step
    narrower than the alphabet; 3-step distributions whose second lift is
    not the identity, or is (the second step repeats the first)."""
    rng = random.Random("enumeration-plan")
    full = helpers.random_dist(rng, 3, 2, full_support=True)
    narrow = helpers.dist_from_cells(
        {(a, b): Fraction(1 + (a + 2 * b) % 3) for a in range(2) for b in range(3)}, 3, 2
    )
    three_steps = helpers.random_dist(rng, 2, 3, full_support=True)
    sticky = helpers.dist_from_cells(
        {(a, a, b): Fraction(1 + (a * b) % 4) for a in range(3) for b in range(3)}, 3, 3
    )
    return [
        (full, [True]), (narrow, [False]), (three_steps, [True, False]),
        (helpers.ap3_dist(), [True, False]), (sticky, [True, True]),
    ]


@pytest.mark.parametrize("case", range(5))
def test_enumeration_plan_is_reused_and_never_mixes_modes(case):
    p, identity = _plan_cases()[case]
    m, n = len(p.alphabet), 3
    rng = random.Random(f"plan:{case}")
    exact_fns = tuple(
        make_table_function(n, p.alphabet, helpers.random_unit_table(rng, n, m))
        for _ in range(p.steps)
    )
    float_fns = tuple(
        make_table_function(n, p.alphabet, [float(v) for v in f.payload["values"]])
        for f in exact_fns
    )

    def fresh():
        return StepDistribution(p.alphabet, p.steps, p.weights, p.exact)

    want = _enumerate_per_axis(p, n, exact_fns, True)
    want_float = _enumerate_per_axis(p, n, float_fns, False)
    # exact first, then float on the same plan; and float first on a fresh one
    assert multi_set_expectation(p, n, exact_fns, engine="enumerate") == want
    assert multi_set_expectation(p, n, float_fns, engine="enumerate").hex() == want_float.hex()
    q = fresh()
    assert multi_set_expectation(q, n, float_fns, engine="enumerate").hex() == want_float.hex()
    assert multi_set_expectation(q, n, exact_fns, engine="enumerate") == want
    # reused plans give what a fresh distribution gives, on other functions too
    others = tuple(restrict(f, Restriction.from_dict(n, {2: 0})) for f in exact_fns)
    assert multi_set_expectation(p, n, others, engine="enumerate") == multi_set_expectation(
        fresh(), n, others, engine="enumerate"
    )
    twin = _float_twin(p)
    assert multi_set_expectation(twin, n, float_fns, engine="enumerate").hex() == want_float.hex()
    # the plan is the one built on the first call, and skips exactly the identity lifts
    plan = _EnumerationPlan.of(p)
    assert plan is _EnumerationPlan.of(p) and plan is not _EnumerationPlan.of(fresh())
    assert [lift is None for lift in plan.lift] == identity
    assert set(plan.modes) == {True, False}
    assert set(_EnumerationPlan.of(twin).modes) == {False}
