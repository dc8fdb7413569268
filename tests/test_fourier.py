"""Function representations, exact expectations, and the orthogonal expansion."""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import oracles
from corrhit._util import scale_to_ints
from corrhit.dist_core import Alphabet, MarginalDistribution, marginal, parse_distribution
from corrhit.fourier import (
    BudgetExceeded,
    Restriction,
    _fibre,
    _map_table,
    _repeat_blocks,
    analyze,
    build_basis,
    evaluate,
    expectation,
    format_function,
    influence,
    is_resilient,
    make_anchored_symmetric,
    make_junta,
    make_mod_linear,
    make_table_function,
    max_operator,
    noise_operator,
    parse_function,
    projection_subset,
    restrict,
    synthesize,
    to_table,
    total_influence,
    variance,
)

TRIT = ("0", "1", "2")
BIT = ("0", "1")


def uniform_marginal(m: int):
    text = "alphabet " + " ".join(str(i) for i in range(m)) + "\nsteps 1\n"
    text += "".join(f"entry {i} 1/{m}\n" for i in range(m))
    return marginal(parse_distribution(text), 1)


def random_marginal(rng: random.Random, m: int):
    p = helpers.random_dist(rng, m=m, steps=2, full_support=True)
    return marginal(p, 1)


def kernel_marginal(rng: random.Random, m: int, with_zero: bool):
    """Random exact marginal; with_zero gives one symbol probability 0."""
    weights = [rng.randint(1, 9) for _ in range(m)]
    if with_zero:
        weights[rng.randrange(m)] = 0
    total = sum(weights)
    probs = tuple(Fraction(w, total) for w in weights)
    return MarginalDistribution(Alphabet(tuple(str(a) for a in range(m))), probs, True)


def kernel_instances(seed: int):
    """(m, n, pi, values) over m in {2, 3, 4}, n in 1..5, mixed denominators."""
    rng = random.Random(seed)
    for m in (2, 3, 4):
        for n in range(1, 6):
            for with_zero in (False, True):
                pi = kernel_marginal(rng, m, with_zero)
                values = []
                for _ in range(m**n):
                    d = rng.randint(1, 12)
                    values.append(Fraction(rng.randint(0, d), d))
                yield m, n, pi, values


# ---------------------------------------------------------------------------
# constructors and evaluation


def test_table_function_checks_range_and_size():
    with pytest.raises(ValueError):
        make_table_function(1, BIT, [Fraction(1), Fraction(3, 2)])
    with pytest.raises(ValueError):
        make_table_function(2, BIT, [0, 1])


def test_junta_semantics():
    f = make_junta(3, TRIT, [(1, "0"), (3, "2")])
    assert evaluate(f, (0, 1, 2)) == 1
    assert evaluate(f, (0, 1, 1)) == 0
    assert evaluate(f, ("0", "0", "2")) == 1


def test_junta_conflicting_constraints_collapse_to_zero():
    f = make_junta(2, BIT, [(1, 0), (1, 1)])
    assert f.zero
    assert evaluate(f, (0, 0)) == 0
    assert evaluate(f, (1, 1)) == 0


def test_anchored_window_semantics():
    # anchor x1 = "1", then at most one further "1" among all coordinates
    f = make_anchored_symmetric(3, BIT, {"1": (1, 2)}, anchor=(1, "1"))
    assert evaluate(f, (1, 0, 0)) == 1
    assert evaluate(f, (1, 1, 0)) == 1
    assert evaluate(f, (1, 1, 1)) == 0
    assert evaluate(f, (0, 1, 1)) == 0  # anchor violated
    # symbol indices outside the alphabet are refused at construction
    with pytest.raises(ValueError, match="outside the alphabet"):
        make_anchored_symmetric(3, BIT, {2: (0, 1)})
    with pytest.raises(ValueError, match="outside the alphabet"):
        make_anchored_symmetric(3, BIT, {1: (0, 1)}, anchor=(1, 2))


def test_constructors_refuse_unknown_symbols():
    calls = (
        lambda: make_anchored_symmetric(2, BIT, {"x": (0, 1)}),
        lambda: make_anchored_symmetric(2, BIT, {"1": (0, 1)}, anchor=(1, "x")),
        lambda: make_junta(2, BIT, [(1, 5)]),
        lambda: make_junta(2, BIT, [(1, "x")]),
        lambda: make_mod_linear(2, BIT, 2, (1, 1), 0, {"0": 0, "x": 1}),
        lambda: make_mod_linear(2, BIT, 2, (1, 1), 0, {"0": 0}),
    )
    for call in calls:
        with pytest.raises(ValueError):
            call()
    f = make_mod_linear(2, TRIT, 3, (1, 1), 0, {"2": 2, "0": 0, "1": 1})
    assert f.payload["symbol_map"] == (0, 1, 2)


def test_anchored_ignored_coordinates_do_not_count():
    f = make_anchored_symmetric(3, BIT, {"1": (0, 1)}, ignored=(2,))
    assert evaluate(f, (1, 1, 0)) == 1  # coordinate 2 is dummy
    assert evaluate(f, (1, 0, 1)) == 0


def test_mod_linear_semantics():
    f = make_mod_linear(2, TRIT, 3, (1, 1), 0, (0, 1, 2))
    for x in itertools.product(range(3), repeat=2):
        assert evaluate(f, x) == oracles.modlinear3(x)


def test_evaluate_rejects_bad_points():
    f = make_junta(2, BIT, [(1, 0)])
    with pytest.raises(ValueError):
        evaluate(f, (0,))
    with pytest.raises(ValueError):
        evaluate(f, (0, 5))


def test_evaluate_refuses_unknown_tokens():
    f = make_junta(2, BIT, [(1, "0")])
    with pytest.raises(ValueError, match="unknown symbol 'x'"):
        evaluate(f, ("x", "0"))


# ---------------------------------------------------------------------------
# restrictions


def test_restrict_table_matches_pointwise_substitution():
    rng = random.Random(31)
    f = make_table_function(3, TRIT, helpers.random_unit_table(rng, 3, 3))
    r = Restriction.from_dict(3, {2: 1})
    g = restrict(f, r)
    for x in itertools.product(range(3), repeat=3):
        assert evaluate(g, x) == evaluate(f, (x[0], 1, x[2]))
    # every restriction size 0..n, m in {2, 3, 4}
    for m, n, pi, values in kernel_instances(5155):
        f = make_table_function(n, pi.alphabet, values)
        for size in range(0, n + 1):
            fixed = {c: rng.randrange(m) for c in rng.sample(range(1, n + 1), size)}
            g = restrict(f, Restriction.from_dict(n, fixed))
            for x in itertools.product(range(m), repeat=n):
                y = tuple(fixed.get(c, x[c - 1]) for c in range(1, n + 1))
                assert evaluate(g, x) == evaluate(f, y)


def test_restrict_each_kind_agrees_with_table_route():
    rng = random.Random(32)
    fns = [
        make_junta(3, TRIT, [(1, 0), (2, 2)]),
        make_anchored_symmetric(3, TRIT, {"0": (1, 2)}, anchor=(2, "0")),
        make_mod_linear(3, TRIT, 3, (1, 2, 1), 1, (0, 1, 2)),
    ]
    for f in fns:
        for _ in range(5):
            fixed = {rng.randint(1, 3): rng.randint(0, 2)}
            r = Restriction.from_dict(3, fixed)
            direct = restrict(f, r)
            via_table = restrict(to_table(f), r)
            for x in itertools.product(range(3), repeat=3):
                assert evaluate(direct, x) == evaluate(via_table, x)


def test_restrict_rejects_symbols_outside_the_alphabet():
    fns = [
        make_table_function(2, BIT, [Fraction(0), Fraction(1), Fraction(1), Fraction(0)]),
        make_junta(2, BIT, [(1, "0")]),
        make_mod_linear(2, BIT, 2, (1, 1), 0, (0, 1)),
    ]
    for f in fns:
        for entries in ((2, None), (None, -1)):
            with pytest.raises(ValueError, match="outside the alphabet"):
                restrict(f, Restriction(entries))


def test_restriction_from_dict_rejects_coordinates_outside_1_to_n():
    # coordinate 0 used to fix coordinate n through a negative index, and
    # coordinate n + 1 used to raise IndexError
    for coord in (0, -1, 4, 7):
        with pytest.raises(ValueError, match="outside 1..3"):
            Restriction.from_dict(3, {coord: 1})
    assert Restriction.from_dict(3, {1: 0, 3: 1}).entries == (0, None, 1)


def test_restriction_from_dict_refuses_unknown_tokens():
    alphabet = make_junta(2, BIT, []).alphabet
    with pytest.raises(ValueError, match="unknown symbol 'x'"):
        Restriction.from_dict(2, {1: "x"}, alphabet)
    assert Restriction.from_dict(2, {2: "1"}, alphabet).entries == (None, 1)


def test_restrict_anchor_conflict_yields_zero():
    f = make_anchored_symmetric(2, BIT, {"1": (0, 2)}, anchor=(1, "1"))
    g = restrict(f, Restriction.from_dict(2, {1: 0}))
    assert g.zero


def assert_view_matches_values(f):
    """The table's integer view is what scale_to_ints makes of its values."""
    values = f.payload["values"]
    exact = all(isinstance(v, Fraction) for v in values)
    scale, ints = scale_to_ints(values, exact)
    assert f.view.exact == exact == f.is_exact()
    assert f.view.scale == scale
    assert list(f.view.ints) == ints


def test_derived_tables_carry_the_view_of_their_values():
    rng = random.Random(5160)
    for m, n, pi, values in kernel_instances(5161):
        # exact, float and int tables; restrictions and max-substitutions of
        # restrictions keep only some entries, so their lcm can shrink
        for vals in (values, [float(v) for v in values], [rng.randint(0, 1) for _ in values]):
            f = make_table_function(n, pi.alphabet, vals)
            assert_view_matches_values(f)
            for size in range(0, n + 1):
                fixed = {c: rng.randrange(m) for c in rng.sample(range(1, n + 1), size)}
                g = restrict(f, Restriction.from_dict(n, fixed))
                assert_view_matches_values(g)
                i = rng.randint(1, n)
                y, z = rng.randrange(m), rng.randrange(m)
                assert_view_matches_values(max_operator(g, i, y, z))
                assert_view_matches_values(max_operator(f, i, y, z))
            keep = rng.sample(range(1, n + 1), rng.randint(0, n))
            assert_view_matches_values(projection_subset(f, keep, pi))
            assert_view_matches_values(noise_operator(f, Fraction(1, 3), pi))
    for f in (
        make_junta(3, TRIT, [(1, 0), (2, 2)]),
        make_anchored_symmetric(3, TRIT, {"0": (1, 2)}, anchor=(2, "0")),
        make_mod_linear(3, TRIT, 3, (1, 2, 1), 1, (0, 1, 2)),
    ):
        assert f.view is None
        assert_view_matches_values(to_table(f))


def test_dropping_and_reinserting_an_axis_gives_restrict_and_max_operator():
    """The one fibre kernel against the oracles, for every coordinate i and
    every symbol pair (y, z), y = z included.  The table without axis i
    (`_fibre` through `_map_table`, as the influence loop builds it) carries
    the view of its values; putting axis i back as a dummy
    (`_repeat_blocks`) gives max_operator, and for y = z restrict to
    x_i = y."""
    rng = random.Random(5163)
    for m, n, pi, values in kernel_instances(5164):
        if m**n > 256:
            continue
        for vals in (values, [float(v) for v in values], [rng.randint(0, 1) for _ in values]):
            f = make_table_function(n, pi.alphabet, vals)
            for i in range(1, n + 1):
                s = m ** (i - 1)
                for y, z in itertools.product(range(m), repeat=2):
                    want = oracles.table_max_operator(vals, m, n, i, y, z)
                    if y == z:
                        assert want == oracles.table_restrict(vals, m, n, {i: y})
                        got = restrict(f, Restriction.from_dict(n, {i: y}))
                        assert list(got.payload["values"]) == want
                    assert list(max_operator(f, i, y, z).payload["values"]) == want
                    if n == 1:
                        # the loop's last live axis: dropped and kept as a dummy
                        back = _map_table(
                            f, 1, lambda t: _repeat_blocks(_fibre(t, m, s, y, z), m, s, 0, s)
                        )
                    else:
                        dropped = _map_table(f, n - 1, lambda t: _fibre(t, m, s, y, z))
                        assert len(dropped.payload["values"]) == m ** (n - 1)
                        assert_view_matches_values(dropped)
                        back = _map_table(dropped, n, lambda t: _repeat_blocks(t, m, s, 0, s))
                    assert list(back.payload["values"]) == want
                    assert_view_matches_values(back)


def test_restriction_lcm_shrinks_to_the_kept_entries():
    f = make_table_function(1, BIT, [Fraction(1, 2), Fraction(1, 3)])
    assert f.view.scale == 6
    g = restrict(f, Restriction.from_dict(1, {1: 0}))
    assert g.view == (True, 2, (1, 1))
    h = max_operator(f, 1, 0, 1)
    assert h.view == (True, 2, (1, 1))


# ---------------------------------------------------------------------------
# expectation and influence routes


def test_expectation_golden_dictator():
    pi = uniform_marginal(3)
    f = make_junta(1, TRIT, [(1, "0")])
    assert expectation(f, pi) == Fraction(1, 3)
    assert variance(f, pi) == Fraction(2, 9)
    assert influence(f, pi, i=1) == Fraction(2, 9)


def _random_count_function(rng: random.Random, n: int, m: int, alphabet):
    """A window or residue function, restricted at random coordinates half the
    time, and its corrhit-free oracle."""
    fixed = {}
    if rng.random() < 0.5:
        fixed = {c: rng.randrange(m) for c in rng.sample(range(1, n + 1), rng.randint(1, n))}
    if rng.random() < 0.5:
        # lo > 0 and empty windows (lo > hi) included
        windows = {s: (rng.randint(0, n), rng.randint(0, n)) for s in rng.sample(range(m), rng.randint(1, 2))}
        anchor = (rng.randint(1, n), rng.randrange(m)) if rng.random() < 0.5 else None
        f = make_anchored_symmetric(n, alphabet, windows, anchor=anchor)

        def accepts(x):
            return (anchor is None or x[anchor[0] - 1] == anchor[1]) and all(
                lo <= x.count(s) <= hi for s, (lo, hi) in windows.items()
            )
    else:
        mod = rng.choice((2, 3, 5))
        coeffs = [rng.randrange(mod) for _ in range(n)]
        residue = rng.randrange(mod)
        smap = [rng.randrange(mod) for _ in range(m)]
        f = make_mod_linear(n, alphabet, mod, coeffs, residue, smap)

        def accepts(x):
            return sum(c * smap[s] for c, s in zip(coeffs, x)) % mod == residue

    def oracle(x):
        x = [fixed.get(c, s) for c, s in enumerate(x, start=1)]
        return Fraction(int(accepts(x)))

    if fixed:
        f = restrict(f, Restriction.from_dict(n, fixed))
    return f, oracle


def test_expectation_dp_equals_enumeration_exactly():
    rng = random.Random(404)
    pi_pool = [
        uniform_marginal(2), uniform_marginal(3), random_marginal(rng, 3),
        kernel_marginal(rng, 3, with_zero=True), kernel_marginal(rng, 2, with_zero=True),
    ]
    for trial in range(60):
        pi = pi_pool[trial % len(pi_pool)]
        m = len(pi.alphabet)
        n = rng.randint(1, 5)
        f, oracle = _random_count_function(rng, n, m, pi.alphabet)
        pid = dict(enumerate(pi.probs))
        float_pi = MarginalDistribution(pi.alphabet, tuple(float(q) for q in pi.probs), False)
        symbols = tuple(range(m))
        want = oracles.fn_expectation_iid(pid, n, oracle, symbols)
        for engine in ("dp", "enumerate"):
            got = expectation(f, pi, engine=engine)
            assert isinstance(got, Fraction) and got == want
            approx = expectation(f, float_pi, engine=engine)
            assert isinstance(approx, float)
            assert approx == pytest.approx(float(want), rel=1e-12, abs=1e-15)
        for i in range(1, n + 1):
            want = oracles.influence_iid(pid, n, oracle, symbols, i)
            for engine in ("dp", "enumerate"):
                got = influence(f, pi, i=i, engine=engine)
                assert isinstance(got, Fraction) and got == want
                approx = influence(f, float_pi, i=i, engine=engine)
                assert isinstance(approx, float)
                assert approx == pytest.approx(float(want), rel=1e-12, abs=1e-15)


def test_expectation_dp_rejects_tables():
    pi = uniform_marginal(2)
    f = make_table_function(1, BIT, [Fraction(0), Fraction(1)])
    with pytest.raises(ValueError):
        expectation(f, pi, engine="dp")


def test_every_call_refuses_an_engine_it_cannot_run():
    """An unknown engine, and 'dp' on a kind the joint-count program does not
    read, are refused by every exact quantity, before the zero shortcut."""
    pi = uniform_marginal(2)
    table = make_table_function(1, BIT, [Fraction(0), Fraction(1)])
    zero = make_junta(2, BIT, [(1, "0"), (1, "1")])
    assert zero.zero
    for f in (table, zero):
        for engine in ("bogus", "dp"):
            for call in (expectation, variance, total_influence):
                with pytest.raises(ValueError, match="unknown engine|no dynamic program"):
                    call(f, pi, engine=engine)


def test_influence_matches_independent_oracle():
    pit = {0: Fraction(1, 3), 1: Fraction(1, 3), 2: Fraction(1, 3)}
    pi = uniform_marginal(3)
    f = make_mod_linear(2, TRIT, 3, (1, 1), 0, (0, 1, 2))
    for i in (1, 2):
        ours = influence(f, pi, i=i)
        brute = oracles.influence_iid(pit, 2, oracles.modlinear3, (0, 1, 2), i)
        assert ours == brute


def test_expectation_matches_iid_oracle_on_random_tables():
    rng = random.Random(88)
    for _ in range(15):
        m = rng.choice((2, 3))
        n = rng.randint(1, 3)
        vals = helpers.random_unit_table(rng, n, m)
        f = make_table_function(n, tuple(str(i) for i in range(m)), vals)
        pi = random_marginal(rng, m)
        pid = {i: pi.probs[i] for i in range(m)}

        def table_fn(x, vals=vals, m=m):
            idx = 0
            for d in reversed(x):
                idx = idx * m + d
            return vals[idx]

        assert expectation(f, pi) == oracles.fn_expectation_iid(
            pid, n, table_fn, tuple(range(m))
        )
        i = rng.randint(1, n)
        assert influence(f, pi, i=i) == oracles.influence_iid(
            pid, n, table_fn, tuple(range(m)), i
        )


def test_budget_refusal():
    pi = uniform_marginal(3)
    f = make_table_function(3, TRIT, helpers.random_unit_table(random.Random(1), 3, 3))
    with pytest.raises(BudgetExceeded):
        expectation(f, pi, budget=5)
    # the threshold is exactly m^n = 27 points on every contraction route
    junta = make_junta(3, TRIT, [(1, "0")])
    calls = [
        lambda b: expectation(f, pi, budget=b),
        lambda b: variance(f, pi, budget=b),
        lambda b: influence(f, pi, i=2, budget=b),
        lambda b: expectation(junta, pi, engine="enumerate", budget=b),
        lambda b: influence(junta, pi, i=1, engine="enumerate", budget=b),
    ]
    for call in calls:
        call(27)
        with pytest.raises(BudgetExceeded):
            call(26)


# ---------------------------------------------------------------------------
# contraction kernels against the per-point reference loops (tests/oracles.py)


def test_table_kernels_equal_reference_exactly():
    for m, n, pi, values in kernel_instances(5150):
        f = make_table_function(n, pi.alphabet, values)
        mean, sq = oracles.table_moments_enumerate(values, m, n, pi.probs, True)
        for engine in ("auto", "enumerate"):
            got = expectation(f, pi, engine=engine)
            assert type(got) is Fraction and got == mean
        var = variance(f, pi)
        assert type(var) is Fraction and var == sq - mean * mean
        for i in range(1, n + 1):
            want = oracles.table_influence_enumerate(values, m, n, pi.probs, True, i)
            for engine in ("auto", "enumerate"):
                got = influence(f, pi, i=i, engine=engine)
                assert type(got) is Fraction and got == want


def test_table_kernels_float_mode_within_tolerance():
    rng = random.Random(5151)
    for m, n, pi, values in kernel_instances(5152):
        float_pi = MarginalDistribution(
            pi.alphabet, tuple(float(p) for p in pi.probs), False
        )
        cases = [
            (pi, [float(v) for v in values]),  # float table, exact marginal
            (float_pi, values),  # exact table, float marginal
            (pi, [rng.randint(0, 1) for _ in values]),  # int table stays inexact
        ]
        for marg, vals in cases:
            f = make_table_function(n, pi.alphabet, vals)
            mean, sq = oracles.table_moments_enumerate(vals, m, n, marg.probs, False)
            got = expectation(f, marg)
            assert type(got) is float and abs(got - mean) <= 1e-12
            var = variance(f, marg)
            assert type(var) is float and abs(var - (sq - mean * mean)) <= 1e-12
            for i in range(1, n + 1):
                want = oracles.table_influence_enumerate(vals, m, n, marg.probs, False, i)
                got = influence(f, marg, i=i)
                assert type(got) is float and abs(got - want) <= 1e-12


def test_enumerate_engine_on_indicator_kinds_matches_reference():
    rng = random.Random(5153)
    for _ in range(12):
        m = rng.choice((2, 3))
        n = rng.randint(1, 4)
        pi = kernel_marginal(rng, m, rng.random() < 0.5)
        fns = [
            make_junta(n, pi.alphabet, [(rng.randint(1, n), rng.randrange(m))]),
            make_anchored_symmetric(
                n, pi.alphabet, {rng.randrange(m): (0, rng.randint(0, n))},
                anchor=(rng.randint(1, n), rng.randrange(m)),
            ),
            make_mod_linear(
                n, pi.alphabet, 3, [rng.randrange(3) for _ in range(n)], 1,
                [rng.randrange(3) for _ in range(m)],
            ),
        ]
        for f in fns:
            values = to_table(f).payload["values"]
            mean, _ = oracles.table_moments_enumerate(values, m, n, pi.probs, True)
            got = expectation(f, pi, engine="enumerate")
            assert type(got) is Fraction and got == mean
            for i in range(1, n + 1):
                want = oracles.table_influence_enumerate(values, m, n, pi.probs, True, i)
                assert influence(f, pi, i=i, engine="enumerate") == want


def test_marginal_over_another_alphabet_is_refused():
    """A table over {0,1,2} with a {0,1} marginal, and the reverse, on every
    engine and in every call that averages f against a marginal."""
    trit_table = make_table_function(2, TRIT, [Fraction(i, 8) for i in range(9)])
    bit_table = make_table_function(2, BIT, [Fraction(i, 4) for i in range(4)])
    pairs = [
        (trit_table, uniform_marginal(2)),
        (bit_table, uniform_marginal(3)),
        (make_junta(2, TRIT, [(1, "0")]), uniform_marginal(2)),
        (make_anchored_symmetric(2, BIT, {"0": (1, 2)}), uniform_marginal(3)),
        (make_mod_linear(2, BIT, 2, (1, 1), 0, (0, 1)), uniform_marginal(3)),
    ]
    for f, pi in pairs:
        calls = [
            lambda: variance(f, pi),
            lambda: is_resilient(f, Fraction(1, 4), 1, pi),
            lambda: projection_subset(f, (1,), pi),
            lambda: noise_operator(f, Fraction(1, 2), pi),
        ]
        for engine in ("auto", "enumerate", "dp"):
            calls += [
                lambda engine=engine: expectation(f, pi, engine=engine),
                lambda engine=engine: variance(f, pi, engine=engine),
                lambda engine=engine: influence(f, pi, i=2, engine=engine),
            ]
        for call in calls:
            with pytest.raises(ValueError, match="alphabet must match"):
                call()


def test_junta_influence_closed_form_matches_enumeration():
    rng = random.Random(5156)
    for _ in range(40):
        m = rng.choice((2, 3))
        n = rng.randint(1, 4)
        pi = kernel_marginal(rng, m, rng.random() < 0.3)
        cons = [(rng.randint(1, n), rng.randrange(m)) for _ in range(rng.randint(0, n))]
        f = make_junta(n, pi.alphabet, cons)
        float_pi = MarginalDistribution(
            pi.alphabet, tuple(float(p) for p in pi.probs), False
        )
        for i in range(1, n + 1):
            got = influence(f, pi, i=i)
            assert type(got) is Fraction
            assert got == influence(f, pi, i=i, engine="enumerate")
            approx = influence(f, float_pi, i=i)
            assert type(approx) is float and abs(approx - float(got)) <= 1e-12
    zero = make_junta(2, BIT, [(1, "0"), (1, "1")])
    assert zero.zero
    pi2 = uniform_marginal(2)
    assert influence(zero, pi2, i=1) == 0 == influence(zero, pi2, i=1, engine="enumerate")


def test_junta_influence_at_large_n_and_dp_refusal():
    pi = uniform_marginal(2)
    f = make_junta(30, BIT, [(1, "0"), (7, "1"), (30, "1")])
    assert expectation(f, pi) == Fraction(1, 8)
    assert influence(f, pi, i=7) == Fraction(1, 4) * Fraction(1, 4)
    assert influence(f, pi, i=2) == 0
    with pytest.raises(BudgetExceeded):
        influence(f, pi, i=7, engine="enumerate")
    with pytest.raises(ValueError):
        influence(f, pi, i=7, engine="dp")


def test_float_influence_and_variance_are_never_negative():
    # decimal weights whose float sum lies just above 1: the constant-1
    # residue function gave influences of -2.2e-16 and a variance of -4.4e-16
    cells = (
        (0, 0, 83914), (0, 1, 102965), (0, 2, 94899), (1, 0, 238503),
        (1, 1, 27438), (1, 2, 256442), (2, 0, 34691), (2, 1, 161148),
    )

    def step_marginal(weight):
        entries = "".join(f"entry {a} {b} {weight(w)}\n" for a, b, w in cells)
        return marginal(parse_distribution("alphabet 0 1 2\nsteps 2\n" + entries), 1)

    pi = step_marginal(lambda w: f"0.{w:06d}")
    f = make_mod_linear(2, TRIT, 1, [1, 1], 0, [0, 1, 2])
    for g in (f, to_table(f)):
        for i in (1, 2):
            for engine in ("auto", "enumerate"):
                assert influence(g, pi, i=i, engine=engine) >= 0.0
        assert variance(g, pi) >= 0.0
    # the same weights as exact rationals keep their exact zeros
    pi_exact = step_marginal(lambda w: f"{w}/1000000")
    for value in (influence(f, pi_exact, i=1), variance(f, pi_exact)):
        assert value == 0 and isinstance(value, Fraction)


# ---------------------------------------------------------------------------
# orthonormal basis and expansions


def test_basis_uniform_bit_is_signed():
    basis = build_basis(uniform_marginal(2))
    assert basis.functions[0] == (1.0, 1.0)
    assert basis.functions[1] == pytest.approx((1.0, -1.0))


def test_basis_first_function_constant():
    rng = random.Random(5)
    for _ in range(10):
        pi = random_marginal(rng, rng.choice((2, 3, 4)))
        basis = build_basis(pi)
        assert all(x == pytest.approx(1.0) for x in basis.functions[0])
        assert basis.size == len(pi.support_indices())


def test_dictator_coefficients_golden():
    pi = uniform_marginal(2)
    f = make_junta(1, BIT, [(1, "1")])
    exp = analyze(f, build_basis(pi))
    assert exp.coeffs[(0,)] == pytest.approx(0.5, abs=1e-12)
    assert exp.coeffs[(1,)] == pytest.approx(-0.5, abs=1e-12)


def test_parseval_and_influence_identities_on_random_tables():
    rng = random.Random(909)
    for _ in range(25):
        m = rng.choice((2, 3))
        n = rng.randint(1, 3)
        pi = random_marginal(rng, m)
        f = make_table_function(
            n, tuple(str(i) for i in range(m)), helpers.random_unit_table(rng, n, m)
        )
        basis = build_basis(pi)
        exp = analyze(f, basis)
        # Parseval: sum of squared coefficients equals E[f^2]
        second = float(variance(f, pi)) + float(expectation(f, pi)) ** 2
        assert exp.parseval_total() == pytest.approx(second, abs=1e-9)
        # influences: conditional-variance route equals the coefficient route
        for i in range(1, n + 1):
            assert float(influence(f, pi, i=i)) == pytest.approx(
                exp.influence_from_coeffs(i), abs=1e-10
            )
        # total influence bounded by degree times variance
        assert float(total_influence(f, pi)) <= exp.degree() * float(
            variance(f, pi)
        ) + 1e-10


def _analyze_pointwise(n, basis, value):
    """Fourier coefficients from one float value(point) per support point,
    contracted axis by axis as `analyze` does."""
    k = basis.size
    probs = [float(basis.pi.probs[s]) for s in basis.support]
    t = np.zeros((k,) * n)
    for pos in itertools.product(range(k), repeat=n):
        t[pos] = value(tuple(basis.support[q] for q in pos))
    mat = np.array([[probs[j] * basis.functions[s][j] for j in range(k)] for s in range(k)])
    for axis in range(n):
        t = np.moveaxis(np.tensordot(mat, t, axes=([1], [axis])), 0, axis)
    return {
        sigma: float(t[sigma])
        for sigma in itertools.product(range(k), repeat=n)
        if float(t[sigma]) != 0.0
    }


def test_analyze_reads_the_table_view_bit_identically():
    rng = random.Random(515)
    for trial in range(30):
        m = rng.choice((2, 3, 4))
        n = rng.randint(1, 3)
        alphabet = tuple(str(i) for i in range(m))
        # a zero-mass symbol now and then, so the support is a proper subset
        pi = marginal(helpers.random_dist(rng, m=m, steps=2), 1)
        values = [Fraction(rng.randint(0, 7), rng.choice((3, 7, 9))) for _ in range(m**n)]
        values = [min(v, Fraction(1)) for v in values]
        if trial % 3 == 0:
            values = [float(v) for v in values]
        f = make_table_function(n, alphabet, values)
        basis = build_basis(pi)
        want = _analyze_pointwise(n, basis, lambda x: float(oracles.table_value(values, m, x)))
        assert analyze(f, basis).coeffs == want


def random_indicator(rng: random.Random):
    """A window, junta or residue function with m in 2..4 and n in 1..5.

    Windows take an anchor and ignored coordinates now and then, residues a
    modulus past 2^62 now and then, any kind the zero flag; half the residues
    accept a random point, and half of all functions are restricted at random
    coordinates.
    """
    m, n = rng.randint(2, 4), rng.randint(1, 5)
    alphabet = tuple(str(a) for a in range(m))
    zero = rng.random() < 0.1
    kind = rng.randrange(3)
    if kind == 0:
        ignored = rng.sample(range(1, n + 1), rng.randint(0, n - 1))
        free = [c for c in range(1, n + 1) if c not in ignored]
        anchor = (rng.choice(free), rng.randrange(m)) if rng.random() < 0.5 else None
        # lo > 0 and empty windows (lo > hi) included
        windows = {s: (rng.randint(0, n), rng.randint(0, n)) for s in rng.sample(range(m), rng.randint(1, 2))}
        f = make_anchored_symmetric(n, alphabet, windows, anchor=anchor, ignored=ignored, zero=zero)
    elif kind == 1:
        pins = [(rng.randint(1, n), rng.randrange(m)) for _ in range(rng.randint(0, n))]
        f = make_junta(n, alphabet, pins, zero=zero)
    else:
        mod = rng.choice((2, 3, 5, 2**70 + 1))
        coeffs = [rng.randrange(mod) for _ in range(n)]
        smap = [rng.randrange(mod) for _ in range(m)]
        residue = rng.randrange(mod)
        if rng.random() < 0.5:
            residue = sum(c * smap[rng.randrange(m)] for c in coeffs)
        f = make_mod_linear(n, alphabet, mod, coeffs, residue, smap, zero=zero)
    if rng.random() < 0.5:
        fixed = {c: rng.randrange(m) for c in rng.sample(range(1, n + 1), rng.randint(1, n))}
        f = restrict(f, Restriction.from_dict(n, fixed))
    return f


def test_indicator_kinds_match_the_payload_oracle():
    """`evaluate`, `to_table` and `analyze` read one per-axis builder for the
    window, junta and residue kinds; each is checked at every point against
    the oracle reading the payload."""
    rng = random.Random(2121)
    for _ in range(300):
        f = random_indicator(rng)
        m = len(f.alphabet)
        points = list(itertools.product(range(m), repeat=f.n))
        want = {x: oracles.indicator_value(f.kind, f.payload, m, x) for x in points}
        for x in points:
            got = evaluate(f, x)
            assert type(got) is Fraction and got == want[x]
        table = to_table(f).payload["values"]
        assert all(type(v) is Fraction for v in table)
        assert [oracles.table_value(table, m, x) for x in points] == [want[x] for x in points]
        basis = build_basis(kernel_marginal(rng, m, with_zero=rng.random() < 0.5))
        assert analyze(f, basis).coeffs == _analyze_pointwise(f.n, basis, lambda x: float(want[x]))


def test_synthesize_reproduces_function_on_support():
    rng = random.Random(44)
    cases = [(random_marginal(rng, 3), 2)]
    # m up to 4, n up to 4, and supports narrower than the alphabet
    for m in (2, 3, 4):
        for n in range(1, 5):
            for with_zero in (False, True):
                cases.append((kernel_marginal(rng, m, with_zero), n))
    for pi, n in cases:
        m = len(pi.alphabet)
        f = make_table_function(n, pi.alphabet, helpers.random_unit_table(rng, n, m))
        g = synthesize(analyze(f, build_basis(pi)))
        support = pi.support_indices()
        for x in itertools.product(range(m), repeat=n):
            if all(s in support for s in x):
                assert float(evaluate(g, x)) == pytest.approx(float(evaluate(f, x)), abs=1e-10)
            else:
                assert evaluate(g, x) == 0.0


def test_projection_variance_identity():
    rng = random.Random(1212)
    for _ in range(10):
        m = rng.choice((2, 3))
        n = 3
        pi = random_marginal(rng, m)
        f = make_table_function(
            n, tuple(str(i) for i in range(m)), helpers.random_unit_table(rng, n, m)
        )
        basis = build_basis(pi)
        exp = analyze(f, basis)
        s = tuple(sorted(rng.sample((1, 2, 3), rng.randint(0, 3))))
        proj = projection_subset(f, s, pi)
        # variance of the projection equals the coefficient mass supported in s
        mass = sum(
            c * c
            for sigma, c in exp.coeffs.items()
            if any(v != 0 for v in sigma)
            and all(sigma[i] == 0 for i in range(n) if (i + 1) not in s)
        )
        assert float(variance(proj, pi)) == pytest.approx(mass, abs=1e-10)


def test_projection_to_empty_set_is_the_mean():
    pi = uniform_marginal(2)
    f = make_junta(2, BIT, [(1, 1)])
    proj = projection_subset(f, (), pi)
    for x in itertools.product(range(2), repeat=2):
        assert evaluate(proj, x) == Fraction(1, 2)


def test_noise_operator_dictator_golden():
    pi = uniform_marginal(2)
    f = make_junta(1, BIT, [(1, "1")])
    g = noise_operator(f, Fraction(1, 2), pi)
    assert g.payload["values"] == (Fraction(1, 4), Fraction(3, 4))


def test_noise_operator_routes_agree_on_random_instances():
    rng = random.Random(61)
    for _ in range(10):
        m = rng.choice((2, 3))
        pi = random_marginal(rng, m)
        f = make_table_function(
            2, tuple(str(i) for i in range(m)), helpers.random_unit_table(rng, 2, m)
        )
        # the operator itself cross-checks averaging against coefficient scaling
        g = noise_operator(f, Fraction(rng.randint(0, 4), 4), pi)
        assert all(0 <= v <= 1 for v in g.payload["values"])


def test_noise_operator_identity_and_total_smoothing():
    pi = uniform_marginal(3)
    f = make_table_function(1, TRIT, (Fraction(1), Fraction(0), Fraction(1, 2)))
    assert noise_operator(f, 1, pi).payload["values"] == f.payload["values"]
    flat = noise_operator(f, 0, pi)
    assert flat.payload["values"] == (Fraction(1, 2),) * 3


def averaging_cases(seed: int):
    """(f, pi) over m in {2, 3, 4} with m^n <= 64: exact tables, a zero-mass
    symbol now and then, and the three non-table kinds."""
    rng = random.Random(seed)
    for m, n in ((2, 1), (2, 3), (2, 5), (3, 1), (3, 2), (3, 3), (4, 2), (4, 3)):
        symbols = tuple(str(a) for a in range(m))
        for with_zero in (False, True):
            pi = kernel_marginal(rng, m, with_zero)
            yield make_table_function(n, symbols, helpers.random_unit_table(rng, n, m, 12)), pi
        yield make_junta(n, symbols, [(n, rng.randrange(m))]), pi
        yield make_anchored_symmetric(n, symbols, {"0": (0, 1)}, anchor=(1, "1")), pi
        yield make_mod_linear(n, symbols, 3, [1] * n, 1, [a % 3 for a in range(m)]), pi


def float_marginal(pi):
    return MarginalDistribution(pi.alphabet, tuple(float(p) for p in pi.probs), False)


def test_averaging_operators_equal_the_oracles_exactly():
    rng = random.Random(7310)
    for f, pi in averaging_cases(7311):
        m, n = len(f.alphabet), f.n
        values = to_table(f).payload["values"]
        for rho in (0, 1, Fraction(rng.randint(1, 6), 7)):
            got = noise_operator(f, rho, pi).payload["values"]
            assert all(isinstance(v, Fraction) for v in got)
            assert list(got) == oracles.noise_operator_brute(values, m, n, pi.probs, rho)
        for keep in ((), tuple(range(1, n + 1)), tuple(rng.sample(range(1, n + 1), n // 2))):
            got = projection_subset(f, keep, pi).payload["values"]
            assert all(isinstance(v, Fraction) for v in got)
            assert list(got) == oracles.projection_brute(values, m, n, pi.probs, keep)


def test_averaging_operators_float_mode_within_tolerance():
    rng = random.Random(7312)
    for f, pi in averaging_cases(7313):
        m, n = len(f.alphabet), f.n
        exact_values = to_table(f).payload["values"]
        float_table = make_table_function(n, f.alphabet, [float(v) for v in exact_values])
        # each of a float table, a float marginal and a float rho forces float mode
        for g, mu, rho in (
            (float_table, pi, Fraction(2, 5)),
            (f, float_marginal(pi), Fraction(1, 3)),
            (f, pi, rng.random()),
            (float_table, float_marginal(pi), rng.choice((0.0, 1.0))),
        ):
            values = to_table(g).payload["values"]
            got = noise_operator(g, rho, mu).payload["values"]
            want = oracles.noise_operator_brute(values, m, n, mu.probs, rho)
            assert all(isinstance(v, float) for v in got)
            assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-12
            keep = tuple(rng.sample(range(1, n + 1), rng.randint(0, n)))
            got = projection_subset(g, keep, mu).payload["values"]
            want = oracles.projection_brute(values, m, n, mu.probs, keep)
            if not (g.is_exact() and mu.exact):
                assert all(isinstance(v, float) for v in got)
            assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-12


def test_max_operator_is_pointwise_max():
    rng = random.Random(303)
    f = make_table_function(2, TRIT, helpers.random_unit_table(rng, 2, 3))
    g = max_operator(f, 1, "0", "2")
    for x in itertools.product(range(3), repeat=2):
        want = max(evaluate(f, (0, x[1])), evaluate(f, (2, x[1])))
        assert evaluate(g, x) == want
    # every coordinate, m in {2, 3, 4}
    for m, n, pi, values in kernel_instances(5162):
        f = make_table_function(n, pi.alphabet, values)
        for i in range(1, n + 1):
            y, z = rng.randrange(m), rng.randrange(m)
            g = max_operator(f, i, y, z)
            for x in itertools.product(range(m), repeat=n):
                at_y, at_z = list(x), list(x)
                at_y[i - 1], at_z[i - 1] = y, z
                assert evaluate(g, x) == max(evaluate(f, at_y), evaluate(f, at_z))
    f = make_table_function(2, TRIT, helpers.random_unit_table(rng, 2, 3))
    for y, z in ((0, 3), (-1, 2)):
        with pytest.raises(ValueError, match="outside the alphabet"):
            max_operator(f, 2, y, z)


def test_max_operator_refuses_unknown_tokens():
    f = to_table(make_junta(2, BIT, [(1, "0")]))
    with pytest.raises(ValueError, match="unknown symbol 'x'"):
        max_operator(f, 1, "x", "0")


# ---------------------------------------------------------------------------
# resilience


def test_dictator_is_not_resilient():
    pi = uniform_marginal(2)
    f = make_junta(2, BIT, [(1, 1)])
    ok, witness = is_resilient(f, Fraction(1, 4), 1, pi)
    assert not ok
    assert witness is not None and witness.size == 1


def test_constant_function_is_resilient():
    pi = uniform_marginal(2)
    f = make_table_function(2, BIT, [Fraction(1, 2)] * 4)
    ok, witness = is_resilient(f, Fraction(1, 100), 2, pi)
    assert ok and witness is None


# ---------------------------------------------------------------------------
# JSON round trips


def test_function_json_roundtrip_all_kinds():
    rng = random.Random(7)
    fns = [
        make_table_function(2, BIT, helpers.random_unit_table(rng, 2, 2)),
        make_anchored_symmetric(3, TRIT, {"0": (1, 2)}, anchor=(2, "0"), ignored=(3,)),
        make_junta(3, TRIT, [(1, 0), (2, 2)]),
        make_mod_linear(3, TRIT, 3, (1, 2, 1), 1, (0, 1, 2)),
    ]
    for f in fns:
        g = parse_function(format_function(f))
        assert g.kind == f.kind
        assert g.n == f.n
        assert g.alphabet == f.alphabet
        for x in itertools.product(range(len(f.alphabet)), repeat=f.n):
            assert evaluate(g, x) == evaluate(f, x)


def test_parse_function_rejects_garbage():
    with pytest.raises(ValueError):
        parse_function("{\"kind\": \"mystery\", \"n\": 1, \"alphabet\": [\"0\"]}")


MOD_DOC = {
    "n": 2, "alphabet": list(TRIT), "kind": "mod_linear",
    "modulus": 3, "coeffs": [1, 1], "residue": 0,
}
WINDOW_DOC = {"n": 2, "alphabet": list(BIT), "kind": "anchored_symmetric"}


def test_parse_function_takes_a_list_symbol_map():
    f = parse_function(json.dumps({**MOD_DOC, "symbol_map": [0, 1, 2]}))
    g = parse_function(json.dumps({**MOD_DOC, "symbol_map": {"0": 0, "1": 1, "2": 2}}))
    assert f.payload == g.payload
    with pytest.raises(ValueError, match="cover the alphabet"):
        parse_function(json.dumps({**MOD_DOC, "symbol_map": [0, 1]}))


def test_parse_function_refuses_windows_that_are_not_pairs():
    for window in ([0], [0, 1, 2], 1, "01", None):
        doc = {**WINDOW_DOC, "windows": {"0": window}}
        with pytest.raises(ValueError, match=r"window '0' must be a \[lo, hi\] pair"):
            parse_function(json.dumps(doc))


def test_parse_function_refuses_anchors_that_are_not_pairs():
    for anchor in ([1], [1, "0", 2], 1, "1"):
        doc = {**WINDOW_DOC, "windows": {"0": [0, 1]}, "anchor": anchor}
        with pytest.raises(ValueError, match=r"anchor must be a \[coordinate, symbol\] pair"):
            parse_function(json.dumps(doc))


def test_parse_function_refuses_windows_that_are_not_an_object():
    doc = {**WINDOW_DOC, "windows": [["0", [0, 1]]]}
    with pytest.raises(ValueError, match=r"windows must be an object"):
        parse_function(json.dumps(doc))


def test_parse_function_refuses_a_symbol_map_of_another_type():
    for symbol_map in (3, "012", None):
        with pytest.raises(ValueError, match=r"symbol_map must be a list or an object"):
            parse_function(json.dumps({**MOD_DOC, "symbol_map": symbol_map}))


def test_parse_function_refuses_retyped_and_missing_fields():
    # each of these raised TypeError or KeyError, or was truncated, before
    # the field checks
    for doc, message in (
        ({**MOD_DOC, "symbol_map": [0, 1, 2], "n": [1]}, r"n must be an integer, not \[1\]"),
        ({**MOD_DOC, "symbol_map": [0, 1, 2], "coeffs": 3}, r"coeffs must be a list, not 3"),
        (MOD_DOC, r"the field 'symbol_map' is missing"),
        ({**MOD_DOC, "symbol_map": [0, [1], 2]}, r"a symbol map value must be an integer"),
        ({**MOD_DOC, "symbol_map": [0, 1, 2], "residue": None}, r"residue must be an integer"),
        ({**WINDOW_DOC, "windows": {"0": [0, [1]]}}, r"a bound of window '0' must be an integer"),
        ({**WINDOW_DOC, "windows": {}, "ignored": 1}, r"ignored must be a list, not 1"),
        ({"n": 1, "alphabet": list(TRIT), "kind": "junta", "constraints": [1]},
         r"a constraint must be a \[coordinate, symbol\] pair"),
        ({"n": 1, "alphabet": list(BIT), "kind": "table", "values": [0, [1]]},
         r"a table value must be a number or a string"),
        ({"alphabet": list(BIT), "kind": "table", "values": [0, 1]}, r"the field 'n' is missing"),
        ({**MOD_DOC, "symbol_map": [0, 1, 2], "n": 2.5}, r"n must be an integer, not 2.5"),
        ({**MOD_DOC, "symbol_map": [0, 1, 2], "coeffs": [1, 1.5]}, r"a coefficient must be"),
        # these two raised ZeroDivisionError and OverflowError
        ({"n": 1, "alphabet": list(BIT), "kind": "table", "values": ["1/0", 1]},
         r"zero denominator in weight '1/0'"),
        ({"n": 1, "alphabet": list(BIT), "kind": "table", "values": [10**400, 1]},
         r"a table value is too large for a float"),
        # this one computed 2^(10^400) and never returned
        ({"n": 10**400, "alphabet": list(BIT), "kind": "table", "values": [0, 1]},
         r"table length must be \|alphabet\|\^n"),
    ):
        with pytest.raises(ValueError, match=message):
            parse_function(json.dumps(doc))


JSON_VALUES = st.sampled_from(
    [None, True, 0, -1, 3, 2.5, float("inf"), 10**400, "", "x", "1/2", "1/0", [], [1], [[0, 1]],
     ["0", 1], ["1/0", 10**400], {}, {"0": [0, 1]}, {"0": 1}]
)
VALID_DOCS = [
    {**MOD_DOC, "symbol_map": [0, 1, 2]},
    {**WINDOW_DOC, "windows": {"0": [0, 1]}, "anchor": [1, "1"], "ignored": [2]},
    {"n": 1, "alphabet": list(TRIT), "kind": "junta", "constraints": [[1, "0"]]},
    {"n": 1, "alphabet": list(BIT), "kind": "table", "values": ["1/2", 1]},
]


@given(st.sampled_from(VALID_DOCS), st.data())
@settings(max_examples=300, deadline=None)
def test_parse_function_fails_only_with_value_error(doc, data):
    # drop or retype any fields of a valid document: the parse either gives
    # a function or raises ValueError, never another error
    doc = dict(doc)
    for key in data.draw(st.lists(st.sampled_from(sorted(doc)), min_size=1, max_size=3)):
        if data.draw(st.booleans()):
            doc.pop(key, None)
        else:
            doc[key] = data.draw(JSON_VALUES)
    try:
        parse_function(json.dumps(doc))
    except ValueError:
        pass


def test_parse_function_refuses_a_document_that_is_not_an_object():
    for doc in ([MOD_DOC], 3, "mod_linear", None):
        with pytest.raises(ValueError, match=r"must be a JSON object"):
            parse_function(json.dumps(doc))
