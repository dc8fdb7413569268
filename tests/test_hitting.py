"""Hitting expectations, reduction loops, bounds, and the counterexample catalog."""

from __future__ import annotations

import collections
import contextlib
import functools
import itertools
import math
import operator
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import helpers
import oracles
from corrhit import fourier
from corrhit.dist_core import (
    Alphabet,
    MarginalDistribution,
    StepDistribution,
    alpha,
    marginal,
    parse_distribution,
    rho,
)
from corrhit.fourier import (
    BudgetExceeded,
    Restriction,
    _JointLayout,
    _count_influences,
    expectation,
    influence,
    is_resilient,
    make_anchored_symmetric,
    make_junta,
    make_mod_linear,
    make_table_function,
    restrict,
)
from corrhit.hitting import (
    _prefix_distribution,
    ap3_distribution,
    ap3_sets,
    counterexample_three_sets,
    counterexample_unequal_marginals,
    density_increment,
    estimate_hitting_exponent,
    influence_reduction,
    low_influence_bound,
    markov_same_set_check,
    max_gain_check,
    multi_set_expectation,
    same_set_expectation,
    skew_pair_distribution,
    skew_pair_sets,
)

TRIT = ("0", "1", "2")
BIT = ("0", "1")
QUAD = ("0", "1", "2", "3")


# ---------------------------------------------------------------------------
# expectation routes


def test_dictator_same_set_goldens():
    p = helpers.basic_dist()
    for n in (1, 4):
        f = make_junta(n, TRIT, [(1, "0")])
        assert same_set_expectation(p, n, f) == Fraction(1, 6)


def test_mod_linear_same_set_golden():
    p = helpers.basic_dist()
    f = make_mod_linear(2, TRIT, 3, (1, 1), 0, (0, 1, 2))
    for engine in ("enumerate", "dp"):
        assert same_set_expectation(p, 2, f, engine=engine) == Fraction(1, 12)


def test_multi_set_matches_brute_oracle():
    cells, _, ell = oracles.three_cycle_dist()
    p = helpers.basic_dist()
    rng = random.Random(17)
    for _ in range(10):
        n = rng.randint(1, 3)
        tables = [helpers.random_unit_table(rng, n, 3) for _ in range(2)]
        fns = [make_table_function(n, TRIT, t) for t in tables]

        def as_callable(vals, m=3):
            def f(x):
                idx = 0
                for d in reversed(x):
                    idx = idx * m + d
                return vals[idx]

            return f

        ours = multi_set_expectation(p, n, fns)
        brute = oracles.multi_set_expectation_brute(
            cells, ell, n, [as_callable(t) for t in tables]
        )
        assert ours == brute


def test_dp_equals_enumeration_on_random_compatible_instances():
    p = helpers.basic_dist()
    rng = random.Random(2024)
    for _ in range(25):
        n = rng.randint(1, 5)
        fns = []
        anchor_coord = rng.randint(1, n) if rng.random() < 0.5 else None
        for _ in range(2):
            if rng.random() < 0.5:
                windows = {rng.randrange(3): (0, rng.randint(0, n))}
                anchor = (anchor_coord, rng.randrange(3)) if anchor_coord else None
                fns.append(
                    make_anchored_symmetric(n, TRIT, windows, anchor=anchor)
                )
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


def _window_indicator(n, windows, anchor=None, fixed=None):
    """Independent oracle for a window function, optionally with coordinates
    substituted by a restriction {coord: symbol}."""
    fixed = fixed or {}

    def f(x):
        x = [fixed.get(c, s) for c, s in enumerate(x, start=1)]
        if anchor is not None and x[anchor[0] - 1] != anchor[1]:
            return Fraction(0)
        ok = all(lo <= x.count(sym) <= hi for sym, (lo, hi) in windows.items())
        return Fraction(int(ok))

    return f


def _residue_indicator(q, coeffs, residue, symbol_map):
    def f(x):
        total = sum(c * symbol_map[s] for c, s in zip(coeffs, x))
        return Fraction(int(total % q == residue))

    return f


def _random_dp_instance(rng, p, n, special):
    """One window or residue function per step, with its oracle.

    Windows may have lo > 0; the coordinates in `special` become anchors of
    some window functions and restriction-ignored coordinates of others.
    """
    m = len(p.alphabet)
    fns, oracles_ = [], []
    for _ in range(p.steps):
        if rng.random() < 0.6:
            windows = {}
            for sym in rng.sample(range(m), rng.randint(1, m)):
                lo = rng.randint(0, n)
                # an empty window (lo > hi) now and then
                windows[sym] = (lo, rng.randint(0, n) if rng.random() < 0.1 else rng.randint(lo, n))
            anchor = (special[0], rng.randrange(m)) if special and rng.random() < 0.5 else None
            f = make_anchored_symmetric(n, p.alphabet, windows, anchor=anchor)
            fixed = {}
            if special and rng.random() < 0.5:
                fixed = {c: rng.randrange(m) for c in special[1:] or special}
                if anchor is not None:
                    fixed.pop(anchor[0], None)
                f = restrict(f, Restriction.from_dict(n, fixed))
            fns.append(f)
            oracles_.append(_window_indicator(n, windows, anchor, fixed))
        else:
            q = rng.randint(2, 4)
            coeffs = [rng.randrange(q) for _ in range(n)]
            residue = rng.randrange(q)
            smap = [rng.randrange(q) for _ in range(m)]
            fns.append(make_mod_linear(n, p.alphabet, q, coeffs, residue, smap))
            oracles_.append(_residue_indicator(q, coeffs, residue, smap))
    return tuple(fns), oracles_


def _float_twin(p):
    return StepDistribution(p.alphabet, p.steps, tuple(float(w) for w in p.weights), False)


def _check_routes_against_brute(p, n, fns, oracle_fns):
    cells = dict(zip(p.tuples(), p.weights))
    brute = oracles.multi_set_expectation_brute(cells, p.steps, n, oracle_fns)
    twin = _float_twin(p)
    for engine in ("dp", "enumerate"):
        ours = multi_set_expectation(p, n, fns, engine=engine)
        assert isinstance(ours, Fraction)
        assert ours == brute
        approx = multi_set_expectation(twin, n, fns, engine=engine)
        assert isinstance(approx, float)
        assert approx == pytest.approx(float(brute), rel=1e-12, abs=1e-300)


def test_dp_and_enumeration_match_brute_on_pruned_and_pinned_instances():
    rng = random.Random(4242)
    seen = {"lo": 0, "ignored": 0, "two_special": 0, "no_free": 0, "zero_weight": 0}
    for trial in range(60):
        steps = 3 if trial % 3 == 0 else 2
        m = rng.choice((2, 3))
        p = helpers.random_dist(rng, m, steps)
        n = rng.randint(1, 3 if steps == 3 else 4)
        n_special = rng.randint(0, min(2, n))
        special = tuple(sorted(rng.sample(range(1, n + 1), n_special)))
        fns, oracle_fns = _random_dp_instance(rng, p, n, special)
        _check_routes_against_brute(p, n, fns, oracle_fns)
        windows = [f.payload for f in fns if f.kind == "anchored_symmetric"]
        pinned = {pay["anchor"][0] for pay in windows if pay["anchor"] is not None}
        pinned |= {c for pay in windows for c in pay["ignored"]}
        seen["lo"] += any(lo > 0 for pay in windows for lo, _ in pay["windows"].values())
        seen["ignored"] += any(pay["ignored"] for pay in windows)
        seen["two_special"] += len(pinned) == 2
        seen["no_free"] += len(pinned) == n
        seen["zero_weight"] += any(w == 0 for w in p.weights)
    assert all(count >= 3 for count in seen.values()), seen


def test_zero_functions_give_exact_and_float_zero():
    p = parse_distribution(helpers.AP3_TEXT)
    n = 3
    live = make_anchored_symmetric(n, TRIT, {"0": (0, n)})
    # fixing the anchor to another symbol yields the explicit zero function
    anchored = make_anchored_symmetric(n, TRIT, {"1": (1, 2)}, anchor=(1, "0"))
    killed = restrict(anchored, Restriction.from_dict(n, {1: 2}))
    assert killed.zero
    parity = make_mod_linear(n, TRIT, 3, (1, 1, 1), 0, (0, 1, 2), zero=True)
    for fns in ((live, killed, live), (parity, live, live)):
        for engine in ("dp", "enumerate"):
            exact = multi_set_expectation(p, n, fns, engine=engine)
            assert isinstance(exact, Fraction) and exact == 0
            approx = multi_set_expectation(_float_twin(p), n, fns, engine=engine)
            assert isinstance(approx, float) and approx == 0.0
    # zero values that are not flagged: the AP3 sets at n = 4, and an empty
    # window (lo > hi) with every coordinate pinned
    q = helpers.basic_dist()
    empty = make_anchored_symmetric(2, TRIT, {"0": (2, 0)}, anchor=(1, "1"))
    pinned = restrict(make_anchored_symmetric(2, TRIT, {"1": (0, 2)}), Restriction.from_dict(2, {2: 0}))
    for engine in ("dp", "enumerate"):
        value = multi_set_expectation(p, 4, ap3_sets(4), engine=engine)
        assert isinstance(value, Fraction) and value == 0
        value = multi_set_expectation(q, 2, (empty, pinned), engine=engine)
        assert isinstance(value, Fraction) and value == 0


def test_enumeration_budget_threshold_is_exact():
    p = helpers.basic_dist()
    n = 3
    f = make_junta(n, TRIT, [(1, "0")])
    size = len(p.support()) ** n
    with pytest.raises(BudgetExceeded):
        same_set_expectation(p, n, f, engine="enumerate", budget=size - 1)
    assert same_set_expectation(p, n, f, engine="enumerate", budget=size) == Fraction(1, 6)


def test_enumeration_budget_covers_materializing_other_kinds():
    # support narrower than the alphabet: |support|^n = 16 < m^n = 81
    p = parse_distribution("alphabet 0 1 2\nsteps 2\nentry 0 0 1/2\nentry 1 1 1/2\n")
    n = 4
    junta = make_junta(n, TRIT, [(2, "1")])
    table = make_table_function(n, TRIT, [Fraction(idx % 2) for idx in range(3**n)])
    # a non-table function is materialized as a table of m^n points first,
    # which the same budget caps
    with pytest.raises(BudgetExceeded, match="3\\^4 points"):
        same_set_expectation(p, n, junta, engine="enumerate", budget=16)
    assert same_set_expectation(p, n, junta, engine="enumerate", budget=81) == Fraction(1, 2)
    # a table is already materialized: only |support|^n counts
    value = multi_set_expectation(p, n, (table, table), engine="enumerate", budget=16)
    assert value == Fraction(1, 2)
    with pytest.raises(BudgetExceeded, match="2\\^4 support assignments"):
        multi_set_expectation(p, n, (table, table), engine="enumerate", budget=15)


def test_enumeration_memory_stays_within_the_block():
    p = ap3_distribution()
    fns = ap3_sets(8)
    tracemalloc.start()
    try:
        value = multi_set_expectation(p, 8, fns, engine="enumerate")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == 0
    # one full contraction would hold lists of 6^8 entries (tens of MB)
    assert peak < 4 * 2**20


def test_dp_budget_caps_live_states():
    # For window and residue kinds the budget caps the live states after each
    # step, counted after dropping those that can no longer reach a window's
    # lower bound.  A step is one coordinate's draw, or a run of coordinates
    # with one effect list drawn at once (no residue shift, and few enough
    # live states before it that one step costs less).
    # Window 3 <= #0 <= 5 over n = 8 bits is one run of eight and ends on the
    # counts 3..5: 3 states.  In its influence at i = 2 the seven coordinates
    # other than i draw as one run, with i still to come: counts 2..5, 4
    # states.  Residue sum x mod 5 over three symbols shifts residues, so
    # every coordinate draws on its own: at most 5 live residues.  On two
    # independent uniform steps the window pair's tuples 00, 01 and 10 bump
    # overlapping slots; from the one start state the eight coordinates
    # still draw as one run and end on the 3 x 3 = 9 count pairs in the
    # windows (one coordinate at a time they would peak at 6 x 6 = 36 joint
    # counts, t = 5); the residue pair peaks at 25.
    window = make_anchored_symmetric(8, BIT, {"0": (3, 5)})
    residue = make_mod_linear(4, TRIT, 5, (1,) * 4, 2, (0, 1, 2))
    for f, peaks in ((window, (3, 4, 9)), (residue, (5, 5, 25))):
        m = len(f.alphabet)
        p = helpers.dist_from_cells(
            {(a, b): Fraction(1, m * m) for a in range(m) for b in range(m)}, m, 2
        )
        pi = marginal(p, 1)
        calls = [
            lambda b: expectation(f, pi, budget=b),
            lambda b: influence(f, pi, i=2, budget=b),
            lambda b: multi_set_expectation(p, f.n, (f, f), engine="dp", budget=b),
        ]
        for threshold, call in zip(peaks, calls):
            assert call(threshold) == call(None)
            with pytest.raises(BudgetExceeded, match="joint-count state space"):
                call(threshold - 1)


def _residue_pair_layout():
    """A mod_linear pair, q = 5, over a full-support 3-symbol two-step
    distribution at n = 48, coefficients in 1..4: up to 16 coordinate
    signatures over 25 residues."""
    rng = random.Random(15)
    n, q = 48, 5
    p = helpers.random_dist(rng, 3, 2, full_support=True)
    fns = tuple(
        make_mod_linear(n, TRIT, q, [rng.randint(1, q - 1) for _ in range(n)],
                        rng.randrange(q), (0, 1, 3))
        for _ in range(2)
    )
    return n, q, fns, p


def _packing(packs):
    """Residues packed wherever the layout is exact (True), never (False),
    or by the layout's own rule (None)."""
    if packs is None:
        return contextlib.nullcontext()
    return mock.patch.object(fourier, "_packs", lambda exact, *args: packs and exact)


def test_dp_step_tables_are_shared_across_signatures():
    # Keyed: the layout keeps one residue-shift table per distinct residue
    # increment, which every signature carrying that increment reads, so the
    # walk fills at most 25 entries per distinct increment however many
    # signatures draw.
    n, q, fns, p = _residue_pair_layout()
    with _packing(False):
        layout = _JointLayout(fns, p._scaled_support)
        states = layout.walk(range(1, n + 1), None)
    assert states and not layout.width
    effects = [e for c in range(1, n + 1) for e in layout.effects(c)]
    tables = {id(turn): turn for turn, _, _ in effects}
    incs = {turn.inc for turn, _, _ in effects}
    assert len({layout.signature(c) for c in range(1, n + 1)}) > 8
    assert len(tables) == len(incs)
    assert sum(map(len, tables.values())) <= len(incs) * q * q


def test_dp_rotation_masks_are_built_once_per_digit_and_increment():
    # Packed: every rotation the walk applies is one of the layout's
    # (digit, increment) masks, each built once however many increments and
    # signatures carry it; the walk ends on the keyed walk's states.
    n, q, fns, p = _residue_pair_layout()
    built = collections.Counter()
    rotation = _JointLayout._rotation

    def spy(self, d, a):
        built[d, a] += 1
        return rotation(self, d, a)

    with mock.patch.object(_JointLayout, "_rotation", spy):
        layout = _JointLayout(fns, p._scaled_support)
        states = layout.walk(range(1, n + 1), None)
    assert layout.width and len(states) == 1
    effects = [e for c in range(1, n + 1) for e in layout.effects(c)]
    carried = {(d, a) for turn, _, _ in effects for d, a in enumerate(turn.inc) if a}
    assert set(built) == carried and set(built.values()) == {1}
    assert len({turn.inc for turn, _, _ in effects}) > len(carried)
    with _packing(False):
        keyed = _JointLayout(fns, p._scaled_support)
        want = keyed.walk(range(1, n + 1), None)
    assert layout.size(states) == len(want) == q * q
    assert sorted(layout.masses(states)) == sorted(keyed.masses(want))


def test_dp_run_step_raises_before_storing_the_whole_run():
    # Windows [0, n] on three of four symbols keep every composition of the
    # one run over all n coordinates: C(n + 3, 3) = 1373701 states at
    # n = 200.  The run raises on the state that passes the budget, so it
    # never holds more than budget + 1 of them.
    n = 200
    f = make_anchored_symmetric(n, QUAD, {s: (0, n) for s in "012"})
    pi = MarginalDistribution(Alphabet(QUAD), (Fraction(1, 4),) * 4, True)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match="state space 1001 exceeds the budget 1000"):
            expectation(f, pi, budget=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_dp_run_step_starts_each_count_at_the_floor():
    # Windows [95, n] on three of four symbols at n = 300: a run walks only
    # counts 95 + d with d summing to at most 15 (816 states), not the
    # C(303, 3) compositions of the whole run.  The mass is the multinomial
    # sum over those counts.
    n, lo = 300, 95
    f = make_anchored_symmetric(n, QUAD, {s: (lo, n) for s in "012"})
    pi = MarginalDistribution(Alphabet(QUAD), (Fraction(1, 4),) * 4, True)
    fact = math.factorial
    want = sum(
        fact(n) // (fact(a) * fact(b) * fact(c) * fact(n - a - b - c))
        for a in range(lo, n + 1)
        for b in range(lo, n - a + 1)
        for c in range(lo, n - a - b + 1)
    )
    assert expectation(f, pi, budget=816) == Fraction(want, 4**n)
    with pytest.raises(BudgetExceeded):
        expectation(f, pi, budget=815)


# ---------------------------------------------------------------------------
# joint-count run steps against the brute-force oracles
#
# A run of coordinates with one effect signature, whose effects shift no
# residue, draws in one multinomial step when that costs less than its single
# draws; every other coordinate draws on its own.  Bumps may share a slot:
# distinct tuples that agree at a step count in the same window slot.  Exact
# results must equal the oracles as Fractions and float results lie within
# FLOAT_REL of them.  An exact 0 admits 1e-15 absolute: a float influence sums
# terms sw*hit - hit^2 that cancel only up to rounding.

FLOAT_REL = 1e-12


def _assert_close(approx, want):
    assert isinstance(approx, float)
    gap = abs(approx - float(want))
    assert gap <= FLOAT_REL * abs(float(want)) or (want == 0 and gap <= 1e-15)


@st.composite
def run_windows(draw, n, m):
    """A window function on one or more symbols, anchored or not, restricted
    at random coordinates (which it ignores from then on), and its oracle."""
    syms = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m, unique=True))
    windows = {}
    for sym in syms:
        lo = draw(st.integers(0, n))
        windows[sym] = (lo, draw(st.integers(lo, n)))
    anchor = (draw(st.integers(1, n)), draw(st.integers(0, m - 1))) if draw(st.booleans()) else None
    fixed = draw(st.dictionaries(st.integers(1, n), st.integers(0, m - 1), max_size=min(n - 1, 2)))
    f = make_anchored_symmetric(n, tuple(str(a) for a in range(m)), windows, anchor=anchor)
    if fixed:
        f = restrict(f, Restriction.from_dict(n, fixed))
    return f, _window_indicator(n, windows, anchor, fixed)


@st.composite
def run_residues(draw, n, m):
    """A residue function whose zero coefficients give run-eligible coordinates."""
    q = draw(st.integers(2, 4))
    coeff = st.one_of(st.just(0), st.just(0), st.integers(1, q - 1))
    coeffs = draw(st.lists(coeff, min_size=n, max_size=n))
    smap = draw(st.lists(st.integers(0, q - 1), min_size=m, max_size=m))
    residue = draw(st.integers(0, q - 1))
    f = make_mod_linear(n, tuple(str(a) for a in range(m)), q, coeffs, residue, smap)
    return f, _residue_indicator(q, coeffs, residue, smap)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_dp_run_steps_match_iid_oracles(data):
    m = data.draw(st.integers(2, 3))
    n = data.draw(st.integers(1, 6 if m == 2 else 5))
    raw = data.draw(st.lists(st.integers(0, 4), min_size=m, max_size=m).filter(any))
    probs = tuple(Fraction(w, sum(raw)) for w in raw)
    alphabet = Alphabet(tuple(str(a) for a in range(m)))
    pi = MarginalDistribution(alphabet, probs, True)
    twin = MarginalDistribution(alphabet, tuple(float(q) for q in probs), False)
    f, oracle = data.draw(st.one_of(run_windows(n, m), run_residues(n, m)))
    pid, symbols = dict(enumerate(probs)), tuple(range(m))
    want = oracles.fn_expectation_iid(pid, n, oracle, symbols)
    got = expectation(f, pi, engine="dp")
    assert isinstance(got, Fraction) and got == want
    _assert_close(expectation(f, twin, engine="dp"), want)
    for i in range(1, n + 1):
        want = oracles.influence_iid(pid, n, oracle, symbols, i)
        got = influence(f, pi, i=i, engine="dp")
        assert isinstance(got, Fraction) and got == want
        _assert_close(influence(f, twin, i=i, engine="dp"), want)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_dp_run_steps_match_brute_product_oracle(data):
    # tuples k = (s_1(k), ..., s_ell(k)) for permutations s_j differ at every
    # step, so window bumps of distinct tuples never share a slot and runs
    # draw in one step; extra tuples can make bumps overlap, and residue
    # functions with nonzero coefficients draw their coordinates one by one
    m = data.draw(st.integers(2, 3))
    ell = data.draw(st.integers(2, 3))
    perms = [tuple(range(m))] + [data.draw(st.permutations(range(m))) for _ in range(ell - 1)]
    tuples = {tuple(s[k] for s in perms) for k in range(m)}
    if data.draw(st.booleans()):
        tuples.add(tuple(data.draw(st.integers(0, m - 1)) for _ in range(ell)))
    cells = {t: Fraction(data.draw(st.integers(1, 4))) for t in sorted(tuples)}
    p = helpers.dist_from_cells(cells, m, ell)
    n = data.draw(st.integers(1, 5))
    while n > 1 and len(cells) ** n > 1500:
        n -= 1
    pairs = [data.draw(st.one_of(run_windows(n, m), run_windows(n, m), run_residues(n, m)))
             for _ in range(ell)]
    fns, oracle_fns = tuple(f for f, _ in pairs), [o for _, o in pairs]
    want = oracles.multi_set_expectation_brute(
        dict(zip(p.tuples(), p.weights)), ell, n, oracle_fns
    )
    got = multi_set_expectation(p, n, fns, engine="dp")
    assert isinstance(got, Fraction) and got == want
    twin = StepDistribution(p.alphabet, p.steps, tuple(float(w) for w in p.weights), False)
    _assert_close(multi_set_expectation(twin, n, fns, engine="dp"), want)


def test_dp_run_drops_states_below_the_floor_of_a_slot_no_draw_moves():
    # Symbol 1 has mass 0, so no draw moves its slot and its window's lo = 1
    # is out of reach once every coordinate has drawn: the run over all of
    # them drops the start state before walking a composition and stores
    # nothing, where keeping it would store the 7 counts of symbol 0.
    n = 6
    f = make_anchored_symmetric(n, TRIT, {"0": (0, n), "1": (1, n)})
    pi = MarginalDistribution(Alphabet(TRIT), (Fraction(1, 2), Fraction(0), Fraction(1, 2)), True)
    assert expectation(f, pi, engine="dp", budget=1) == 0


def _runs(pays):
    """Runs drawn at once wherever the effects shift no residue (True), no
    run at all (False), or the walk's own choice (None)."""
    if pays is None:
        return contextlib.nullcontext()
    return mock.patch.object(fourier, "_run_pays", lambda live, k, effects: pays)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_dp_shared_slot_runs_match_enumeration_and_brute_oracle(data):
    # Random supports on 2 or 3 steps, so distinct tuples that agree at a step
    # bump one window slot together; windows on one or more symbols, lo > 0,
    # anchors and restriction-ignored coordinates from `run_windows`, and now
    # and then only the tuples that bump some slot (no bump-0 effect, w_0 =
    # 0).  Forced runs, single draws and the walk's own choice all equal the
    # enumeration engine and the brute oracle as Fractions, decimal twins
    # within FLOAT_REL.  Influences walk one function, whose one-symbol draws
    # bump at most one slot each, so their runs are disjoint; they are checked
    # under the same three rules.
    m = data.draw(st.integers(2, 3))
    ell = data.draw(st.integers(2, 3))
    tuples = list(itertools.product(range(m), repeat=ell))
    weights = data.draw(st.lists(st.integers(0, 3), min_size=len(tuples), max_size=len(tuples)))
    cells = {t: Fraction(w) for t, w in zip(tuples, weights) if w} or {tuples[0]: Fraction(1)}
    n = data.draw(st.integers(1, max(k for k in range(1, 6) if k == 1 or len(cells) ** k <= 1500)))
    pairs = [data.draw(run_windows(n, m)) for _ in range(ell)]
    fns, oracle_fns = tuple(f for f, _ in pairs), [o for _, o in pairs]
    if data.draw(st.booleans()):
        bumping = {
            t: w for t, w in cells.items()
            if any(t[j] in f.payload["windows"] for j, f in enumerate(fns))
        }
        cells = bumping or cells
    p = helpers.dist_from_cells(cells, m, ell)
    want = oracles.multi_set_expectation_brute(dict(zip(p.tuples(), p.weights)), ell, n, oracle_fns)
    assert multi_set_expectation(p, n, fns, engine="enumerate") == want
    twin = _float_twin(p)
    j = data.draw(st.integers(1, ell))
    pi = marginal(p, j)
    pid = {a: pi.probs[a] for a in range(m)}
    i = data.draw(st.integers(1, n))
    want_inf = oracles.influence_iid(pid, n, oracle_fns[j - 1], tuple(range(m)), i)
    assert influence(fns[j - 1], pi, i=i, engine="enumerate") == want_inf
    for pays in (True, False, None):
        with _runs(pays):
            got = multi_set_expectation(p, n, fns, engine="dp")
            assert isinstance(got, Fraction) and got == want
            _assert_close(multi_set_expectation(twin, n, fns, engine="dp"), want)
            got = influence(fns[j - 1], pi, i=i, engine="dp")
            assert isinstance(got, Fraction) and got == want_inf
            _assert_close(influence(fns[j - 1], marginal(twin, j), i=i, engine="dp"), want_inf)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_exponent_fits_with_shared_slot_runs_match_the_brute_oracle(data):
    # The joint walk of an exponent fit puts a threshold window on symbol 0
    # at both steps, so the diagonal tuple (0, 0) bumps both slots and shares
    # each with one off-diagonal tuple.  Targets sit on the members'
    # measures, so every member with 0 < mu < 1 is chosen.
    m = data.draw(st.integers(2, 3))
    n = data.draw(st.integers(2, 5 if m == 2 else 4))
    cells = {}
    for a in range(m):
        cells[(a, a)] = Fraction(data.draw(st.integers(1, 3)))
        for b in range(a + 1, m):
            w = data.draw(st.integers(0, 3))
            if w:
                cells[(a, b)] = cells[(b, a)] = Fraction(w)
    p = helpers.dist_from_cells(cells, m, 2)
    family = oracles.threshold_family_brute(dict(zip(p.tuples(), p.weights)), n)
    members = [(mu, delta) for _, mu, delta in family if 0 < mu < 1]
    assume(len(members) >= 2)
    grid = [float(mu) for mu, _ in members]
    want = tuple((float(mu), float(delta)) for mu, delta in members if delta > 0)
    for pays in (True, False, None):
        with _runs(pays):
            if len(want) < 2:
                with pytest.raises(ValueError, match="usable family members"):
                    estimate_hitting_exponent(p, grid, n=n)
                continue
            assert estimate_hitting_exponent(p, grid, n=n).points == want
            twin = estimate_hitting_exponent(_float_twin(p), grid, n=n)
            assert len(twin.points) == len(want)
            for got, (mu, delta) in zip(twin.points, want):
                assert got == pytest.approx((mu, delta), rel=FLOAT_REL)


@st.composite
def packed_residues(draw, n, m):
    """A residue function of modulus 2..7 whose zero coefficients give
    residue-free coordinates, restricted at random coordinates now and
    then, and its oracle."""
    q = draw(st.integers(2, 7))
    coeffs = draw(st.lists(st.one_of(st.just(0), st.integers(1, q - 1)), min_size=n, max_size=n))
    smap = draw(st.lists(st.integers(0, q - 1), min_size=m, max_size=m))
    residue = draw(st.integers(0, q - 1))
    f = make_mod_linear(n, tuple(str(a) for a in range(m)), q, coeffs, residue, smap)
    fixed = draw(st.dictionaries(st.integers(1, n), st.integers(0, m - 1), max_size=min(n - 1, 2)))
    oracle = _residue_indicator(q, coeffs, residue, smap)
    if not fixed:
        return f, oracle
    return restrict(f, Restriction.from_dict(n, fixed)), (
        lambda x: oracle([fixed.get(c, s) for c, s in enumerate(x, start=1)])
    )


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_dp_packed_and_keyed_residues_match_the_brute_oracle(data):
    # One or two residue functions of moduli 2..7 beside windows (anchored
    # and restricted), on random supports with zero weights.  Residues
    # packed wherever exact, never packed, and the layout's own rule, each
    # with runs forced and by the walk's choice, give the brute oracle's
    # Fraction; decimal twins (never packed) agree within FLOAT_REL.  The
    # influence of a residue function is checked under the same rules.
    m = data.draw(st.integers(2, 3))
    ell = data.draw(st.integers(2, 3))
    tuples = list(itertools.product(range(m), repeat=ell))
    weights = data.draw(st.lists(st.integers(0, 3), min_size=len(tuples), max_size=len(tuples)))
    cells = {t: Fraction(w) for t, w in zip(tuples, weights) if w} or {tuples[0]: Fraction(1)}
    n = data.draw(st.integers(1, max(k for k in range(1, 6) if k == 1 or len(cells) ** k <= 1500)))
    modular = data.draw(st.lists(st.integers(0, ell - 1), min_size=1, max_size=2, unique=True))
    pairs = [
        data.draw(packed_residues(n, m) if j in modular else run_windows(n, m))
        for j in range(ell)
    ]
    fns, oracle_fns = tuple(f for f, _ in pairs), [o for _, o in pairs]
    p = helpers.dist_from_cells(cells, m, ell)
    twin = _float_twin(p)
    want = oracles.multi_set_expectation_brute(dict(zip(p.tuples(), p.weights)), ell, n, oracle_fns)
    j = data.draw(st.sampled_from(modular))
    pi, i = marginal(p, j + 1), data.draw(st.integers(1, n))
    want_inf = oracles.influence_iid(
        {a: pi.probs[a] for a in range(m)}, n, oracle_fns[j], tuple(range(m)), i
    )
    for packs, pays in itertools.product((True, False, None), (True, None)):
        with _packing(packs), _runs(pays):
            got = multi_set_expectation(p, n, fns, engine="dp")
            assert isinstance(got, Fraction) and got == want
            _assert_close(multi_set_expectation(twin, n, fns, engine="dp"), want)
            got = influence(fns[j], pi, i=i, engine="dp")
            assert isinstance(got, Fraction) and got == want_inf
            _assert_close(influence(fns[j], marginal(twin, j + 1), i=i, engine="dp"), want_inf)


def test_dp_packed_budget_counts_the_keyed_states():
    # On residue layouts (with windows beside them, and zero coefficients
    # that draw as runs) the packed walk peaks at the keyed walk's live
    # states, so the least passing budget is the same, and one less raises
    # the same BudgetExceeded.  With no budget set the packed walk never
    # counts its fields: the keys times R stay under the default cap.
    rng = random.Random(2028)
    packed_runs = 0
    for _ in range(30):
        steps = rng.choice((2, 3))
        p = helpers.random_dist(rng, rng.choice((2, 3)), steps)
        m, n = len(p.alphabet), rng.randint(6, 12 if steps == 2 else 8)
        special = rng.sample(range(1, n + 1), rng.randint(0, 2))
        while True:
            fns, _ = _random_dp_instance(rng, p, n, special)
            if any(f.kind == "mod_linear" for f in fns):
                break
        # zero coefficients on a block of coordinates, so residue-free runs
        start = rng.randint(1, n)
        fns = tuple(
            restrict(f, Restriction.from_dict(n, {c: 0 for c in range(start, n + 1)}))
            if f.kind == "mod_linear" else f
            for f in fns
        )

        def call(budget):
            return multi_set_expectation(p, n, fns, engine="dp", budget=budget)

        with _packing(False):
            want, keyed = _peak_live_states(call)
        runs = []
        draw_run = _JointLayout._draw_run

        def counted(self, *args):
            runs.append(self.width)
            return draw_run(self, *args)

        with mock.patch.object(_JointLayout, "_draw_run", counted), mock.patch.object(
            _JointLayout, "size", side_effect=AssertionError("fields counted")
        ):
            assert call(None) == want
        packed_runs += any(runs)
        with _packing(True):
            value, peak = _peak_live_states(call)
        assert value == want and peak == keyed
        if not peak:
            continue
        errors = []
        for packs in (True, False):
            with _packing(packs):
                assert call(peak) == want
                with pytest.raises(BudgetExceeded) as raised:
                    call(peak - 1)
                errors.append(str(raised.value))
        assert errors[0] == errors[1] == (
            f"joint-count state space {peak} exceeds the budget {peak - 1}"
        )
    assert packed_runs >= 5


def test_dp_packed_run_refuses_on_the_keyed_state():
    # A residue function mod 5 moved by coordinates 1..3 only, beside a
    # window that the run over coordinates 4..40 spreads over 41 keys, each
    # with up to 5 residues.  Under budgets well below the peak the run
    # step is the one that passes them, and both routes refuse on live
    # state budget + 1, though the packed run holds fewer keys than that.
    n = 40
    cells = {(a, b): Fraction(1 + a + 2 * b) for a in range(2) for b in range(2)}
    p = helpers.dist_from_cells(cells, 2, 2)
    window = make_anchored_symmetric(n, BIT, {"0": (0, n)})
    residue = make_mod_linear(n, BIT, 5, [1, 2, 3] + [0] * (n - 3), 0, (0, 1))

    def call(budget):
        return multi_set_expectation(p, n, (window, residue), engine="dp", budget=budget)

    with _runs(True):
        with _packing(False):
            want, peak = _peak_live_states(call)
        widths = []
        draw_run = _JointLayout._draw_run

        def counted(self, *args):
            widths.append(self.width)
            return draw_run(self, *args)

        with _packing(True), mock.patch.object(_JointLayout, "_draw_run", counted):
            assert call(None) == want
        assert widths and all(widths)
        assert peak > 150
        for budget in (peak // 4, peak // 2, peak - 1):
            errors = []
            for packs in (True, False):
                with _packing(packs), pytest.raises(BudgetExceeded) as raised:
                    call(budget)
                errors.append(str(raised.value))
            assert errors[0] == errors[1] == (
                f"joint-count state space {budget + 1} exceeds the budget {budget}"
            )


def test_dp_packed_fields_hold_long_runs_of_concentrated_weights():
    # n = 320 draws of a support with one tuple of weight 97 in 100: every
    # tuple bumps a window slot at step 1, and the residue function at step
    # 2 has zero coefficients on blocks of 80 coordinates, which draw as
    # runs.  The heavy tuple keeps most mass on few fields, whose values
    # come within a byte of scale^n.  100^320 needs more than `_WIDTH` bits,
    # so the layout's rule walks it keyed; packed anyway, its fields are the
    # 2128 bits that hold 100^320, each rotation mask is built once, and the
    # packed walk equals the keyed one exactly.
    n = 320
    cells = {(0, 0): Fraction(1), (0, 1): Fraction(1), (1, 0): Fraction(1), (1, 1): Fraction(97)}
    p = helpers.dist_from_cells(cells, 2, 2)
    window = make_anchored_symmetric(n, BIT, {"0": (0, 40), "1": (n - 60, n)})
    coeffs = [0 if (c // 80) % 2 == 0 else 1 + c % 3 for c in range(n)]
    residue = make_mod_linear(n, BIT, 5, coeffs, 2, (0, 1))
    assert not _JointLayout((window, residue), p._scaled_support).width
    draw_run, rotation = _JointLayout._draw_run, _JointLayout._rotation
    runs, built = [], collections.Counter()

    def counted(self, *args):
        runs.append((self.width, args[2]))
        return draw_run(self, *args)

    def spy(self, d, a):
        built[d, a, self.width] += 1
        return rotation(self, d, a)

    with _packing(True), mock.patch.object(_JointLayout, "_draw_run", counted), mock.patch.object(
        _JointLayout, "_rotation", spy
    ):
        got = multi_set_expectation(p, n, (window, residue), engine="dp")
    assert runs and {width for width, _ in runs} == {2128} and max(k for _, k in runs) == 80
    assert {width for _, _, width in built} == {2128} and set(built.values()) == {1}
    with _packing(False):
        want = multi_set_expectation(p, n, (window, residue), engine="dp")
    assert isinstance(got, Fraction) and got == want and 0 < got < 1
    with _packing(None):
        assert multi_set_expectation(p, n, (window, residue), engine="dp") == want


def test_dp_packed_run_terms_may_pass_the_field_width():
    # Two tuples of weight 1 (scale 2, fields of 72 bits at n = 64) that
    # both bump a slot, and a residue that only the last coordinate moves:
    # coordinates 1..63 draw as one run, and its terms before their last
    # counts are multinomials near 3^63 (98 bits) in field 0.  They spill
    # into the next fields, but only pass through products and exact
    # divisions on the whole int, so the stored fields, and the value, are
    # exact.
    n = 64
    p = helpers.dist_from_cells({(0, 0): Fraction(1), (1, 1): Fraction(1)}, 2, 2)
    window = make_anchored_symmetric(n, BIT, {"0": (0, n), "1": (0, n)})
    residue = make_mod_linear(n, BIT, 3, [0] * (n - 1) + [1], 1, (0, 1))
    k = n - 1
    terms = (math.comb(k, c) * math.comb(k - c, d) * d for c in range(n) for d in range(n - c))
    assert max(terms).bit_length() > 72
    for packs in (True, False):
        with _packing(packs):
            assert multi_set_expectation(p, n, (window, residue), engine="dp") == Fraction(1, 2)


def _disjoint_runs_only(effects) -> bool:
    """Runs only where the bumps touch pairwise disjoint slots, as the walk
    drew before runs took shared slots."""
    bumps = [bump for _, bump, _ in effects]
    disjoint = sum(bumps) == functools.reduce(operator.or_, bumps, 0)
    return not any(any(turn.inc) for turn, _, _ in effects) and disjoint


def _peak_live_states(call, gate=None):
    """The value of call(None) and the most live states one of its steps
    leaves: the least budget under which it passes."""
    peak = [0]

    def spy(method):
        def wrapped(self, *args):
            states = method(self, *args)
            peak[0] = max(peak[0], self.size(states))
            return states

        return wrapped

    with contextlib.ExitStack() as stack:
        for name in ("_draw", "_draw_run"):
            stack.enter_context(
                mock.patch.object(_JointLayout, name, spy(getattr(_JointLayout, name)))
            )
        if gate is not None:
            stack.enter_context(mock.patch.object(fourier, "_shifts_no_residue", gate))
        value = call(None)
    return value, peak[0]


def test_dp_budget_of_single_draws_admits_shared_slot_runs():
    # A run's states are the states its single draws end on, and those only
    # grow along the run, so a run never peaks above the single draws.  Any
    # budget that passes with shared-slot runs drawn one coordinate at a
    # time still passes, with the same value.
    rng = random.Random(2020)
    shared = 0
    for _ in range(40):
        steps = rng.choice((2, 3))
        p = helpers.random_dist(rng, rng.choice((2, 3)), steps)
        n = rng.randint(6, 14 if steps == 2 else 9)
        special = rng.sample(range(1, n + 1), rng.randint(0, 2))
        while True:
            fns, _ = _random_dp_instance(rng, p, n, special)
            if all(f.kind == "anchored_symmetric" for f in fns):
                break

        def call(budget):
            return multi_set_expectation(p, n, fns, engine="dp", budget=budget)

        want, single = _peak_live_states(call, _disjoint_runs_only)
        value, peak = _peak_live_states(call)
        assert value == want
        assert peak <= single
        shared += peak < single
        if single:
            assert call(single) == want
        if peak:
            assert call(peak) == want
            with pytest.raises(BudgetExceeded, match="joint-count state space"):
                call(peak - 1)
    assert shared >= 10


def test_dp_declined_shared_slot_run_draws_one_coordinate_at_a_time():
    # Independent uniform bits, a window on symbol 0 at each step.  Step 1
    # fixes coordinates 1..8, so those draw as one run that bumps only step
    # 2's slot and ends on 9 counts.  Over coordinates 9..13 the tuple 00
    # bumps both slots, 01 and 10 one each: from 9 live states five single
    # draws reach at most 9, 9, 16, 25 and 36 count pairs, cheaper than
    # walking the C(5 + 3, 3) = 56 compositions from each of the 9 states,
    # so that run draws one coordinate at a time.  (Counted as compositions,
    # 4, 10, 20, 35 and 56 keys, the single draws would look dearer.)
    # Unrestricted, the thirteen coordinates are one run from the one start
    # state.
    n = 13
    p = parse_distribution(helpers.UNIFORM_BITS_TEXT)
    pi = marginal(p, 1)
    window = make_anchored_symmetric(n, BIT, {"0": (3, 9)})
    fixed = restrict(window, Restriction.from_dict(n, {c: c % 2 for c in range(1, 9)}))
    layout = _JointLayout((fixed, window), p._scaled_support)
    effects = layout.effects(9)
    bumps = [bump for _, bump, _ in effects]
    assert len(effects) == 4 and sum(bumps) != functools.reduce(operator.or_, bumps)
    assert not fourier._run_pays(9, 5, effects)
    assert fourier._run_pays(1, n, effects)
    for f1, runs, singles in ((fixed, [8], 5), (window, [n], 0)):
        calls = {"_draw": [], "_draw_run": []}

        def spy(name):
            method = getattr(_JointLayout, name)

            def wrapped(self, states, effects, *args):
                calls[name].append(args[0] if name == "_draw_run" else len(states))
                return method(self, states, effects, *args)

            return wrapped

        with mock.patch.object(_JointLayout, "_draw", spy("_draw")), mock.patch.object(
            _JointLayout, "_draw_run", spy("_draw_run")
        ):
            got = multi_set_expectation(p, n, (f1, window), engine="dp")
        assert calls["_draw_run"] == runs
        assert len(calls["_draw"]) == singles
        assert all(live >= 9 for live in calls["_draw"])
        want = expectation(f1, pi, engine="enumerate") * expectation(window, pi, engine="enumerate")
        assert got == want


def test_dp_refuses_incompatible_functions():
    p = helpers.basic_dist()
    f = make_junta(2, TRIT, [(1, "0")])
    with pytest.raises(ValueError):
        multi_set_expectation(p, 2, (f, f), engine="dp")


def test_budget_refusal_on_enumeration():
    p = helpers.basic_dist()
    f = make_junta(8, TRIT, [(1, "0")])
    with pytest.raises(BudgetExceeded):
        same_set_expectation(p, 8, f, engine="enumerate", budget=10)


def test_multi_set_expectation_validates_shapes():
    p = helpers.basic_dist()
    f = make_junta(2, TRIT, [(1, "0")])
    with pytest.raises(ValueError, match="coordinate count must match n"):
        multi_set_expectation(p, 3, (f, f))
    with pytest.raises(ValueError, match="one function per step"):
        multi_set_expectation(p, 2, (f, f, f))


# ---------------------------------------------------------------------------
# density increment


def test_density_increment_golden_dictator():
    p = helpers.basic_dist()
    f = make_junta(2, TRIT, [(1, "0")])
    g, chain, log = density_increment(p, 2, f, Fraction(1, 4), 2)
    assert len(chain) == 1
    assert chain[0].fixed_items() == [(1, 0)]
    assert log.params["eps_prime"] == Fraction(1, 144)
    assert log.params["iteration_bound"] == 317
    assert log.total_loss() == Fraction(1, 3)
    assert expectation(g, marginal(p, 1)) == 1


def test_density_increment_random_instances():
    rng = random.Random(140)
    p = helpers.basic_dist()
    pi = marginal(p, 1)
    eps = Fraction(1, 4)
    for _ in range(12):
        n = rng.randint(2, 3)
        k = rng.randint(1, 2)
        vals = helpers.random_unit_table(rng, n, 3)
        if sum(vals) == 0:
            vals[0] = Fraction(1, 2)
        f = make_table_function(n, TRIT, vals)
        mu = expectation(f, pi)
        g, chain, log = density_increment(p, n, f, eps, k)
        assert len(chain) <= log.params["iteration_bound"]
        ok, _ = is_resilient(g, eps, k, pi)
        assert ok
        # the expectation never decreases along the chain
        assert expectation(g, pi) >= mu
        for step in log.iterations:
            assert step.after >= step.before


def test_density_increment_rejects_zero_mean():
    p = helpers.basic_dist()
    f = make_table_function(1, TRIT, [Fraction(0)] * 3)
    with pytest.raises(ValueError):
        density_increment(p, 1, f, Fraction(1, 4), 1)


def test_density_increment_rejects_a_wrong_coordinate_count():
    p = helpers.basic_dist()
    f = make_table_function(2, TRIT, [Fraction(1, 2)] * 9)
    for k in (0, 1):
        with pytest.raises(ValueError, match="n disagrees"):
            density_increment(p, 3, f, Fraction(1, 4), k)


# ---------------------------------------------------------------------------
# influence reduction


def test_influence_reduction_golden_dictator_pair():
    p = helpers.basic_dist()
    f = make_junta(1, TRIT, [(1, "0")])
    fns, log = influence_reduction(p, 1, (f, f), Fraction(1, 10))
    assert len(log.iterations) == 1
    step = log.iterations[0]
    assert step.gain >= log.params["tau"] * (1 - log.params["rho"] ** 2) / 2
    pis = [marginal(p, j) for j in (1, 2)]
    for g, pi in zip(fns, pis):
        assert all(
            float(influence(g, pi, i=i)) <= 0.1 for i in range(1, 2)
        )


def test_influence_reduction_certificates_on_random_instances():
    rng = random.Random(77)
    p = helpers.basic_dist()
    tau = Fraction(1, 10)
    r = rho(p)
    gain_floor = float(tau) * (1 - r * r) / 2
    beta_hat = float(tau) * (1 - r * r) / (2 * 2 * 3**3)
    cap = math.floor(2 * 2 / (float(tau) * (1 - r * r)))
    assert cap == 53
    pis = [marginal(p, j) for j in (1, 2)]
    # (j*, i, x_bar, y, z, product before, product after) per iteration, as
    # the per-point enumeration engine logged them
    F = Fraction
    pinned = [
        [(2, 2, (0,), 0, 0, F(203, 768), F(1, 3)), (2, 1, (0,), 0, 1, F(1, 3), F(5, 8))],
        [(2, 2, (1,), 1, 2, F(359, 1152), F(79, 192)), (1, 1, (0,), 0, 2, F(79, 192), F(1))],
        [(2, 1, (1,), 1, 2, F(11, 64), F(21, 64))],
        [(2, 1, (0,), 0, 0, F(161, 384), F(7, 8))],
        [(2, 1, (0,), 0, 0, F(529, 2304), F(55, 128)), (2, 2, (0,), 0, 0, F(55, 128), F(3, 4))],
        [(1, 1, (0,), 0, 0, F(509, 2304), F(167, 384)), (2, 2, (0,), 0, 1, F(167, 384), F(3, 4))],
    ]
    for want in pinned:
        n = rng.randint(1, 2)
        fns = tuple(
            make_table_function(n, TRIT, helpers.random_unit_table(rng, n, 3))
            for _ in range(2)
        )
        out, log = influence_reduction(p, n, fns, tau)
        assert [
            (s.j_star, s.i, s.x_bar, s.y, s.z, s.product_before, s.product_after)
            for s in log.iterations
        ] == want
        assert log.params["product_final"] == want[-1][-1]
        assert len(log.iterations) <= cap
        for step in log.iterations:
            assert float(step.gain) >= gain_floor - 1e-12
            assert float(step.prob_y) >= beta_hat
            assert float(step.prob_z) >= beta_hat
            # the per-iteration product ratio certificate
            assert step.product_before >= beta_hat * step.product_after
        for g, pi in zip(out, pis):
            for i in range(1, n + 1):
                assert float(influence(g, pi, i=i)) <= float(tau) + 1e-12


def test_influence_reduction_refuses_full_correlation():
    p = ap3_distribution()
    f = make_table_function(1, TRIT, [Fraction(1), Fraction(0), Fraction(0)])
    with pytest.raises(ValueError):
        influence_reduction(p, 1, (f, f, f), Fraction(1, 10))


def test_influence_reduction_refuses_a_tau_without_a_finite_iteration_cap():
    p = helpers.basic_dist()
    f = make_junta(1, TRIT, [(1, "0")])
    # 2 l / (tau (1 - rho^2)) overflows to inf for a subnormal tau
    for tau in (1e-310, 5e-324):
        with pytest.raises(ValueError, match="tau"):
            influence_reduction(p, 1, (f, f), tau)


def test_influence_reduction_refuses_mismatched_functions_before_any_work():
    p = helpers.basic_dist()
    # a junta over 30 coordinates would be materialized as a 3^30-point table
    wide = make_junta(30, TRIT, [(1, "0")])
    with pytest.raises(ValueError, match="n disagrees"):
        influence_reduction(p, 1, (wide, wide), Fraction(1, 10))
    one = make_junta(1, TRIT, [(1, "0")])
    bits = make_junta(1, BIT, [(1, "0")])
    with pytest.raises(ValueError, match="alphabet"):
        influence_reduction(p, 1, (one, bits), Fraction(1, 10))


def _reduction_instances(seed):
    """(p, n, tables) with rho(p) < 1: two steps and three, alphabets 2 and 3,
    n <= 3, tables with values in eighths and 0/1 tables."""
    rng = random.Random(seed)
    for ell, m in ((2, 2), (2, 3), (3, 2), (3, 3)):
        for n in (1, 2, 3):
            for denominator in (8, 1):
                while True:
                    p = helpers.random_dist(rng, m, ell)
                    if rho(p) < 1 - 1e-6:
                        break
                tables = [helpers.random_unit_table(rng, n, m, denominator) for _ in range(ell)]
                yield p, n, tables


def _step_fields(step):
    return (
        step.j_star, step.i, step.x_bar, step.y, step.z, step.prob_y, step.prob_z,
        step.before, step.after, step.product_before, step.product_after, step.gain,
    )


def _brute_reduction(p, n, tables, tau, r):
    """The oracle's loop on p's exact weights, with r as rho."""
    cells = dict(p.support())
    assert r == pytest.approx(oracles.rho_brute(cells, p.steps), abs=1e-9)
    return oracles.influence_reduction_brute(
        cells, p.steps, len(p.alphabet), n, tables, tau, r
    )


def test_influence_reduction_matches_brute_oracle_exactly():
    tau = Fraction(1, 10)
    iterations = 0
    for p, n, tables in _reduction_instances(4242):
        symbols = p.alphabet.symbols
        fns = tuple(make_table_function(n, symbols, t) for t in tables)
        out, log = influence_reduction(p, n, fns, tau)
        want_tables, want_steps, want_params = _brute_reduction(p, n, tables, tau, rho(p))
        assert [_step_fields(s) for s in log.iterations] == want_steps
        assert log.params == want_params
        assert [list(f.payload["values"]) for f in out] == want_tables
        iterations += len(want_steps)
    assert iterations >= 20  # the instances exercise the loop, not only its exit


def test_influence_reduction_float_twin_picks_the_same_tuples():
    # tolerance fixed before the loop moved to fibre contractions
    rel = 1e-12
    tau = Fraction(1, 10)
    for p, n, tables in _reduction_instances(4242):
        twin = _float_twin(p)
        # rho is a float on both routes; the twin's own value sets its
        # thresholds and its iteration cap, a floor that can step at a tie
        want_tables, want_steps, want_params = _brute_reduction(p, n, tables, tau, rho(twin))
        symbols = p.alphabet.symbols
        fns = tuple(make_table_function(n, symbols, [float(v) for v in t]) for t in tables)
        out, log = influence_reduction(twin, n, fns, tau)
        got = [_step_fields(s) for s in log.iterations]
        assert [s[:5] for s in got] == [s[:5] for s in want_steps]
        for g, w in zip(got, want_steps):
            flat_g = [g[5], g[6], *g[7], *g[8], g[9], g[10], g[11]]
            flat_w = [w[5], w[6], *w[7], *w[8], w[9], w[10], w[11]]
            assert all(isinstance(x, float) for x in flat_g)
            assert flat_g == pytest.approx([float(x) for x in flat_w], rel=rel, abs=0)
        assert log.params["iteration_cap"] == want_params["iteration_cap"]
        for key in ("rho", "beta_hat", "beta", "product_initial", "product_final"):
            assert log.params[key] == pytest.approx(float(want_params[key]), rel=rel, abs=0)
        for f, t in zip(out, want_tables):
            assert list(f.payload["values"]) == pytest.approx([float(v) for v in t], rel=rel, abs=0)


def _slabs(t, m: int, i: int):
    """The m slabs of the list t along coordinate i (1-based)."""
    s = m ** (i - 1)
    return [[v for idx, v in enumerate(t) if idx // s % m == a] for a in range(m)]


def test_influence_reduction_returns_every_axis_with_chosen_coordinates_dummy():
    """The loop runs on tables over the live coordinates and puts the others
    back as dummy axes: every returned table has all n coordinates, every
    chosen coordinate has m equal slabs in the values and in the view, and
    the view is the one the values build.  n = 1 and runs that choose every
    coordinate keep one dummy axis through the loop."""
    tau = Fraction(1, 10)
    every = 0
    for p, n, tables in _reduction_instances(4242):
        m = len(p.alphabet)
        for dist, cast in ((p, Fraction), (_float_twin(p), float)):
            symbols = p.alphabet.symbols
            fns = tuple(make_table_function(n, symbols, [cast(v) for v in t]) for t in tables)
            out, log = influence_reduction(dist, n, fns, tau)
            chosen = {step.i for step in log.iterations}
            every += n > 1 and len(chosen) == n
            for g in out:
                values = list(g.payload["values"])
                assert (g.kind, g.n, len(values)) == ("table", n, m**n)
                assert g.view == make_table_function(n, symbols, values).view
                for i in chosen:
                    for t in (values, g.view.ints):
                        first, *rest = _slabs(t, m, i)
                        assert all(slab == first for slab in rest)
    assert every >= 4  # runs at n = 2 and 3 that choose every coordinate


# ---------------------------------------------------------------------------
# max-gain inequality


def test_max_gain_equality_case_golden():
    p = helpers.basic_dist()
    f = make_table_function(1, TRIT, [Fraction(1), Fraction(0), Fraction(0)])
    rep = max_gain_check(p, 2, 1, 1, f)
    assert rep.lhs == Fraction(1, 2)
    assert rep.mu == Fraction(1, 3)
    assert rep.influence == Fraction(2, 9)
    assert rep.rhs == pytest.approx(1.0 / 3.0 + (2.0 / 9.0) * 0.75, abs=1e-12)
    assert rep.holds


def test_max_gain_rejects_a_wrong_coordinate_count():
    p = helpers.basic_dist()
    f = make_table_function(2, TRIT, [Fraction(1)] + [Fraction(0)] * 8)
    with pytest.raises(ValueError, match="n disagrees"):
        max_gain_check(p, 1, 1, 3, f)


def test_max_gain_refuses_a_bad_coordinate_or_step_before_building_the_table():
    """3^30 points exceed the default budget, so a check that materialized f
    first would raise BudgetExceeded for these malformed arguments."""
    p = helpers.basic_dist()
    f = make_anchored_symmetric(30, TRIT, {"0": (0, 30)})
    for j_star, i, match in ((1, 0, "coordinate out of range"),
                             (1, 31, "coordinate out of range"),
                             (0, 1, "step 0 out of range"),
                             (3, 1, "step 3 out of range")):
        with pytest.raises(ValueError, match=match):
            max_gain_check(p, j_star, i, 30, f)


def test_max_gain_matches_brute_oracle_and_holds():
    cells, _, ell = oracles.three_cycle_dist()
    p = helpers.basic_dist()
    rng = random.Random(909)
    for _ in range(10):
        n = rng.randint(1, 2)
        vals = helpers.random_unit_table(rng, n, 3)
        f = make_table_function(n, TRIT, vals)

        def fn(x, vals=vals):
            idx = 0
            for d in reversed(x):
                idx = idx * 3 + d
            return vals[idx]

        for j_star in (1, 2):
            for i in range(1, n + 1):
                rep = max_gain_check(p, j_star, i, n, f)
                brute = oracles.max_gain_brute(cells, ell, n, j_star, i, fn)
                assert rep.lhs == brute
                assert rep.holds


def _check_max_gain_against_brute(p, n, values):
    cells = dict(p.support())
    m = len(p.alphabet)
    f = make_table_function(n, p.alphabet.symbols, values)
    for j_star in range(1, p.steps + 1):
        probs = marginal(p, j_star).probs
        for i in range(1, n + 1):
            rep = max_gain_check(p, j_star, i, n, f)
            assert rep.lhs == oracles.max_gain_brute(
                cells, p.steps, n, j_star, i, lambda x: oracles.table_value(values, m, x)
            )
            assert rep.mu == oracles.table_moments_enumerate(values, m, n, probs, True)[0]
            assert rep.influence == oracles.table_influence_enumerate(
                values, m, n, probs, True, i
            )
            assert rep.holds


def test_max_gain_on_a_kernel_over_a_sub_alphabet():
    # step 2 never shows symbol 2, so its double-sample kernel lives on {0, 1}
    rng = random.Random(31)
    for _ in range(4):
        cells = {
            (a, b): Fraction(rng.randint(1, 4)) for a in range(3) for b in range(2)
            if rng.random() < 0.8 or a == b
        }
        p = helpers.dist_from_cells(cells, 3, 2)
        assert marginal(p, 2).probs[2] == 0
        n = rng.randint(1, 2)
        _check_max_gain_against_brute(p, n, helpers.random_unit_table(rng, n, 3))


def test_max_gain_on_three_step_distributions():
    rng = random.Random(32)
    for m in (2, 3):
        for _ in range(2):
            p = helpers.random_dist(rng, m, 3)
            n = rng.randint(1, 2)
            _check_max_gain_against_brute(p, n, helpers.random_unit_table(rng, n, m))


def test_max_gain_float_mode_agrees_with_exact():
    rng = random.Random(33)
    for m, ell in ((2, 2), (3, 2), (2, 3)):
        p = helpers.random_dist(rng, m, ell, full_support=True)
        twin = _float_twin(p)
        n = rng.randint(1, 3)
        values = helpers.random_unit_table(rng, n, m)
        f = make_table_function(n, p.alphabet.symbols, values)
        f_float = make_table_function(n, p.alphabet.symbols, [float(v) for v in values])
        for j_star in range(1, ell + 1):
            for i in range(1, n + 1):
                exact = max_gain_check(p, j_star, i, n, f)
                rep = max_gain_check(twin, j_star, i, n, f_float)
                assert isinstance(rep.lhs, float) and isinstance(rep.influence, float)
                for got, want in ((rep.lhs, exact.lhs), (rep.mu, exact.mu),
                                  (rep.influence, exact.influence), (rep.rhs, exact.rhs)):
                    assert got == pytest.approx(float(want), rel=1e-12, abs=1e-15)
                assert rep.holds == exact.holds


# ---------------------------------------------------------------------------
# closed-form bounds


def test_low_influence_bound_shapes():
    bound, tau = low_influence_bound((0.5, 0.5), 0.5, 2, 0.1, 0.25)
    assert bound == pytest.approx(0.25 ** (2 / 0.75) - 0.1, abs=1e-12)
    assert 0 <= tau < 1  # tau may underflow for harsh parameters
    _, tau_mild = low_influence_bound((0.5, 0.5), 0.1, 2, 0.5, 0.5)
    assert 0 < tau_mild < 1
    with pytest.raises(ValueError):
        low_influence_bound((0.5, 0.5), 1.0, 2, 0.1, 0.25)
    with pytest.raises(ValueError):
        low_influence_bound((0.5,), 0.5, 2, 0.1, 0.25)


# ---------------------------------------------------------------------------
# counterexample catalog


def test_skew_report_matches_exact_oracle_values():
    rep = counterexample_unequal_marginals([6, 9, 12])
    by_n = {e.n: e for e in rep.entries}
    assert by_n[6].value == Fraction(10, 729)
    assert by_n[9].value == Fraction(56, 19683)
    assert by_n[12].value == Fraction(110, 177147)
    for e in rep.entries:
        assert e.mu1 == oracles.skew_measure_exact(e.n, 1)
        assert e.mu2 == oracles.skew_measure_exact(e.n, 2)
    assert rep.ratios_strictly_decreasing
    assert by_n[6].ratio == Fraction(729, 1000)
    assert by_n[9].ratio == Fraction(243, 896)
    assert by_n[12].ratio == Fraction(177147, 2034560)
    # ratio = value / min(mu)^2 cross-checked directly
    for e in rep.entries:
        assert e.ratio == e.value / min(e.mu1, e.mu2) ** 2


def test_skew_s1_measure_golden():
    s1, _ = skew_pair_sets(9)
    pi1 = marginal(skew_pair_distribution(), 1)
    assert expectation(s1, pi1) == Fraction(1792, 19683)
    assert oracles.skew_s1_measure_exact(9) == Fraction(1792, 19683)


def test_catalogs_walk_once_per_distinct_walk(monkeypatch):
    """Each catalog call starts one joint-count walk per distinct walk it
    needs: the three-set catalog one for the triple product and one per set
    (measure and influence together), the skew catalog four cross terms and
    one measure walk per step marginal for each n, the exponent fit one per
    count table."""
    walks = helpers.count_walks(monkeypatch)
    counterexample_three_sets(24)
    assert len(walks) == 4
    walks.clear()
    counterexample_unequal_marginals([9, 12, 15])
    assert len(walks) == 6 * 3
    walks.clear()
    p = _coupled("product", (Fraction(1, 2), Fraction(3, 10), Fraction(1, 5)))
    estimate_hitting_exponent(p, MU_GRID, n=9)
    assert len(walks) == 2


@pytest.mark.parametrize("n, three, skew", [
    (9, 3, 5), (24, 8, 10), (60, 20, 22), (120, 40, 44),
])
def test_catalog_least_passing_budgets(n, three, skew):
    """The three-set catalog passes at ceil(n/3), the states of a window
    [0, ceil(n/3) - 1]; the skew catalog at the width of the count window
    its measure walks span."""
    assert counterexample_three_sets(n, budget=three).triple_product == 0
    with pytest.raises(BudgetExceeded):
        counterexample_three_sets(n, budget=three - 1)
    assert counterexample_unequal_marginals([n], budget=skew).entries[0].n == n
    with pytest.raises(BudgetExceeded):
        counterexample_unequal_marginals([n], budget=skew - 1)


def test_skew_rejects_bad_n():
    with pytest.raises(ValueError):
        counterexample_unequal_marginals([4])


def test_ap3_triple_product_is_zero_on_both_engines():
    for n in (2, 3, 4):
        rep = counterexample_three_sets(n, engine="enumerate")
        assert rep.triple_product == 0
    rep = counterexample_three_sets(12, engine="dp")
    assert rep.triple_product == 0
    assert rep.rho == pytest.approx(1.0, abs=1e-10)


def test_ap3_measures_match_binomial_oracle():
    for n in (6, 12, 60):
        rep = counterexample_three_sets(n, engine="dp")
        want = oracles.ap3_measure_exact(n)
        assert rep.measures == (want, want, want)
    assert float(oracles.ap3_measure_exact(60)) == pytest.approx(
        0.45158877578957235, abs=1e-15
    )


def test_ap3_influences_match_oracle_and_decrease():
    values = []
    for n in (6, 12, 24):
        rep = counterexample_three_sets(n, engine="dp")
        want = oracles.ap3_influence_exact(n)
        assert rep.max_influences == (want, want, want)
        values.append(want)
    assert values[0] > values[1] > values[2]


def test_max_influence_coordinate_classes_match_every_coordinate():
    """One walk per coordinate class (anchor, ignored, the rest) gives E[f]
    and every influence of a window function: the measure equals
    `expectation` and each coordinate's value, hence the maximum, equals
    `influence` there, exactly on exact weights and within FLOAT_REL of the
    exact values on a decimal twin."""
    rng = random.Random(606)
    p = helpers.basic_dist()
    pi, twin = marginal(p, 1), marginal(_float_twin(p), 1)
    for _ in range(20):
        n = rng.randint(1, 7)
        windows = {}
        for sym in rng.sample(range(3), rng.randint(1, 3)):
            lo = rng.randint(0, n // 2)
            windows[sym] = (lo, rng.randint(lo, n))
        anchor = (rng.randint(1, n), rng.randrange(3)) if rng.random() < 0.6 else None
        pool = [c for c in range(1, n + 1) if anchor is None or c != anchor[0]]
        ignored = rng.sample(pool, rng.randint(0, len(pool)))
        f = make_anchored_symmetric(n, TRIT, windows, anchor=anchor, ignored=ignored)
        every = [influence(f, pi, i=i) for i in range(1, n + 1)]
        mu, classes = _count_influences(f, pi, None)
        assert mu == expectation(f, pi)
        assert sorted(i for coords, _ in classes for i in coords) == list(range(1, n + 1))
        for coords, inf in classes:
            assert [every[i - 1] for i in coords] == [inf] * len(coords)
        assert max(inf for _, inf in classes) == max(every)
        mu_twin, twin_classes = _count_influences(f, twin, None)
        _assert_close(mu_twin, mu)
        for coords, inf in twin_classes:
            for i in coords:
                _assert_close(inf, every[i - 1])


def test_residue_coordinate_classes_match_every_coordinate(monkeypatch):
    """A residue function's coordinates of one coefficient are exchangeable:
    one walk per distinct coefficient gives E[f] and the influence of each
    of them, equal to `expectation` and to `influence` at every coordinate
    of the class, exactly on exact weights and within FLOAT_REL on a
    decimal twin."""
    rng = random.Random(607)
    for _ in range(20):
        p = helpers.random_dist(rng, 3, 2)
        pi, twin = marginal(p, 1), marginal(_float_twin(p), 1)
        n, q = rng.randint(1, 8), rng.randint(2, 5)
        coeffs = [rng.randrange(q) for _ in range(n)]
        f = make_mod_linear(
            n, TRIT, q, coeffs, rng.randrange(q), [rng.randrange(q) for _ in range(3)]
        )
        walks = helpers.count_walks(monkeypatch)
        mu, classes = _count_influences(f, pi, None)
        assert len(walks) == len(classes) == len(set(coeffs))
        monkeypatch.undo()
        assert mu == expectation(f, pi)
        assert sorted(i for coords, _ in classes for i in coords) == list(range(1, n + 1))
        mu_twin, twin_classes = _count_influences(f, twin, None)
        _assert_close(mu_twin, mu)
        for (coords, inf), (_, inf_twin) in zip(classes, twin_classes):
            assert {coeffs[i - 1] for i in coords} == {coeffs[coords[0] - 1]}
            for i in coords:
                assert influence(f, pi, i=i) == inf
                _assert_close(inf_twin, inf)


def test_ap3_support_feeds_exactly_one_scarcity_count():
    # steps block symbols 2, 1, 0 in order; every support tuple trips exactly
    # one blocked symbol, so the three counts sum to n and cannot all stay low
    p = ap3_distribution()
    blocked = (2, 1, 0)
    for tup, _ in p.support():
        hits = sum(1 for step, sym in enumerate(tup) if sym == blocked[step])
        assert hits == 1


# ---------------------------------------------------------------------------
# Markov reduction


def test_markov_identity_on_basic():
    p = helpers.basic_dist()
    f = make_junta(2, TRIT, [(1, "0")])
    rep = markov_same_set_check(p, 2, f)
    assert rep.equal
    assert rep.pointwise_ok
    assert rep.lhs == Fraction(1, 6)


def test_markov_identity_on_random_chains():
    rng = random.Random(31337)
    for _ in range(8):
        p = helpers.random_markov_dist(rng, m=rng.choice((2, 3)), steps=3)
        n = rng.randint(1, 2)
        m = len(p.alphabet)
        f = make_table_function(
            n, p.alphabet.symbols, helpers.random_unit_table(rng, n, m)
        )
        rep = markov_same_set_check(p, n, f)
        assert rep.equal
        assert rep.pointwise_ok
        assert rep.ell == 3


def _float_chain(rng: random.Random, m: int, steps: int) -> StepDistribution:
    """Float Markov chain with eighths for pi and rows: every weight and every
    partial sum of weights is a float exactly, in any order."""
    def eighths():
        cuts = sorted(rng.randint(0, 8) for _ in range(m - 1))
        return [Fraction(b - a, 8) for a, b in zip([0] + cuts, cuts + [8])]

    pi = eighths()
    rows = [eighths() for _ in range(m)]
    weights = []
    for idx in range(m**steps):
        tup = [(idx // m**j) % m for j in range(steps)]
        w = pi[tup[0]]
        for a, b in zip(tup, tup[1:]):
            w *= rows[a][b]
        weights.append(float(w))
    return StepDistribution(Alphabet(tuple(str(a) for a in range(m))), steps, tuple(weights), False)


def test_prefix_distribution_equals_the_brute_force_marginal():
    rng = random.Random(4242)
    chains = [helpers.random_markov_dist(rng, m=rng.choice((2, 3)), steps=rng.choice((2, 3, 4)))
              for _ in range(10)]
    chains += [_float_chain(rng, rng.choice((2, 3)), rng.choice((2, 3, 4))) for _ in range(10)]
    for p in chains:
        prefix = _prefix_distribution(p)
        assert prefix.exact == p.exact and prefix.steps == p.steps - 1
        want = oracles.prefix_marginal_brute(dict(p.support()))
        assert dict(prefix.support()) == want
        assert all(isinstance(w, Fraction if p.exact else float) for w in prefix.weights)


def test_markov_check_refuses_non_markov():
    with pytest.raises(ValueError):
        markov_same_set_check(ap3_distribution(), 1, make_junta(1, TRIT, [(1, "0")]))


# ---------------------------------------------------------------------------
# exponent fits


MU_GRID = (0.05, 0.08, 0.12, 0.2, 0.3, 0.45, 0.6)


def test_exponent_independent_steps_slope_two():
    p = parse_distribution(helpers.UNIFORM_BITS_TEXT)
    rep = estimate_hitting_exponent(p, MU_GRID, n=30)
    assert rep.slope == pytest.approx(2.0, abs=1e-9)


def test_exponent_identity_coupling_slope_one():
    p = parse_distribution(helpers.IDENTITY_BITS_TEXT)
    rep = estimate_hitting_exponent(p, MU_GRID, n=30)
    assert rep.slope == pytest.approx(1.0, abs=1e-9)


def test_exponent_refuses_asymmetric_distributions():
    with pytest.raises(ValueError):
        estimate_hitting_exponent(helpers.basic_dist(), MU_GRID, n=10)
    with pytest.raises(ValueError):
        estimate_hitting_exponent(helpers.skew_dist(), MU_GRID, n=10)


def test_exponent_refuses_three_steps():
    with pytest.raises(ValueError):
        estimate_hitting_exponent(ap3_distribution(), MU_GRID, n=10)


@pytest.mark.parametrize("n", [0, -1])
def test_exponent_refuses_n_below_one(n):
    with pytest.raises(ValueError, match="n must be >= 1"):
        estimate_hitting_exponent(parse_distribution(helpers.UNIFORM_BITS_TEXT), MU_GRID, n=n)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, None, "0.3"])
def test_exponent_refuses_targets_that_are_not_finite_numbers(bad):
    with pytest.raises(ValueError, match="targets must be finite numbers"):
        estimate_hitting_exponent(parse_distribution(helpers.UNIFORM_BITS_TEXT), [0.1, bad], n=10)


# (coupling of the two steps, step marginal, n); symbol 0 carries the threshold
FIT_FAMILIES = [
    ("product", (Fraction(3, 10), Fraction(7, 10)), 12),
    ("identity", (Fraction(3, 10), Fraction(7, 10)), 17),
    ("product", (Fraction(1, 2), Fraction(3, 10), Fraction(1, 5)), 9),
    ("identity", (Fraction(1, 5), Fraction(1, 2), Fraction(3, 10)), 22),
    ("product", (Fraction(2, 5), Fraction(1, 10), Fraction(1, 2)), 16),
]


def _coupled(coupling: str, pi, decimal: bool = False) -> StepDistribution:
    """Two steps with marginal pi each, drawn independently ('product') or
    equal ('identity'); `decimal` writes the weights as decimals (float mode)."""
    m = len(pi)
    if coupling == "product":
        cells = {(x, y): pi[x] * pi[y] for x in range(m) for y in range(m)}
    else:
        cells = {(x, x): w for x, w in enumerate(pi)}
    lines = ["alphabet " + " ".join(str(a) for a in range(m)), "steps 2"]
    lines += [f"entry {x} {y} {float(w) if decimal else w}" for (x, y), w in cells.items()]
    return parse_distribution("\n".join(lines) + "\n")


@pytest.mark.parametrize("coupling, pi, n", FIT_FAMILIES)
def test_exponent_points_equal_the_per_member_route_and_the_binomial_tails(coupling, pi, n):
    p = _coupled(coupling, pi)
    rep = estimate_hitting_exponent(p, MU_GRID, n=n)
    members = {}
    for t in range(n + 1):
        f = make_anchored_symmetric(n, p.alphabet, {"0": (t, n)})
        mu = expectation(f, marginal(p, 1))
        assert mu == oracles.binom_tail(n, t, pi[0])
        if 0 < mu < 1:
            members[t] = (mu, f)
    chosen = {
        min(members, key=lambda t: abs(float(members[t][0]) - target)) for target in MU_GRID
    }
    want = []
    for t in sorted(chosen):
        mu, f = members[t]
        delta = same_set_expectation(p, n, f)
        assert delta == oracles.threshold_same_set(n, t, pi[0], coupling)
        want.append((float(mu), float(delta)))
    assert rep.points == tuple(want)
    assert rep.slope == pytest.approx(2.0 if coupling == "product" else 1.0, abs=1e-9)


@pytest.mark.parametrize("coupling, pi, n", FIT_FAMILIES)
def test_exponent_of_decimal_weights_matches_the_exact_fit(coupling, pi, n):
    """A decimal twin's points agree within 1e-12 with the exact fit's, and
    with `expectation` and `same_set_expectation` read member by member on
    the twin itself."""
    exact = estimate_hitting_exponent(_coupled(coupling, pi), MU_GRID, n=n)
    p = _coupled(coupling, pi, decimal=True)
    twin = estimate_hitting_exponent(p, MU_GRID, n=n)
    assert len(twin.points) == len(exact.points)
    tails = {float(oracles.binom_tail(n, t, pi[0])): t for t in range(n + 1)}
    for got, want in zip(twin.points, exact.points):
        assert got == pytest.approx(want, rel=1e-12)
        f = make_anchored_symmetric(n, p.alphabet, {"0": (tails[want[0]], n)})
        per_member = (expectation(f, marginal(p, 1)), same_set_expectation(p, n, f))
        assert got == pytest.approx(per_member, rel=1e-12)
    assert twin.slope == pytest.approx(exact.slope, rel=1e-12)


def test_exponent_budget_caps_the_live_states_of_the_joint_walk():
    n, t0 = 12, 4
    p = parse_distribution(helpers.UNIFORM_BITS_TEXT)  # independent uniform bits
    grid = [float(oracles.binom_tail(n, t, Fraction(1, 2))) for t in (t0, 8)]
    # after k draws every count pair in [0, k]^2 is reachable; the walk keeps
    # those whose counts can still reach t0 in the n - k draws left
    peak = max((k + 1 - max(0, t0 - (n - k))) ** 2 for k in range(1, n + 1))
    assert peak > n + 1  # the marginal walk's n + 1 counts fit under both budgets
    rep = estimate_hitting_exponent(p, grid, n=n, budget=peak)
    assert [mu for mu, _ in rep.points] == grid
    with pytest.raises(BudgetExceeded):
        estimate_hitting_exponent(p, grid, n=n, budget=peak - 1)
