"""The restriction searches of `is_resilient` and `density_increment`.

Both searches are compared with the brute-force oracles in tests/oracles.py,
which restrict and average every candidate on its own, over plain value
lists.  Also here: the exact candidate-count refusals of both searches.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest

import helpers
import oracles
from corrhit import fourier, hitting
from corrhit.dist_core import Alphabet, MarginalDistribution, StepDistribution, marginal
from corrhit.fourier import (
    TABLE_BUDGET,
    BudgetExceeded,
    _find_restriction,
    _resilience_witness,
    expectation,
    is_resilient,
    make_anchored_symmetric,
    make_junta,
    make_table_function,
    to_table,
)
from corrhit.hitting import density_increment


def exact_marginal(rng: random.Random, m: int, with_zero: bool):
    weights = [rng.randint(1, 9) for _ in range(m)]
    if with_zero:
        weights[rng.randrange(m)] = 0
    total = sum(weights)
    probs = tuple(Fraction(w, total) for w in weights)
    return MarginalDistribution(Alphabet(tuple(str(a) for a in range(m))), probs, True)


def float_marginal(pi):
    return MarginalDistribution(pi.alphabet, tuple(float(p) for p in pi.probs), False)


def random_values(rng: random.Random, m: int, n: int):
    out = []
    for _ in range(m**n):
        d = rng.randint(1, 12)
        out.append(Fraction(rng.randint(0, d), d))
    return out


def search_sizes(m: int, n: int, limit: int):
    """Every k in 0..n whose full search costs the oracle at most `limit`
    point visits (m^n per candidate), and always k <= 1."""
    for k in range(0, n + 1):
        if k <= 1 or m**n * candidate_count(n, m, range(0, k + 1)) <= limit:
            yield k


def candidate_count(n: int, support: int, sizes) -> int:
    return sum(math.comb(n, s) * support**s for s in sizes)


def resilience_instances(seed: int):
    """(m, n, k, eps, pi, values) over m in {2,3,4}, n in 1..5, k in 0..n."""
    rng = random.Random(seed)
    for m in (2, 3, 4):
        for n in range(1, 6):
            for k in search_sizes(m, n, 30_000):
                pi = exact_marginal(rng, m, with_zero=rng.random() < 0.4)
                # near-constant tables make late witnesses and resilient outcomes
                if rng.random() < 0.5:
                    values = random_values(rng, m, n)
                else:
                    values = [Fraction(rng.randint(8, 10), 16) for _ in range(m**n)]
                eps = rng.choice((Fraction(0), Fraction(1, 20), Fraction(1, 5), Fraction(1, 2)))
                yield m, n, k, eps, pi, values


def witness_dict(witness):
    return None if witness is None else dict(witness.fixed_items())


def test_is_resilient_witness_equals_oracle():
    witnesses = resilient = 0
    for m, n, k, eps, pi, values in resilience_instances(6060):
        f = make_table_function(n, pi.alphabet, values)
        for upper_only in (False, True):
            ok, witness = is_resilient(f, eps, k, pi, upper_only=upper_only)
            want = oracles.resilience_witness_brute(
                values, m, n, pi.probs, eps, k, upper_only, True
            )
            assert witness_dict(witness) == want
            assert ok == (want is None)
            if witness is not None:
                assert witness.entries.count(None) == n - len(want)
                witnesses += 1
            else:
                resilient += 1
    assert witnesses > 20 and resilient > 20


def test_is_resilient_float_mode_equals_oracle():
    rng = random.Random(6061)
    for m, n, k, eps, pi, values in resilience_instances(6062):
        cases = [
            (pi, [float(v) for v in values]),
            (float_marginal(pi), values),
            (pi, [rng.randint(0, 1) for _ in values]),  # int tables are not exact
        ]
        for marg, vals in cases:
            f = make_table_function(n, pi.alphabet, vals)
            ok, witness = is_resilient(f, float(eps), k, marg)
            want = oracles.resilience_witness_brute(
                vals, m, n, marg.probs, float(eps), k, False, False
            )
            assert witness_dict(witness) == want


def density_instances(seed: int):
    """(p, n, k, eps, values): full-diagonal distributions (alpha > 0 makes
    every first-step symbol positive), m in {2,3,4}, n in 1..5, k in 1..n."""
    rng = random.Random(seed)
    for m in (2, 3, 4):
        for n in range(1, 6):
            for k in search_sizes(m, n, 6_000):
                if k == 0:
                    continue
                p = helpers.random_dist(rng, m, 2, positive_diagonal=True)
                while True:
                    values = random_values(rng, m, n)
                    if any(values):
                        break
                eps = rng.choice((Fraction(1, 4), Fraction(1), Fraction(4), Fraction(16)))
                yield p, n, k, eps, values


def brute_alpha(p):
    m = len(p.alphabet)
    return min(p.weight((x, x)) for x in range(m))


def check_density_against_oracle(p, n, k, eps, values, exact):
    m = len(p.alphabet)
    pi = marginal(p, 1)
    f = make_table_function(n, p.alphabet, values)
    a = brute_alpha(p)
    eps_prime = a**k * eps if exact else float(a) ** k * float(eps)
    g, chain, log = density_increment(p, n, f, eps, k)
    want_values, want_steps = oracles.density_increment_brute(
        values, m, n, pi.probs, eps_prime, k, exact
    )
    assert [dict(r.fixed_items()) for r in chain] == [s[0] for s in want_steps]
    assert len(log.iterations) == len(want_steps)
    for step, (fixed, before, after, loss) in zip(log.iterations, want_steps):
        assert dict(step.restriction.fixed_items()) == fixed
        got = (step.before, step.after, step.loss)
        if exact:
            assert all(type(x) is Fraction for x in got)
            assert got == (before, after, loss)
        else:
            for x, y in zip(got, (before, after, loss)):
                assert type(x) is float and abs(x - y) <= 1e-12
    if exact:
        assert list(g.payload["values"]) == want_values
    else:
        assert all(abs(x - y) <= 1e-12 for x, y in zip(g.payload["values"], want_values))
    return len(want_steps)


def test_density_increment_equals_oracle():
    steps = 0
    for p, n, k, eps, values in density_instances(7070):
        steps += check_density_against_oracle(p, n, k, eps, values, True)
    assert steps > 30


def test_density_increment_float_mode_equals_oracle():
    for p, n, k, eps, values in density_instances(7071):
        fp = StepDistribution(
            p.alphabet, p.steps, tuple(float(w) for w in p.weights), False
        )
        check_density_against_oracle(fp, n, k, float(eps), [float(v) for v in values], False)


def test_density_increment_on_other_kinds_equals_oracle():
    """Juntas and anchored window functions search by expectation(restrict(...))
    per candidate; their chains are those of their tables."""
    rng = random.Random(7072)
    p = helpers.random_dist(rng, 3, 2, positive_diagonal=True)
    pi = marginal(p, 1)
    fns = [
        make_junta(3, p.alphabet, [(2, 1)]),
        make_junta(4, p.alphabet, [(1, 0), (3, 2)]),
        make_anchored_symmetric(3, p.alphabet, {0: (1, 2)}, anchor=(2, 1)),
        make_anchored_symmetric(4, p.alphabet, {2: (0, 2), 1: (1, 3)}, ignored=(4,)),
    ]
    for f in fns:
        for k in (1, 2):
            eps = Fraction(1, 2)
            values = list(to_table(f).payload["values"])
            _, chain, log = density_increment(p, f.n, f, eps, k)
            eps_prime = brute_alpha(p) ** k * eps
            _, want = oracles.density_increment_brute(values, 3, f.n, pi.probs, eps_prime, k, True)
            assert [dict(r.fixed_items()) for r in chain] == [s[0] for s in want]
            assert [(s.before, s.after, s.loss) for s in log.iterations] == [s[1:] for s in want]


def random_density_function(rng: random.Random, n: int, pi):
    """A table, a junta or an anchored window function with E[f] > 0."""
    m = len(pi.alphabet)
    while True:
        kind = rng.choice(("table", "junta", "window"))
        if kind == "table":
            f = make_table_function(n, pi.alphabet, random_values(rng, m, n))
        elif kind == "junta":
            coords = rng.sample(range(1, n + 1), rng.randint(1, n))
            f = make_junta(n, pi.alphabet, [(c, rng.randrange(m)) for c in coords])
        else:
            ignored = rng.sample(range(1, n + 1), rng.randint(0, n - 1))
            rest = [c for c in range(1, n + 1) if c not in ignored]
            anchor = (rng.choice(rest), rng.randrange(m)) if rng.random() < 0.5 else None
            lo = rng.randint(0, len(rest) - 1)
            windows = {rng.randrange(m): (lo, rng.randint(lo, len(rest)))}
            f = make_anchored_symmetric(n, pi.alphabet, windows, anchor=anchor, ignored=ignored)
        if expectation(f, pi) > 0:
            return f


def test_resilience_recheck_over_free_coordinates_equals_is_resilient():
    """The final g of a density run ignores every coordinate its chain fixed;
    the re-check over the other coordinates gives the (ok, witness) of
    `is_resilient` over all of them, for every k and for bounds that do and
    do not hold, exact and in float mode."""
    rng = random.Random(7073)
    fixed = checked = witnesses = 0
    for m in (2, 3):
        for n in range(1, 5):
            for _ in range(6):
                p = helpers.random_dist(rng, m, 2, full_support=True, positive_diagonal=True)
                f = random_density_function(rng, n, marginal(p, 1))
                k_run = rng.randint(0, n)
                fp = StepDistribution(p.alphabet, p.steps, tuple(map(float, p.weights)), False)
                f_float = f
                if f.kind == "table":
                    floats = list(map(float, f.payload["values"]))
                    f_float = make_table_function(n, p.alphabet, floats)
                for dist, fn, eps in ((p, f, Fraction(1, 2)), (fp, f_float, 0.5)):
                    pi = marginal(dist, 1)
                    g, chain, _ = density_increment(dist, n, fn, eps, k_run)
                    free = [c for c in range(1, n + 1)
                            if all(r.entries[c - 1] is None for r in chain)]
                    fixed += len(free) < n
                    for k in range(0, n + 1):
                        for e in (eps / 8, eps, 4 * eps):
                            got = _resilience_witness(g, e, k, pi, TABLE_BUDGET, free)
                            assert got == is_resilient(g, e, k, pi)
                            checked += 1
                            witnesses += got[1] is not None
    assert fixed >= 40 and witnesses >= 80 and checked - witnesses >= 500


def test_density_increment_contracts_only_sets_of_free_coordinates(monkeypatch):
    """Each search of a density run contracts only the coordinate sets that
    avoid the coordinates its chain has fixed: up to the hit's set while the
    chain grows, all of them in the last search and in the re-check (which
    also takes the empty set)."""
    p = helpers.random_dist(random.Random(5), 2, 2, full_support=True, positive_diagonal=True)
    n, k, eps = 5, 2, Fraction(1, 4)
    values = [Fraction(0)] * 31 + [Fraction(1)]  # the AND of five bits
    f = make_table_function(n, p.alphabet, values)
    calls = []
    contract = fourier._restriction_values

    def counted(f, pi, coords, support):
        calls.append(coords)
        return contract(f, pi, coords, support)

    monkeypatch.setattr(fourier, "_restriction_values", counted)
    _, chain, _ = density_increment(p, n, f, eps, k)
    assert len(chain) >= 2

    def sets(sizes, free, stop=None):
        out = []
        for size in sizes:
            for coords in itertools.combinations(range(1, n + 1), size):
                if set(coords) <= free:
                    out.append(coords)
                if coords == stop:
                    return out
        return out

    free, want, full = set(range(1, n + 1)), [], 0
    for r in chain:
        hit = tuple(c for c, _ in r.fixed_items())
        want += sets(range(1, k + 1), free, hit)
        full += len(sets(range(1, k + 1), set(range(1, n + 1)), hit))
        free -= set(hit)
    want += sets(range(1, k + 1), free) + sets(range(0, k + 1), free)
    assert calls == want
    # every set of every search, as a search over all coordinates contracts them
    full += candidate_count(n, 1, range(1, k + 1)) + candidate_count(n, 1, range(0, k + 1))
    assert len(want) < full


def test_search_bounds_are_exact_at_and_near_the_values():
    """f = (1/4, 3/4) over a uniform bit: the size-1 candidates have E[Rf] =
    1/4 and 3/4.  Bounds at a value and 1/1000 beside it, exact and as floats."""
    pi = MarginalDistribution(Alphabet(("0", "1")), (Fraction(1, 2), Fraction(1, 2)), True)
    f = make_table_function(1, pi.alphabet, [Fraction(1, 4), Fraction(3, 4)])
    d = Fraction(1, 1000)

    def hit(upper, strict, lower=None):
        found = _find_restriction(f, pi, 1, 1, 10, upper, strict, lower)
        return None if found is None else (found[0].entries[0], found[1])

    for cast in (Fraction, float):
        assert hit(cast(Fraction(3, 4)), False) == (1, Fraction(3, 4))
        assert hit(cast(Fraction(3, 4)), True) is None
        assert hit(cast(Fraction(3, 4) - d), True) == (1, Fraction(3, 4))
        assert hit(cast(Fraction(3, 4) + d), False) is None
        assert hit(cast(Fraction(1)), True, cast(Fraction(1, 4))) is None
        assert hit(cast(Fraction(1)), True, cast(Fraction(1, 4) + d)) == (0, Fraction(1, 4))
    ok, witness = is_resilient(f, Fraction(1, 4), 1, pi)  # bounds 3/8 and 5/8
    assert not ok and witness.entries == (0,)
    ok, witness = is_resilient(f, Fraction(1, 4), 1, pi, upper_only=True)
    assert not ok and witness.entries == (1,)


# ---------------------------------------------------------------------------
# candidate-count refusals


def test_is_resilient_budget_counts_every_candidate_with_the_empty_one():
    pi = exact_marginal(random.Random(1), 3, with_zero=True)  # support of 2
    f = make_table_function(3, pi.alphabet, [Fraction(1, 2)] * 27)
    for k in range(0, 4):
        count = candidate_count(3, 2, range(0, k + 1))
        assert is_resilient(f, Fraction(1, 10), k, pi, budget=count) == (True, None)
        with pytest.raises(BudgetExceeded):
            is_resilient(f, Fraction(1, 10), k, pi, budget=count - 1)


def test_is_resilient_budget_stops_at_the_witness():
    """A witness at candidate h is returned with budget h and refused below."""
    pi = exact_marginal(random.Random(2), 2, with_zero=False)
    values = [Fraction(1, 2)] * 8
    values[7] = Fraction(1)  # only x = (1, 1, 1) differs: first witness fixes 1 -> 1
    f = make_table_function(3, pi.alphabet, values)
    ok, witness = is_resilient(f, Fraction(0), 1, pi, upper_only=True)
    assert not ok and witness.fixed_items() == [(1, 1)]
    h = 1 + 2  # the empty restriction, then x1 = 0, then x1 = 1
    assert is_resilient(f, Fraction(0), 1, pi, budget=h, upper_only=True)[1] == witness
    with pytest.raises(BudgetExceeded):
        is_resilient(f, Fraction(0), 1, pi, budget=h - 1, upper_only=True)


def test_density_increment_budget_counts_per_iteration(monkeypatch):
    """The search counts the size >= 1 candidates of one iteration; the final
    exhaustive re-check also counts the empty restriction."""
    p = helpers.random_dist(random.Random(3), 2, 2, full_support=True, positive_diagonal=True)
    n, k, eps = 3, 2, Fraction(1, 4)
    values = [Fraction(0)] * 7 + [Fraction(1)]  # the AND of three bits
    f = make_table_function(n, p.alphabet, values)
    _, chain, _ = density_increment(p, n, f, eps, k)
    assert len(chain) >= 2  # more candidates in total than any one iteration
    count = candidate_count(n, 2, range(1, k + 1))
    density_increment(p, n, f, eps, k, budget=count + 1)
    with pytest.raises(BudgetExceeded):
        density_increment(p, n, f, eps, k, budget=count)  # refused by the re-check
    monkeypatch.setattr(hitting, "_resilience_witness", lambda *args, **kwargs: (True, None))
    density_increment(p, n, f, eps, k, budget=count)
    with pytest.raises(BudgetExceeded):
        density_increment(p, n, f, eps, k, budget=count - 1)
