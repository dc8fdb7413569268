"""Structure a distribution builds on first use and stores on itself
(`dist_core._derived`): built once per object, never shared with a fresh
equal distribution, never mixed between exact and float calls, and equal to
the brute-force oracles on every later read."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import helpers
import oracles
from corrhit import dist_core, hitting
from corrhit.dist_core import (
    StepDistribution,
    _double_sample_matrix,
    double_sample_kernel,
    is_markov_generated,
    rho,
)
from corrhit.fourier import make_table_function
from corrhit.hitting import (
    _EnumerationPlan,
    _MarkovPlan,
    markov_same_set_check,
    max_gain_check,
)


def _fresh(p):
    return StepDistribution(p.alphabet, p.steps, p.weights, p.exact)


def _float_twin(p):
    return StepDistribution(p.alphabet, p.steps, tuple(float(w) for w in p.weights), False)


def _count_builds(monkeypatch, module, name) -> list:
    """Patch module.name to record the distribution of every call."""
    calls = []
    real = getattr(module, name)

    def counted(p, *args):
        calls.append(p)
        return real(p, *args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_repeated_checks_build_each_structure_once(monkeypatch):
    rng = random.Random(1901)
    p = helpers.random_markov_dist(rng, 3, 3)
    n = 2
    fns = [make_table_function(n, p.alphabet, helpers.random_unit_table(rng, n, 3))
           for _ in range(3)]
    builders = (
        (dist_core, "_rho"), (dist_core, "_build_double_sample"),
        (hitting, "_prefix_distribution"),
    )
    builds = {name: _count_builds(monkeypatch, module, name) for module, name in builders}
    bare = set(p.__dict__)

    def run(q):
        for f in fns:
            markov_same_set_check(q, n, f)
            for j in range(1, q.steps + 1):
                max_gain_check(q, j, 1, n, f)
                double_sample_kernel(q, j)
            rho(q)

    run(p)
    assert {name: len(calls) for name, calls in builds.items()} == {
        "_rho": 1, "_build_double_sample": 3, "_prefix_distribution": 1,
    }
    assert set(p.__dict__) - bare == {
        "_rho", "_double_sample_1", "_double_sample_2", "_double_sample_3",
        "_markov_plan", "_enumeration_plan",
    }
    plan = _MarkovPlan.of(p)
    prefix_plan = _EnumerationPlan.of(plan.prefix)
    matrices = [_double_sample_matrix(p, j) for j in (1, 2, 3)]
    run(p)
    assert _MarkovPlan.of(p) is plan and _EnumerationPlan.of(plan.prefix) is prefix_plan
    assert all(_double_sample_matrix(p, j) is s for j, s in zip((1, 2, 3), matrices))
    assert {name: len(calls) for name, calls in builds.items()} == {
        "_rho": 1, "_build_double_sample": 3, "_prefix_distribution": 1,
    }
    # a fresh, equal distribution builds its own
    q = _fresh(p)
    assert q == p and set(q.__dict__) == bare
    run(q)
    assert {name: len(calls) for name, calls in builds.items()} == {
        "_rho": 2, "_build_double_sample": 6, "_prefix_distribution": 2,
    }
    assert _MarkovPlan.of(q) is not plan and _MarkovPlan.of(q).prefix == plan.prefix
    assert _EnumerationPlan.of(_MarkovPlan.of(q).prefix) is not prefix_plan
    for j, s in zip((1, 2, 3), matrices):
        assert _double_sample_matrix(q, j) is not s and _double_sample_matrix(q, j) == s


@pytest.mark.parametrize("exact_first", [True, False])
def test_markov_plan_never_mixes_modes(exact_first):
    rng = random.Random(1902)
    for m, steps, n in ((2, 3, 3), (3, 3, 2), (2, 4, 2)):
        p = helpers.random_markov_dist(rng, m, steps)
        values = helpers.random_unit_table(rng, n, m)
        exact_f = make_table_function(n, p.alphabet, values)
        float_f = make_table_function(n, p.alphabet, [float(v) for v in values])
        want_exact = markov_same_set_check(_fresh(p), n, exact_f)
        want_float = markov_same_set_check(_fresh(p), n, float_f)
        order = (exact_f, float_f) if exact_first else (float_f, exact_f)
        got = {f is exact_f: markov_same_set_check(p, n, f) for f in order}
        assert got[True] == want_exact and isinstance(got[True].lhs, Fraction)
        assert isinstance(got[False].lhs, float)
        assert (got[False].lhs.hex(), got[False].rhs.hex()) == (
            want_float.lhs.hex(), want_float.rhs.hex()
        )
        assert got[False].equal == want_float.equal
        assert set(_MarkovPlan.of(p).modes) == {True, False}
        twin = _float_twin(p)
        markov_same_set_check(twin, n, float_f)
        assert set(_MarkovPlan.of(twin).modes) == {False}


def _chain_off_by(eps: Fraction) -> StepDistribution:
    """A three-step chain whose two step-3 laws after symbol 0 at step 2
    differ by eps."""
    cells = {
        (0, 0, 0): Fraction(1, 4) * (Fraction(1, 2) + eps),
        (0, 0, 1): Fraction(1, 4) * (Fraction(1, 2) - eps),
        (1, 0, 0): Fraction(1, 8),
        (1, 0, 1): Fraction(1, 8),
        (1, 1, 1): Fraction(1, 2),
    }
    return helpers.dist_from_cells(cells, 2, 3)


def test_a_distribution_that_is_not_markov_gets_no_plan():
    # 1e-8 apart: not Markov at the default tol the plan reads, Markov at 1e-6
    r = _chain_off_by(Fraction(1, 10**8))
    assert is_markov_generated(r) == (False, None)
    assert is_markov_generated(r, tol=1e-6)[0]
    with pytest.raises(ValueError, match="Markov"):
        markov_same_set_check(r, 1, make_table_function(1, r.alphabet, [Fraction(1), Fraction(0)]))
    assert "_markov_plan" not in r.__dict__


def test_stored_structure_matches_the_oracles():
    rng = random.Random(1903)
    n = 2
    for m, steps in ((2, 3), (3, 3), (2, 4)):
        p = helpers.random_markov_dist(rng, m, steps)
        cells = dict(p.support())
        values = helpers.random_unit_table(rng, n, m)
        f = make_table_function(n, p.alphabet, values)
        want_chain = oracles.is_markov_generated_brute(cells, steps, m)
        for _ in range(2):  # built on the first pass, read on the second
            assert is_markov_generated(p) == want_chain
            assert markov_same_set_check(p, n, f).equal
            prefix = _MarkovPlan.of(p).prefix
            assert dict(prefix.support()) == oracles.prefix_marginal_brute(cells)
            for j in range(1, steps + 1):
                support, brute = oracles.double_sample_kernel_brute(cells, steps, j)
                k = double_sample_kernel(p, j)
                assert [[k.rows[a][b] for b in range(len(support))] for a in range(len(support))] == [
                    [brute[y, z] for z in support] for y in support
                ]
                rep = max_gain_check(p, j, 1, n, f)
                assert rep.lhs == oracles.max_gain_brute(
                    cells, steps, n, j, 1, lambda x: oracles.table_value(values, m, x)
                )
