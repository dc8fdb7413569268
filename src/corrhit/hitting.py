"""Hitting expectations, reduction loops, bound formulas, and verification suites.

The central quantity is E[prod_j f^(j)(X^(j))] where every coordinate draws a
step tuple independently from one distribution.  Two exact routes compute it:
enumeration of the sum over support assignments, run as contractions of the
step tables along every coordinate, and the joint-count dynamic program of
`fourier` for window and modular-linear functions, run over the
distribution's support tuples (the same program gives their single
expectations and influences).  On top sit the two
constructive loops (density increment and influence reduction), the
closed-form low-influence bound, the counterexample catalogs, the Markov-chain product
identity, and an empirical hitting-exponent fit.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction

from ._util import Number, ScaledView, contract_axes, power_exceeds, scale_to_ints
from .dist_core import (
    MarginalDistribution,
    StepDistribution,
    _derived,
    _double_sample_matrix,
    alpha,
    is_markov_generated,
    marginal,
    parse_distribution,
    rho,
)
from .fourier import (
    TABLE_BUDGET,
    BudgetExceeded,
    FunctionSpec,
    Restriction,
    _BLOCK,
    _contract,
    _count_influences,
    _expectation_contract,
    _fibre,
    _find_restriction,
    _influence_contract,
    _joint_count,
    _kernel_inputs,
    _map_table,
    _marginal_support,
    _repeat_blocks,
    _resilience_witness,
    _slab,
    _view_table,
    _window_counts,
    expectation,
    influence,
    make_anchored_symmetric,
    resolve_engine,
    restrict,
    to_table,
)


# ---------------------------------------------------------------------------
# exact expectation routes
#
# Both routes compile their inputs once per call and run their inner loops on
# plain numbers.  Exact inputs are scaled to integers (support weights by the
# least common denominator of the support, table values by that of each
# table) and divided back once at the end, so the result is the same Fraction
# that rational arithmetic throughout would give.  Float inputs run the same
# loops on floats.


class _EnumerationPlan:
    """What `_multi_enumerate` reads of a distribution p, built once per p.

    With P_k the distinct length-k prefixes of p's support tuples, in order:
    `tuples` lists the support tuples and `width` is max(m, |P_k|);
    `lift[k - 1]` lifts a function of one symbol onto P_k (each prefix reads
    its last symbol), or is None where that matrix is the identity (P_k
    lists the alphabet in order by last symbol); `up[k - 1]` sums the
    children of each prefix of P_k onto P_(k-1).  `modes[exact]` is
    (scale, weights, last): the support weights and the matrix
    last[q][x] = w(q + (x,)) over q in P_(l-1), as the ints of p's view for
    exact mode and as floats (p's own, or float() of its Fractions) for
    float mode, so an exact p read in float mode mixes nothing.  All of it
    derives from the support, which never changes; no result is kept.
    `of(p)` builds it once and stores it on p (`dist_core._derived`).
    """

    def __init__(self, p: StepDistribution):
        m = len(p.alphabet)
        self.tuples = [tup for tup, _ in p._support]
        prefixes = [sorted({tup[:k] for tup in self.tuples}) for k in range(p.steps)]
        self.width = max(m, *map(len, prefixes))
        identity = [[int(a == x) for x in range(m)] for a in range(m)]
        self.lift = []
        for ps in prefixes[1:]:
            lift = [[int(q[-1] == x) for x in range(m)] for q in ps]
            self.lift.append(None if lift == identity else lift)
        self.up = [
            [[int(q[:-1] == r) for q in ps] for r in shorter]
            for shorter, ps in zip(prefixes, prefixes[1:])
        ]
        rank = {q: r for r, q in enumerate(prefixes[-1])}
        floats = [float(w) for _, w in p._support]
        self.modes = {False: (1, floats, self._last(m, floats, rank))}
        if p.exact:
            ints = [w for _, w in p._scaled_support]
            self.modes[True] = (p._scale, ints, self._last(m, ints, rank))

    def _last(self, m: int, weights, rank) -> list:
        last = [[0] * m for _ in rank]
        for tup, w in zip(self.tuples, weights):
            last[rank[tup[:-1]]][tup[-1]] = w
        return last

    @classmethod
    def of(cls, p: StepDistribution) -> _EnumerationPlan:
        return _derived(p, "_enumeration_plan", cls)


def _multi_enumerate(p: StepDistribution, n: int, fns, budget) -> Number:
    """The product expectation as per-coordinate contractions.

    Every coordinate draws its step tuple from p, so the sum over support
    assignments factorizes per axis.  With P_k the distinct length-k prefixes
    of the support tuples, the last step's table contracts by
    W[q][x] = w(q + (x,)) onto P_(l-1)^n; then, for k = l-1 down to 1, f_k is
    lifted onto P_k^n (each prefix reads its last symbol; an identity lift is
    skipped), multiplied in pointwise, and the children of each prefix are
    summed onto P_(k-1)^n, ending on the single point P_0^n.  In exact mode
    that last sum, of f_1 times the contracted rest, is one dot; float mode
    keeps the axis-by-axis contraction, whose order fixes the rounding.
    The matrices and the scaled weights come from p's `_EnumerationPlan`.
    When max(m, |P_k|)^n exceeds `_BLOCK`, the most significant coordinates
    are walked over the support tuples, each taking every table's
    contiguous slab for its symbol, and only the remaining axes are
    contracted.
    """
    support_size = len(p._support)
    cap = TABLE_BUDGET if budget is None else budget
    if power_exceeds(support_size, n, cap):
        raise BudgetExceeded(
            f"{support_size}^{n} support assignments exceed the budget {cap}"
        )
    exact = p.exact and all(f.is_exact() for f in fns)
    if any(f.zero for f in fns):
        return Fraction(0) if exact else 0.0
    m, ell = len(p.alphabet), p.steps
    plan = _EnumerationPlan.of(p)
    lift, up = plan.lift, plan.up
    scale, weights, last = plan.modes[exact]
    den = scale**n
    tables = []
    for f in fns:
        f = to_table(f, budget=budget)
        v_scale, values = f.view.scaled(exact)
        den *= v_scale
        tables.append(values)
    axes = n
    while axes and plan.width**axes > _BLOCK:
        axes -= 1

    def product(slabs) -> Number:
        g = contract_axes(slabs[-1], [last] * axes)
        for k in range(ell - 1, 0, -1):
            f_k = slabs[k - 1]
            if lift[k - 1] is not None:
                f_k = contract_axes(f_k, [lift[k - 1]] * axes)
            if k == 1 and exact:
                return sum(map(operator.mul, g, f_k))
            g = list(map(operator.mul, g, f_k))
            g = contract_axes(g, [up[k - 1]] * axes)
        return g[0]

    def walk(coord: int, slabs) -> Number:
        if coord == axes:
            return product(slabs)
        size = m ** (coord - 1)
        return sum(
            w * walk(coord - 1, [t[x * size:(x + 1) * size] for t, x in zip(slabs, tup)])
            for tup, w in zip(plan.tuples, weights)
        )

    total = walk(n, tables)
    return Fraction(total, den) if exact else float(total)


def _multi_dp(p: StepDistribution, n: int, fns, budget) -> Number:
    """The product expectation by the joint-count program of `fourier`:
    every coordinate draws a support tuple of p, one symbol per step."""
    total = _joint_count(fns, p._scaled_support, n, budget)
    return Fraction(total, p._scale**n) if p.exact else float(total)


def multi_set_expectation(
    p: StepDistribution, n: int, fns, engine: str = "auto", budget: int | None = None,
) -> Number:
    """E[prod_j f^(j)(X^(j))] with coordinates drawn i.i.d. from p, exact.

    The route is `fourier.resolve_engine(engine, fns)`: enumeration of the
    sum over all support assignments, or the joint-count program over the
    support tuples of p.  Both routes scale rational weights and values to
    integers, work on ints, and divide once at the end, so exact inputs give
    exact Fractions; float inputs give floats.

    Enumeration contracts the step tables along every coordinate (see
    `_multi_enumerate`), materializing other kinds with `to_table`; besides
    the tables, no list it builds exceeds 4096 entries.  `budget` caps
    |support|^n for enumeration and the m^n points of every materialized
    function, so a support narrower than the alphabet can pass the first cap
    and fail the second with BudgetExceeded; for the dp it caps the live
    states after each step (one coordinate's draw, or a run of coordinates
    drawn at once, see `fourier._JointLayout.walk`), counted after dropping
    states that can no longer reach some window's lower bound.  A live state
    is one joint value of every window count and every residue with its
    mass.  Exact walks may hold all residues of one set of window counts in
    one packed int, whose nonzero fields are then counted, so the budget
    reads the same on both of the walk's routes.
    """
    fns = tuple(fns)
    if len(fns) != p.steps:
        raise ValueError("need exactly one function per step")
    for f in fns:
        if f.alphabet.symbols != p.alphabet.symbols:
            raise ValueError("function alphabet must match the distribution")
        if f.n != n:
            raise ValueError("function coordinate count must match n")
    if resolve_engine(engine, fns) == "dp":
        return _multi_dp(p, n, fns, budget)
    return _multi_enumerate(p, n, fns, budget)


def same_set_expectation(
    p: StepDistribution, n: int, f: FunctionSpec,
    engine: str = "auto", budget: int | None = None,
) -> Number:
    """E[prod_j f(X^(j))]: one function hit by every step."""
    return multi_set_expectation(p, n, (f,) * p.steps, engine=engine, budget=budget)


# ---------------------------------------------------------------------------
# reduction logs


@dataclass(frozen=True)
class DensityStep:
    """One density-increment iteration."""

    restriction: Restriction
    before: Number
    after: Number
    loss: Number


@dataclass(frozen=True)
class InfluenceStep:
    """One influence-reduction iteration with its recomputed certificates."""

    j_star: int
    i: int
    x_bar: tuple[int, ...]  # symbols for steps other than j_star, ascending step order
    y: int
    z: int
    prob_y: Number
    prob_z: Number
    before: tuple[Number, ...]
    after: tuple[Number, ...]
    product_before: Number
    product_after: Number
    gain: Number


@dataclass(frozen=True)
class ReductionLog:
    """Trace of a reduction loop plus the quantities its certificate needs."""

    kind: str
    iterations: tuple
    params: dict

    def total_loss(self) -> Number:
        out: Number = Fraction(1)
        for step in self.iterations:
            if isinstance(step, DensityStep):
                out *= step.loss
        return out


# ---------------------------------------------------------------------------
# density increment (restriction loop)


def density_increment(
    p: StepDistribution, n: int, f: FunctionSpec, eps, k: int,
    budget: int | None = None,
):
    """Restrict f until it is eps-resilient up to size k, tracking the loss.

    Loop: while some restriction R of size <= k has E[Rg] >= (1 + eps') E[g]
    with eps' = alpha(P)^k * eps, replace g by the first such R's image in
    search order (size, coordinate subset in lex order, then support symbols
    in mixed-radix order).  Stopping makes g eps'-upper-resilient, which
    implies eps-resilience; that implication is not trusted but re-verified
    exhaustively over the free coordinates, those no restriction of the
    chain has fixed (`fourier._resilience_witness`, the check behind
    `is_resilient`).  That covers every restriction: `restrict` makes a fixed
    coordinate dummy, so a restriction that also fixes fixed coordinates has
    the value of its part on free ones, checked at a smaller size, and one
    that fixes only fixed coordinates has the value E[g] of the empty
    restriction.  For the same reason each iteration's search contracts only
    the coordinate sets inside the free coordinates; the others still count
    against the budget.  Expectations run against the first-step marginal.
    For a table, each coordinate set's candidates come from one partial
    contraction of g's integer view, compared with the threshold in ints
    when it is exact; only the chosen restriction is applied.  More than
    `budget` candidates in one iteration raise BudgetExceeded.  Returns
    (g, chain, log) where chain is the tuple of applied restrictions.
    """
    if n != f.n:
        raise ValueError("n disagrees with the function's coordinate count")
    if not 0 <= k <= n:
        raise ValueError("k must lie in [0, n]")
    if eps <= 0:
        raise ValueError("eps must be positive")
    a = alpha(p)
    if a <= 0:
        raise ValueError("needs positive diagonal mass")
    pi = marginal(p, 1)
    mu = expectation(f, pi)
    if mu <= 0:
        raise ValueError("needs E[f] > 0")
    eps_prime = a**k * eps if isinstance(eps, (Fraction, int)) and p.exact else float(a) ** k * float(eps)
    max_iters = math.ceil(2.0 * math.log(1.0 / float(mu)) / float(eps_prime)) if float(mu) < 1 else 0
    cap = TABLE_BUDGET if budget is None else budget

    g = f
    cur = mu
    chain: list[Restriction] = []
    steps: list[DensityStep] = []
    # coordinates no restriction of the chain has fixed; the others are dummy in g
    free = list(range(1, n + 1))
    while True:
        threshold = (1 + eps_prime) * cur
        found = _find_restriction(g, pi, k, 1, cap, threshold, False, free=free)
        if found is None:
            break
        r, val = found
        loss: Number = Fraction(1) if pi.exact else 1.0
        for coord, sym in r.fixed_items():
            loss *= pi.probs[sym]
            free.remove(coord)
        steps.append(DensityStep(r, cur, val, loss))
        chain.append(r)
        g = restrict(g, r)
        cur = val
        if len(steps) > max_iters:
            raise ArithmeticError(
                f"density increment ran {len(steps)} iterations, bound is {max_iters}"
            )

    ok, witness = _resilience_witness(g, eps, k, pi, cap, free)
    if not ok:
        raise ArithmeticError(
            f"stopped function fails the resilience re-check at {witness}"
        )
    total_loss: Number = Fraction(1)
    for s in steps:
        total_loss *= s.loss
    floor = math.exp(-2.0 * math.log(1.0 / float(mu)) / (float(a) ** (2 * k) * float(eps))) if float(mu) < 1 else 1.0
    if float(total_loss) < floor - 1e-12:
        raise ArithmeticError(
            f"certified loss {float(total_loss)} fell below the floor {floor}"
        )
    log = ReductionLog(
        "density_increment",
        tuple(steps),
        {
            "eps": eps,
            "k": k,
            "eps_prime": eps_prime,
            "mu": mu,
            "iteration_bound": max_iters,
            "loss_floor": floor,
            "total_loss": total_loss,
            "final_expectation": cur,
        },
    )
    return g, tuple(chain), log


# ---------------------------------------------------------------------------
# influence reduction (max-operator loop)


def influence_reduction(
    p: StepDistribution, n: int, fns, tau, budget: int | None = None,
):
    """Drive every influence of every step function below tau.

    Per iteration: take the (step, coordinate) pair (j*, i) of maximal
    influence (ties broken toward the smallest coordinate, then step), scan
    all tuples (x-bar, y, z) in mixed-radix order, and apply the first whose
    certificates hold: the expectation sum rises by at least
    tau (1 - rho^2) / 2 and both involved step tuples have probability at
    least beta-hat = tau (1 - rho^2) / (2 l |alphabet|^(l+1)).  The step
    function at j* becomes its max-operator image M[i,y,z] f; every other
    step function gets coordinate i substituted by its x-bar symbol.  The
    product expectation before an iteration must be at least beta-hat times
    the one after it, and the loop must stop within 2 l / (tau (1 - rho^2))
    iterations.  Refuses rho = 1 and a tau so small that this cap is not a
    finite float, and mismatched functions before any work.

    Everything runs on the fibres of the step tables along axis i, read from
    their integer views (as floats when any input is a float).  A chosen
    coordinate is dummy in every step from then on, so the loop's tables
    carry the live coordinates only: each iteration builds the new step
    tables without axis i (keeping one dummy axis once none is live), and
    the returned tables get the dummy axes back once, at the end
    (`fourier._repeat_blocks`).
    Influences, expectations and product expectations over the live axes
    equal those over all n, since a dummy axis only multiplies them by its
    total weight, 1 (exactly, for exact inputs); the log keeps the original
    coordinates.  The influences of a table come from one kernel over one
    common denominator (`fourier._influence_contract`) and are compared by
    cross-multiplying.  A step j != j* gets E[f_j | x_i = a] for every a,
    the expectation of its restriction to that x-bar symbol, from one
    contraction keeping axis i.  E[M[i,y,z] f_j*] is the contraction of the
    fibre max(f[x_i = y], f[x_i = z]) over the other axes, computed per
    unordered pair {y, z} when the scan first reaches it and kept for that
    iteration only (`_MaxFibres`).  Candidates meet the gain threshold in
    ints over the lcm of the steps' denominators, and only the chosen tuple
    builds its max-operator and restricted tables, each the fibre max along
    axis i (`fourier._fibre`, through `fourier._map_table`).  Each
    iteration's expectations and product expectation carry over as the next
    one's `before` and `product_before`, so the loop runs one product
    expectation per iteration and one per call.  Exact inputs give the same Fractions as
    restricting and averaging every candidate.
    """
    fns = tuple(fns)
    ell = p.steps
    if len(fns) != ell:
        raise ValueError("need exactly one function per step")
    for f in fns:
        if f.n != n:
            raise ValueError("n disagrees with the function's coordinate count")
        if f.alphabet.symbols != p.alphabet.symbols:
            raise ValueError("function alphabet must match the distribution")
    if not 0 < float(tau) <= 1:
        raise ValueError("tau must lie in (0, 1]")
    r = rho(p)
    if r >= 1.0 - 1e-12:
        raise ValueError(
            "correlation is 1: the influence-reduction guarantee fails on such "
            "distributions (three-set counterexample), refusing"
        )
    one_minus = 1.0 - r * r
    span = float(tau) * one_minus
    if not span or math.isinf(2.0 * ell / span):
        raise ValueError(
            f"tau = {float(tau)!r} leaves no finite iteration cap 2 l / (tau (1 - rho^2))"
        )
    fns = tuple(to_table(f, budget=budget) for f in fns)
    m = len(p.alphabet)
    gain_target = span / 2.0
    beta_hat = span / (2.0 * ell * m ** (ell + 1))
    cap_iters = math.floor(2.0 * ell / span)
    marginals = [marginal(p, j) for j in range(1, ell + 1)]
    exact = p.exact and all(f.is_exact() for f in fns)
    # beta_hat > 0, so only support tuples can qualify; compared in ints when exact
    floor = math.ceil(Fraction(beta_hat) * p._scale) if p.exact else beta_hat
    admissible = {tup for tup, w in p._scaled_support if w >= floor}

    cur = list(fns)
    before = tuple(
        _expectation_contract(g, pi, budget, exact) for g, pi in zip(cur, marginals)
    )
    product = product_initial = multi_set_expectation(p, n, fns, budget=budget)
    steps: list[InfluenceStep] = []
    # the coordinates of the tables' axes, in order, while any is live
    live = list(range(1, n + 1))
    while live:
        width = len(live)
        dens, infl = [], []
        for g, pi in zip(cur, marginals):
            _, den, nums = _influence_contract(g, pi, range(1, width + 1), budget, exact)
            dens.append(den)
            infl.append(nums)
        # the first maximum in (coordinate, step) order, by cross-multiplication
        wc = wj = 0
        for c in range(width):
            for j in range(ell):
                if infl[j][c] * dens[wj] > infl[wj][wc] * dens[j]:
                    wc, wj = c, j
        worst = Fraction(infl[wj][wc], dens[wj]) if exact else infl[wj][wc]
        if worst <= tau:
            break
        i, j_star = live.pop(wc), wj + 1
        stride = m**wc  # of coordinate i's axis
        other_steps = [j for j in range(1, ell + 1) if j != j_star]

        # after-values over scales[j]: restricted steps for every symbol from
        # one contraction keeping axis i, the max-operator step per pair
        scales, sums = {}, {}
        for j in range(1, ell + 1):
            _, v_scale, values, w_scale, weights = _kernel_inputs(
                cur[j - 1], marginals[j - 1], budget, exact
            )
            scales[j] = v_scale * w_scale**width
            if j == j_star:
                cols = [_slab(values, m, stride, a) for a in range(m)]
                sums[j] = _MaxFibres(cols, weights, width)
            else:
                mass = sum(weights)
                sums[j] = [c * mass for c in _contract(values, weights, width, keep=(wc + 1,))]
        if exact:
            den = math.lcm(*scales.values())
            lift = {j: den // s for j, s in scales.items()}
            # gain >= gain_target iff the integer sum of after-values reaches it
            threshold = math.ceil((sum(before) + Fraction(gain_target)) * den)
        else:
            lift = dict.fromkeys(scales, 1)
            threshold = sum(before) + gain_target
        hit = None
        for x_bar in itertools.product(range(m), repeat=ell - 1):
            ys = [
                y for y in range(m)
                if _assemble_tuple(x_bar, other_steps, j_star, y) in admissible
            ]
            partial = sum(sums[j][a] * lift[j] for j, a in zip(other_steps, x_bar))
            hit = next(
                (
                    (x_bar, y, z) for y in ys for z in ys
                    if partial + sums[j_star][y, z] * lift[j_star] >= threshold
                ),
                None,
            )
            if hit:
                break
        if hit is None:
            raise ArithmeticError(
                "no qualifying tuple found although an influence exceeds tau; "
                "this contradicts the existence guarantee and flags a bug"
            )
        x_bar, y, z = hit
        picks = dict(zip(other_steps, x_bar))
        picks[j_star] = (y, z)
        # M[i,y,z] f for j*, and f restricted to x_i = a (the fibre max of a
        # and a) for every other step: axis i dropped, or kept as a dummy
        # when it was the last live one
        def fix_axis(y, z):
            if live:
                return lambda t: _fibre(t, m, stride, y, z)
            return lambda t: _repeat_blocks(_fibre(t, m, stride, y, z), m, stride, 0, stride)

        trial = [
            _map_table(g, len(live) or 1, fix_axis(*picks[j]) if j == j_star
                       else fix_axis(picks[j], picks[j]))
            for j, g in enumerate(cur, 1)
        ]
        after = tuple(
            Fraction(sums[j][picks[j]], scales[j]) if exact else sums[j][picks[j]]
            for j in range(1, ell + 1)
        )
        product_after = multi_set_expectation(p, trial[0].n, trial, budget=budget)
        if product < beta_hat * product_after:
            raise ArithmeticError(
                "per-step product certificate failed: "
                f"{float(product)} < beta_hat * {float(product_after)}"
            )
        steps.append(
            InfluenceStep(
                j_star, i, x_bar, y, z,
                p.weight(_assemble_tuple(x_bar, other_steps, j_star, y)),
                p.weight(_assemble_tuple(x_bar, other_steps, j_star, z)),
                before, after, product, product_after, sum(after) - sum(before),
            )
        )
        cur, before, product = trial, after, product_after
        if len(steps) > cap_iters:
            raise ArithmeticError(
                f"influence reduction ran {len(steps)} iterations, cap is {cap_iters}"
            )
    if steps:
        kept = live or [steps[-1].i]

        def spread(t):
            # each block of the c - 1 axes below repeats along the new axis c
            for c in range(1, n + 1):
                if c not in kept:
                    s = m ** (c - 1)
                    t = _repeat_blocks(t, m, s, 0, s)
            return t

        cur = [_map_table(g, n, spread) for g in cur]

    log = ReductionLog(
        "influence_reduction",
        tuple(steps),
        {
            "tau": tau,
            "rho": r,
            "beta_hat": beta_hat,
            "iteration_cap": cap_iters,
            "beta": beta_hat**cap_iters,
            "product_initial": product_initial,
            "product_final": product,
        },
    )
    return tuple(cur), log


class _MaxFibres(dict):
    """Scaled E[M[i,y,z] f] per symbol pair (y, z), from the fibres `cols`
    of f's view along axis i (cols[a] lists the entries with x_i = a in the
    order of the other axes): max(cols[y], cols[z]) contracted over the other
    n - 1 axes, times the mass of axis i, which M[i,y,z] f does not read.
    (y, z) and (z, y) give one image, so each unordered pair is contracted
    once, when it is first looked up."""

    def __init__(self, cols, weights, n: int):
        super().__init__()
        self.cols, self.weights, self.n = cols, weights, n
        self.mass = sum(weights)

    def __missing__(self, pair) -> Number:
        y, z = pair
        cols = self.cols
        fibre = cols[y] if y == z else list(map(max, cols[y], cols[z]))
        self[y, z] = self[z, y] = _contract(fibre, self.weights, self.n - 1)[0] * self.mass
        return self[y, z]


def _assemble_tuple(x_bar, other_steps, j_star, sym) -> tuple[int, ...]:
    ell = len(other_steps) + 1
    out = [0] * ell
    for idx, j in enumerate(other_steps):
        out[j - 1] = x_bar[idx]
    out[j_star - 1] = sym
    return tuple(out)


# ---------------------------------------------------------------------------
# max-operator gain check


@dataclass(frozen=True)
class MaxGainReport:
    lhs: Number
    mu: Number
    influence: Number
    rho: float
    rhs: float
    holds: bool


def max_gain_check(
    p: StepDistribution, j_star: int, i: int, n: int, f: FunctionSpec,
    budget: int | None = None,
) -> MaxGainReport:
    """Average E[M[i,Y,Z]f] over the double sample of step j_star and compare
    against E[f] + Inf_i(f) (1 - rho^2).

    The average is one weighted fibre sum along axis i: with W_yz the
    double-sample masses (the integer matrix S of `_double_sample_matrix`,
    over the support of step j_star; floats py K(y, z) in float mode),
    sum_{y,z} W_yz max(f[x_i = y], f[x_i = z]) is contracted once over the
    other n - 1 axes and divided once.  Exact inputs give the same Fraction
    as averaging the max-operator images one pair at a time.  S and rho are
    built once per distribution and read from it on later calls (see
    `StepDistribution`).  A wrong n, i or j_star raises ValueError before
    any table is built.
    """
    if n != f.n:
        raise ValueError("n disagrees with the function's coordinate count")
    if not 1 <= i <= n:
        raise ValueError("coordinate out of range")
    pi = marginal(p, j_star)
    f = to_table(f, budget=budget)
    mu = expectation(f, pi, budget=budget)
    support, s, lcm, mass = _double_sample_matrix(p, j_star)
    exact, v_scale, values, w_scale, weights = _kernel_inputs(f, pi, budget)
    m = len(weights)
    if exact:
        pair, pair_scale = s, lcm * sum(mass)
    else:
        probs = pi.probs
        pair = [
            [probs[y] * (x / (lcm * mass[a])) for x in row]
            for a, (y, row) in enumerate(zip(support, s))
        ]
        pair_scale = 1
    cols = [_slab(values, m, m ** (i - 1), y) for y in support]
    fibre = None
    for a, b in itertools.combinations_with_replacement(range(len(support)), 2):
        # (y, z) and (z, y) share one max-operator image
        w = pair[a][a] if a == b else pair[a][b] + pair[b][a]
        if not w:
            continue
        term = cols[a] if a == b else map(max, cols[a], cols[b])
        fibre = (
            [w * v for v in term] if fibre is None
            else [u + w * v for u, v in zip(fibre, term)]
        )
    total = _contract(fibre, weights, n - 1)[0] * sum(weights)
    lhs = Fraction(total, pair_scale * v_scale * w_scale**n) if exact else total
    inf = influence(f, pi, i=i, budget=budget)
    r = rho(p)
    rhs = float(mu) + float(inf) * (1.0 - r * r)
    holds = float(lhs) >= rhs - 1e-10
    return MaxGainReport(lhs, mu, inf, r, rhs, holds)


# ---------------------------------------------------------------------------
# closed-form bounds


def low_influence_bound(mus, rho_value, ell: int, eps, a, c_const: float = 10.0):
    """Evaluate the low-influence hitting bound and its tau threshold formula.

    Returns (lower_bound, tau): the bound is (prod mu)^(l/(1-rho^2)) - eps;
    tau is ((1-rho^2) eps / l^(5/2)) raised to
    C l ln(l/eps) ln(1/alpha) / ((1-rho) eps) with configurable constant C.
    """
    mus = tuple(float(m) for m in mus)
    rho_value = float(rho_value)
    eps = float(eps)
    a = float(a)
    if not 0 <= rho_value < 1:
        raise ValueError("needs correlation strictly below 1")
    if not 0 < eps <= 0.5:
        raise ValueError("eps must lie in (0, 1/2]")
    if a <= 0:
        raise ValueError("alpha must be positive")
    if len(mus) != ell:
        raise ValueError("need one density per step")
    prod = 1.0
    for m in mus:
        prod *= m
    one_minus_sq = 1.0 - rho_value**2
    bound = prod ** (ell / one_minus_sq) - eps
    base = one_minus_sq * eps / ell**2.5
    exponent = c_const * ell * math.log(ell / eps) * math.log(1.0 / a) / ((1.0 - rho_value) * eps)
    tau = base**exponent
    return bound, tau


# ---------------------------------------------------------------------------
# counterexample catalogs


SKEW_PAIR_TEXT = """\
alphabet 0 1
steps 2
entry 0 0 1/3
entry 0 1 1/3
entry 1 1 1/3
"""

AP3_TEXT = """\
alphabet 0 1 2
steps 3
entry 0 0 0 1/6
entry 1 1 1 1/6
entry 2 2 2 1/6
entry 0 1 2 1/6
entry 1 2 0 1/6
entry 2 0 1 1/6
"""


_SKEW_PAIR = parse_distribution(SKEW_PAIR_TEXT, name="skew-pair")
_AP3 = parse_distribution(AP3_TEXT, name="ap3")


def skew_pair_distribution() -> StepDistribution:
    """Two steps, uniform over {00, 01, 11}: unequal marginals, rho = 1/2.

    The same immutable instance on every call, so its `rho` is computed once.
    """
    return _SKEW_PAIR


def ap3_distribution() -> StepDistribution:
    """Three steps, uniform over the six arithmetic triples mod 3: rho = 1.

    The same immutable instance on every call, so its `rho` is computed once.
    """
    return _AP3


def _weight_window(n: int, center_num: int, center_den: int) -> tuple[int, int]:
    """Exact bounds of |count - n*center| <= 0.01 n with rational arithmetic."""
    c = Fraction(n * center_num, center_den)
    slack = Fraction(n, 100)
    lo = math.ceil(c - slack)
    hi = math.floor(c + slack)
    return max(lo, 0), min(hi, n)


def _skew_windows(n: int) -> tuple:
    """(anchor symbol at coordinate 1, lo, hi) of the two skew sets: S1 is
    anchored at 1 with its count of 1s near n/3, S2 at 0 with it near 2n/3."""
    return (("1", *_weight_window(n, 1, 3)), ("0", *_weight_window(n, 2, 3)))


def skew_pair_sets(n: int) -> tuple[FunctionSpec, FunctionSpec]:
    """The two anchored weight-window sets of the unequal-marginals example."""
    p = skew_pair_distribution()
    return tuple(
        make_anchored_symmetric(n, p.alphabet, {"1": (lo, hi)}, anchor=(1, sym))
        for sym, lo, hi in _skew_windows(n)
    )


def _skew_measures(pi: MarginalDistribution, n: int, budget) -> list:
    """The measures of the two skew sets under pi, from one joint-count walk.

    A set holds x_1 = a and a count of 1s in [lo, hi], so its measure is
    W_a / sw times the mass of the counts of 1s over coordinates 2..n in
    [lo - [a = 1], hi - [a = 1]].  The walk draws those n - 1 coordinates
    with the window that spans both sets' ranges and keeps each count's
    mass (`fourier._window_counts`).
    """
    ranges = [
        (pi.alphabet.index(sym), lo - (sym == "1"), hi - (sym == "1"))
        for sym, lo, hi in _skew_windows(n)
    ]
    low = max(min(lo for _, lo, _ in ranges), 0)
    high = min(max(hi for _, _, hi in ranges), n - 1)
    span = make_anchored_symmetric(n - 1, pi.alphabet, {"1": (low, high)})
    counts = _window_counts((span,), _marginal_support(pi), n - 1, budget)
    weights, den = pi.view.ints, pi.view.scale**n
    return [
        Fraction(weights[a] * sum(w for (c,), w in counts.items() if lo <= c <= hi), den)
        for a, lo, hi in ranges
    ]


@dataclass(frozen=True)
class SkewEntry:
    n: int
    value: Number
    mu1: Number
    mu2: Number
    ratio: Number
    s1_measure: Number
    s2_measure: Number


@dataclass(frozen=True)
class SkewReport:
    entries: tuple[SkewEntry, ...]
    decay_rate: float
    ratios_strictly_decreasing: bool


def counterexample_unequal_marginals(n_list, budget: int | None = None) -> SkewReport:
    """Same-set expectations of the union set on the skew pair, per n.

    The union indicator splits exactly into the two disjoint anchored sets, so
    E[f f] expands into four cross terms, each one joint-count walk over the
    pair's support tuples.  The four measures (each set under each step
    marginal) take one walk per marginal (`_skew_measures`): six walks per
    n.  Asserts that E[ff] / min(mu1, mu2)^2 strictly decreases along
    n_list.

    `budget` caps the live states after each step of every walk (see
    `fourier._JointLayout.walk`).  The measure walks keep one state per
    count of 1s in the window that spans both sets, so the least passing
    budget is that window's width: 5, 10, 22 and 44 at n = 9, 24, 60 and
    120.
    """
    p = skew_pair_distribution()
    pis = (marginal(p, 1), marginal(p, 2))
    entries = []
    for n in n_list:
        n = int(n)
        if n < 3 or n % 3:
            raise ValueError("each n must be >= 3 and divisible by 3")
        s1, s2 = skew_pair_sets(n)
        value: Number = Fraction(0)
        for fa in (s1, s2):
            for fb in (s1, s2):
                value += multi_set_expectation(p, n, (fa, fb), budget=budget)
        (s1_measure, s2_on_1), (s1_on_2, s2_measure) = (
            _skew_measures(pi, n, budget) for pi in pis
        )
        m1 = s1_measure + s2_on_1
        m2 = s1_on_2 + s2_measure
        ratio = value / min(m1, m2) ** 2
        entries.append(SkewEntry(n, value, m1, m2, ratio, s1_measure, s2_measure))
    decreasing = all(
        entries[t + 1].ratio < entries[t].ratio for t in range(len(entries) - 1)
    )
    if not decreasing:
        raise ArithmeticError("normalized same-set values failed to decrease")
    if len(entries) >= 2:
        xs = [e.n for e in entries]
        ys = [math.log(float(e.value)) for e in entries]
        decay = _fit_slope(xs, ys)[0]
    else:
        decay = float("nan")
    return SkewReport(tuple(entries), decay, decreasing)


def ap3_sets(n: int) -> tuple[FunctionSpec, FunctionSpec, FunctionSpec]:
    """Three symbol-scarcity sets: step 1 wants fewer than n/3 twos, step 2
    fewer than n/3 ones, step 3 fewer than n/3 zeros."""
    if n < 1:
        raise ValueError("n must be >= 1")
    p = ap3_distribution()
    theta = math.ceil(Fraction(n, 3)) - 1
    return tuple(
        make_anchored_symmetric(n, p.alphabet, {sym: (0, theta)})
        for sym in ("2", "1", "0")
    )


@dataclass(frozen=True)
class ThreeSetsReport:
    n: int
    rho: float
    triple_product: Number
    measures: tuple[Number, Number, Number]
    max_influences: tuple[Number, Number, Number]


def counterexample_three_sets(
    n: int, engine: str = "auto", budget: int | None = None,
) -> ThreeSetsReport:
    """AP3 catalog entry: exact triple product (always 0), measures, influences.

    Every support tuple feeds exactly one of the three scarcity counts, so the
    counts sum to n and cannot all stay below n/3; the dynamic program
    reproduces the zero exactly.  `engine` picks the triple product's route.
    Each set's coordinates are exchangeable, so one walk of every coordinate
    but the first gives both its measure and its influence
    (`fourier._count_influences`): four walks in all on the dp.  `budget`
    caps the live states after each step of every walk (see
    `fourier._JointLayout.walk`); each set's walk keeps one state per count
    in its window [0, ceil(n/3) - 1], so the least passing budget is
    ceil(n/3): 3, 8, 20 and 40 at n = 9, 24, 60 and 120.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    p = ap3_distribution()
    fns = ap3_sets(n)
    value = multi_set_expectation(p, n, fns, engine=engine, budget=budget)
    reads = [_count_influences(f, marginal(p, j), budget) for j, f in enumerate(fns, start=1)]
    measures = tuple(mu for mu, _ in reads)
    infl = tuple(max(inf for _, inf in classes) for _, classes in reads)
    return ThreeSetsReport(n, rho(p), value, measures, infl)


# ---------------------------------------------------------------------------
# Markov product identity


@dataclass(frozen=True)
class MarkovCheckReport:
    lhs: Number
    rhs: Number
    equal: bool
    pointwise_ok: bool
    ell: int


class _MarkovPlan:
    """What `markov_same_set_check` reads of a Markov-generated p, built once
    per p.

    `modes[exact]` is (scale, rows): the rows of p's last chain kernel (from
    `is_markov_generated` at its default tol) as ints over one scale for
    exact mode, and as floats with scale 1 for float mode, so an exact p read
    in float mode mixes nothing.  `prefix` is the distribution of the first
    steps - 1 steps (`_prefix_distribution`), which stores its own
    enumeration plan on its first enumeration.  A p that is not Markov gets
    no plan: building one raises ValueError.
    """

    def __init__(self, p: StepDistribution):
        ok, kernels = is_markov_generated(p)
        if not ok:
            raise ValueError("distribution is not generated by a Markov chain")
        flat = [c for row in kernels[-1] for c in row]
        m = len(kernels[-1])
        self.modes = {}
        for exact in {False, p.exact}:
            scale, ints = scale_to_ints(flat, exact)
            self.modes[exact] = (scale, [ints[a * m:(a + 1) * m] for a in range(m)])
        self.prefix = _prefix_distribution(p)

    @classmethod
    def of(cls, p: StepDistribution) -> _MarkovPlan:
        return _derived(p, "_markov_plan", cls)


def _apply_kernel_tensor(kernel, f: FunctionSpec, exact: bool):
    """(scale, h) with h[x] / scale = sum_y prod_i K(x_i, y_i) f(y): the
    kernel, (k_scale, rows) of a `_MarkovPlan` mode, applied along every
    axis of f's view."""
    k_scale, rows = kernel
    v_scale, values = f.view.scaled(exact)
    scale = v_scale * k_scale**f.n
    h = contract_axes(values, [rows] * f.n)
    if any(v < 0 or v > scale for v in h):
        raise ArithmeticError("kernel application left [0,1]")
    return scale, h


def _prefix_distribution(p: StepDistribution) -> StepDistribution:
    """Marginal of the first steps - 1 steps as a StepDistribution.

    The prefix masses are summed on the integer view, in index order, and
    divided by its scale once per cell (floats keep scale 1).
    """
    masses: dict[tuple[int, ...], Number] = {}
    for tup, w in p._scaled_support:
        masses[tup[:-1]] = masses.get(tup[:-1], 0) + w
    ratio = Fraction if p.exact else operator.truediv
    cells = {tup: ratio(w, p._scale) for tup, w in masses.items()}
    return StepDistribution.from_cells(p.alphabet, p.steps - 1, cells)


def markov_same_set_check(
    p: StepDistribution, n: int, f: FunctionSpec, budget: int | None = None,
) -> MarkovCheckReport:
    """Verify the chain-contraction identity for Markov-generated distributions.

    With T the last-step transition matrix and h = T applied coordinatewise to
    f, the product g = f * h satisfies: the full product expectation over all
    steps equals the product over the first steps - 1 with the last function
    replaced by g.  Also checks g <= f pointwise.

    The chain kernels, the last one scaled to ints, and the (steps - 1)-step
    distribution are built on the first call for `p` and stored on it
    (`_MarkovPlan`); each call computes only what depends on f.
    """
    plan = _MarkovPlan.of(p)
    f = to_table(f, budget=budget)
    ell = p.steps
    exact = p.exact and f.is_exact()
    h_scale, h = _apply_kernel_tensor(plan.modes[exact], f, exact)
    v_scale, values = f.view.scaled(exact)
    # g = f h over v_scale * h_scale, so g <= f iff g_ints <= values * h_scale
    g_ints = tuple(map(operator.mul, values, h))
    g_scale = v_scale * h_scale
    pointwise_ok = all(gv <= fv * h_scale for gv, fv in zip(g_ints, values))
    g = _view_table(f.n, f.alphabet, ScaledView(exact, g_scale, g_ints))
    lhs = multi_set_expectation(p, n, (f,) * ell, budget=budget)
    rhs_fns = (f,) * (ell - 2) + (g,)
    rhs = multi_set_expectation(plan.prefix, n, rhs_fns, budget=budget)
    if exact:
        equal = lhs == rhs
    else:
        equal = abs(float(lhs) - float(rhs)) <= 1e-10
    return MarkovCheckReport(lhs, rhs, equal, pointwise_ok, ell)


# ---------------------------------------------------------------------------
# empirical hitting exponent


@dataclass(frozen=True)
class ExponentReport:
    slope: float
    intercept: float
    rms_residual: float
    points: tuple[tuple[float, float], ...]  # (mu achieved, delta)
    n: int


def _fit_slope(xs, ys) -> tuple[float, float, float]:
    k = len(xs)
    mean_x = sum(xs) / k
    mean_y = sum(ys) / k
    sxx = sum((x - mean_x) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError("degenerate fit: all x equal")
    slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sxx
    intercept = mean_y - slope * mean_x
    rss = sum((y - intercept - slope * x) ** 2 for x, y in zip(xs, ys))
    return slope, intercept, math.sqrt(rss / k)


def estimate_hitting_exponent(
    p: StepDistribution, mu_grid, n: int = 30, budget: int | None = None,
) -> ExponentReport:
    """Fit log(same-set value) against log(measure) over a threshold family.

    Only defined for two-step symmetric distributions with positive diagonal
    mass, n >= 1 and finite real targets in `mu_grid`; anything else raises
    ValueError before any walk.  Family members are the indicators
    1[count of the first alphabet symbol >= t], t = 0..n, whose measure lies
    strictly between 0 and 1; each target picks the member whose measure is
    nearest.  Empirical evidence only.

    The family is nested in t, so two joint-count walks answer every member.
    One walks the step-1 marginal with the window [0, n] and gives the mass
    of each count c; the measure of member t is the mass of c >= t.  The
    other walks the support tuples of p with the window [t0, n] on both
    steps, t0 the least chosen threshold, and gives the mass of each count
    pair; the same-set value of member t is the mass of pairs with both
    counts >= t.  One pass over each table sums those masses for every t at
    once, from t = n down.  These are the values that `fourier.expectation`
    and `same_set_expectation` give member by member, as exact Fractions on
    exact inputs.  `budget` caps the live states after each step of either
    walk (see `fourier._JointLayout.walk`): up to n + 1 counts in the first,
    up to (n + 1 - t0)^2 count pairs in the second.
    """
    if p.steps != 2:
        raise ValueError("exponent estimation needs exactly 2 steps")
    if n < 1:
        raise ValueError("n must be >= 1")
    targets = list(mu_grid)
    if not all(isinstance(target, numbers.Real) and math.isfinite(target) for target in targets):
        raise ValueError("mu_grid targets must be finite numbers")
    m = len(p.alphabet)
    for x in range(m):
        for y in range(m):
            wx, wy = p.weight((x, y)), p.weight((y, x))
            if (p.exact and wx != wy) or (not p.exact and abs(float(wx) - float(wy)) > 1e-12):
                raise ValueError("exponent estimation requires a symmetric distribution")
    if alpha(p) <= 0:
        raise ValueError("needs positive diagonal mass")
    pi = marginal(p, 1)
    sym = p.alphabet.symbols[0]

    def threshold(t: int) -> FunctionSpec:
        return make_anchored_symmetric(n, p.alphabet, {sym: (t, n)})

    def tails(counts) -> list:
        # per t, the mass of the count tuples whose least count is >= t
        out = [0] * (n + 2)
        for c, w in counts.items():
            out[min(c)] += w
        for t in range(n, -1, -1):
            out[t] += out[t + 1]
        return out

    measures = tails(_window_counts((threshold(0),), _marginal_support(pi), n, budget))
    members = []
    for t in range(n + 1):
        mu_hat = Fraction(measures[t], pi.view.scale**n) if pi.exact else float(measures[t])
        if 0 < mu_hat < 1:
            members.append((t, mu_hat))
    # threshold -> measure of the member nearest each target
    chosen = dict(
        min(members, key=lambda item: abs(float(item[1]) - float(target))) for target in targets
    ) if members else {}
    if len(chosen) < 2:
        raise ValueError("need at least two usable family members")
    same = tails(_window_counts((threshold(min(chosen)),) * 2, p._scaled_support, n, budget))
    points = []
    for t in sorted(chosen):
        delta = Fraction(same[t], p._scale**n) if p.exact else float(same[t])
        if delta > 0:
            points.append((float(chosen[t]), float(delta)))
    if len(points) < 2:
        raise ValueError("need at least two usable family members")
    xs = [math.log(mu) for mu, _ in points]
    ys = [math.log(d) for _, d in points]
    slope, intercept, rms = _fit_slope(xs, ys)
    return ExponentReport(slope, intercept, rms, tuple(points), n)
