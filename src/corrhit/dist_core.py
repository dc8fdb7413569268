"""Finite multi-step product distributions and their correlation quantities.

A distribution here assigns probability to tuples of symbols, one symbol per
step.  Coordinates of a product space draw such tuples independently.  The
module computes the diagonal mass `alpha`, the support-box floor `beta`, the
maximal correlation `rho` (by two independent routes that are cross-checked),
double-sample kernels, and related diagnostics.  Exact quantities are computed
on each distribution's integer view (the support weights scaled by the lcm of
their denominators) and converted to Fractions once at the end.

Only this module lays out the dense weight table: other modules build a
distribution with `StepDistribution.from_cells` and read its integer view.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter, truediv

import numpy as np

from ._util import (
    TABLE_BUDGET,
    Number,
    ScaledView,
    format_number,
    mixed_radix_digits,
    mixed_radix_index,
    parse_weight,
    power_exceeds,
    scale_to_ints,
)

REVERSIBILITY_TOL = 1e-10
ROUTE_TOL = 1e-8
EIGEN_NEG_TOL = 1e-8
FLOAT_SUM_TOL = 1e-12


class DistributionFormatError(ValueError):
    """Raised when a distribution file cannot be parsed or validated."""


@dataclass(frozen=True)
class Alphabet:
    """Ordered set of distinct symbol tokens."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        if not self.symbols:
            raise ValueError("alphabet must be non-empty")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet symbols must be distinct")
        object.__setattr__(self, "_pos", {s: i for i, s in enumerate(self.symbols)})

    def index(self, symbol: str) -> int:
        try:
            return self._pos[symbol]
        except KeyError:
            raise KeyError(f"unknown symbol {symbol!r}") from None

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)


@dataclass(frozen=True)
class StepDistribution:
    """Joint distribution over `steps`-tuples of symbols from one alphabet.

    Weights are stored densely in mixed-radix order with step 1 least
    significant; this module owns that layout, and code elsewhere builds a
    distribution from its positive cells with `from_cells`.  `exact` is true
    when every weight is a Fraction; exact and float weights never mix.
    Weights must be finite and non-negative and sum to 1, exactly or within
    FLOAT_SUM_TOL in float mode; nothing is renormalized.

    Validation builds the distribution's integer view once, and every quantity
    in this package reads it: `_scale` (the lcm of the weights'
    denominators; 1 in float mode), `_support` and `_scaled_support`
    (positive-weight tuples in index order with their weights, and with the
    weights times `_scale` as ints, or as the float weights in float mode),
    `_scaled_marginals` (per step, the scaled mass of every symbol) and
    `_marginals` (the same as MarginalDistribution objects).  The view never
    changes, like the object it derives from.

    Structure derived from the view alone is built on first use and stored
    on the distribution by the one accessor `_derived`:

    - `_rho`: the value of `rho`;
    - `_double_sample_<j>`: the integer double-sample matrix of step j,
      symmetry-checked (`_double_sample_matrix`), read by `rho`,
      `double_sample_kernel` and `hitting.max_gain_check`;
    - `_enumeration_plan`: what the enumeration route of `hitting` reads of
      the support (`hitting._EnumerationPlan`);
    - `_markov_plan`: what `hitting.markov_same_set_check` reads
      (`hitting._MarkovPlan`: the last chain kernel scaled to ints per mode,
      and the distribution of the first steps - 1 steps, which stores its own
      structure in turn).

    These attributes are not fields, so they enter neither `==` nor `hash`,
    and a fresh distribution carries none until one is asked for.  Nothing
    that depends on a function or another argument is stored.
    """

    alphabet: Alphabet
    steps: int
    weights: tuple[Number, ...]
    exact: bool
    name: str | None = field(default=None, compare=False)

    def __post_init__(self):
        m = len(self.alphabet)
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if len(self.weights) != m**self.steps:
            raise ValueError("weight table has wrong size")
        if self.exact:
            if not all(isinstance(w, Fraction) for w in self.weights):
                raise ValueError("exact distribution requires Fraction weights")
            scale, scaled = scale_to_ints(self.weights, True)
            if sum(scaled) != scale:
                raise DistributionFormatError(
                    f"weights sum to {Fraction(sum(scaled), scale)}, "
                    "expected exactly 1 (no renormalization)"
                )
        else:
            scale, scaled = scale_to_ints(self.weights, False)
            if not all(math.isfinite(w) for w in scaled):
                raise DistributionFormatError("non-finite weight")
            total = float(sum(scaled))
            if abs(total - 1.0) > FLOAT_SUM_TOL:
                raise DistributionFormatError(
                    f"weights sum to {total!r}, expected 1 within {FLOAT_SUM_TOL}"
                )
        if any(w < 0 for w in scaled):
            raise DistributionFormatError("negative weight")
        support = []
        scaled_support = []
        margins = [[0 if self.exact else 0.0] * m for _ in range(self.steps)]
        for idx, w in enumerate(scaled):
            if w > 0:
                tup = mixed_radix_digits(idx, m, self.steps)
                support.append((tup, self.weights[idx]))
                scaled_support.append((tup, w))
                for row, x in zip(margins, tup):
                    row[x] += w
        if self.exact:
            probs = [tuple(Fraction(w, scale) for w in row) for row in margins]
        else:
            probs = [tuple(row) for row in margins]
        view = {
            "_scale": scale,
            "_support": tuple(support),
            "_scaled_support": tuple(scaled_support),
            "_scaled_marginals": tuple(tuple(row) for row in margins),
            "_marginals": tuple(
                MarginalDistribution(
                    self.alphabet, pr, self.exact, ScaledView(self.exact, scale, tuple(row))
                )
                for pr, row in zip(probs, margins)
            ),
        }
        for name, value in view.items():
            object.__setattr__(self, name, value)

    @classmethod
    def from_cells(cls, alphabet: Alphabet, steps: int, cells: dict, name=None):
        """Weight cells[tup] on each listed step tuple and 0 on every other;
        exact when every weight is a Fraction, else every weight a float."""
        m = len(alphabet)
        exact = all(isinstance(w, Fraction) for w in cells.values())
        weights: list[Number] = [Fraction(0) if exact else 0.0] * (m**steps)
        for tup, w in cells.items():
            weights[mixed_radix_index(tup, m)] = w if exact else float(w)
        return cls(alphabet, steps, tuple(weights), exact, name=name)

    def weight(self, tup: tuple[int, ...]) -> Number:
        return self.weights[mixed_radix_index(tup, len(self.alphabet))]

    def support(self) -> list[tuple[tuple[int, ...], Number]]:
        """Pairs (symbol-index tuple, weight) with positive weight, index order.

        A new list on every call, so callers may modify it.
        """
        return list(self._support)

    def tuples(self):
        m = len(self.alphabet)
        for idx in range(m**self.steps):
            yield mixed_radix_digits(idx, m, self.steps)


@dataclass(frozen=True)
class MarginalDistribution:
    """Single-step marginal over the alphabet.

    `view` is the integer view of `probs` (`ScaledView`: the probabilities
    times a common denominator when exact, floats with scale 1 otherwise),
    built once at construction; the exact kernels in `fourier` read their
    weights from it.  The denominator is the lcm of the probabilities'
    denominators, except that a `StepDistribution` hands its step marginals
    the masses it has already scaled by its own weights' lcm.
    """

    alphabet: Alphabet
    probs: tuple[Number, ...]
    exact: bool
    view: ScaledView | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.view is None:
            object.__setattr__(self, "view", ScaledView.of(self.probs, self.exact))

    def support_indices(self) -> tuple[int, ...]:
        return tuple(i for i, p in enumerate(self.probs) if p > 0)


@dataclass(frozen=True)
class MarkovKernel:
    """Row-stochastic transition matrix over a support alphabet.

    `stationary` is the distribution the kernel is checked against;
    `reversible` records whether detailed balance holds within tolerance.
    """

    alphabet: Alphabet
    rows: tuple[tuple[Number, ...], ...]
    stationary: MarginalDistribution
    exact: bool
    reversible: bool

    def __post_init__(self):
        m = len(self.alphabet)
        if len(self.rows) != m or any(len(r) != m for r in self.rows):
            raise ValueError("kernel must be square over its alphabet")
        for r in self.rows:
            if any(x < 0 for x in r):
                raise ValueError("negative kernel entry")
            if self.exact:
                if sum(r, Fraction(0)) != 1:
                    raise ValueError("kernel row does not sum to 1")
            elif abs(sum(float(x) for x in r) - 1.0) > REVERSIBILITY_TOL:
                raise ValueError("kernel row does not sum to 1")

    def as_array(self) -> np.ndarray:
        return np.array([[float(x) for x in r] for r in self.rows])


def _check_reversibility(
    rows, pi: tuple[Number, ...], exact: bool, tol: float = REVERSIBILITY_TOL
) -> bool:
    m = len(rows)
    for y in range(m):
        for z in range(m):
            lhs = pi[y] * rows[y][z]
            rhs = pi[z] * rows[z][y]
            if exact:
                if lhs != rhs:
                    return False
            elif abs(float(lhs) - float(rhs)) > tol:
                return False
    return True


def _derived(p: StepDistribution, name: str, build):
    """p's derived structure `name`: build(p) on the first call, stored on p
    (outside its fields) and returned as is on every later call."""
    try:
        return p.__dict__[name]
    except KeyError:
        value = build(p)
        object.__setattr__(p, name, value)
        return value


# ---------------------------------------------------------------------------
# parsing and serialization


def parse_distribution(text: str, name: str | None = None) -> StepDistribution:
    """Parse the line-oriented distribution format.

    Recognized lines (after stripping `#` comments and blanks):
      alphabet <sym> <sym> ...
      steps <int>
      entry <sym_1> ... <sym_steps> <weight>
    Weights written as `p/q` or integers stay exact; decimals force the whole
    table to float.  Missing entries are zero.  Duplicate entry lines, negative
    weights, and totals differing from 1 are errors; nothing is renormalized.
    A table of more than 2^24 weights (m^steps for m symbols) is refused
    before it is built.
    """
    alphabet: Alphabet | None = None
    steps: int | None = None
    entries: dict[tuple[int, ...], Number] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        kw = toks[0]
        if kw == "alphabet":
            if alphabet is not None:
                raise DistributionFormatError(f"line {lineno}: duplicate alphabet line")
            if len(toks) < 2:
                raise DistributionFormatError(f"line {lineno}: empty alphabet")
            try:
                alphabet = Alphabet(tuple(toks[1:]))
            except ValueError as exc:
                raise DistributionFormatError(f"line {lineno}: {exc}") from None
        elif kw == "steps":
            if steps is not None:
                raise DistributionFormatError(f"line {lineno}: duplicate steps line")
            # ASCII digits only, and no more than int() converts ('²' passes
            # isdigit, and so do 5000 digits)
            digits = toks[1] if len(toks) == 2 else ""
            try:
                steps = int(digits) if digits.isascii() and digits.isdigit() else 0
            except ValueError:
                steps = 0
            if steps < 1:
                raise DistributionFormatError(f"line {lineno}: steps needs one positive integer")
        elif kw == "entry":
            if alphabet is None or steps is None:
                raise DistributionFormatError(
                    f"line {lineno}: entry before alphabet and steps"
                )
            if len(toks) != 2 + steps:
                raise DistributionFormatError(
                    f"line {lineno}: entry needs {steps} symbols and one weight"
                )
            try:
                tup = tuple(alphabet.index(s) for s in toks[1 : 1 + steps])
            except KeyError as exc:
                raise DistributionFormatError(f"line {lineno}: {exc.args[0]}") from None
            try:
                w = parse_weight(toks[-1])
            except ValueError as exc:
                raise DistributionFormatError(f"line {lineno}: {exc}") from None
            if w < 0:
                raise DistributionFormatError(f"line {lineno}: negative weight")
            if tup in entries:
                raise DistributionFormatError(f"line {lineno}: duplicate entry")
            entries[tup] = w
        else:
            raise DistributionFormatError(f"line {lineno}: unknown directive {kw!r}")
    if alphabet is None or steps is None:
        raise DistributionFormatError("missing alphabet or steps line")
    m = len(alphabet)
    if power_exceeds(m, steps, TABLE_BUDGET):
        raise DistributionFormatError(
            f"{m} symbols over {steps} steps make more than {TABLE_BUDGET} weights"
        )
    return StepDistribution.from_cells(alphabet, steps, entries, name=name)


def format_distribution(p: StepDistribution) -> str:
    """Canonical serialization: alphabet, steps, then support entries in index order."""
    lines = [
        "alphabet " + " ".join(p.alphabet.symbols),
        f"steps {p.steps}",
    ]
    for tup, w in p.support():
        syms = " ".join(p.alphabet.symbols[i] for i in tup)
        lines.append(f"entry {syms} {format_number(w)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# marginals and scalar quantities


def marginal(p: StepDistribution, j: int) -> MarginalDistribution:
    """Marginal of step j (1-indexed)."""
    if not 1 <= j <= p.steps:
        raise ValueError(f"step {j} out of range 1..{p.steps}")
    return p._marginals[j - 1]


def equal_marginals(p: StepDistribution) -> bool:
    """Whether all step marginals coincide: as Fractions, or as the same
    floats in float mode."""
    first = p._scaled_marginals[0]
    return all(cur == first for cur in p._scaled_marginals[1:])


def alpha(p: StepDistribution) -> Number:
    """Smallest diagonal weight: min over symbols x of P(x, x, ..., x)."""
    m = len(p.alphabet)
    diagonal = sum(m**k for k in range(p.steps))  # index of (1, 1, ..., 1)
    return min(p.weights[x * diagonal] for x in range(m))


def _support_indices(scaled_marginal) -> tuple[int, ...]:
    return tuple(x for x, w in enumerate(scaled_marginal) if w > 0)


def beta(p: StepDistribution) -> Number:
    """Smallest weight over the product of the per-step marginal supports."""
    m = len(p.alphabet)
    supports = [_support_indices(row) for row in p._scaled_marginals]
    return min(
        p.weights[mixed_radix_index(tup, m)] for tup in itertools.product(*supports)
    )


# ---------------------------------------------------------------------------
# double-sample kernel and spectra


def _integer_support(p: StepDistribution):
    """Support tuples with their weights as ints on one common scale.

    Exact distributions read the view.  Float weights are dyadic rationals,
    so they scale exactly by the largest of their power-of-two denominators;
    derived quantities are then exact until one final rounding.
    """
    if p.exact:
        return p._scaled_support
    ratios = [(tup, w.as_integer_ratio()) for tup, w in p._scaled_support]
    scale = max(den for _, (_, den) in ratios)
    return [(tup, num * (scale // den)) for tup, (num, den) in ratios]


def _double_sample_matrix(p: StepDistribution, j: int):
    """(support, S, L, M) of step j, built once per distribution and step.

    Raises ArithmeticError if S is not symmetric; nothing is stored then.
    """
    return _derived(p, f"_double_sample_{j}", lambda p: _build_double_sample(p, j))


def _build_double_sample(p: StepDistribution, j: int):
    """(support, S, L, M): the double-sample mass matrix of step j, in ints.

    `support` lists the symbols with positive step-j mass.  With W the
    integer weights of `_integer_support`, group the support tuples by
    `rest`, the symbols of the other steps; let R_rest be the mass of a group
    and L the lcm of all R_rest.  Then S[a][b] = sum_rest W(rest, y)
    W(rest, z) (L / R_rest) for y = support[a], z = support[b], and M[a] is
    the mass of y at step j; both sum the same groups, so sum_b S[a][b] =
    L M[a].  The probability that two resamples of step j given the rest are
    (y, z) is S[a][b] / (L sum(M)).  S is symmetric by construction; that is
    checked here, and a failure raises ArithmeticError.
    """
    k = j - 1
    support = _support_indices(p._scaled_marginals[k])
    pos = {x: a for a, x in enumerate(support)}
    groups: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for tup, w in _integer_support(p):
        groups.setdefault(tup[:k] + tup[j:], []).append((pos[tup[k]], w))
    masses = [sum(w for _, w in g) for g in groups.values()]
    lcm = math.lcm(*masses)
    n = len(support)
    s = [[0] * n for _ in range(n)]
    mass = [0] * n
    for g, rest_mass in zip(groups.values(), masses):
        factor = lcm // rest_mass
        for a, wa in g:
            mass[a] += wa
            row = s[a]
            wa *= factor
            for b, wb in g:
                row[b] += wa * wb
    if any(s[a][b] != s[b][a] for a in range(n) for b in range(a)):
        raise ArithmeticError("double-sample kernel violates reversibility")
    return support, tuple(map(tuple, s)), lcm, tuple(mass)


def double_sample_kernel(p: StepDistribution, j: int) -> MarkovKernel:
    """Transition kernel of resampling step j twice given the other steps.

    Symbols with zero marginal mass at step j are dropped first, so the kernel
    lives on the support alphabet.  Built from the integer double-sample
    matrix S (see `_double_sample_matrix`) as K[y][z] = S[y][z] / (L M_y):
    exact Fractions for an exact distribution, and for a float one the
    correctly rounded value of the same quotient of the weights' exact binary
    values.  K is reversible with respect to the step-j marginal exactly when
    S is symmetric; that is checked, and a failure raises ArithmeticError.
    S is built once per distribution and step; the kernel is divided out on
    every call.
    """
    if not 1 <= j <= p.steps:
        raise ValueError(f"step {j} out of range 1..{p.steps}")
    support, s, lcm, mass = _double_sample_matrix(p, j)
    ratio = Fraction if p.exact else truediv
    rows = tuple(
        tuple(ratio(x, lcm * mass[a]) for x in row) for a, row in enumerate(s)
    )
    sub_alphabet = Alphabet(tuple(p.alphabet.symbols[y] for y in support))
    probs = p._marginals[j - 1].probs
    stationary = MarginalDistribution(
        sub_alphabet, tuple(probs[y] for y in support), p.exact
    )
    return MarkovKernel(sub_alphabet, rows, stationary, p.exact, reversible=True)


def _double_sample_lambda2(p: StepDistribution, j: int) -> float:
    """Second eigenvalue of the step-j double-sample kernel, clamped to [-1, 1].

    The kernel is similar to the symmetric A = S / (L sqrt(M_y M_z)), whose
    top eigenpair is 1 and v = sqrt(M / T), T = sum(M).  The deflated matrix
    A - v v^T = (S T - L M_y M_z) / (L T sqrt(M_y M_z)) keeps every other
    eigenvalue; its numerator is formed in ints, so lambda_2 comes out
    accurate relative to itself even near 0, where sqrt(lambda_2) would
    magnify rounding noise.  A is positive semidefinite, so lambda_2 is the
    largest eigenvalue of the deflated matrix.  One support symbol gives 0.
    """
    _, s, lcm, mass = _double_sample_matrix(p, j)
    total = sum(mass)
    den = lcm * total * total
    d = [math.sqrt(x / total) for x in mass]
    n = len(mass)
    deflated = np.array(
        [
            [(s[a][b] * total - lcm * mass[a] * mass[b]) / den / (d[a] * d[b])
             for b in range(n)]
            for a in range(n)
        ]
    )
    lam2 = float(np.linalg.eigvalsh(deflated)[-1])
    return min(1.0, max(-1.0, lam2))


def kernel_second_eigenvalue(k: MarkovKernel) -> float:
    """Second-largest eigenvalue of a reversible kernel, clamped to [-1, 1].

    Uses the symmetrization D^{1/2} K D^{-1/2} so a self-adjoint eigensolver
    applies.  A single-state kernel has no second eigenvalue; returns 0.0.
    """
    if not _check_reversibility(k.rows, k.stationary.probs, k.exact):
        raise ArithmeticError("kernel is not reversible within tolerance")
    m = len(k.alphabet)
    if m == 1:
        return 0.0
    pi = np.array([float(x) for x in k.stationary.probs])
    d = np.sqrt(pi)
    sym = (d[:, None] / d[None, :]) * k.as_array()
    sym = (sym + sym.T) / 2.0
    eig = np.linalg.eigvalsh(sym)
    lam2 = float(eig[-2])
    return min(1.0, max(-1.0, lam2))


def maximal_correlation(p: StepDistribution, s_steps, t_steps) -> float:
    """Maximal correlation between the step groups S and T (1-indexed, disjoint).

    Singular-value route: build M[a, b] = P_{S,T}(a, b) / sqrt(pi_S(a) pi_T(b))
    over the grouped supports and take the second singular value (the top one
    is 1 and is discarded).  Returns a value clamped to [0, 1].
    """
    s = tuple(sorted(set(s_steps)))
    t = tuple(sorted(set(t_steps)))
    if not s or not t:
        raise ValueError("step groups must be non-empty")
    if set(s) & set(t):
        raise ValueError("step groups must be disjoint")
    for j in s + t:
        if not 1 <= j <= p.steps:
            raise ValueError(f"step {j} out of range 1..{p.steps}")

    # a grouped tuple's key lists its symbols from the last step down, so
    # sorting keys orders the groups by mixed-radix index
    a_key = itemgetter(*[j - 1 for j in reversed(s)])
    b_key = itemgetter(*[j - 1 for j in reversed(t)])
    joint: dict = {}
    pi_s: dict = {}
    pi_t: dict = {}
    scale = p._scale
    for tup, w in p._scaled_support:
        a = a_key(tup)
        b = b_key(tup)
        wf = w / scale
        joint[a, b] = joint.get((a, b), 0.0) + wf
        pi_s[a] = pi_s.get(a, 0.0) + wf
        pi_t[b] = pi_t.get(b, 0.0) + wf
    if len(pi_s) == 1 or len(pi_t) == 1:
        return 0.0
    rows = {a: i for i, a in enumerate(sorted(pi_s))}
    cols = {b: i for i, b in enumerate(sorted(pi_t))}
    mat = np.zeros((len(rows), len(cols)))
    for (a, b), w in joint.items():
        mat[rows[a], cols[b]] = w / math.sqrt(pi_s[a] * pi_t[b])
    sv = np.linalg.svd(mat, compute_uv=False)
    return min(1.0, max(0.0, float(sv[1])))


def rho(p: StepDistribution) -> float:
    """Maximal correlation of one step against the rest, maximized over steps.

    Computed twice: via the second eigenvalue of each step's double-sample
    kernel (the square root of lambda_2), taken straight from the integer
    matrix S / (L sqrt(M_y M_z)) after the exact reversibility test S == S^T
    (see `_double_sample_lambda2`), and via the SVD route of
    `maximal_correlation`.  The two must agree within 1e-8 or an
    ArithmeticError is raised.  A one-step distribution has no opposing
    group; returns 0.0.

    The value is computed on the first call for `p` and stored on it, as are
    the double-sample matrices it reads (see `StepDistribution`), so later
    calls for the same object return it at once.
    """
    return _derived(p, "_rho", _rho)


def _rho(p: StepDistribution) -> float:
    """Both routes of `rho`, computed afresh."""
    if p.steps == 1:
        return 0.0
    eigen_vals = []
    svd_vals = []
    for j in range(1, p.steps + 1):
        lam2 = _double_sample_lambda2(p, j)
        if lam2 < -EIGEN_NEG_TOL:
            raise ArithmeticError(
                f"double-sample kernel of step {j} has lambda_2 = {lam2} < 0"
            )
        eigen_vals.append(math.sqrt(max(lam2, 0.0)))
        rest = [i for i in range(1, p.steps + 1) if i != j]
        svd_vals.append(maximal_correlation(p, [j], rest))
    eigen_route = max(eigen_vals)
    svd_route = max(svd_vals)
    if abs(eigen_route - svd_route) > ROUTE_TOL:
        raise ArithmeticError(
            f"correlation routes disagree: eigen {eigen_route} vs svd {svd_route}"
        )
    return eigen_route


# ---------------------------------------------------------------------------
# structure checks


def is_markov_generated(
    p: StepDistribution, tol: float = 1e-10
) -> tuple[bool, list[tuple[tuple[Number, ...], ...]] | None]:
    """Whether the steps form a Markov chain: step j depends on step j-1 only.

    Checked entrywise within `tol` on the support; prefixes of zero mass are
    skipped.  Returns (True, [T_2, ..., T_steps]) with each T_j a matrix over
    the full alphabet (rows of symbols never seen as a positive-mass step j-1
    value are zero-filled), or (False, None).  Two steps are vacuously Markov.

    Prefix masses are summed on the integer view (floats in float mode).  The
    conditional row of each prefix is compared with the first row seen for
    its last symbol: exact rows by cross-multiplying, |c0 M - c M0| / (M0 M),
    the correctly rounded float of the exact difference; float rows by
    subtracting the divided masses.  Only the returned rows are divided.
    """
    if p.steps < 2:
        raise ValueError("needs at least 2 steps")
    m = len(p.alphabet)
    zero: Number = Fraction(0) if p.exact else 0.0
    ratio = Fraction if p.exact else truediv
    kernels = []
    for j in range(2, p.steps + 1):
        # masses of step prefixes of lengths j and j-1
        pref_j: dict[tuple[int, ...], Number] = {}
        pref_prev: dict[tuple[int, ...], Number] = {}
        for tup, w in p._scaled_support:
            pref_j[tup[:j]] = pref_j.get(tup[:j], 0) + w
            pref_prev[tup[: j - 1]] = pref_prev.get(tup[: j - 1], 0) + w
        # per last symbol: (mass, next-symbol masses) of the first prefix seen
        first: list[tuple[Number, list[Number]] | None] = [None] * m
        for prev, mass in sorted(pref_prev.items()):
            counts = [pref_j.get(prev + (b,), 0) for b in range(m)]
            a = prev[-1]
            if first[a] is None:
                first[a] = (mass, counts)
                continue
            mass0, counts0 = first[a]
            if p.exact:
                diffs = (
                    abs(c0 * mass - c * mass0) / (mass0 * mass)
                    for c0, c in zip(counts0, counts)
                )
            else:
                diffs = (abs(c0 / mass0 - c / mass) for c0, c in zip(counts0, counts))
            if any(d > tol for d in diffs):
                return False, None
        kernels.append(
            tuple(
                tuple(ratio(c, row[0]) for c in row[1]) if row is not None else (zero,) * m
                for row in first
            )
        )
    return True, kernels


@dataclass(frozen=True)
class EdgeVarianceReport:
    """Both sides of the double-sample edge-variance comparison."""

    lhs: Number
    rhs: float
    rho: float
    variance: Number
    holds: bool


def check_edge_variance(p: StepDistribution, j: int, f) -> EdgeVarianceReport:
    """Compare E[(f(Y) - f(Z))^2] under the double-sample kernel of step j
    against 2 (1 - rho^2) Var[f], where rho is the correlation of the whole
    distribution and f maps support symbols to numbers.

    `f` may be a dict keyed by symbol token or a sequence aligned with the
    kernel alphabet.
    """
    k = double_sample_kernel(p, j)
    n = len(k.alphabet)
    if isinstance(f, dict):
        vals = [f[sym] for sym in k.alphabet.symbols]
    else:
        vals = list(f)
        if len(vals) != n:
            raise ValueError("function values do not match kernel alphabet")
    exact = p.exact and all(isinstance(v, (Fraction, int)) for v in vals)
    if exact:
        vals = [Fraction(v) for v in vals]
    pi = k.stationary.probs
    lhs: Number = Fraction(0) if exact else 0.0
    mean: Number = Fraction(0) if exact else 0.0
    mean_sq: Number = Fraction(0) if exact else 0.0
    for y in range(n):
        mean += pi[y] * vals[y]
        mean_sq += pi[y] * vals[y] * vals[y]
        for z in range(n):
            dvv = vals[y] - vals[z]
            lhs += pi[y] * k.rows[y][z] * dvv * dvv
    variance = mean_sq - mean * mean
    r = rho(p)
    rhs = 2.0 * (1.0 - r * r) * float(variance)
    holds = float(lhs) >= rhs - 1e-10
    return EdgeVarianceReport(lhs, rhs, r, variance, holds)
