"""Functions on finite product spaces and their spectral toolkit.

Four function representations share one interface: dense tables, symmetric
count-window acceptors with an optional anchored coordinate, junta indicators,
and modular linear-form indicators.  On top of them: exact expectations and
influences (by tensor contraction over all points, and by the joint-count
program of `_jointcount` for every kind but tables),
orthonormal bases, Fourier expansions, the noise operator, projections onto
coordinate subsets, restrictions, resilience checks, and the pointwise-max
substitution operator.

Expectations, variances and influences of tables (and of the other kinds on
the 'enumerate' engine) are sums under the product measure.  Every table and
marginal carries an integer view, built once at construction, so exact sums
are dot products of plain ints against the product weights, with one
division at the end; float sums contract the value list one coordinate at a
time.  Every table substitution (restrictions, max-substitutions, and the
axes that `hitting.influence_reduction` drops and re-inserts) composes three
primitives: `_fibre`, the max of two slabs (`_slab`) along one axis with that
axis dropped; `_repeat_blocks`, one pass that fixes a coordinate in place or
inserts a dummy axis; and `_map_table`, which applies one such copy to the
values and to the view alike.  The restriction search behind
`is_resilient` (and `hitting.density_increment`) contracts all axes but one
coordinate set at a time, which yields the expectation under every symbol
choice of that set at once.  The averaging operators (the noise operator
T_rho and the projections f^S) run the per-axis kernel with one integer
averaging matrix per averaged axis (`_average_axes`) and return tables that
carry their view.  On the float side, `analyze` and `synthesize` apply the
basis matrix and its transpose along every axis (`_along_axes`).  An
expansion is a `MultilinearPolynomial` in the basis ensemble, the one type
that `invariance` also evaluates, over grids and Gaussian draws alike,
through `_poly_values`.  Window,
junta and residue functions reach these routes through one per-axis builder,
`_indicator`, read over the whole alphabet by `to_table` and over the
basis support by `analyze`.

Only this module builds a `FunctionSpec` or reads its payload; other modules
go through the constructors, the document codec (`parse_function`,
`format_function`), `_rebase` (a function re-targeted at another n),
`to_table`, `_view_table` (a table from a `ScaledView`), `_moments`,
which reads a function's coordinate classes, and `_count_spec`, which
decodes a window, junta or residue function for the joint-count program.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from ._jointcount import (
    _CountSpec,
    _count_influences,
    _influence_count,
    _joint_count,
    _marginal_support,
)
from ._util import (
    TABLE_BUDGET,
    BudgetExceeded,
    Number,
    ScaledView,
    _BLOCK,
    contract_axes,
    is_exact,
    mixed_radix_index,
    parse_weight,
    power_exceeds,
    scale_to_ints,
)
from .dist_core import Alphabet, MarginalDistribution

BASIS_TOL = 1e-12


# ---------------------------------------------------------------------------
# function descriptions


@dataclass(frozen=True)
class FunctionSpec:
    """A function from alphabet^n to [0,1] in one of four representations.

    kinds and payloads:
      table              values: tuple of |alphabet|^n numbers, mixed-radix
                         index with coordinate 1 least significant
      anchored_symmetric anchor: None or (coordinate, symbol index);
                         windows: {symbol index: (lo, hi)} count windows;
                         ignored: frozenset of dummy coordinates;
                         zero: hard-zero flag set by conflicting restrictions
      junta              constraints: tuple of (coordinate, symbol index),
                         conjunction of equalities; zero flag as above
      mod_linear         modulus, coeffs (one per coordinate), residue,
                         symbol_map: tuple mapping symbol index to Z_modulus
    Coordinates are 1-based everywhere in payloads.

    A table also carries its integer view (`ScaledView`): whether every value
    is a Fraction, the lcm of their denominators, and the values scaled by it
    to ints (floats with scale 1 when not exact).  Construction builds it
    from the values; a table substitution (`restrict`, `max_operator`, and
    the influence loop of `hitting`, which drops and re-inserts dummy axes)
    is built by `_map_table` instead, which applies one copy to the values
    and to the view's ints, and construction reduces that view to the lcm of
    the entries kept.  The kernels read the view and never rescale the
    values.  Other kinds have no view.
    """

    n: int
    alphabet: Alphabet
    kind: str
    payload: dict = field(compare=False)
    view: ScaledView | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.kind not in ("table", "anchored_symmetric", "junta", "mod_linear"):
            raise ValueError(f"unknown function kind {self.kind!r}")
        if self.kind != "table":
            view = None
        elif self.view is None:
            values = self.payload["values"]
            view = ScaledView.of(values, all(isinstance(v, Fraction) for v in values))
        else:
            view = self.view.reduced()
        object.__setattr__(self, "view", view)

    @property
    def zero(self) -> bool:
        return bool(self.payload.get("zero", False))

    def is_exact(self) -> bool:
        return self.view.exact if self.kind == "table" else True


def _count_spec(f: FunctionSpec) -> _CountSpec:
    """A window, junta or residue function as the joint-count program of
    `_jointcount` reads it: a window's anchor and a junta's constraints are
    its pins."""
    pay = f.payload
    if f.kind == "mod_linear":
        return _CountSpec(
            f.n, f.zero, {}, (), frozenset(),
            pay["modulus"], pay["coeffs"], pay["residue"], pay["symbol_map"],
        )
    if f.kind == "junta":
        return _CountSpec(f.n, f.zero, {}, pay["constraints"], frozenset(), 0, (), 0, ())
    pins = (pay["anchor"],) if pay["anchor"] else ()
    return _CountSpec(f.n, f.zero, pay["windows"], pins, pay["ignored"], 0, (), 0, ())


def _coerce_alphabet(alphabet) -> Alphabet:
    if isinstance(alphabet, Alphabet):
        return alphabet
    return Alphabet(tuple(str(s) for s in alphabet))


def _symbol_index(alphabet: Alphabet, sym) -> int:
    """The index of a symbol token (str) or of a symbol index (int);
    ValueError when it names no symbol of the alphabet."""
    if isinstance(sym, str):
        try:
            return alphabet.index(sym)
        except KeyError:
            raise ValueError(f"unknown symbol {sym!r}") from None
    idx = int(sym)
    if not 0 <= idx < len(alphabet):
        raise ValueError(f"symbol index {idx} outside the alphabet")
    return idx


def make_table_function(n: int, alphabet: Alphabet, values) -> FunctionSpec:
    alphabet = _coerce_alphabet(alphabet)
    m = len(alphabet)
    vals = tuple(values)
    # for m >= 2, m^n exceeds the value count once n passes its bit length:
    # a huge n is refused before m^n is computed
    if (m > 1 and n > len(vals).bit_length()) or len(vals) != m**n:
        raise ValueError("table length must be |alphabet|^n")
    for v in vals:
        if not 0 <= v <= 1:
            raise ValueError("table values must lie in [0,1]")
    return FunctionSpec(n, alphabet, "table", {"values": vals})


def make_anchored_symmetric(
    n: int, alphabet: Alphabet, windows: dict, anchor=None, ignored=(), zero=False
) -> FunctionSpec:
    alphabet = _coerce_alphabet(alphabet)
    win = {}
    for sym, (lo, hi) in windows.items():
        idx = _symbol_index(alphabet, sym)
        lo, hi = int(lo), int(hi)
        if not (0 <= lo and hi <= n):
            raise ValueError("window bounds must lie within [0, n]")
        win[idx] = (lo, hi)
    anc = None
    if anchor is not None:
        coord, sym = anchor
        idx = _symbol_index(alphabet, sym)
        if not 1 <= coord <= n:
            raise ValueError("anchor coordinate out of range")
        anc = (int(coord), idx)
    ign = frozenset(int(c) for c in ignored)
    if any(not 1 <= c <= n for c in ign):
        raise ValueError("ignored coordinate out of range")
    if anc is not None and anc[0] in ign:
        raise ValueError("anchor coordinate cannot be ignored")
    payload = {"anchor": anc, "windows": win, "ignored": ign, "zero": bool(zero)}
    return FunctionSpec(n, alphabet, "anchored_symmetric", payload)


def make_junta(n: int, alphabet: Alphabet, constraints, zero=False) -> FunctionSpec:
    alphabet = _coerce_alphabet(alphabet)
    seen: dict[int, int] = {}
    is_zero = bool(zero)
    for coord, sym in constraints:
        idx = _symbol_index(alphabet, sym)
        coord = int(coord)
        if not 1 <= coord <= n:
            raise ValueError("constraint coordinate out of range")
        if coord in seen and seen[coord] != idx:
            is_zero = True  # x_i = v and x_i = w with v != w cannot both hold
        seen[coord] = idx
    cons = tuple(sorted(seen.items()))
    return FunctionSpec(n, alphabet, "junta", {"constraints": cons, "zero": is_zero})


def make_mod_linear(
    n: int, alphabet: Alphabet, modulus: int, coeffs, residue: int, symbol_map, zero=False
) -> FunctionSpec:
    alphabet = _coerce_alphabet(alphabet)
    if modulus < 1:
        raise ValueError("modulus must be positive")
    cs = tuple(int(c) % modulus for c in coeffs)
    if len(cs) != n:
        raise ValueError("need one coefficient per coordinate")
    if isinstance(symbol_map, dict):
        by_index = {_symbol_index(alphabet, s): v for s, v in symbol_map.items()}
        # indices are valid, so a short list means an uncovered symbol
        symbol_map = [by_index[i] for i in sorted(by_index)]
    sm = tuple(int(v) % modulus for v in symbol_map)
    if len(sm) != len(alphabet):
        raise ValueError("symbol map must cover the alphabet")
    payload = {
        "modulus": int(modulus),
        "coeffs": cs,
        "residue": int(residue) % modulus,
        "symbol_map": sm,
        "zero": bool(zero),
    }
    return FunctionSpec(n, alphabet, "mod_linear", payload)


def _rebase(f: FunctionSpec, n: int) -> FunctionSpec:
    """f re-targeted at n coordinates, rebuilt by its kind's constructor,
    which checks every coordinate and window bound against n: a mod-linear
    function's coefficients are cut or padded with zeros.  Tables are
    refused."""
    if n == f.n:
        return f
    pay = f.payload
    if f.kind == "table":
        raise ValueError(f"table function of {f.n} coordinates cannot be re-targeted to {n}")
    if f.kind == "anchored_symmetric":
        return make_anchored_symmetric(
            n, f.alphabet, pay["windows"], pay["anchor"], pay["ignored"], f.zero
        )
    if f.kind == "junta":
        return make_junta(n, f.alphabet, pay["constraints"], f.zero)
    coeffs = pay["coeffs"][:n] + (0,) * (n - f.n)
    return make_mod_linear(
        n, f.alphabet, pay["modulus"], coeffs, pay["residue"], pay["symbol_map"], f.zero
    )


# ---------------------------------------------------------------------------
# restrictions


@dataclass(frozen=True)
class Restriction:
    """Per-coordinate entries: None keeps the coordinate free, an int fixes it."""

    entries: tuple[int | None, ...]

    @classmethod
    def from_dict(cls, n: int, fixed: dict, alphabet: Alphabet | None = None):
        entries: list[int | None] = [None] * n
        for coord, sym in fixed.items():
            if alphabet is not None:
                idx = _symbol_index(alphabet, sym)
            elif isinstance(sym, str):
                raise ValueError("alphabet required to resolve symbol tokens")
            else:
                idx = int(sym)
            coord = int(coord)
            if not 1 <= coord <= n:
                raise ValueError(f"coordinate {coord} outside 1..{n}")
            entries[coord - 1] = idx
        return cls(tuple(entries))

    @property
    def size(self) -> int:
        return sum(1 for e in self.entries if e is not None)

    def fixed_items(self):
        """Pairs (1-based coordinate, symbol index) in coordinate order."""
        return [(i + 1, e) for i, e in enumerate(self.entries) if e is not None]


def _slab(t, m: int, s: int, a: int) -> list:
    """Entries of t whose digit at stride s is a, in order: slab a of every
    block of s*m entries."""
    if s == 1:
        return t[a::m]
    return list(itertools.chain.from_iterable(
        t[b:b + s] for b in range(a * s, len(t), s * m)
    ))


def _repeat_blocks(t, m: int, s: int, first: int, step: int) -> tuple:
    """The blocks t[b:b + s] for b = first, first + step, ..., each written
    m times in a row, in one pass.

    With first = a*s and step s*m this fixes the coordinate of stride s to a
    in place: slab a of every block of s*m entries fills all m slabs.  With
    first 0 and step s it inserts a dummy axis of stride s: entry idx of the
    result reads t at idx with its digit at stride s removed.
    """
    if s == 1:
        # single-entry blocks: one extended slice, each entry m times
        return tuple(itertools.chain.from_iterable(zip(*[t[first::step]] * m)))
    return tuple(itertools.chain.from_iterable(
        t[b:b + s] * m for b in range(first, len(t), step)
    ))


def _fibre(t, m: int, s: int, y: int, z: int) -> tuple:
    """max(t[x = y], t[x = z]) for the axis x of stride s, without that axis:
    slab y when y == z."""
    if y == z:
        return tuple(_slab(t, m, s, y))
    return tuple(map(max, _slab(t, m, s, y), _slab(t, m, s, z)))


def _view_table(n: int, alphabet: Alphabet, view: ScaledView) -> FunctionSpec:
    """The table over n coordinates whose values are the numbers of `view`,
    ints[t] / scale (the floats themselves when not exact); it carries the
    view, which construction reduces to the lcm of its entries."""
    values = tuple(Fraction(v, view.scale) for v in view.ints) if view.exact else view.ints
    return FunctionSpec(n, alphabet, "table", {"values": values}, view)


def _map_table(f: FunctionSpec, n: int, copy) -> FunctionSpec:
    """The table over n coordinates whose values and view ints are the
    tuples `copy` makes of f's.  The view's numbers order like the values,
    so slices, repeats and max pick the same entries from both;
    construction reduces the view to the lcm of the entries kept."""
    return FunctionSpec(
        n, f.alphabet, "table",
        {"values": copy(f.payload["values"])}, f.view._replace(ints=copy(f.view.ints)),
    )


def restrict(f: FunctionSpec, r: Restriction) -> FunctionSpec:
    """Substitute the fixed symbols; the result keeps all n coordinates.

    Fixed coordinates become dummy.  Anchored windows lose the budget consumed
    by fixed symbols; fixing the anchor to a conflicting symbol yields the
    explicit zero function rather than an error.
    """
    if len(r.entries) != f.n:
        raise ValueError("restriction length must match coordinate count")
    m = len(f.alphabet)
    if any(e is not None and not 0 <= e < m for e in r.entries):
        raise ValueError("restriction symbol outside the alphabet")
    if r.size == 0:
        return f
    if f.kind == "table":
        fixed = r.fixed_items()

        def fix(t):
            for coord, a in fixed:
                s = m ** (coord - 1)
                t = _repeat_blocks(t, m, s, a * s, s * m)
            return t

        return _map_table(f, f.n, fix)
    if f.kind == "junta":
        if f.zero:
            return f
        cons = dict(f.payload["constraints"])
        zero = False
        for coord, sym in r.fixed_items():
            want = cons.pop(coord, None)
            if want is not None and want != sym:
                zero = True
        return FunctionSpec(
            f.n, f.alphabet, "junta",
            {"constraints": tuple(sorted(cons.items())), "zero": zero},
        )
    if f.kind == "mod_linear":
        pay = f.payload
        coeffs = list(pay["coeffs"])
        residue = pay["residue"]
        mod = pay["modulus"]
        for coord, sym in r.fixed_items():
            residue = (residue - coeffs[coord - 1] * pay["symbol_map"][sym]) % mod
            coeffs[coord - 1] = 0
        return FunctionSpec(
            f.n, f.alphabet, "mod_linear",
            {**pay, "coeffs": tuple(coeffs), "residue": residue},
        )
    # anchored_symmetric
    pay = f.payload
    if f.zero:
        return f
    anchor = pay["anchor"]
    windows = dict(pay["windows"])
    ignored = set(pay["ignored"])
    zero = False
    for coord, sym in r.fixed_items():
        if coord in ignored:
            continue  # already dummy; substitution cannot change the value
        if anchor is not None and coord == anchor[0]:
            if sym != anchor[1]:
                zero = True
            anchor = None
        if sym in windows:
            lo, hi = windows[sym]
            if hi == 0:
                zero = True
            windows[sym] = (max(lo - 1, 0), max(hi - 1, 0))
        ignored.add(coord)
    payload = {
        "anchor": anchor,
        "windows": windows,
        "ignored": frozenset(ignored),
        "zero": zero,
    }
    return FunctionSpec(f.n, f.alphabet, "anchored_symmetric", payload)


# ---------------------------------------------------------------------------
# evaluation


def _indicator(f: FunctionSpec, symbols) -> np.ndarray:
    """A window, junta or residue function as a bool array on the grid
    symbols[0] x ... x symbols[n-1] of symbol indices, axis c - 1 for
    coordinate c.

    Built one axis at a time: a window's count is a sum of one-hot rows over
    the coordinates it does not ignore; a residue is summed mod q after each
    axis, in int64 while q < 2^62 keeps every partial sum below 2^63 and in
    Python ints past that; anchors and junta pins are per-axis masks.
    """
    pay = f.payload
    grid = np.ix_(*(np.asarray(syms) for syms in symbols))
    ok = np.full([len(syms) for syms in symbols], not f.zero)
    pins = pay["constraints"] if f.kind == "junta" else ()
    if f.kind == "mod_linear":
        q, total = pay["modulus"], 0
        for coeff, axis in zip(pay["coeffs"], grid):
            terms = [coeff * v % q for v in pay["symbol_map"]]
            total = (total + np.array(terms, np.int64 if q < 2**62 else object)[axis]) % q
        ok &= total == pay["residue"]
    elif f.kind == "anchored_symmetric":
        pins = () if pay["anchor"] is None else (pay["anchor"],)
        axes = [axis for c, axis in enumerate(grid, start=1) if c not in pay["ignored"]]
        for sym, (lo, hi) in pay["windows"].items():
            count = sum((axis == sym for axis in axes), 0)
            ok &= (lo <= count) & (count <= hi)
    for coord, sym in pins:
        ok &= grid[coord - 1] == sym
    return ok


def evaluate(f: FunctionSpec, x) -> Number:
    """Value of f at a point given as symbol indices or tokens; a kind other
    than a table reads `_indicator` on the one-point grid."""
    if len(x) != f.n:
        raise ValueError("point length must match coordinate count")
    point = tuple(_symbol_index(f.alphabet, s) for s in x)
    if f.kind == "table":
        return f.payload["values"][mixed_radix_index(point, len(f.alphabet))]
    return Fraction(int(_indicator(f, [[s] for s in point]).item()))


# ---------------------------------------------------------------------------
# expectation and variance
#
# Values are scaled by the least common denominator of the table and
# probabilities by that of the marginal, so the single division at the end
# gives the Fraction that rational arithmetic throughout would give.  Exact
# sums under the product measure are dot products of the scaled values with
# the product weights; float inputs are contracted one coordinate at a time,
# which fixes their rounding.

def _check_budget(m: int, n: int, budget: int | None):
    cap = TABLE_BUDGET if budget is None else budget
    if power_exceeds(m, n, cap):
        raise BudgetExceeded(f"{m}^{n} points exceed the exact-enumeration budget {cap}")


def _check_alphabet(f: FunctionSpec, pi: MarginalDistribution):
    if f.alphabet.symbols != pi.alphabet.symbols:
        raise ValueError("function alphabet must match the marginal")


def _kernel_inputs(f: FunctionSpec, pi: MarginalDistribution, budget, exact: bool = True):
    """(exact, value scale, values, weight scale, weights) for the contractions.

    Read from the integer views of the table and the marginal; non-table
    kinds are materialized with `to_table` first.  The kernels run exact when
    `exact` is true and both inputs are; a caller combining several functions
    passes False to read all of them as floats.  Zero-probability symbols
    keep their weight 0, which adds exact zeros only.
    """
    _check_budget(len(f.alphabet), f.n, budget)
    f = to_table(f, budget=budget)
    exact = exact and pi.exact and f.is_exact()
    v_scale, values = f.view.scaled(exact)
    w_scale, weights = pi.view.scaled(exact)
    return exact, v_scale, values, w_scale, weights


def _contract(t, weights, n: int, keep=()) -> list:
    """Sum out every axis of the n-axis tensor t except the coordinates in `keep`.

    Axes go least significant first.  The slab of t for each choice of kept
    symbols is summed over the other axes by `_weighted_sums`: in one dot
    against the product weights for exact weights, axis by axis
    (`contract_axes`) for float ones.  The result is indexed by the kept
    coordinates, the lowest least significant; with nothing kept it is the
    one-entry list [sum over all points].
    """
    m = len(weights)
    slabs = [t]
    for c in sorted(keep, reverse=True):
        # a lower kept coordinate keeps its stride and becomes the lower digit
        slabs = [_slab(u, m, m ** (c - 1), a) for u in slabs for a in range(m)]
    return _weighted_sums(slabs, weights, n - len(keep))


def _product_weights(weights, axes: int) -> list:
    """prod_c weights[x_c] for every point x of `axes` axes, axis 0 least
    significant."""
    out = [1]
    for _ in range(axes):
        out = [u * w for w in weights for u in out]
    return out


def _weighted_sums(tensors, weights, axes: int) -> list:
    """sum_x t[x] prod_c weights[x_c] over the m^axes entries, for every t
    in the iterable `tensors`, read one at a time.

    Exact weights (the ints of an integer view; Fractions work as well) sum
    each tensor in one dot against the product weights, built once for all
    tensors; exact sums do not depend on their order.  Past `_BLOCK` entries a
    tensor is summed in blocks over the low axes, each block's dot times the
    weight of its high-axis point (blocks of weight 0 are skipped), so no
    list built exceeds `_BLOCK` entries besides the tensors and the
    high-axis weights.  Float mode keeps `contract_axes`, one pass per axis
    with the weight row, whose left-to-right sums fix the rounding.
    """
    if isinstance(weights[0], float):
        return [contract_axes(t, [[weights]] * axes)[0] for t in tensors]
    m, low = len(weights), axes
    while low and m**low > _BLOCK:
        low -= 1
    pw = _product_weights(weights, low)
    if low == axes:
        return [sum(map(operator.mul, t, pw)) for t in tensors]
    size, high = len(pw), _product_weights(weights, axes - low)
    return [
        sum(
            h * sum(map(operator.mul, t[b * size:(b + 1) * size], pw))
            for b, h in enumerate(high) if h
        )
        for t in tensors
    ]


def _expectation_contract(
    f: FunctionSpec, pi: MarginalDistribution, budget, exact: bool = True
) -> Number:
    exact, v_scale, values, w_scale, weights = _kernel_inputs(f, pi, budget, exact)
    total = _contract(values, weights, f.n)[0]
    return Fraction(total, v_scale * w_scale**f.n) if exact else total


def resolve_engine(engine: str, fns) -> str:
    """The route, 'dp' or 'enumerate', that computes a quantity of `fns`.

    The one engine rule of `expectation`, `variance`, `influence` and
    `hitting.multi_set_expectation`.  'enumerate' contracts the values at
    every point, materializing other kinds per axis with `to_table`; 'dp'
    runs the joint-count program, which reads every kind but a table; 'auto'
    takes the dp unless some function is a table.  An unknown engine, or
    'dp' on a table, raises ValueError.
    """
    if engine not in ("auto", "enumerate", "dp"):
        raise ValueError(f"unknown engine {engine!r}")
    if engine == "enumerate":
        return engine
    if all(f.kind != "table" for f in fns):
        return "dp"
    if engine == "dp":
        raise ValueError("no dynamic program for kind 'table'")
    return "enumerate"


def expectation(
    f: FunctionSpec, pi: MarginalDistribution,
    engine: str = "auto", budget: int | None = None,
) -> Number:
    """E[f(X)] with X_i independent draws from pi.

    The route is `resolve_engine(engine, (f,))`: the contraction over all m^n
    points, or the joint-count program over the marginal's one-step
    support.  Exact inputs give exact rationals on both routes.  `budget`
    caps the m^n points of a contraction; on the dp it caps the live states
    after each step (one coordinate's draw, or a run of coordinates drawn at
    once, see `_jointcount._JointLayout.walk`), counted after dropping those
    that can no longer reach a window's lower bound.  A live state is one
    (window counts, residue) pair, counted alike on every form of the walk's
    states (see `_jointcount`).
    """
    _check_alphabet(f, pi)
    route = resolve_engine(engine, (f,))
    if f.zero:
        return Fraction(0) if pi.exact else 0.0
    if route == "dp":
        total = _joint_count((_count_spec(f),), _marginal_support(pi), f.n, budget)
        return Fraction(total, pi.view.scale**f.n) if pi.exact else float(total)
    return _expectation_contract(f, pi, budget)


def variance(
    f: FunctionSpec, pi: MarginalDistribution,
    engine: str = "auto", budget: int | None = None,
) -> Number:
    """Var[f(X)], on the route of `resolve_engine`; for indicator kinds
    E[f^2] = E[f], so every route applies.  Float results are clamped at 0
    against rounding."""
    _check_alphabet(f, pi)
    resolve_engine(engine, (f,))
    if f.kind == "table":
        exact, v_scale, values, w_scale, weights = _kernel_inputs(f, pi, budget)
        mean = _contract(values, weights, f.n)[0]
        sq = _contract([v * v for v in values], weights, f.n)[0]
        if not exact:
            return max(sq - mean * mean, 0.0)
        # E[f^2] - E[f]^2 over the common denominator w_scale^(2n) v_scale^2
        w_n = w_scale**f.n
        return Fraction(sq * w_n - mean * mean, w_n * w_n * v_scale * v_scale)
    return _indicator_variance(expectation(f, pi, engine=engine, budget=budget))


def _indicator_variance(mu: Number) -> Number:
    """mu - mu^2, the variance of an indicator of mean mu; a float is
    clamped at 0 against rounding."""
    return mu - mu * mu if isinstance(mu, Fraction) else max(mu - mu * mu, 0.0)


# ---------------------------------------------------------------------------
# influences


def _influence_contract(f, pi, coords, budget, exact: bool = True):
    """(exact, den, nums): Inf_i(f) = nums[k] / den for the k-th coordinate i
    of `coords`, every one from one read of the views.

    Inf_i = E[f^2] - E[(E_i f)^2].  With values v = V / sv and weights
    w = W / sw over n axes, E[f^2] = Q / (sw^n sv^2) for Q the contraction of
    V^2, contracted once for all coordinates.  Averaging out axis i sums its
    m slabs weighted by W, U_i = sum_a W_a V[x_i = a]; contracting U_i^2 over
    the other n - 1 axes gives E[(E_i f)^2] = S_i / (sw^(n+1) sv^2).  So every
    influence is an integer over the common denominator sw^(n+1) sv^2:
    nums = sw Q - S_i.  Floats run the same sums with den 1.
    """
    exact, v_scale, values, w_scale, weights = _kernel_inputs(f, pi, budget, exact)
    n, m = f.n, len(weights)
    sq = w_scale * _contract([v * v for v in values], weights, n)[0]

    def squared_means():
        # one U_i^2 at a time, summed before the next is built
        for i in coords:
            s = m ** (i - 1)
            mean = None
            for a, w in enumerate(weights):
                if not w:
                    continue
                # entries with digit a at coordinate i, in the order of the other axes
                col = _slab(values, m, s, a)
                if mean is None:
                    mean = [w * y for y in col]
                else:
                    mean = [x + w * y for x, y in zip(mean, col)]
            yield [u * u for u in mean]

    nums = [sq - q for q in _weighted_sums(squared_means(), weights, n - 1)]
    return exact, w_scale ** (n + 1) * v_scale * v_scale, nums


def influence(
    f: FunctionSpec, pi: MarginalDistribution, i: int = 1,
    engine: str = "auto", budget: int | None = None,
) -> Number:
    """Inf_i(f) = E[Var[f(X) | X at all coordinates except i]], exact when inputs are.

    Routes and budgets as for `expectation`.  The dp runs one walk, of every
    coordinate but i, and reads Inf_i(f) off it (`_influence_count`); that
    walk gives E[f] too, and one walk per class of exchangeable coordinates
    (one `_jointcount._JointLayout.signature`, such as a junta's coordinates
    pinned to one symbol) gives every influence (`_count_influences`), as
    the catalogs of `hitting` and the CLI read them.  Float results are
    clamped at 0 against rounding.
    """
    if not 1 <= i <= f.n:
        raise ValueError("coordinate out of range")
    _check_alphabet(f, pi)
    if resolve_engine(engine, (f,)) == "dp":
        return _influence_count(_count_spec(f), pi, i, budget)[1]
    exact, den, (num,) = _influence_contract(f, pi, (i,), budget)
    return Fraction(num, den) if exact else max(num, 0.0)


def total_influence(
    f: FunctionSpec, pi: MarginalDistribution,
    engine: str = "auto", budget: int | None = None,
) -> Number:
    """sum_i Inf_i(f), routes and budgets as for `influence`.  The dp reads
    one influence per class of exchangeable coordinates and weighs it by the
    class size (`_count_influences`): a few walks, not n."""
    _check_alphabet(f, pi)
    if resolve_engine(engine, (f,)) == "dp":
        classes = _count_influences(_count_spec(f), pi, budget)[1]
        return sum(len(coords) * inf for coords, inf in classes)
    return sum(influence(f, pi, i=i, engine=engine, budget=budget) for i in range(1, f.n + 1))


def _moments(f: FunctionSpec, pi: MarginalDistribution, budget):
    """(E[f], Var[f], [Inf_1(f), ..., Inf_n(f)]) as `expectation`,
    `variance` and `influence` give them on the 'auto' engine, in the
    fewest passes: one joint-count walk per coordinate class of a function
    other than a table, which also gives E[f] (`_count_influences`); one
    contraction for all n influences of a table.  An indicator's variance
    is E[f] - E[f]^2."""
    _check_alphabet(f, pi)
    if f.kind != "table":
        mu, classes = _count_influences(_count_spec(f), pi, budget)
        infs: list = [None] * f.n
        for coords, inf in classes:
            for i in coords:
                infs[i - 1] = inf
        return mu, _indicator_variance(mu), infs
    mu = expectation(f, pi, budget=budget)
    exact, den, nums = _influence_contract(f, pi, range(1, f.n + 1), budget)
    infs = [Fraction(num, den) if exact else max(num, 0.0) for num in nums]
    return mu, variance(f, pi, budget=budget), infs


# ---------------------------------------------------------------------------
# orthonormal basis and Fourier expansions


@dataclass(frozen=True)
class OrthonormalBasis:
    """Orthonormal functions over support(pi), phi_0 constant 1.

    `support` lists alphabet indices carrying positive mass; each function is
    a vector of values aligned with `support`.
    """

    pi: MarginalDistribution
    support: tuple[int, ...]
    functions: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        probs = [float(self.pi.probs[s]) for s in self.support]
        k = len(self.functions)
        for a in range(k):
            for b in range(a, k):
                ip = sum(
                    p * x * y
                    for p, x, y in zip(probs, self.functions[a], self.functions[b])
                )
                want = 1.0 if a == b else 0.0
                if abs(ip - want) > BASIS_TOL:
                    raise ValueError("basis is not orthonormal within tolerance")

    @property
    def size(self) -> int:
        return len(self.functions)


def build_basis(pi: MarginalDistribution) -> OrthonormalBasis:
    """Gram-Schmidt over symbol indicators in canonical order, seeded with 1.

    Deterministic: vectors with negligible residual are dropped (the indicator
    set together with the constant is linearly dependent), and each kept
    function is scaled so its first nonzero entry is positive.
    """
    support = pi.support_indices()
    if not support:
        raise ValueError("marginal has empty support")
    probs = np.array([float(pi.probs[s]) for s in support])
    k = len(support)
    raw = [np.ones(k)]
    for j in range(k):
        e = np.zeros(k)
        e[j] = 1.0
        raw.append(e)
    basis: list[np.ndarray] = []
    for v in raw:
        w = v.astype(float)
        for _ in range(2):  # re-orthogonalize for 1e-12-level orthonormality
            for b in basis:
                w = w - np.dot(probs * w, b) * b
        norm_sq = float(np.dot(probs * w, w))
        if norm_sq <= 1e-20:
            continue
        w = w / math.sqrt(norm_sq)
        for x in w:
            if abs(x) > 1e-12:
                if x < 0:
                    w = -w
                break
        basis.append(w)
        if len(basis) == k:
            break
    functions = tuple(tuple(float(x) for x in b) for b in basis)
    return OrthonormalBasis(pi, support, functions)


@dataclass(frozen=True)
class MultilinearPolynomial:
    """Sparse sum of monomials prod_i X_{i, sigma_i} with real coefficients.

    The one type of an orthogonal expansion: `analyze` returns the
    coefficients of a function over a product basis as one, and the checks
    of `invariance` evaluate one over discrete or Gaussian ensembles.
    terms holds (sigma, coefficient) pairs, sigma in {0..p}^n, sorted and
    deduplicated; index 0 marks the constant factor.
    """

    n: int
    p: int
    terms: tuple[tuple[tuple[int, ...], float], ...]

    def __post_init__(self):
        if self.n < 1 or self.p < 0:
            raise ValueError("need n >= 1 and p >= 0")
        if not self.terms:
            return
        sigmas, coeffs = zip(*self.terms)
        if set(map(len, sigmas)) != {self.n}:
            raise ValueError("index tuple length must equal n")
        if min(map(min, sigmas)) < 0 or max(map(max, sigmas)) > self.p:
            raise ValueError("index entries must lie in 0..p")
        if len(set(sigmas)) != len(sigmas):
            raise ValueError("duplicate index tuple")
        if not all(map(math.isfinite, coeffs)):
            raise ValueError("coefficients must be finite")

    @classmethod
    def from_coeffs(cls, n: int, p: int, coeffs: dict) -> "MultilinearPolynomial":
        terms = tuple(
            (tuple(sigma), float(c)) for sigma, c in sorted(coeffs.items()) if c != 0
        )
        return cls(n, p, terms)

    @property
    def coeffs(self) -> dict[tuple[int, ...], float]:
        return dict(self.terms)

    def coefficient(self, sigma) -> float:
        sigma = tuple(sigma)
        for s, c in self.terms:
            if s == sigma:
                return c
        return 0.0

    def degree(self) -> int:
        return max((sum(1 for s in sigma if s) for sigma, _ in self.terms), default=0)

    def expectation(self) -> float:
        return self.coefficient((0,) * self.n)

    def second_moment(self) -> float:
        return math.fsum(c * c for _, c in self.terms)

    def variance(self) -> float:
        return math.fsum(c * c for sigma, c in self.terms if any(sigma))

    def influence(self, i: int) -> float:
        if not 1 <= i <= self.n:
            raise ValueError("coordinate out of range")
        return math.fsum(c * c for sigma, c in self.terms if sigma[i - 1] != 0)

    def evaluate(self, values) -> float:
        """values[i][k]: the k-th ensemble element of coordinate i+1 (k=0 -> 1)."""
        return float(_poly_values(self, lambda i, s: values[i][s], ()))


def _poly_values(poly: MultilinearPolynomial, column, shape) -> np.ndarray:
    """Values of poly at a block of points, as an array of the given shape.

    column(i, s) gives element s >= 1 of coordinate i+1 at every point as an
    array of `shape`: one contiguous row of `invariance._columns` for a
    draw, one coordinate's column of a flattened product grid, or a scalar
    for one point.  Every term multiplies its coefficient by its factors in
    coordinate order and is added in term order, so all callers round alike.
    """
    out = np.zeros(shape)
    for sigma, c in poly.terms:
        factors = (column(i, s) for i, s in enumerate(sigma) if s)
        term = c * next(factors, 1.0)
        for x in factors:
            term *= x
        out += term
    return out


def _support_tensor(f: FunctionSpec, support) -> np.ndarray:
    """f's values as floats on support^n, axis c - 1 for coordinate c.

    A table's floats are its view's, which round like float() of each
    value; any other kind reads `_indicator` on the support grid.
    """
    if f.kind != "table":
        return _indicator(f, [support] * f.n).astype(float)
    m = len(f.alphabet)
    table = np.array(f.view.scaled(False)[1]).reshape((m,) * f.n).transpose()
    return table[np.ix_(*[support] * f.n)]


def _analysis_matrix(basis: OrthonormalBasis) -> np.ndarray:
    """probs * Phi: row s takes values on the support to the coefficient of phi_s."""
    probs = np.array([float(basis.pi.probs[s]) for s in basis.support])
    return probs * np.array(basis.functions)


def _along_axes(t: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Apply mat along every axis of t, one tensordot per axis.

    `analyze` applies probs * Phi (values to coefficients) and `synthesize`
    its inverse Phi^T (coefficients to values on the support).
    """
    for axis in range(t.ndim):
        t = np.tensordot(mat, t, axes=([1], [axis]))
        t = np.moveaxis(t, 0, axis)
    return t


def analyze(
    f: FunctionSpec, basis: OrthonormalBasis, budget: int | None = None,
) -> MultilinearPolynomial:
    """The expansion of f over the product basis, as a polynomial in its
    ensemble: coefficients f_hat(sigma) = E[f * phi_sigma] of any kind, from
    its values on support^n (`_support_tensor`), with p = basis.size - 1.
    The nonzero coefficients are kept, in sorted sigma order.  More than
    `budget` points of support^n raise BudgetExceeded before any is read."""
    _check_alphabet(f, basis.pi)
    _check_budget(basis.size, f.n, budget)
    t = _along_axes(_support_tensor(f, basis.support), _analysis_matrix(basis))
    nonzero = np.nonzero(t)
    sigmas = zip(*(axis.tolist() for axis in nonzero))
    return MultilinearPolynomial(f.n, basis.size - 1, tuple(zip(sigmas, t[nonzero].tolist())))


def synthesize(
    poly: MultilinearPolynomial, basis: OrthonormalBasis, budget: int | None = None,
) -> FunctionSpec:
    """Dense table of sum_sigma f_hat(sigma) phi_sigma over the product basis
    that `analyze` expanded in; zero off the support.

    A polynomial whose index range 0..p is not the basis's raises
    ValueError.  Values may drift from [0,1] by float rounding only; drifts
    beyond 1e-8 raise, smaller ones are clamped.
    """
    if poly.p + 1 != basis.size:
        raise ValueError("polynomial index range disagrees with the basis size")
    n = poly.n
    _check_budget(basis.size, n, budget)
    t = np.zeros((basis.size,) * n)
    if poly.terms:
        sigmas, values = zip(*poly.terms)
        t[tuple(np.array(sigmas).T)] = values
    t = _along_axes(t, np.array(basis.functions).T)
    bad = ~((t >= -1e-8) & (t <= 1 + 1e-8))
    if bad.any():
        raise ArithmeticError(f"synthesized value {t[bad][0]} escapes [0,1]")
    m = len(basis.pi.alphabet)
    table = np.zeros((m,) * n)
    table[np.ix_(*[basis.support] * n)] = np.clip(t, 0.0, 1.0)
    values = tuple(table.transpose().ravel().tolist())
    return FunctionSpec(n, basis.pi.alphabet, "table", {"values": values})


# ---------------------------------------------------------------------------
# averaging operators


def _average_axes(f: FunctionSpec, pi: MarginalDistribution, rho, coords) -> FunctionSpec:
    """The table f with every coordinate in `coords` kept with probability
    rho and redrawn from pi otherwise; the other coordinates stay as they are.

    With rho = a/b and pi's view W/sw, an averaged axis applies the integer
    matrix M[x][y] = (b - a) W_y + a sw [x = y], whose rows sum to b sw; the
    other axes get the identity m.  One `contract_axes` run over f's view and
    one division per entry by (f's scale) (b sw)^|coords| give the averaged
    table, which carries the contracted ints as its view.  Exact when f, pi
    and rho are; otherwise a = rho, b = 1 and the same matrix runs on floats.
    """
    exact = f.is_exact() and pi.exact and is_exact(rho)
    v_scale, values = f.view.scaled(exact)
    sw, weights = pi.view.scaled(exact)
    if exact:
        a, b = Fraction(rho).as_integer_ratio()
    else:
        a, b = float(rho), 1
    m = len(weights)
    avg = [
        [(b - a) * w + (a * sw if x == y else 0) for y, w in enumerate(weights)]
        for x in range(m)
    ]
    coords = set(coords)
    ints = tuple(contract_axes(values, [avg if c in coords else m for c in range(1, f.n + 1)]))
    den = v_scale * (b * sw) ** len(coords)
    return _view_table(f.n, f.alphabet, ScaledView(exact, den, ints))


def noise_operator(
    f: FunctionSpec, rho, pi: MarginalDistribution, budget: int | None = None,
) -> FunctionSpec:
    """T_rho f: each coordinate kept with probability rho, resampled otherwise.

    Computed by averaging every coordinate (`_average_axes`) and,
    independently, by scaling the Fourier coefficients by rho^|sigma| and
    synthesizing; the routes must agree within 1e-10 on the support.  Returns
    the averaged table (exact for rational rho and f).
    """
    if not 0 <= float(rho) <= 1:
        raise ValueError("rho must lie in [0,1]")
    _check_alphabet(f, pi)
    _check_budget(len(f.alphabet), f.n, budget)
    f = to_table(f, budget=budget)
    averaged = _average_axes(f, pi, rho, range(1, f.n + 1))

    basis = build_basis(pi)
    phi = np.array(basis.functions)
    coeffs = _along_axes(_support_tensor(f, basis.support), _analysis_matrix(basis))
    # rho^|sigma| is rho per axis on every basis function but the constant
    damp = np.array([1.0] + [float(rho)] * (basis.size - 1))
    coeff_route = _along_axes(coeffs, phi.T * damp)
    got = _support_tensor(averaged, basis.support)
    off = np.argwhere(np.abs(got - coeff_route) > 1e-10)
    if len(off):
        pos = tuple(off[0])
        raise ArithmeticError(
            f"noise operator routes disagree at {tuple(basis.support[q] for q in pos)}: "
            f"{got[pos]} vs {coeff_route[pos]}"
        )
    return averaged


def projection_subset(
    f: FunctionSpec, s, pi: MarginalDistribution, budget: int | None = None,
) -> FunctionSpec:
    """f projected onto coordinates in s: average out every other coordinate."""
    keep_set = set(int(c) for c in s)
    if any(not 1 <= c <= f.n for c in keep_set):
        raise ValueError("projection coordinate out of range")
    _check_alphabet(f, pi)
    _check_budget(len(f.alphabet), f.n, budget)
    f = to_table(f, budget=budget)
    return _average_axes(f, pi, 0, (c for c in range(1, f.n + 1) if c not in keep_set))


def to_table(f: FunctionSpec, budget: int | None = None) -> FunctionSpec:
    """Materialize any representation as a dense table of Fractions; a kind
    other than a table reads `_indicator` over the whole alphabet."""
    if f.kind == "table":
        return f
    m = len(f.alphabet)
    _check_budget(m, f.n, budget)
    # coordinate 1 least significant: the grid flattened in Fortran order
    flat = _indicator(f, [range(m)] * f.n).ravel(order="F").tolist()
    values = tuple(map([Fraction(0), Fraction(1)].__getitem__, flat))
    return FunctionSpec(f.n, f.alphabet, "table", {"values": values})


def max_operator(f: FunctionSpec, i: int, y, z, budget: int | None = None) -> FunctionSpec:
    """(M[i,y,z] f)(x) = max of f with coordinate i replaced by y and by z."""
    if f.kind != "table":
        raise ValueError("max operator requires the table representation")
    if not 1 <= i <= f.n:
        raise ValueError("coordinate out of range")
    m = len(f.alphabet)
    _check_budget(m, f.n, budget)
    yi, zi = _symbol_index(f.alphabet, y), _symbol_index(f.alphabet, z)
    s = m ** (i - 1)
    # drop axis i as the fibre max of its slabs y and z, then put it back dummy
    return _map_table(f, f.n, lambda t: _repeat_blocks(_fibre(t, m, s, yi, zi), m, s, 0, s))


# ---------------------------------------------------------------------------
# resilience


def _restriction_values(f: FunctionSpec, pi: MarginalDistribution, coords, support):
    """(exact, den, nums): E[Rf] = nums[t] / den for the restriction R fixing
    `coords` (ascending) to the t-th tuple of product(support, repeat=|coords|).

    A table takes one contraction: summing out every axis but `coords` leaves
    E[Rf] for all m^|coords| symbol choices at once, scaled by
    v_scale * w_scale^(n - |coords|), since the fixed axes, dummy in Rf, would
    each only multiply by the weight total.  Other kinds evaluate
    expectation(restrict(f, R), pi) per restriction.  Exact results hold
    ints, the others floats with den 1.
    """
    tuples = list(itertools.product(support, repeat=len(coords)))
    if f.kind != "table":
        values = [
            expectation(restrict(f, Restriction.from_dict(f.n, dict(zip(coords, syms)))), pi)
            for syms in tuples
        ]
        den, nums = scale_to_ints(values, pi.exact)
        return pi.exact, den, nums
    exact, v_scale, values, w_scale, weights = _kernel_inputs(f, pi, None)
    kept = _contract(values, weights, f.n, keep=coords)
    m = len(weights)
    nums = [kept[mixed_radix_index(syms, m)] for syms in tuples]
    return exact, v_scale * w_scale ** (f.n - len(coords)), nums


def _first_outside(exact: bool, den: int, nums, upper, strict: bool, lower):
    """Index of the first nums[t] / den above `upper` (or equal to it when not
    strict) or below `lower` (None: no lower bound), or None.

    Exact values against exact bounds compare as ints: T / den >= x iff
    T >= ceil(x den), T / den > x iff T > floor(x den), T / den < x iff
    T < ceil(x den).  Otherwise each value is compared as the Fraction or
    float it stands for.
    """
    if exact and is_exact(upper) and (lower is None or is_exact(lower)):
        top = upper * den
        top = math.floor(top) + 1 if strict else math.ceil(top)
        if lower is None:
            return next((t for t, v in enumerate(nums) if v >= top), None)
        bottom = math.ceil(lower * den)
        return next((t for t, v in enumerate(nums) if v >= top or v < bottom), None)
    above = operator.gt if strict else operator.ge
    for t, v in enumerate(nums):
        value = Fraction(v, den) if exact else v
        if above(value, upper) or (lower is not None and value < lower):
            return t
    return None


def _find_restriction(
    f: FunctionSpec, pi: MarginalDistribution, k: int, first_size: int, cap: int,
    upper, strict: bool, lower=None, free=None,
):
    """First restriction R with first_size <= |R| <= k whose E[Rf] lies above
    `upper` (or equals it, unless strict) or below `lower`, as (R, E[Rf]),
    or None when there is none.

    Search order: size, then coordinate subset in lex order, then symbols of
    support(pi) in mixed-radix order (the last coordinate's symbol varies
    fastest).  Reaching candidate cap + 1 in that order raises
    BudgetExceeded.  Each coordinate set's values come from one
    `_restriction_values` call, and only the hit becomes a Restriction and a
    Fraction (or float).

    `free` (default: every coordinate) names the coordinates whose sets are
    contracted.  The caller guarantees that every other coordinate is dummy
    in f, and that E[f] is no hit unless the search starts at size 0, where
    the empty restriction comes first.  A set that meets a dummy coordinate
    then holds no first hit: each of its candidates has the value of its
    part on free coordinates, which comes earlier at a smaller size, or E[f]
    when that part is empty.  Such a set is not contracted, but its
    candidates still count against `cap` in search order, so every
    BudgetExceeded falls where the search over all coordinates raises it.
    """
    support = pi.support_indices()
    free = frozenset(range(1, f.n + 1) if free is None else free)
    count = 0
    for size in range(first_size, k + 1):
        for coords in itertools.combinations(range(1, f.n + 1), size):
            room = cap - count
            if room <= 0:
                raise BudgetExceeded(f"restriction search exceeds {cap} candidates")
            if free.issuperset(coords):
                exact, den, nums = _restriction_values(f, pi, coords, support)
                t = _first_outside(exact, den, nums[:room], upper, strict, lower)
                if t is not None:
                    syms = next(itertools.islice(
                        itertools.product(support, repeat=size), t, None
                    ))
                    r = Restriction.from_dict(f.n, dict(zip(coords, syms)))
                    return r, Fraction(nums[t], den) if exact else nums[t]
                candidates = len(nums)
            else:
                candidates = len(support) ** size
            if candidates > room:
                raise BudgetExceeded(f"restriction search exceeds {cap} candidates")
            count += candidates
    return None


def _resilience_witness(
    f: FunctionSpec, eps, k: int, pi: MarginalDistribution, cap: int, free,
):
    """(True, None), or (False, R) for the first R with |R| <= k, the empty
    restriction included, whose E[Rf] leaves [(1-eps) E[f], (1+eps) E[f]],
    with E[f] computed afresh.

    The coordinates outside `free` must be dummy in f.  The search then
    contracts only the coordinate sets inside `free` and gives the answer
    of the search over all coordinates (see `_find_restriction`).
    `is_resilient` is this check over every coordinate.
    """
    mu = expectation(f, pi)
    found = _find_restriction(f, pi, k, 0, cap, (1 + eps) * mu, True, (1 - eps) * mu, free)
    return (True, None) if found is None else (False, found[0])


def is_resilient(
    f: FunctionSpec, eps, k: int, pi: MarginalDistribution, budget: int | None = None,
):
    """Exhaustively test (1-eps) E[f] <= E[Rf] <= (1+eps) E[f] over |R| <= k.

    Restriction symbols range over support(pi).  Returns (True, None) or
    (False, witness) with the first violating restriction in deterministic
    order (size, subset lex order, then mixed-radix symbol order), the empty
    restriction included; more than `budget` candidates raise BudgetExceeded.
    `_find_restriction` runs the search: for a table, one partial contraction
    per coordinate set gives every E[Rf] of that set, compared in ints when
    eps, f and pi are exact; no restricted table is built.
    """
    if not 0 <= k <= f.n:
        raise ValueError("k must lie in [0, n]")
    if eps < 0:
        raise ValueError("eps must be non-negative")
    _check_alphabet(f, pi)
    cap = TABLE_BUDGET if budget is None else budget
    return _resilience_witness(f, eps, k, pi, cap, range(1, f.n + 1))


# ---------------------------------------------------------------------------
# JSON function files


def _pair(item, what: str, shape: str) -> list:
    """A two-entry JSON list, or ValueError saying what it should have been."""
    if not isinstance(item, list) or len(item) != 2:
        raise ValueError(f"{what} must be a {shape} pair, not {json.dumps(item)}")
    return item


_REQUIRED = object()


def _field(doc: dict, key: str, types=object, shape: str = "", default=_REQUIRED):
    """doc[key] if it is one of the Python `types` (`default` when the key is
    absent and a default is given), else ValueError saying what is wrong."""
    if key not in doc:
        if default is _REQUIRED:
            raise ValueError(f"the field {key!r} is missing")
        return default
    item = doc[key]
    if not isinstance(item, types):
        raise ValueError(f"{key} must be {shape}, not {json.dumps(item)}")
    return item


def _integer(item, what: str) -> int:
    """item as an int (a whole number or a numeral string), or ValueError
    saying what it should have been."""
    try:
        value = int(item)
    except (TypeError, ValueError, OverflowError):
        value = None
    if value is None or (not isinstance(item, str) and value != item):
        raise ValueError(f"{what} must be an integer, not {json.dumps(item)}")
    return value


def _table_value(v) -> Number:
    """A table entry: a string weight (`parse_weight`) or a JSON number."""
    if isinstance(v, str):
        return parse_weight(v)
    if isinstance(v, (int, float)):
        try:
            return float(v)
        except OverflowError:
            raise ValueError("a table value is too large for a float") from None
    raise ValueError(f"a table value must be a number or a string, not {json.dumps(v)}")


def parse_function(text: str) -> FunctionSpec:
    """Load the JSON function document format.

    Every malformed document raises ValueError: one that is not a JSON
    object, a missing field, a count, coordinate or coefficient that is not
    an integer, a list field (alphabet, values, constraints, coeffs,
    ignored) that is not a list, windows or an anchor that are not [lo, hi]
    or [coordinate, symbol] pairs under an object, a symbol map that is
    neither a list nor an object, and a zero flag that is not a JSON
    boolean (absent means false) or is true on a table.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("a function document must be a JSON object")
    n = _integer(_field(doc, "n"), "n")
    alphabet = Alphabet(tuple(str(s) for s in _field(doc, "alphabet", list, "a list")))
    kind = _field(doc, "kind", str, "a string")
    zero = _field(doc, "zero", bool, "true or false", default=False)
    if kind == "table":
        if zero:
            raise ValueError("a table has no zero flag; give its values instead")
        values = [_table_value(v) for v in _field(doc, "values", list, "a list")]
        exact = all(isinstance(v, Fraction) for v in values)
        if not exact:
            values = [float(v) for v in values]
        return make_table_function(n, alphabet, values)
    if kind == "anchored_symmetric":
        anchor = doc.get("anchor")
        if anchor is not None:
            coord, sym = _pair(anchor, "an anchor", "[coordinate, symbol]")
            anchor = (_integer(coord, "the anchor coordinate"), str(sym))
        windows = {}
        for sym, w in _field(doc, "windows", dict, "an object").items():
            lo, hi = _pair(w, f"window {sym!r}", "[lo, hi]")
            what = f"a bound of window {sym!r}"
            windows[str(sym)] = (_integer(lo, what), _integer(hi, what))
        ignored = [
            _integer(c, "an ignored coordinate")
            for c in _field(doc, "ignored", list, "a list", default=[])
        ]
        return make_anchored_symmetric(n, alphabet, windows, anchor, ignored, zero)
    if kind == "junta":
        constraints = []
        for item in _field(doc, "constraints", list, "a list"):
            coord, sym = _pair(item, "a constraint", "[coordinate, symbol]")
            constraints.append((_integer(coord, "a constraint coordinate"), str(sym)))
        return make_junta(n, alphabet, constraints, zero)
    if kind == "mod_linear":
        symbol_map = _field(doc, "symbol_map", (list, dict), "a list or an object")
        if isinstance(symbol_map, dict):
            symbol_map = {str(s): _integer(v, "a symbol map value") for s, v in symbol_map.items()}
        else:
            symbol_map = [_integer(v, "a symbol map value") for v in symbol_map]
        coeffs = _field(doc, "coeffs", list, "a list")
        # one pass over plain ints; any other entry (a bool too) goes through
        # `_integer`, item by item, for its message
        if not all(type(c) is int for c in coeffs):
            coeffs = [_integer(c, "a coefficient") for c in coeffs]
        return make_mod_linear(
            n, alphabet, _integer(_field(doc, "modulus"), "modulus"), coeffs,
            _integer(_field(doc, "residue"), "residue"), symbol_map, zero,
        )
    raise ValueError(f"unknown function kind {kind!r}")


def format_function(f: FunctionSpec) -> str:
    """Canonical JSON rendering of a function document."""
    doc: dict = {"n": f.n, "alphabet": list(f.alphabet.symbols), "kind": f.kind}
    if f.kind == "table":
        doc["values"] = [
            str(v) if isinstance(v, Fraction) else float(v)
            for v in f.payload["values"]
        ]
    elif f.kind == "anchored_symmetric":
        pay = f.payload
        doc["anchor"] = (
            None if pay["anchor"] is None
            else [pay["anchor"][0], f.alphabet.symbols[pay["anchor"][1]]]
        )
        doc["windows"] = {
            f.alphabet.symbols[s]: list(w) for s, w in sorted(pay["windows"].items())
        }
        doc["ignored"] = sorted(pay["ignored"])
        doc["zero"] = f.zero
    elif f.kind == "junta":
        doc["constraints"] = [
            [c, f.alphabet.symbols[s]] for c, s in f.payload["constraints"]
        ]
        doc["zero"] = f.zero
    else:
        pay = f.payload
        doc["modulus"] = pay["modulus"]
        doc["coeffs"] = list(pay["coeffs"])
        doc["residue"] = pay["residue"]
        doc["symbol_map"] = {
            sym: pay["symbol_map"][i] for i, sym in enumerate(f.alphabet.symbols)
        }
        doc["zero"] = f.zero
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"
