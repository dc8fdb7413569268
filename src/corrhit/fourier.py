"""Functions on finite product spaces and their spectral toolkit.

Four function representations share one interface: dense tables, symmetric
count-window acceptors with an optional anchored coordinate, junta indicators,
and modular linear-form indicators.  On top of them: exact expectations and
influences (by tensor contraction over all points, by the joint-count dynamic
program for windows and residues, and in closed form for juntas), orthonormal
bases, Fourier expansions, the noise operator, projections onto coordinate
subsets, restrictions, resilience checks, and the pointwise-max substitution
operator.  The one dynamic program, `_JointLayout`, runs over a marginal's
one-step support here and over a distribution's step tuples in `hitting`.

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
`to_table`, `_view_table` (a table from a `ScaledView`), and
`_count_influences` and `_moments`, which read a function's coordinate
classes.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from ._util import (
    TABLE_BUDGET,
    Number,
    ScaledView,
    contract_axes,
    is_exact,
    mixed_radix_index,
    parse_weight,
    power_exceeds,
    scale_to_ints,
)
from .dist_core import Alphabet, MarginalDistribution

BASIS_TOL = 1e-12


class BudgetExceeded(RuntimeError):
    """Raised when an exact route would enumerate more states than allowed."""


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

# Entries of the longest product-weight list an exact sum builds, and of the
# longest list the enumeration route's contractions build in `hitting`.
_BLOCK = 4096


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


# ---------------------------------------------------------------------------
# joint-count dynamic program
#
# A window (anchored_symmetric) or residue (mod_linear) function reads a point
# only through per-symbol counts and linear residues, so E[f], Inf_i(f) and
# the hitting product E[prod_j f_j(X^(j))] are one count over i.i.d.
# coordinate draws.  Each coordinate draws a support tuple, one symbol per
# function: a step tuple of the distribution for a product, the one-step
# tuple (a,) of the marginal for a single function.  A live state is a
# window key (every window slot's count, packed into one int) with a residue
# index (the modular functions' residues as one mixed-radix number) and its
# mass: the draws' weights scaled to ints (floats in float mode), divided
# once at the end.  The keyed route keeps the residue index in the low bits
# of the key, {key: mass}; one draw moves the key of a state in residue r by
# a shift read from a table the layout keeps per distinct residue increment
# (`_Turn`), so each shift is computed once per layout.  An exact layout
# (`_packs`) maps each window key to one int of R fixed-width fields
# instead, R the number of residue indices, field r holding the mass in
# residue r: one draw rotates the fields once per distinct increment, a few
# big-int operations in place of R dict updates per effect.  When such a
# layout has window slots and its whole box of window counts times residues
# is small (`_BOX`), the whole state is one int of those fields: a draw
# rotates it once per distinct increment, shifts the rotation by each
# effect's window increment, and clears the overrun and below-floor fields
# with one AND, with no per-key pass at all.  A run of coordinates with
# equal effects draws in one multinomial step when no effect shifts a
# residue (`_JointLayout._draw_run`), on every route: it walks the
# compositions of the run's draws over the effects, not the states between
# them.  Effects may bump the same count, as two tuples that agree at a
# step do; compositions that land on one key add up there.

COUNT_KINDS = ("anchored_symmetric", "mod_linear")


class _Turn(dict):
    """One draw's residue increments inc[d], one per modular digit d.

    As a table, residue index r -> the change of r under the increments,
    filled lazily: a keyed state's key moves by it.  Called on a packed int,
    it moves the field of every residue index r to that of r + inc: per
    digit with a nonzero increment, two shifts, two ANDs and one OR (`rots`,
    built by `_JointLayout._rotation`).  A layout keeps one per distinct
    increment, shared by every coordinate signature that draws it.
    """

    def __init__(self, mods, inc, rots):
        super().__init__()
        self.mods, self.inc, self.rots = mods, inc, rots

    def __missing__(self, r: int) -> int:
        shift = 0
        for (_, q, radix), a in zip(self.mods, self.inc):
            digit = r // radix % q
            shift += ((digit + a) % q - digit) * radix
        self[r] = shift
        return shift

    def __call__(self, packed: int) -> int:
        for low, up, high, down in self.rots:
            packed = (packed & low) << up | (packed & high) >> down
        return packed


# Most bits per field of a packed int: a layout whose masses need more
# walks keyed, since every field op costs in proportion to the width.
_WIDTH = 1024
# Most fields (window counts with an overrun row per slot, times residues)
# of a packed layout that keeps its whole state in one int, and most bits
# in one row of R fields: past that a draw's big-int work dwarfs the
# per-key loop that the whole int saves.
_BOX = _BLOCK
_ROW = 1 << 14


def _packs(exact: bool, residues: int, support: int, n: int, scale) -> bool:
    """Whether a layout of R = `residues` residue indices maps each window
    key to one packed int of R fields (see `_JointLayout`): when its masses
    are exact ints, R is at most `_BLOCK`, R is at most |support|^n, the
    most residues that n draws reach, and scale^n, the most mass a field
    holds, fits `_WIDTH` bits."""
    return (
        exact
        and residues <= _BLOCK
        and power_exceeds(support, n, residues - 1)
        and not power_exceeds(scale, n, (1 << _WIDTH) - 1)
    )


def _shifts_no_residue(effects) -> bool:
    """Whether no effect shifts a residue, so that a run of draws can go in
    one step: its final key depends only on how many draws each effect takes."""
    return not any(any(turn.inc) for turn, _, _ in effects)


def _run_pays(live: int, k: int, effects) -> bool:
    """Whether k draws of `effects` from `live` keys cost no more in one
    step than one at a time, by an estimate that ignores window bounds.

    With e moving effects, t draws spread over C(t + e, e) compositions
    (C(t + e - 1, e - 1) when no effect stays put).  The run step walks every
    composition from every key.  One key's single draws reach one key
    per composition when the bumps are disjoint; bumps that share slots
    collide, and the keys are then at most the count vectors of the s slots
    the bumps move, (t + 1)^s after t draws.  The t-th single draw walks
    every effect from each key then live, taken as the larger of `live`
    and the lesser of those two counts.  From one key a run of disjoint
    bumps always pays; from many keys, or when many compositions share
    keys, the single draws may stay cheaper.  A packed key costs the same
    in both, so keys are counted, not their residues.
    """
    bumps = [bump for _, bump, _ in effects]
    parts = sum(1 for bump in bumps if bump) - all(bumps)
    slots = functools.reduce(operator.or_, bumps, 0).bit_count()
    run = live * math.comb(k + parts, parts)
    single, comps = 0, 1
    for t in range(1, k + 1):
        comps = comps * (t + parts) // t
        single += len(effects) * max(live, min(comps, (t + 1) ** slots))
        if single >= run:
            return True
    return False


def _over_budget(size: int, cap: int) -> BudgetExceeded:
    return BudgetExceeded(f"joint-count state space {size} exceeds the budget {cap}")


class _JointLayout:
    """The joint state of window and residue functions, and the effect of one
    coordinate's draw on it.

    Each window slot (function, symbol) owns a field of the window key: b =
    hi.bit_length() value bits and one guard bit.  The field holds count +
    2^b - 1 - hi, so a count passing hi sets the guard bit and one AND with
    `guard` catches an overrun in any slot; `start` is the window key
    before any draw.  The residues of the R =
    prod moduli residue indices form a mixed-radix number r (`mods`: per
    digit the function, its modulus and its radix), r = `target` where every
    modular function accepts.  `support` lists (tuple, scaled weight) pairs,
    one symbol per function.

    A live state is a (window key, residue index) pair with its mass.  The
    walk holds its states in one of three forms:

    - keyed: {key: mass}, r in the low `rmask` bits of the key, below the
      window fields;
    - packed per key (`_packs`: exact layouts with residues to pack):
      {window key: packed int}, `rmask` 0, the packed int holding the mass
      of residue r in bits [r W, (r + 1) W) of `width` W;
    - whole: one int of `box` fields, when a packed layout has window slots,
      box = prod_s (hi_s + 2) R is at most `_BOX` and a row of R fields at
      most `_ROW` bits.  Field (c_1..c_S, r) sits at r + R (c_1 + (hi_1 +
      2) (c_2 + ...)), slot 1 of `slots` varying fastest; row hi_s + 1 of
      each slot catches an overrun, since a draw bumps a slot by at most 1,
      and is cleared after every draw.

    `masses` and `size` read every form as window keys in the guard-bit
    encoding, so acceptance, window counts and the budget read the same on
    all three.  A stored mass after t draws is a sum of path weights, at
    most scale^t, scale the sum of the support weights; W is the bits of
    scale^n rounded up to whole bytes, so no stored field carries into the
    next.  A run (`_draw_run`) may pass W bits in a field of a term it has
    not stored yet, but it only multiplies that int by counts and weights
    and divides it by a count c that divides every field, and such steps are
    exact on the int whatever its fields hold; the term is back in its
    fields when it is stored.  On every form the budget counts live (key,
    residue) states: the keys, or the nonzero fields (`size`).

    A draw's effect is a window increment `bump` (a 1 at the lowest bit of
    each slot it counts in) and an increment per modular digit.  The layout
    keeps one `_Turn` per distinct increment, read by every coordinate
    signature that draws it; a packed layout builds the masks of its
    rotations lazily, once per (digit, increment) that some effect carries,
    over the fields of its packed ints.
    """

    def __init__(self, fns, support):
        self.fns, self.support = fns, support
        self.mods = []  # (function, modulus, radix)
        radix = 1
        for j, f in enumerate(fns):
            if f.kind == "mod_linear":
                self.mods.append((j, f.payload["modulus"], radix))
                radix *= f.payload["modulus"]
        self.residues = radix
        self.exact = all(isinstance(w, int) for _, w in support)
        self.width = 0
        scale, n = sum(w for _, w in support), fns[0].n
        if self.mods and _packs(self.exact, radix, len(support), n, scale):
            self.width = -(-(scale**n).bit_length() // 8) * 8
        # the most live states one stored value holds
        self.per = radix if self.width else 1
        # packed keys hold no residue bits
        pos = 0 if self.width else (radix - 1).bit_length()
        self.rmask = (1 << pos) - 1
        self.target = sum(fns[j].payload["residue"] * r for j, _, r in self.mods)
        self.slots = {}  # (function, symbol) -> (bit position, offset, lo, hi)
        # per support tuple, its window increment
        self._bumps = [0] * len(support)
        self.fields = []  # per slot (bit position, mask with guard, largest live value)
        self.guard = self.start = 0
        # per function, the coordinates that bump none of its slots; and the
        # coordinates some window anchors or ignores -> (anchors, muted functions)
        self.ignored = [frozenset()] * len(fns)
        self.special: dict = {}
        for j, f in enumerate(fns):
            if f.kind != "anchored_symmetric":
                continue
            for sym, (lo, hi) in sorted(f.payload["windows"].items()):
                bits = hi.bit_length()
                off = (1 << bits) - 1 - hi
                self.slots[(j, sym)] = (pos, off, lo, hi)
                for t, (tup, _) in enumerate(support):
                    if tup[j] == sym:
                        self._bumps[t] += 1 << pos
                self.fields.append((pos, (2 << bits) - 1, (1 << bits) - 1))
                self.start |= off << pos
                self.guard |= 1 << (pos + bits)
                pos += bits + 1
            self.ignored[j] = f.payload["ignored"]
            for c in self.ignored[j]:
                anchors, muted = self.special.get(c, ((), ()))
                self.special[c] = (anchors, muted + (j,))
            if f.payload["anchor"] is not None:
                c, sym = f.payload["anchor"]
                anchors, muted = self.special.get(c, ((), ()))
                self.special[c] = (anchors + ((j, sym),), muted)
        coeffs = [fns[j].payload["coeffs"] for j, _, _ in self.mods]
        self.coeffs = list(zip(*coeffs)) if coeffs else [()] * fns[0].n
        self.final = self.floor([0] * len(fns))
        # per modular digit, the symbol-map value of each support tuple
        self._symbols = [
            [fns[j].payload["symbol_map"][tup[j]] for tup, _ in support] for j, _, _ in self.mods
        ]
        # the whole-state box of a packed layout: per slot (bit position,
        # offset, rows, mask with guard), and the fields of the whole int, 0
        # when the states are not one int
        self.dims, self.box = (), 0
        if self.width and self.slots and radix * self.width <= _ROW:
            self.dims = [
                (pos, off, hi + 2, (2 << hi.bit_length()) - 1)
                for pos, off, _, hi in self.slots.values()
            ]
            box = radix * math.prod([rows for _, _, rows, _ in self.dims])
            self.box = box if box <= _BOX else 0
        self._effects: dict = {}
        self._incs: dict = {}
        self._turns: dict = {}
        self._rotations: dict = {}
        self._shifts: dict = {}
        self._masks: dict = {}

    def floor(self, rest) -> int:
        """Packed lower bounds a state must meet to reach every window's lo
        when rest[j] more coordinates can bump function j's slots; 0 when
        nothing is bounded.

        A state meets the floor iff ((key | guard) - floor) & guard == guard:
        every field then subtracts at most 2^b from 2^b + its value, so no
        borrow crosses a field and its guard bit survives iff value >= bound.
        """
        floor = 0
        for (j, _), (pos, off, lo, hi) in self.slots.items():
            need = min(lo - rest[j], hi + 1)
            if need > 0:
                floor |= (off + need) << pos
        return floor

    def accepts(self, key: int, r: int) -> bool:
        """Whether the window key `key` (no residue bits) with residue index
        r, after the last draw, lies in every window and hits every residue."""
        guard = self.guard
        return (
            r == self.target
            and not key & guard
            and ((key | guard) - self.final) & guard == guard
        )

    def masses(self, states, residue=None):
        """(window key, residue index, mass) of every live state, or of the
        states in residue index `residue` when given: a packed layout reads
        that one field of each key, or unpacks the nonzero fields; a whole
        int is split into its live keys first."""
        if self.box:
            states = self._split(states)
        if not self.width:
            rmask = self.rmask
            for key, mass in states.items():
                r = key & rmask
                if residue is None or r == residue:
                    yield key - r, r, mass
            return
        width = self.width
        if residue is not None:
            shift, mask = residue * width, (1 << width) - 1
            for key, packed in states.items():
                mass = packed >> shift & mask
                if mass:
                    yield key, residue, mass
            return
        size = width // 8
        for key, packed in states.items():
            raw, live = self._fields(packed)
            for r in np.flatnonzero(live).tolist():
                yield key, r, int.from_bytes(raw[r * size:(r + 1) * size], "little")

    def _fields(self, packed: int, fields: int = 0):
        """The bytes of a packed int of `fields` fields (R by default), and
        per field whether it is nonzero."""
        raw = packed.to_bytes((fields or self.residues) * self.width // 8, "little")
        return raw, np.frombuffer(raw, np.uint8).reshape(-1, self.width // 8).any(1)

    def _live(self, value) -> int:
        """The live (key, residue) states one stored value holds: one mass,
        or the nonzero fields of a packed int."""
        return int(self._fields(value)[1].sum()) if self.width else 1

    def _split(self, whole: int) -> dict:
        """{window key: packed int of its R fields} of the live rows of a
        whole-state int."""
        size = self.residues * self.width // 8
        raw, live = self._fields(whole, self.box)
        return {
            self._key(row): int.from_bytes(raw[row * size:(row + 1) * size], "little")
            for row in np.flatnonzero(live.reshape(-1, self.residues).any(1)).tolist()
        }

    def _key(self, row: int) -> int:
        """The window key of row `row` of a whole-state int."""
        key = self.start
        for pos, _, rows, _ in self.dims:
            row, c = divmod(row, rows)
            key += c << pos
        return key

    def _join(self, states: dict) -> int:
        """The whole-state int of {window key: packed int} states, none of
        them past its windows."""
        size = self.residues * self.width // 8
        raw = bytearray(self.box * self.width // 8)
        for key, packed in states.items():
            row, stride = 0, 1
            for pos, off, rows, mask in self.dims:
                row += ((key >> pos & mask) - off) * stride
                stride *= rows
            raw[row * size:(row + 1) * size] = packed.to_bytes(size, "little")
        return int.from_bytes(raw, "little")

    def _keys(self, states) -> int:
        """The live window keys."""
        if self.box:
            return int(self._fields(states, self.box)[1].reshape(-1, self.residues).any(1).sum())
        return len(states)

    def size(self, states) -> int:
        """The live (key, residue) states: the keys, or on the packed
        routes the nonzero fields."""
        if self.box:
            return int(self._fields(states, self.box)[1].sum())
        return sum(map(self._live, states.values())) if self.width else len(states)

    def _check(self, states, cap: int):
        """Raise BudgetExceeded past `cap` live states; fields are counted
        only when the keys times R, or the box, pass the cap."""
        if (self.box or len(states) * self.per) > cap:
            size = self.size(states)
            if size > cap:
                raise _over_budget(size, cap)

    def signature(self, coord: int):
        """The key of the draw's effects at `coord`: the anchors and ignoring
        functions there, and the modular coefficients."""
        return self.special.get(coord), self.coeffs[coord - 1]

    def effects(self, coord: int):
        """(turn, window increment, weight) per distinct effect of the draw
        at `coord`, support tuples with equal effects merged; `turn` is the
        `_Turn` of the effect's residue increments.

        A function anchored at `coord` admits only the tuples that carry its
        anchor symbol there, and one that ignores `coord` bumps none of its
        slots.  Coordinates with one `signature` share one list.  A keyed
        layout keeps the effects in the order of the support, which fixes
        the order of its float sums; a packed one, whose sums are exact in
        any order, puts the effects of one increment next to each other, so
        that a key rotates once per increment.
        """
        sig = self.signature(coord)
        if sig in self._effects:
            return self._effects[sig]
        anchors, muted = sig[0] or ((), ())
        # per tuple its residue increments, one column per modular digit
        cols = [self._column(d, c) for d, c in enumerate(sig[1])]
        incs = zip(*cols) if cols else itertools.repeat(())
        merged: dict = {}
        for (tup, w), bump, inc in zip(self.support, self._bumps, incs):
            if anchors and any(tup[j] != a for j, a in anchors):
                continue
            for j in muted:
                if (j, tup[j]) in self.slots:
                    bump -= 1 << self.slots[j, tup[j]][0]
            merged[inc, bump] = merged.get((inc, bump), 0) + w
        items = merged.items()
        if self.width:
            items = sorted(items, key=lambda item: item[0][0])
        effects = self._effects[sig] = [(self._turn(inc), bump, w) for (inc, bump), w in items]
        if self.box:
            for _, bump, _ in effects:
                if bump not in self._shifts:
                    self._shifts[bump] = self._shift(bump)
        return effects

    def _column(self, d: int, c: int) -> tuple:
        """Per support tuple, the increment of modular digit d at
        coefficient c: c times the tuple's symbol-map value, mod q."""
        if (d, c) not in self._incs:
            q = self.mods[d][1]
            self._incs[d, c] = tuple([c * s % q for s in self._symbols[d]])
        return self._incs[d, c]

    def _shift(self, bump: int) -> int:
        """The bits a whole-state int moves by under the window increment
        `bump`: one row of each slot it counts in."""
        shift, stride = 0, self.residues
        for pos, _, rows, _ in self.dims:
            if bump >> pos & 1:
                shift += stride
            stride *= rows
        return shift * self.width

    def _turn(self, inc) -> _Turn:
        """The layout's one `_Turn` of the residue increments `inc`."""
        if inc not in self._turns:
            self._turns[inc] = _Turn(self.mods, inc, self._rots(inc) if self.width else ())
        return self._turns[inc]

    def _rots(self, inc) -> tuple:
        """The rotations of a packed int by `inc`, one per nonzero digit."""
        for d, a in enumerate(inc):
            if a and (d, a) not in self._rotations:
                self._rotations[d, a] = self._rotation(d, a)
        return tuple(self._rotations[d, a] for d, a in enumerate(inc) if a)

    def _rotation(self, d: int, a: int):
        """(low, up, high, down) of a packed int's rotation by a at digit d:
        the fields whose digit d is below q - a move up by a places of that
        digit, the others down by q - a.  The masks span the R fields of a
        key, or every row of a whole-state int."""
        _, q, radix = self.mods[d]
        fields = self.box or self.residues
        width, total = self.width, fields * self.width
        full = (1 << total) - 1
        # the first q - a places of the digit, repeated every q places
        low, reps = (1 << (q - a) * radix * width) - 1, 1
        while reps * q * radix < fields:
            low |= low << reps * q * radix * width
            reps *= 2
        low &= full
        return low, a * radix * width, low ^ full, (q - a) * radix * width

    def _mask(self, floor: int) -> int:
        """The fields of a whole-state int that lie in every window and meet
        the packed lower bounds `floor` (see `floor`), all residues each:
        per slot, copies of the lower slots' mask at rows need..hi.  The
        first slot's rows hold every field, so its copies are one run of
        ones."""
        if floor not in self._masks:
            block, mask = self.residues * self.width, -1
            for pos, off, rows, bits in self.dims:
                need = max((floor >> pos & bits) - off, 0)
                copies, have = rows - 1 - need, 1
                while mask != -1 and have < copies:
                    mask |= mask << have * block
                    have *= 2
                mask = (mask & (1 << copies * block) - 1) << need * block
                block *= rows
            self._masks[floor] = mask
        return self._masks[floor]

    def walk(self, coords, budget, later=()):
        """Live states after the coordinates `coords` draw, in that order:
        {key: mass} on the keyed route, {window key: packed int} when packed
        per key, one int when whole (see `_JointLayout`).

        Each run of consecutive coordinates with one `signature` draws in one
        step (`_draw_run`) when its effects shift no residue and the step
        costs less than its single draws from the keys live before it
        (`_run_pays`); every other coordinate draws on its own.  The bumps
        of a run's effects may share slots.  A state is dropped when a window
        overruns or when some window's lo is out of reach with the rest of
        `coords` and the coordinates `later` still to draw.  More than
        `budget` live (key, residue) states after a step (one draw, or one
        run drawn at once) raise BudgetExceeded; a run also raises as soon
        as it stores one live state too many.  A run ends on the states its
        single draws end on, and those only grow along it, so any budget its
        single draws meet, the run meets too.  A zero function leaves no state.
        """
        if any(f.zero for f in self.fns):
            return 0 if self.box else {}
        cap = TABLE_BUDGET if budget is None else budget
        rest = [sum(c not in ign for c in (*coords, *later)) for ign in self.ignored]
        states = 1 if self.box else {self.start: 1}
        for _, run in itertools.groupby(coords, self.signature):
            run = list(run)
            effects = self.effects(run[0])
            # the functions whose slots the run's coordinates may bump
            live = [run[0] not in ign for ign in self.ignored]
            at_once = (
                len(run) > 1
                and _shifts_no_residue(effects)
                and _run_pays(self._keys(states), len(run), effects)
            )
            for k in [len(run)] if at_once else [1] * len(run):
                rest = [r - k * d for r, d in zip(rest, live)]
                floor = self.floor(rest)
                if at_once:
                    states = self._draw_run(states, effects, k, floor, cap)
                else:
                    states = self._draw(states, effects, floor)
                self._check(states, cap)
                if not states:
                    return states
        return states

    def _draw(self, states, effects, floor):
        """States after one coordinate draws.

        A keyed state moves its key by the `_Turn` of its residue and its
        window increment, effect by effect.  A packed one rotates its fields
        once per residue increment, then adds the rotation times each weight
        at each window increment that carries it.  A whole-state int does
        the same with no keys: each effect shifts the rotation by the rows
        of its window increment, and one AND (`_mask`) clears the overrun
        rows and the fields below the floor.
        """
        if self.box:
            nxt, turn, shifts = 0, None, self._shifts
            for step, bump, w in effects:
                if step is not turn:
                    turn, value = step, step(states)
                nxt += value * w << shifts[bump]
            return nxt & self._mask(floor)
        guard = self.guard
        nxt: dict = {}
        if self.width:
            for key, packed in states.items():
                turn = None
                for step, bump, w in effects:
                    if step is not turn:
                        turn, value = step, step(packed)
                    new = key + bump
                    if new & guard or (floor and ((new | guard) - floor) & guard != guard):
                        continue
                    nxt[new] = nxt.get(new, 0) + value * w
            return nxt
        rmask = self.rmask
        for key, mass in states.items():
            r = key & rmask
            for turn, bump, w in effects:
                new = key + turn[r] + bump
                if new & guard or (floor and ((new | guard) - floor) & guard != guard):
                    continue
                nxt[new] = nxt.get(new, 0) + mass * w
        return nxt

    def _draw_run(self, states, effects, k, floor, cap):
        """States after k coordinates with the same `effects` draw, in one step.

        The effects shift no residue, so from each state a composition (c_e
        draws of each moving effect e, the other k - sum c of the bump-0
        effect of weight w_0) lands on key + sum c_e bump_e, with mass
        C(k; c) prod w_e^c_e w_0^(k - sum c); compositions that land on one
        key add up there.  A packed int takes the same products: every one
        of its fields is a mass, and each division below is exact in every
        field.  Counts run over the effects in order.  A slot that
        only e moves bounds c_e from the state alone: from the least count
        that lifts it to the floor up to the most before it overruns, leaving
        enough draws for the least counts of the effects after e.  A slot
        that several effects move bounds each of their counts by the room
        left in it once the effects before have drawn, so no field carries
        past its guard bit, and the last of them takes its floor.  With w_0 =
        0 every draw goes to a moving effect, so c_e also takes the draws
        left beyond the most counts of the effects after e, and the last
        effect every draw left.  A state below the floor in a slot no effect
        moves is dropped.  Every composition that reaches the last effect is
        thus stored, and the store that passes `cap` live states raises
        BudgetExceeded at once, as in `_check`: a packed run counts the
        nonzero fields of the keys it stores once the keys times R pass
        `cap`, so every state form refuses on state cap + 1.  The mass term of e
        grows by (rem - c) w_e / (c + 1) per count, exact in ints.  The floor applies
        to the states after the run only: overruns and floor misses only
        grow along a run, so the result is the one of k single draws.  A
        whole-state int is split into its keys for the run and joined after.
        """
        if self.box:
            states = self._split(states)
        guard = self.guard
        div = operator.floordiv if self.exact else operator.truediv
        w0 = sum(w for _, bump, w in effects if not bump)
        bumps = [(bump, w) for _, bump, w in effects if bump]
        last = len(bumps)
        # the bits of the slots that some effect moves, and of those that
        # several effects move
        moved = shared = 0
        for bump, _ in bumps:
            shared |= moved & bump
            moved |= bump
        fields = self.fields
        own = [[fd for fd in fields if (bump & ~shared) >> fd[0] & 1] for bump, _ in bumps]
        # per moving effect (bump, weight, its shared slots, the shared slots
        # whose floor it takes as their last mover)
        moving, after = [], 0
        for bump, w in reversed(bumps):
            room = [fd for fd in fields if (bump & shared) >> fd[0] & 1] if shared else []
            floors = [fd for fd in room if not after >> fd[0] & 1] if floor else []
            moving.insert(0, (bump, w, room, floors))
            after |= bump
        still = floor & sum(mask << pos for pos, mask, _ in fields if not moved >> pos & 1)
        tail = [w0**r for r in range(k + 1)]
        nxt: dict = {}
        # live states per stored key, and their sum, once the keys times R
        # pass the cap
        live: dict = {}
        total, per = 0, self.per

        def count(key, value):
            nonlocal total
            if not live:
                live.update((stored, self._live(v)) for stored, v in nxt.items())
                total = sum(live.values())
            else:
                total -= live.get(key, 0)
                live[key] = self._live(value)
                total += live[key]
            if total > cap:
                raise _over_budget(cap + 1, cap)

        def spread(key, term, e, rem):
            if e == last:
                nxt[key] = value = nxt.get(key, 0) + term * tail[rem]
                if len(nxt) * per > cap:
                    count(key, value)
                return
            bump, w, room, floors = moving[e]
            lo, most = bounds[e]
            if room:
                for pos, mask, top in room:
                    most = min(most, top - (key >> pos & mask))
                for pos, mask, _ in floors:
                    lo = max(lo, (floor >> pos & mask) - (key >> pos & mask))
            hi = min(most, rem - least_after[e + 1])
            if not w0:
                lo = max(lo, rem - most_after[e + 1])
            if lo > hi:
                return
            for c in range(1, lo + 1):
                term = div(term * (rem - c + 1) * w, c)
            key += lo * bump
            for c in range(lo, hi + 1):
                if c > lo:
                    key += bump
                    term = div(term * (rem - c + 1) * w, c)
                spread(key, term, e + 1, rem - c)

        for key, mass in states.items():
            if still and ((key | guard) - still) & guard != guard:
                continue
            # per moving effect, (least count meeting the floor, most count)
            # over the slots only it moves
            bounds = [
                (
                    max([0, *((floor >> pos & mask) - (key >> pos & mask) for pos, mask, _ in fs)]),
                    min([k, *(top - (key >> pos & mask) for pos, mask, top in fs)]),
                )
                for fs in own
            ]
            least_after = [sum(lo for lo, _ in bounds[e:]) for e in range(last + 1)]
            most_after = [sum(most for _, most in bounds[e:]) for e in range(last + 1)]
            if least_after[0] > k or any(lo > most for lo, most in bounds):
                continue
            spread(key, mass, 0, k)
        return self._join(nxt) if self.box else nxt


def _accepted(fns, support, n: int, budget):
    """The layout of `fns` and its states {window key: scaled mass} after
    the draws at coordinates 1..n, kept where every function accepts."""
    layout = _JointLayout(fns, support)
    states = layout.walk(range(1, n + 1), budget)
    return layout, {
        key: mass
        for key, r, mass in layout.masses(states, layout.target)
        if layout.accepts(key, r)
    }


def _joint_count(fns, support, n: int, budget):
    """Scaled mass of the draws at coordinates 1..n that every function accepts."""
    return sum(_accepted(fns, support, n, budget)[1].values())


def _window_counts(fns, support, n: int, budget) -> dict:
    """Scaled mass of the accepted draws at coordinates 1..n per tuple of
    window counts, one count per window slot in (function, symbol) order."""
    layout, states = _accepted(fns, support, n, budget)
    fields = [(pos, (1 << hi.bit_length()) - 1, off) for pos, off, _, hi in layout.slots.values()]
    out: dict = {}
    for key, mass in states.items():
        counts = tuple((key >> pos & mask) - off for pos, mask, off in fields)
        out[counts] = out.get(counts, 0) + mass
    return out


def _marginal_support(pi: MarginalDistribution):
    """The one-step support tuples ((a,), W_a) of pi, weights read from its view."""
    return [((a,), w) for a, w in enumerate(pi.view.ints) if w > 0]


def _influence_count(f: FunctionSpec, pi: MarginalDistribution, i: int, budget):
    """(E[f], Inf_i(f)) of a window or residue function by one walk of the
    joint-count program.

    Every coordinate but i draws, with i counted as still to come in the
    floors.  In a live state of scaled mass M, the draws at i that lead to
    acceptance weigh P of the weight scale sw, so the state adds M P / sw^n
    to E[f] and M (sw P - P^2) / sw^(n+1) to E[Var[f | every coordinate but
    i]].  A packed layout unpacks its fields once, after the walk.
    """
    sw = pi.view.scale
    layout = _JointLayout((f,), _marginal_support(pi))
    states = layout.walk([c for c in range(1, f.n + 1) if c != i], budget, later=(i,))
    effects = layout.effects(i)
    mean = total = 0
    for key, r, mass in layout.masses(states):
        hit = sum(w for turn, bump, w in effects if layout.accepts(key + bump, r + turn[r]))
        mean += mass * hit
        total += mass * (sw * hit - hit * hit)
    if pi.exact:
        return Fraction(mean, sw**f.n), Fraction(total, sw ** (f.n + 1))
    # float weights summing to just above sw can leave total a rounding below 0
    return float(mean), max(float(total), 0.0)


def _count_influences(f: FunctionSpec, pi: MarginalDistribution, budget):
    """(E[f], [(coordinates, their Inf_i(f)) per class]) of a window or
    residue function, one joint-count walk per class of coordinates that
    are exchangeable under i.i.d. draws and so share one influence: a
    window function's anchor, its ignored coordinates (influence 0) and the
    rest; a residue function's coordinates of one coefficient.  E[f] is
    read off the first walk."""
    pay = f.payload
    if f.kind == "anchored_symmetric":
        anchor = [pay["anchor"][0]] if pay["anchor"] is not None else []
        rest = [i for i in range(1, f.n + 1) if i not in pay["ignored"] and i not in anchor]
        classes = [coords for coords in (anchor, sorted(pay["ignored"]), rest) if coords]
    else:
        by_coeff: dict = {}
        for i, c in enumerate(pay["coeffs"], start=1):
            by_coeff.setdefault(c, []).append(i)
        classes = list(by_coeff.values())
    reads = [(coords, _influence_count(f, pi, coords[0], budget)) for coords in classes]
    return reads[0][1][0], [(coords, inf) for coords, (_, inf) in reads]


def resolve_engine(engine: str, fns) -> str:
    """The route, 'dp' or 'enumerate', that computes a quantity of `fns`.

    The one engine rule of `expectation`, `variance`, `influence` and
    `hitting.multi_set_expectation`.  'enumerate' contracts the values at
    every point, materializing other kinds per axis with `to_table`; 'dp'
    runs the joint-count program, which reads only window and residue kinds
    (`COUNT_KINDS`); 'auto' takes the dp when every function is of those
    kinds and enumeration otherwise.  Under 'auto', `expectation` and
    `influence` answer a junta by its closed form in place of enumeration.
    An unknown engine, or 'dp' on any other kind, raises ValueError.
    """
    if engine not in ("auto", "enumerate", "dp"):
        raise ValueError(f"unknown engine {engine!r}")
    if engine == "enumerate":
        return engine
    other = next((f.kind for f in fns if f.kind not in COUNT_KINDS), None)
    if other is None:
        return "dp"
    if engine == "dp":
        raise ValueError(f"no dynamic program for kind {other!r}")
    return "enumerate"


def expectation(
    f: FunctionSpec, pi: MarginalDistribution,
    engine: str = "auto", budget: int | None = None,
) -> Number:
    """E[f(X)] with X_i independent draws from pi.

    The route is `resolve_engine(engine, (f,))`: the contraction over all m^n
    points, the joint-count program over the marginal's one-step support, or
    under 'auto' the closed form of a junta.  Exact inputs give exact
    rationals on every route.  `budget` caps the m^n points of a
    contraction; on the dp it caps the live states after each step (one
    coordinate's draw, or a run of coordinates drawn at once, see
    `_JointLayout.walk`), counted after dropping those that can no longer
    reach a window's lower bound.  A live state is one (window counts,
    residue) pair, counted alike whether the walk keys or packs residues.
    """
    _check_alphabet(f, pi)
    route = resolve_engine(engine, (f,))
    if f.zero:
        return Fraction(0) if pi.exact else 0.0
    if route == "dp":
        total = _joint_count((f,), _marginal_support(pi), f.n, budget)
        return Fraction(total, pi.view.scale**f.n) if pi.exact else float(total)
    if engine == "auto" and f.kind == "junta":
        out: Number = Fraction(1) if pi.exact else 1.0
        for _, sym in f.payload["constraints"]:
            out *= pi.probs[sym]
        return out
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


def _influence_junta(f, pi, i) -> Number:
    """Inf_i of a conjunction: p_i (1 - p_i) times the other constraints' mass."""
    out: Number = Fraction(1) if pi.exact else 1.0
    cons = dict(f.payload["constraints"])
    if f.zero or i not in cons:
        return out * 0
    for coord, sym in cons.items():
        p = pi.probs[sym]
        out *= p * (1 - p) if coord == i else p
    return out


def influence(
    f: FunctionSpec, pi: MarginalDistribution, i: int = 1,
    engine: str = "auto", budget: int | None = None,
) -> Number:
    """Inf_i(f) = E[Var[f(X) | X at all coordinates except i]], exact when inputs are.

    Routes and budgets as for `expectation`.  The dp runs one walk, of every
    coordinate but i, and reads Inf_i(f) off it (`_influence_count`); that
    walk gives E[f] too, and one walk per class of exchangeable coordinates
    gives every influence (`_count_influences`), as the catalogs of
    `hitting` and the CLI read them.  Float results are clamped at 0
    against rounding.
    """
    if not 1 <= i <= f.n:
        raise ValueError("coordinate out of range")
    _check_alphabet(f, pi)
    if resolve_engine(engine, (f,)) == "dp":
        return _influence_count(f, pi, i, budget)[1]
    if engine == "auto" and f.kind == "junta":
        return _influence_junta(f, pi, i)
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
        return sum(len(coords) * inf for coords, inf in _count_influences(f, pi, budget)[1])
    return sum(influence(f, pi, i=i, engine=engine, budget=budget) for i in range(1, f.n + 1))


def _moments(f: FunctionSpec, pi: MarginalDistribution, budget):
    """(E[f], Var[f], [Inf_1(f), ..., Inf_n(f)]) as `expectation`,
    `variance` and `influence` give them on the 'auto' engine, in the
    fewest passes: one joint-count walk per coordinate class of a window or
    residue function, which also gives E[f] (`_count_influences`); one
    contraction for all n influences of a table; closed forms for a junta.
    An indicator's variance is E[f] - E[f]^2."""
    _check_alphabet(f, pi)
    if f.kind in COUNT_KINDS:
        mu, classes = _count_influences(f, pi, budget)
        infs: list = [None] * f.n
        for coords, inf in classes:
            for i in coords:
                infs[i - 1] = inf
        return mu, _indicator_variance(mu), infs
    mu = expectation(f, pi, budget=budget)
    if f.kind == "junta":
        return mu, _indicator_variance(mu), [_influence_junta(f, pi, i) for i in range(1, f.n + 1)]
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
    upper_only: bool = False,
):
    """(True, None), or (False, R) for the first R with |R| <= k, the empty
    restriction included, whose E[Rf] leaves [(1-eps) E[f], (1+eps) E[f]]
    (only the upper side when `upper_only`), with E[f] computed afresh.

    The coordinates outside `free` must be dummy in f.  The search then
    contracts only the coordinate sets inside `free` and gives the answer
    of the search over all coordinates (see `_find_restriction`).
    `is_resilient` is this check over every coordinate.
    """
    mu = expectation(f, pi)
    lower = None if upper_only else (1 - eps) * mu
    found = _find_restriction(f, pi, k, 0, cap, (1 + eps) * mu, True, lower, free)
    return (True, None) if found is None else (False, found[0])


def is_resilient(
    f: FunctionSpec, eps, k: int, pi: MarginalDistribution,
    budget: int | None = None, upper_only: bool = False,
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
    return _resilience_witness(f, eps, k, pi, cap, range(1, f.n + 1), upper_only)


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
    or [coordinate, symbol] pairs under an object, and a symbol map that is
    neither a list nor an object.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("a function document must be a JSON object")
    n = _integer(_field(doc, "n"), "n")
    alphabet = Alphabet(tuple(str(s) for s in _field(doc, "alphabet", list, "a list")))
    kind = _field(doc, "kind", str, "a string")
    zero = bool(doc.get("zero", False))
    if kind == "table":
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
