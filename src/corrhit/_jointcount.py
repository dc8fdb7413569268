"""The joint-count dynamic program: exact expectations, influences and
hitting products of window, junta and residue functions.

A window (anchored_symmetric), junta or residue (mod_linear) function reads
a point only through per-symbol counts, pinned coordinates and linear
residues, so E[f], Inf_i(f) and the hitting product E[prod_j f_j(X^(j))]
are one count over i.i.d. coordinate draws.  Each coordinate draws a
support tuple, one symbol per function: a step tuple of the distribution
for a product (`hitting`), the one-step tuple (a,) of the marginal for a
single function (`fourier`).  The functions arrive as `_CountSpec`s, which
`fourier._count_spec` reads off their payloads: a window's anchor and a
junta's constraints are both pins, coordinates whose draw must carry one
symbol.

A live state is a window key (every window slot's count, packed into one
int, see `_JointLayout`) with a residue index (the residue functions'
residues as one mixed-radix number, one of R) and its mass: the draws'
weights scaled to ints (floats in float mode), divided once at the end.  A
walk holds its states in one of four forms, which `_form` decides once per
layout from the layout alone:

- keyed: {key: mass}, the residue index in the low bits of the key, below
  the window fields.  One draw moves the key of a state in residue r by a
  shift that the layout's one table per distinct residue increment
  (`_Turn`) reads off.
- packed per key: {window key: packed int}, the packed int holding the mass
  of residue r in bits [r W, (r + 1) W) of the field width W.  One draw
  rotates the fields once per distinct increment: a few big-int operations
  in place of R dict updates per effect.
- whole: one int of `box` fields, every window key's R fields in a row.  A
  draw rotates it once per distinct increment, shifts the rotation by each
  effect's window increment, and clears the overrun and below-floor fields
  with one AND, with no per-key pass at all.
- array: the float counterpart of the whole int, one float64 array of
  `box` cells in the same rows, R cells each.  A draw is one matrix
  product per distinct window increment (`_JointLayout._transfers`), added
  into the rows that the increment shifts to, and one mask per floor
  clears the overrun rows and the cells below the floor.

The exact forms are packed, whole and keyed; the float ones array and
keyed.  `_JointLayout.masses` and `size` read every form as (window key,
residue index, mass), so acceptance, window counts and the budget read the
same on all four: the budget counts live (key, residue) states, the keys or
the nonzero fields or cells.  A run of coordinates with equal effects draws
in one multinomial step when no effect shifts a residue
(`_JointLayout._draw_run`), on every form: it walks the compositions of the
run's draws over the effects, not the states between them.  Effects may
bump the same count, as two tuples that agree at a step do; compositions
that land on one key add up there.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from ._util import TABLE_BUDGET, BudgetExceeded, _BLOCK, power_exceeds
from .dist_core import MarginalDistribution

class _CountSpec(NamedTuple):
    """A window, junta or residue function of n coordinates as the walk
    reads it.

    A window function has `windows` {symbol index: (lo, hi)}, `pins` (its
    anchor as one (coordinate, symbol index) pair, or none) and its
    `ignored` coordinates; a junta has its constraints as `pins` and no
    windows; both have `modulus` 0.  A residue function has `modulus` q > 0,
    one coefficient per coordinate, the `residue` it accepts and its
    `symbol_map`, and no windows or pins.  `zero` marks the hard-zero
    function.
    """

    n: int
    zero: bool
    windows: dict
    pins: tuple
    ignored: frozenset
    modulus: int
    coeffs: tuple
    residue: int
    symbol_map: tuple


class _Turn(dict):
    """One draw's residue increments inc[d], one per modular digit d.

    As a table, residue index r -> the change of r under the increments,
    filled lazily: a keyed state's key moves by it.  Called on a packed int,
    it moves the field of every residue index r to that of r + inc: per
    digit with a nonzero increment, two shifts, two ANDs and one OR (`rots`,
    built by `_JointLayout._rotation`).  `index` is inc as one residue
    index, where an array's transfer matrices read the effect's weight.  A
    layout keeps one per distinct increment, shared by every coordinate
    signature that draws it.
    """

    def __init__(self, mods, inc, rots):
        super().__init__()
        self.mods, self.inc, self.rots = mods, inc, rots
        self.index = sum(a * radix for (_, _, radix), a in zip(mods, inc))

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


class _Powers(dict):
    """base^r per r, filled lazily: a run's compositions read only the
    powers at the draws that their moving effects leave over."""

    def __init__(self, base):
        super().__init__()
        self.base = base

    def __missing__(self, r: int):
        self[r] = value = self.base**r
        return value


# Most bits per field of a packed int: a layout whose masses need more
# walks keyed, since every field op costs in proportion to the width.
_WIDTH = 1024
# Most fields or cells (window counts with an overrun row per slot, times
# residues) of a layout that keeps its whole state in one int or one array,
# and most cells of an array's R x R transfer matrices; most bits in one row
# of R fields of the int: past those a draw's big-int work or matrix
# products dwarf the per-key loop that they save.
_BOX = _BLOCK
_ROW = 1 << 14


def _form(exact: bool, residues: int, specs, weights, n: int) -> tuple[str, int]:
    """(form, field width W) of the states of a walk of n draws of the
    functions `specs`: "keyed", "packed" (per window key), "whole" or
    "array", W 0 unless packed or whole.

    `residues` is R, or 0 when no function reads a residue; `weights` are
    the support tuples' weights, exact ints or floats.  The box of a layout
    is its R cells per count vector, hi + 2 rows per window slot (its counts
    and an overrun row).

    A float layout is "array" when it has a residue function, its box and
    R x R are at most `_BOX` cells, and w^n is a normal float, w the least
    weight: every mass the walk stores is then at least about w^n, so none
    underflows to 0.0, and the nonzero cells are the states that the keyed
    walk keeps, 0.0 masses included.  An exact layout packs when it has a
    residue function, R is at most `_BLOCK` and at most support^n, the most
    residues that n draws reach, and scale^n, scale the sum of the weights
    and the most mass a field holds, fits `_WIDTH` bits; W is the bits of
    scale^n rounded up to whole bytes.  A packed layout is whole when it has
    window slots, its box is at most `_BOX` fields and a row of R fields at
    most `_ROW` bits.
    """
    rows = [hi + 2 for s in specs for _, hi in s.windows.values()]
    box = residues * math.prod(rows)
    if not exact:
        least = min(weights)
        normal = least >= 1 or least**n >= sys.float_info.min
        array = residues and box <= _BOX and residues * residues <= _BOX and normal
        return ("array" if array else "keyed"), 0
    scale = sum(weights)
    if not (
        residues
        and residues <= _BLOCK
        and power_exceeds(len(weights), n, residues - 1)
        and not power_exceeds(scale, n, (1 << _WIDTH) - 1)
    ):
        return "keyed", 0
    width = -(-(scale**n).bit_length() // 8) * 8
    if rows and residues * width <= _ROW and box <= _BOX:
        return "whole", width
    return "packed", width


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
    """The joint state of window, junta and residue functions
    (`_CountSpec`s), and the effect of one coordinate's draw on it.

    Each window slot (function, symbol) owns a field of the window key: b =
    hi.bit_length() value bits and one guard bit.  The field holds count +
    2^b - 1 - hi, so a count passing hi sets the guard bit and one AND with
    `guard` catches an overrun in any slot; `start` is the window key
    before any draw.  The residues of the R =
    prod moduli residue indices form a mixed-radix number r (`mods`: per
    digit the function, its modulus and its radix), r = `target` where every
    modular function accepts.  `support` lists (tuple, scaled weight) pairs,
    one symbol per function.

    `form` is the form of the walk's states (see the module docstring):
    keyed ones carry r in the low `rmask` bits of the key; packed ones
    (`rmask` 0) have fields of `width` W bits; a whole-state int has `box`
    fields, field (c_1..c_S, r) at r + R (c_1 + (hi_1 + 2) (c_2 + ...)),
    slot 1 of `slots` varying fastest.  An array has its `box` cells in the
    same order, as rows of R, and its keys carry r as keyed ones do.  Row
    hi_s + 1 of each slot catches an overrun, since a draw bumps a slot by
    at most 1, and is cleared after every draw.  `width` and `box` are 0 on
    the forms without them.  A stored mass after t draws is a sum of path
    weights, at most scale^t, scale the sum of the support weights; W holds
    scale^n, so no stored field carries into the next.  A run (`_draw_run`)
    may pass W bits in a field of a term it has not stored yet, but it only
    multiplies that int by counts and weights and divides it by a count c
    that divides every field, and such steps are exact on the int whatever
    its fields hold; the term is back in its fields when it is stored.

    A draw's effect is a window increment `bump` (a 1 at the lowest bit of
    each slot it counts in) and an increment per modular digit.  The layout
    keeps one `_Turn` per distinct increment, read by every coordinate
    signature that draws it; a packed layout builds the masks of its
    rotations lazily, once per (digit, increment) that some effect carries,
    over the fields of its packed ints.
    """

    def __init__(self, specs, support):
        self.specs, self.support = specs, support
        self.mods = []  # (function, modulus, radix)
        radix = 1
        for j, s in enumerate(specs):
            if s.modulus:
                self.mods.append((j, s.modulus, radix))
                radix *= s.modulus
        self.residues = radix
        self.exact = all(isinstance(w, int) for _, w in support)
        n = specs[0].n
        self.form, self.width = _form(
            self.exact, radix if self.mods else 0, specs, [w for _, w in support], n
        )
        # the most live states one stored value holds
        self.per = radix if self.width else 1
        # packed keys hold no residue bits
        pos = 0 if self.width else (radix - 1).bit_length()
        self.rmask = (1 << pos) - 1
        self.target = sum(specs[j].residue * r for j, _, r in self.mods)
        self.slots = {}  # (function, symbol) -> (bit position, offset, lo, hi)
        # per support tuple, its window increment
        self._bumps = [0] * len(support)
        self.fields = []  # per slot (bit position, mask with guard, largest live value)
        self.guard = self.start = 0
        # per function, the coordinates that bump none of its slots; and the
        # coordinates some function pins or ignores -> (pins, muted functions)
        self.ignored = [frozenset()] * len(specs)
        self.special: dict = {}
        for j, s in enumerate(specs):
            if s.modulus:
                continue
            for sym, (lo, hi) in sorted(s.windows.items()):
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
            self.ignored[j] = s.ignored
            for c in self.ignored[j]:
                pins, muted = self.special.get(c, ((), ()))
                self.special[c] = (pins, muted + (j,))
            for c, sym in s.pins:
                pins, muted = self.special.get(c, ((), ()))
                self.special[c] = (pins + ((j, sym),), muted)
        coeffs = [specs[j].coeffs for j, _, _ in self.mods]
        self.coeffs = list(zip(*coeffs)) if coeffs else [()] * n
        self.final = self.floor([0] * len(specs))
        # per modular digit, the symbol-map value of each support tuple
        self._symbols = [
            [specs[j].symbol_map[tup[j]] for tup, _ in support] for j, _, _ in self.mods
        ]
        # the whole-state int or array: per slot (bit position, offset, rows,
        # mask with guard), and its fields or cells
        self.dims, self.box = (), 0
        if self.form in ("whole", "array"):
            self.dims = [
                (pos, off, hi + 2, (2 << hi.bit_length()) - 1)
                for pos, off, _, hi in self.slots.values()
            ]
            self.box = radix * math.prod([rows for _, _, rows, _ in self.dims])
        if self.form == "array":
            # per (r, s), the residue index of s - r, digit by digit
            digits = [(np.arange(radix) // rad % q, q, rad) for _, q, rad in self.mods]
            self._differences = sum((d - d[:, None]) % q * rad for d, q, rad in digits)
        self._effects: dict = {}
        self._incs: dict = {}
        self._turns: dict = {}
        self._rotations: dict = {}
        self._shifts: dict = {}
        self._masks: dict = {}
        self._steps: dict = {}

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
        int or an array is split into its live keys first."""
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

    def _split(self, whole) -> dict:
        """The live keys of a whole-state int, {window key: packed int of
        its R fields}, or of an array, {key: mass} as a keyed walk holds
        them."""
        if self.form == "array":
            rows, rs = np.nonzero(whole)
            cells = zip(rows.tolist(), rs.tolist(), whole[rows, rs].tolist())
            return {self._key(row) + r: mass for row, r, mass in cells}
        size = self.residues * self.width // 8
        raw, live = self._fields(whole, self.box)
        return {
            self._key(row): int.from_bytes(raw[row * size:(row + 1) * size], "little")
            for row in np.flatnonzero(live.reshape(-1, self.residues).any(1)).tolist()
        }

    def _key(self, row: int) -> int:
        """The window key of row `row` of a whole-state int or an array."""
        key = self.start
        for pos, _, rows, _ in self.dims:
            row, c = divmod(row, rows)
            key += c << pos
        return key

    def _row(self, key: int) -> int:
        """The row of the window key `key` in a whole-state int or an array."""
        row, stride = 0, 1
        for pos, off, rows, mask in self.dims:
            row += ((key >> pos & mask) - off) * stride
            stride *= rows
        return row

    def _join(self, states: dict):
        """The whole-state int of {window key: packed int} states, or the
        array of {key: mass} states, none of them past its windows."""
        if self.form == "array":
            cells = np.zeros((self.box // self.residues, self.residues))
            for key, mass in states.items():
                cells[self._row(key), key & self.rmask] = mass
            return cells
        size = self.residues * self.width // 8
        raw = bytearray(self.box * self.width // 8)
        for key, packed in states.items():
            row = self._row(key)
            raw[row * size:(row + 1) * size] = packed.to_bytes(size, "little")
        return int.from_bytes(raw, "little")

    def _keys(self, states) -> int:
        """The keys a run step walks from: the live window keys of a packed
        or whole layout, else the live states."""
        if not self.width:
            return self.size(states)
        if self.box:
            return int(self._fields(states, self.box)[1].reshape(-1, self.residues).any(1).sum())
        return len(states)

    def size(self, states) -> int:
        """The live (key, residue) states: the keys, or the nonzero fields
        or cells."""
        if self.form == "array":
            return int(np.count_nonzero(states))
        if self.box:
            return int(self._fields(states, self.box)[1].sum())
        return sum(map(self._live, states.values())) if self.width else len(states)

    def _check(self, states, cap: int):
        """Raise BudgetExceeded past `cap` live states; fields and cells are
        counted only when the keys times R, or the box, pass the cap."""
        if (self.box or len(states) * self.per) > cap:
            size = self.size(states)
            if size > cap:
                raise _over_budget(size, cap)

    def signature(self, coord: int):
        """The key of the draw's effects at `coord`: the pins and ignoring
        functions there, and the modular coefficients.  Coordinates with one
        signature are exchangeable under i.i.d. draws."""
        return self.special.get(coord), self.coeffs[coord - 1]

    def effects(self, coord: int):
        """(turn, window increment, weight) per distinct effect of the draw
        at `coord`, support tuples with equal effects merged; `turn` is the
        `_Turn` of the effect's residue increments.

        A function pinned at `coord` admits only the tuples that carry its
        pinned symbol there, and one that ignores `coord` bumps none of its
        slots.  Coordinates with one `signature` share one list.  A keyed
        layout keeps the effects in the order of the support, which fixes
        the order of its float sums; a packed one, whose sums are exact in
        any order, puts the effects of one increment next to each other, so
        that a key rotates once per increment.
        """
        sig = self.signature(coord)
        if sig in self._effects:
            return self._effects[sig]
        pins, muted = sig[0] or ((), ())
        # per tuple its residue increments, one column per modular digit
        cols = [self._column(d, c) for d, c in enumerate(sig[1])]
        incs = zip(*cols) if cols else itertools.repeat(())
        merged: dict = {}
        for (tup, w), bump, inc in zip(self.support, self._bumps, incs):
            if pins and any(tup[j] != a for j, a in pins):
                continue
            for j in muted:
                if (j, tup[j]) in self.slots:
                    bump -= 1 << self.slots[j, tup[j]][0]
            merged[inc, bump] = merged.get((inc, bump), 0) + w
        items = merged.items()
        if self.width:
            items = sorted(items, key=lambda item: item[0][0])
        effects = self._effects[sig] = [(self._turn(inc), bump, w) for (inc, bump), w in items]
        if self.box and self.width:
            for _, bump, _ in effects:
                if bump not in self._shifts:
                    self._shifts[bump] = self._shift(bump) * self.residues * self.width
        return effects

    def _column(self, d: int, c: int) -> tuple:
        """Per support tuple, the increment of modular digit d at
        coefficient c: c times the tuple's symbol-map value, mod q."""
        if (d, c) not in self._incs:
            q = self.mods[d][1]
            self._incs[d, c] = tuple([c * s % q for s in self._symbols[d]])
        return self._incs[d, c]

    def _shift(self, bump: int) -> int:
        """The rows a whole-state int or an array moves by under the window
        increment `bump`: one row of each slot it counts in."""
        shift, stride = 0, 1
        for pos, _, rows, _ in self.dims:
            if bump >> pos & 1:
                shift += stride
            stride *= rows
        return shift

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

    def _mask(self, floor: int):
        """The fields of a whole-state int that lie in every window and meet
        the packed lower bounds `floor` (see `floor`), all residues each:
        per slot, copies of the lower slots' mask at rows need..hi.  The
        first slot's rows hold every field, so its copies are one run of
        ones.  On an array, the same rows as a column of ones and zeros."""
        if floor in self._masks:
            return self._masks[floor]
        if self.form == "array":
            mask = np.ones(1)
            for pos, off, rows, bits in self.dims:
                cut = np.zeros(rows)
                cut[max((floor >> pos & bits) - off, 0):rows - 1] = 1
                mask = np.multiply.outer(cut, mask).ravel()
            mask = mask[:, None]
        else:
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
        return mask

    def walk(self, coords, budget, later=()):
        """Live states after the coordinates `coords` draw, in that order:
        {key: mass} keyed, {window key: packed int} packed per key, one int
        whole, one float64 array of rows of R cells (see the module
        docstring).

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
        single draws meet, the run meets too.  A zero function, or a
        coordinate whose pins admit no support tuple, leaves no state.
        """
        fresh = self._join if self.box else dict
        if any(s.zero for s in self.specs):
            return fresh({})
        cap = TABLE_BUDGET if budget is None else budget
        rest = [sum(c not in ign for c in (*coords, *later)) for ign in self.ignored]
        states = fresh({self.start: 1})
        for _, run in itertools.groupby(coords, self.signature):
            run = list(run)
            effects = self.effects(run[0])
            if not effects:
                return fresh({})
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
                if not (states.any() if self.form == "array" else states):
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
        rows and the fields below the floor.  An array takes one matrix
        product per window increment (`_transfers`), shifted by its rows,
        and one product with `_mask`; with no window slot there is one
        increment, 0, and nothing to clear.
        """
        if self.form == "array":
            steps = self._transfers(effects)
            if not self.dims:
                return states @ steps[0][1]
            nxt, top = np.zeros_like(states), len(states)
            for shift, matrix in steps:
                nxt[shift:] += states[:top - shift] @ matrix
            nxt *= self._mask(floor)
            return nxt
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

    def _transfers(self, effects) -> list:
        """(row shift, R x R matrix) per distinct window increment of the
        draw `effects` on an array.  The matrix holds at (r, s) the weight
        of the effects whose residue increments take r to s, so one product
        moves and weighs every residue of every row: per increment, the
        weights by residue increment (one `bincount` for all increments),
        read at the layout's `_differences`.  Built once per effect list,
        which the layout keeps for its life, so its id is a stable key."""
        steps = self._steps.get(id(effects))
        if steps is None:
            residues, bumps = self.residues, {}
            for _, bump, _ in effects:
                bumps.setdefault(bump, len(bumps))
            cells = [bumps[bump] * residues + turn.index for turn, bump, _ in effects]
            weights = np.bincount(cells, [w for _, _, w in effects], len(bumps) * residues)
            matrices = weights.reshape(-1, residues)[:, self._differences]
            steps = self._steps[id(effects)] = [
                (self._shift(bump), matrix) for bump, matrix in zip(bumps, matrices)
            ]
        return steps

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
        whole-state int or an array is split into its keys for the run and
        joined after.
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
        tail = _Powers(w0)
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


def _accepted(specs, support, n: int, budget):
    """The layout of `specs` and its states {window key: scaled mass} after
    the draws at coordinates 1..n, kept where every function accepts."""
    layout = _JointLayout(specs, support)
    states = layout.walk(range(1, n + 1), budget)
    return layout, {
        key: mass
        for key, r, mass in layout.masses(states, layout.target)
        if layout.accepts(key, r)
    }


def _joint_count(specs, support, n: int, budget):
    """Scaled mass of the draws at coordinates 1..n that every function accepts."""
    return sum(_accepted(specs, support, n, budget)[1].values())


def _window_counts(specs, support, n: int, budget) -> dict:
    """Scaled mass of the accepted draws at coordinates 1..n per tuple of
    window counts, one count per window slot in (function, symbol) order."""
    layout, states = _accepted(specs, support, n, budget)
    fields = [(pos, (1 << hi.bit_length()) - 1, off) for pos, off, _, hi in layout.slots.values()]
    out: dict = {}
    for key, mass in states.items():
        counts = tuple((key >> pos & mask) - off for pos, mask, off in fields)
        out[counts] = out.get(counts, 0) + mass
    return out


def _marginal_support(pi: MarginalDistribution):
    """The one-step support tuples ((a,), W_a) of pi, weights read from its view."""
    return [((a,), w) for a, w in enumerate(pi.view.ints) if w > 0]


def _influence_count(spec: _CountSpec, pi: MarginalDistribution, i: int, budget, layout=None):
    """(E[f], Inf_i(f)) of a window, junta or residue function by one walk
    of the joint-count program, on `layout` when given (one of `spec` over
    the support of pi).

    Every coordinate but i draws, with i counted as still to come in the
    floors.  In a live state of scaled mass M, the draws at i that lead to
    acceptance weigh P of the weight scale sw, so the state adds M P / sw^n
    to E[f] and M (sw P - P^2) / sw^(n+1) to E[Var[f | every coordinate but
    i]].  A packed layout unpacks its fields once, after the walk.
    """
    sw, n = pi.view.scale, spec.n
    layout = layout or _JointLayout((spec,), _marginal_support(pi))
    states = layout.walk([c for c in range(1, n + 1) if c != i], budget, later=(i,))
    effects = layout.effects(i)
    mean = total = 0
    for key, r, mass in layout.masses(states):
        hit = sum(w for turn, bump, w in effects if layout.accepts(key + bump, r + turn[r]))
        mean += mass * hit
        total += mass * (sw * hit - hit * hit)
    if pi.exact:
        return Fraction(mean, sw**n), Fraction(total, sw ** (n + 1))
    # float weights summing to just above sw can leave total a rounding below 0
    return float(mean), max(float(total), 0.0)


def _count_influences(spec: _CountSpec, pi: MarginalDistribution, budget):
    """(E[f], [(coordinates, their Inf_i(f)) per class]) of a window, junta
    or residue function: one walk of one layout per class of coordinates
    with one `_JointLayout.signature`, which are exchangeable under i.i.d.
    draws and so share one influence.  Classes go in the order of their
    first coordinate; E[f] is read off the first walk."""
    layout = _JointLayout((spec,), _marginal_support(pi))
    classes: dict = {}
    for i in range(1, spec.n + 1):
        classes.setdefault(layout.signature(i), []).append(i)
    reads = [
        (coords, _influence_count(spec, pi, coords[0], budget, layout))
        for coords in classes.values()
    ]
    return reads[0][1][0], [(coords, inf) for coords, (_, inf) in reads]
