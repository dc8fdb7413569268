"""Shared helpers: mixed-radix indexing, weight parsing, exactness plumbing."""

from __future__ import annotations

import itertools
import math
import operator
import re
from fractions import Fraction
from typing import NamedTuple

Number = Fraction | float

# the default cap on table entries, enumerated points and live DP states
TABLE_BUDGET = 2**24
# Entries of the longest product-weight list an exact sum builds, and of the
# longest list the enumeration route's contractions build in `hitting`.
_BLOCK = 4096


class BudgetExceeded(RuntimeError):
    """Raised when an exact route would enumerate more states than allowed."""


_INT_RE = re.compile(r"^[+-]?\d+$")
_RAT_RE = re.compile(r"^[+-]?\d+/\d+$")


def mixed_radix_index(digits, base: int) -> int:
    """Digit 0 is least significant: (d0, d1, ...) -> d0 + d1*base + ..."""
    idx = 0
    for d in reversed(digits):
        idx = idx * base + d
    return idx


def mixed_radix_digits(index: int, base: int, length: int) -> tuple[int, ...]:
    out = []
    for _ in range(length):
        out.append(index % base)
        index //= base
    return tuple(out)


def power_exceeds(base: int, n: int, cap: int) -> bool:
    """Whether base^n > cap.  For base >= 2, base^n exceeds the cap once n
    passes its bit length, so a huge n is answered before base^n is
    computed."""
    return (base > 1 and n > cap.bit_length()) or base**n > cap


def scale_to_ints(numbers, exact: bool):
    """(scale, scaled) with numbers[t] == scaled[t] / scale.

    Exact numbers (Fractions or ints) become ints scaled by the least common
    multiple of their denominators, so exact kernels run on plain integers
    and divide once at the end.  Otherwise every number becomes a float and
    the scale is 1.
    """
    if not exact:
        return 1, [float(x) for x in numbers]
    scale = math.lcm(*{x.denominator for x in numbers})
    return scale, [x.numerator * (scale // x.denominator) for x in numbers]


def contract_axes(t, mats) -> list:
    """Apply mats[c] along axis c of the mixed-radix list t, for every axis c.

    t lists a tensor with axis 0 least significant; axis c has len(mats[c][0])
    entries and leaves with len(mats[c]).  Pass c reads the least significant
    axis through the slices t[a::cols], forms output row r as
    sum_a mats[c][r][a] * t[a::cols] and appends the rows as the most
    significant axis, so after the last pass the axes are back in their
    original order.  An int k in place of a matrix is the identity on an
    axis of size k: its slices move to the top unchanged.  Zero coefficients
    are skipped and unit ones take their slice as it is, so 0/1 selection,
    lifting and summing matrices cost no multiplications.  The arithmetic is
    that of the entries: scaled ints stay exact, floats round as the
    left-to-right sum of the terms.

    Callers: the `enumerate` engine and the Markov identity in `hitting`;
    in `fourier`, the float expectation, influence and restriction-search
    sums (`_weighted_sums`; exact ones are one dot there instead), and the
    averaging operators (the noise operator and the projections), which
    pass one square averaging matrix per averaged axis.
    """
    for mat in mats:
        if isinstance(mat, int):
            if mat < len(t):  # a lone axis is in place already
                t = list(itertools.chain.from_iterable(t[a::mat] for a in range(mat)))
            continue
        cols = len(mat[0])
        rows = []
        for row in mat:
            acc = None
            for a, c in enumerate(row):
                if not c:
                    continue
                s = t[a::cols]
                if acc is None:
                    acc = s if c == 1 else [c * y for y in s]
                elif c == 1:
                    acc = list(map(operator.add, acc, s))
                else:
                    acc = [x + c * y for x, y in zip(acc, s)]
            # an all-zero row still multiplies, for zeros of the entries' type
            rows.append([row[0] * y for y in t[::cols]] if acc is None else acc)
        t = rows[0] if len(rows) == 1 else list(itertools.chain.from_iterable(rows))
    return t


class ScaledView(NamedTuple):
    """A number list scaled to ints: numbers[t] == ints[t] / scale.

    Exact views hold ints over a common denominator (`of` takes the lcm, as
    `scale_to_ints` does); the others hold floats with scale 1.  Objects
    build their view once, when they are constructed, and never change it.
    """

    exact: bool
    scale: int
    ints: tuple

    @classmethod
    def of(cls, numbers, exact: bool) -> ScaledView:
        scale, ints = scale_to_ints(numbers, exact)
        return cls(exact, scale, tuple(ints))

    def reduced(self) -> ScaledView:
        """The same numbers over their least common denominator.

        A view gathered from a larger one (a subset of its entries) keeps the
        larger scale; dividing by gcd(scale, ints) restores the lcm, since the
        lcm of the denominators of I_t / S is S / gcd(S, I_1, ..., I_k).
        """
        if not self.exact:
            return self
        g = math.gcd(self.scale, *self.ints)
        if g == 1:
            return self
        return ScaledView(True, self.scale // g, tuple(v // g for v in self.ints))

    def scaled(self, exact: bool):
        """(scale, numbers) for a kernel that runs exact or on floats.

        An exact view read in float mode yields ints[t] / scale, the correctly
        rounded float of the same rational that float() of it gives.
        """
        if exact or not self.exact:
            return self.scale, self.ints
        return 1, [v / self.scale for v in self.ints]


def parse_weight(token: str) -> Number:
    """`p/q` and plain integers parse exactly; anything else is a float."""
    if _RAT_RE.match(token) or _INT_RE.match(token):
        try:
            return Fraction(token)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in weight {token!r}") from None
    value = float(token)  # raises ValueError on garbage
    if value != value or value in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite weight {token!r}")
    return value


def format_number(x: Number) -> str:
    if isinstance(x, Fraction):
        return str(x)
    return repr(float(x))


def is_exact(x: Number) -> bool:
    return isinstance(x, (Fraction, int))


def sha256_bytes(data: bytes) -> str:
    """The hex SHA-256 digest of data; hashlib, and OpenSSL with it, loads
    at the first call, so that importing the package does not load it."""
    import hashlib

    return hashlib.sha256(data).hexdigest()


def number_to_json(x: Number) -> dict:
    """Tagged rendering used by all CLI reports."""
    if isinstance(x, (Fraction, int)):
        return {"value": str(Fraction(x)), "kind": "rational"}
    return {"value": float(x), "kind": "float"}
