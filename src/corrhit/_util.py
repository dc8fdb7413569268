"""Shared helpers: mixed-radix indexing, weight parsing, exactness plumbing."""

from __future__ import annotations

import hashlib
import math
import re
from fractions import Fraction

Number = Fraction | float

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


def parse_weight(token: str) -> Number:
    """`p/q` and plain integers parse exactly; anything else is a float."""
    if _RAT_RE.match(token) or _INT_RE.match(token):
        return Fraction(token)
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


def exact_sum(values) -> Number:
    total = Fraction(0)
    for v in values:
        total += v
    return total


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def number_to_json(x: Number) -> dict:
    """Tagged rendering used by all CLI reports."""
    if isinstance(x, (Fraction, int)):
        return {"value": str(Fraction(x)), "kind": "rational"}
    return {"value": float(x), "kind": "float"}
