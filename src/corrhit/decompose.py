"""Cycle machinery for two-step distributions.

A two-step distribution with equal marginals and positive diagonal mass splits
into a convex mixture of well-behaved parts: point masses on diagonal pairs
plus cycle distributions whose correlation is bounded away from 1.  The split
follows a deterministic trace: subtract the diagonal floor, decompose the
remaining regular digraph into weighted cycles, then cap each cycle's diagonal
share.  A part is kept as its cycle record and read for its guarantees in
closed form; it becomes a StepDistribution only when someone asks for one.
One builder, `_cycle`, makes every cycle distribution, those of `make_cycle`
and of the parts alike, from its cells (`StepDistribution.from_cells`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from ._util import Number
from .dist_core import Alphabet, StepDistribution, alpha, equal_marginals


@dataclass(frozen=True)
class CycleDistribution:
    """Parameters of an (s, p)-cycle: diagonal mass p/s, forward edges (1-p)/s."""

    s: int
    p: Fraction
    vertices: tuple[str, ...]

    def __post_init__(self):
        if self.s < 2 or len(self.vertices) != self.s:
            raise ValueError("cycle distribution needs s >= 2 matching vertices")
        if len(set(self.vertices)) != self.s:
            raise ValueError("duplicate vertices")
        if not 0 < self.p < 1:
            raise ValueError("p must lie strictly between 0 and 1")


_ONE = Fraction(1)


@dataclass(frozen=True)
class DecompositionPart:
    """One mixture component: a cycle part or a point mass on a diagonal pair.

    A part is its record over `alphabet`: the symbol indices `vertices` of
    its cycle in walk order, its stay probability `q` and its mixture
    `weight`.  With s = len(vertices) >= 2 and 0 < q < 1 it is the (s, q)-cycle
    part, q/s on each diagonal pair of the cycle and (1-q)/s on each forward
    edge; a point mass is the record with one vertex x and q = 1, mass 1 on
    (x, x).  Parts compare by record.  `kind` and `cycle` derive from it, and
    `dist`, the part as a StepDistribution, is built from it on first read and
    kept.
    """

    weight: Fraction
    alphabet: Alphabet
    vertices: tuple[int, ...]
    q: Fraction

    def __post_init__(self):
        if self.weight <= 0:
            raise ValueError("part weight must be positive")
        m = len(self.alphabet)
        if len(set(self.vertices)) != len(self.vertices) or not all(
            0 <= v < m for v in self.vertices
        ):
            raise ValueError("part vertices must be distinct symbol indices")
        if not (self.q == 1 if len(self.vertices) == 1 else 0 < self.q < 1):
            raise ValueError("a point mass needs q = 1 and a cycle 0 < q < 1")

    @property
    def kind(self) -> str:
        return "point" if len(self.vertices) == 1 else "cycle"

    @cached_property
    def cycle(self) -> CycleDistribution | None:
        if len(self.vertices) == 1:
            return None
        symbols = self.alphabet.symbols
        return CycleDistribution(
            len(self.vertices), self.q, tuple(symbols[v] for v in self.vertices)
        )

    @cached_property
    def dist(self) -> StepDistribution:
        return _cycle(self.alphabet, self.vertices, self.q)


@dataclass(frozen=True)
class ConvexDecomposition:
    """Mixture of parts whose weighted sum reproduces the base distribution."""

    base: StepDistribution
    parts: tuple[DecompositionPart, ...]

    def __post_init__(self):
        total = sum((p.weight for p in self.parts), Fraction(0))
        if total != 1:
            raise ValueError(f"part weights sum to {total}, expected 1")

    def reconstruct(self) -> tuple[Fraction, ...]:
        """Entrywise weighted sum of the parts, exact."""
        acc = [Fraction(0)] * len(self.base.weights)
        for part in self.parts:
            for i, w in enumerate(part.dist.weights):
                acc[i] += part.weight * w
        return tuple(acc)


# ---------------------------------------------------------------------------
# digraph cycle decomposition


def _peel_cycles(residual) -> list[tuple[tuple[int, ...], Number]]:
    """Split a regular digraph, given as a square matrix of ints or
    Fractions, into at most m^2 (vertices, weight) cycles.

    Walk rule: start at the smallest vertex with positive out-weight, always
    follow the smallest-index positive out-edge; the first repeated vertex
    closes a cycle, which is removed at the minimum edge weight along it.
    Each extraction zeroes at least one edge, so the loop terminates.  The
    matrix is consumed.  An irregular matrix raises ValueError.
    """
    m = len(residual)
    for v in range(m):
        if sum(residual[v]) != sum(residual[u][v] for u in range(m)):
            raise ValueError("digraph is not regular")

    def first_out(v: int) -> int | None:
        for u in range(m):
            if residual[v][u] > 0:
                return u
        return None

    cycles = []
    while True:
        start = None
        for v in range(m):
            if first_out(v) is not None:
                start = v
                break
        if start is None:
            break
        path = [start]
        seen = {start: 0}
        cur = start
        while True:
            nxt = first_out(cur)
            if nxt is None:
                raise ArithmeticError("a regular digraph left a vertex without an out-edge")
            if nxt in seen:
                cyc = tuple(path[seen[nxt] :])
                break
            seen[nxt] = len(path)
            path.append(nxt)
            cur = nxt
        s = len(cyc)
        w = min(residual[cyc[i]][cyc[(i + 1) % s]] for i in range(s))
        for i in range(s):
            residual[cyc[i]][cyc[(i + 1) % s]] -= w
        cycles.append((cyc, w))
        if len(cycles) > m * m:
            raise ArithmeticError("cycle count exceeded the square bound")
    return cycles


# ---------------------------------------------------------------------------
# (s, p)-cycle distributions


def _cycle(alphabet: Alphabet, vertices: tuple[int, ...], q) -> StepDistribution:
    """The two-step (s, q)-cycle on the symbol indices `vertices`, in walk
    order: q/s on each diagonal pair and (1-q)/s on each forward edge, 0
    elsewhere.  One vertex with q = 1 is the point mass on its diagonal pair.
    Exact for a Fraction q."""
    s = len(vertices)
    cells = {}
    # a point's forward edge is its own diagonal pair, so the stay mass is
    # written last
    for x, y in zip(vertices, vertices[1:] + vertices[:1]):
        cells[x, y] = (1 - q) / s
        cells[x, x] = q / s
    return StepDistribution.from_cells(alphabet, 2, cells)


def make_cycle(s: int, p, vertices=None) -> StepDistribution:
    """Two-step (s, p)-cycle distribution: P(x,x) = p/s, P(x, x+1 mod s) = (1-p)/s."""
    if s < 2:
        raise ValueError("cycle size must be at least 2")
    if not 0 < p < 1:
        raise ValueError("p must lie strictly between 0 and 1")
    if vertices is None:
        vertices = tuple(str(i) for i in range(s))
    vertices = tuple(vertices)
    if len(vertices) != s or len(set(vertices)) != s:
        raise ValueError("need s distinct vertices")
    pv: Number = Fraction(p) if isinstance(p, (Fraction, int)) else float(p)
    return _cycle(Alphabet(vertices), tuple(range(s)), pv)


def cycle_rho(s: int, p) -> tuple[float, float]:
    """Correlation of the (s, p)-cycle and its closed-form upper bound.

    The double-sample kernel of the cycle is circulant with eigenvalues
    lambda_k = 1 - 2p(1-p)(1 - cos(2 pi k / s)); the correlation is the square
    root of the largest one with k > 0.  For s = 2 that is lambda_1 =
    (1-2p)^2, and |1-2p| is returned as it is: near p = 1/2 the general form
    would lose it to cancellation.  Returns (rho, 1 - 7p(1-p)/s^2); rho above
    the bound raises ArithmeticError.
    """
    if s < 2:
        raise ValueError("cycle size must be at least 2")
    if not 0 < p < 1:
        raise ValueError("p must lie strictly between 0 and 1")
    pf = float(p)
    if s == 2:
        r = abs(float(1 - 2 * p))
    else:
        lam = max(
            1.0 - 2.0 * pf * (1.0 - pf) * (1.0 - math.cos(2.0 * math.pi * k / s))
            for k in range(1, s)
        )
        r = math.sqrt(max(lam, 0.0))
    bound = 1.0 - 7.0 * pf * (1.0 - pf) / (s * s)
    if r > bound + 1e-12:
        raise ArithmeticError(f"cycle correlation {r} exceeds bound {bound}")
    return r, bound


# ---------------------------------------------------------------------------
# convex decomposition


def convex_cycle_decomposition(p: StepDistribution) -> ConvexDecomposition:
    """Split a two-step equal-marginal distribution into cycle and point parts.

    Trace: let a = alpha(P) and t = |alphabet|.  P - a*Id is a regular digraph;
    decompose it into cycles.  Each cycle of weight w and length >= 2 becomes an
    (s, q)-cycle part with diagonal share b = min(w, a/t^2), q = b/(b+w), and
    mixture weight s*(w+b).  Self-loop cycles and the unused diagonal mass
    become point-mass parts.  The weighted parts re-sum to P exactly.

    Every step runs on ints: the weights scaled by the lcm of their
    denominators times t^2, so that a, every residual edge and cycle weight,
    and a/t^2 are integers.  A part keeps only its record (vertices, q and
    weight; see `DecompositionPart`); its distribution is built when read.
    """
    if p.steps != 2:
        raise ValueError("decomposition requires exactly 2 steps")
    if not p.exact:
        raise ValueError("decomposition requires rational weights")
    if not equal_marginals(p):
        raise ValueError("decomposition requires equal marginals")
    m = len(p.alphabet)
    t2 = m * m
    unit = p._scale * t2  # a weight w of P is w * unit here
    residual = [[0] * m for _ in range(m)]
    for (x, y), w in p._scaled_support:
        residual[x][y] = w * t2
    diagonal = [residual[x][x] for x in range(m)]
    a = min(diagonal)
    if a <= 0:
        raise ValueError("decomposition requires positive diagonal mass")
    for x in range(m):
        residual[x][x] -= a
    cap = a // t2  # a / t^2, exact by the choice of unit

    parts: list[DecompositionPart] = []
    diagonal_used = [0] * m
    for cyc, w in _peel_cycles(residual):
        if len(cyc) == 1:
            # self-loop: pure diagonal weight, absorbed by the point mass below
            continue
        b = min(w, cap)
        # b and w count units of 1/unit: q = b/(b+w), mixture weight s(w+b)
        parts.append(
            DecompositionPart(Fraction(len(cyc) * (w + b), unit), p.alphabet, cyc,
                              Fraction(b, b + w))
        )
        for v in cyc:
            diagonal_used[v] += b
    for x in range(m):
        leftover = diagonal[x] - diagonal_used[x]
        if leftover < 0:
            raise ArithmeticError("diagonal over-used by cycle parts")
        if leftover > 0:
            parts.append(DecompositionPart(Fraction(leftover, unit), p.alphabet, (x,), _ONE))
    return ConvexDecomposition(p, tuple(parts))


@dataclass(frozen=True)
class PartGuarantee:
    """Bounds check for one decomposition part."""

    kind: str
    weight: Fraction
    support_alpha: Fraction
    part_rho: float
    rho_defined: bool
    alpha_ok: bool
    rho_ok: bool


@dataclass(frozen=True)
class GuaranteeReport:
    alpha_base: Fraction
    alpha_floor: Fraction
    rho_ceiling: float
    parts: tuple[PartGuarantee, ...]
    all_ok: bool


def decomposition_guarantees(
    dec: ConvexDecomposition, p: StepDistribution
) -> GuaranteeReport:
    """Verify alpha(P_k) >= alpha(P)^4 and rho(P_k) <= 1 - 3 alpha(P)^5 per part.

    Both are read from the part's record, and no part distribution is built.
    alpha of a part is taken over its own support, where every diagonal pair
    carries q/s: q/s for a cycle part, 1 for a point mass.  A cycle part's
    correlation is `cycle_rho(s, q)`.  Point masses have no variance-1
    functions, so their correlation is reported as 0 and exempted from the
    ceiling (rho_defined records the convention).  `p` must be the
    distribution `dec` was made from; anything else raises ValueError, since
    the floor and ceiling would be measured against the wrong alpha.
    """
    if dec.base != p:
        raise ValueError("decomposition was not made from this distribution")
    a = alpha(p)
    floor = a**4
    ceiling = 1.0 - 3.0 * float(a) ** 5
    rows = []
    ok = True
    for part in dec.parts:
        s = len(part.vertices)
        sa = part.q / s
        if s == 1:
            pr, defined = 0.0, False
            rho_ok = True
        else:
            pr, defined = cycle_rho(s, part.q)[0], True
            rho_ok = pr <= ceiling + 1e-12
        alpha_ok = sa >= floor
        ok = ok and alpha_ok and rho_ok
        rows.append(
            PartGuarantee(part.kind, part.weight, sa, pr, defined, alpha_ok, rho_ok)
        )
    return GuaranteeReport(a, floor, ceiling, tuple(rows), ok)
