"""Independent reference values for the benchmark's correctness checks.

Nothing here imports the package under test.  Every reference works on the
benchmark's own description of an input (cell weights, table values, window
and residue parameters), so a bug in the library cannot leak into its own
oracle.  Exact closed forms use Fractions; the rest are float64 numpy
computations compared with a relative tolerance.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

REL_TOL = 1e-9
MC_SIGMAS = 5.0


class CheckFailed(AssertionError):
    """A job returned a value that disagrees with its reference."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def close(got, want, what: str, rel: float = REL_TOL, abs_tol: float = 1e-300) -> None:
    got, want = float(got), float(want)
    require(
        abs(got - want) <= rel * abs(want) + abs_tol,
        f"{what}: got {got!r}, reference {want!r}",
    )


# ---------------------------------------------------------------------------
# distributions given as {tuple: weight} cells


def weight_tensor(cells: dict, m: int, steps: int) -> np.ndarray:
    """Dense float tensor, axis j is step j+1."""
    arr = np.zeros((m,) * steps)
    for tup, w in cells.items():
        arr[tup] = float(w)
    return arr


def marginal(cells: dict, m: int, j: int) -> np.ndarray:
    out = np.zeros(m)
    for tup, w in cells.items():
        out[tup[j]] += float(w)
    return out


def rho_ref(cells: dict, m: int, steps: int) -> float:
    """Max over steps j of the second singular value of step j against the rest."""
    tensor = weight_tensor(cells, m, steps)
    best = 0.0
    for j in range(steps):
        mat = np.moveaxis(tensor, j, 0).reshape(m, -1)
        mat = mat[mat.sum(axis=1) > 0][:, mat.sum(axis=0) > 0]
        if min(mat.shape) < 2:
            continue
        a, b = mat.sum(axis=1), mat.sum(axis=0)
        sv = np.linalg.svd(mat / np.sqrt(np.outer(a, b)), compute_uv=False)
        best = max(best, float(sv[1]))
    return min(best, 1.0)


# ---------------------------------------------------------------------------
# closed forms for the counterexample catalogs


def binom_pmf(n: int, k: int, p: Fraction) -> Fraction:
    return math.comb(n, k) * p**k * (1 - p) ** (n - k)


def ap3_measure(n: int) -> Fraction:
    """P[count of one symbol < n/3] under the uniform AP3 marginal."""
    theta = -(-n // 3) - 1
    return sum((binom_pmf(n, k, Fraction(1, 3)) for k in range(theta + 1)), Fraction(0))


def ap3_influence(n: int) -> Fraction:
    """Every coordinate's influence on an AP3 scarcity set: the other n-1
    coordinates sit on the window edge and the coordinate flips the value."""
    theta = -(-n // 3) - 1
    third = Fraction(1, 3)
    return binom_pmf(n - 1, theta, third) * third * (1 - third)


def skew_windows(n: int):
    """|count of symbol 1 - n c| <= n/100 for c = 1/3 and c = 2/3."""
    out = []
    for c in (Fraction(1, 3), Fraction(2, 3)):
        lo = math.ceil(n * c - Fraction(n, 100))
        hi = math.floor(n * c + Fraction(n, 100))
        out.append((max(lo, 0), min(hi, n)))
    return out


def skew_entry(n: int) -> dict:
    """Exact measures and same-set value of the skew-pair union set.

    The pair is uniform on (0,0), (0,1), (1,1).  S1 pins coordinate 1 to
    symbol 1 and windows the count of 1s around n/3; S2 pins it to 0 and
    windows the count around 2n/3.  Coordinates 2..n contribute a = #(1,1)
    and b = #(0,1), a trinomial count.
    """
    (lo1, hi1), (lo2, hi2) = skew_windows(n)
    third = Fraction(1, 3)

    def member(first: int, count: int) -> bool:
        lo, hi = (lo1, hi1) if first == 1 else (lo2, hi2)
        return lo <= count <= hi

    def step_measure(p_one: Fraction, which: int) -> Fraction:
        # which: 1 for S1 (anchor symbol 1), 2 for S2 (anchor symbol 0)
        anchor = 1 if which == 1 else 0
        p_anchor = p_one if anchor == 1 else 1 - p_one
        tail = sum(
            (binom_pmf(n - 1, k, p_one) for k in range(n) if member(anchor, anchor + k)),
            Fraction(0),
        )
        return p_anchor * tail

    m1 = step_measure(third, 1) + step_measure(third, 2)
    m2 = step_measure(2 * third, 1) + step_measure(2 * third, 2)
    value = Fraction(0)
    rest = n - 1
    for first in ((0, 0), (0, 1), (1, 1)):
        for a in range(rest + 1):
            for b in range(rest - a + 1):
                c1 = first[0] + a
                c2 = first[1] + a + b
                if member(first[0], c1) and member(first[1], c2):
                    ways = math.factorial(rest) // (
                        math.factorial(a) * math.factorial(b) * math.factorial(rest - a - b)
                    )
                    value += ways * third ** (rest + 1)
    return {
        "value": value,
        "mu1": m1,
        "mu2": m2,
        "s1_measure": step_measure(third, 1),
        "s2_measure": step_measure(2 * third, 2),
        "ratio": value / min(m1, m2) ** 2,
    }


def threshold_measures(pi, n: int) -> list[float]:
    """P[count of symbol 0 >= t] for t = 0..n."""
    p0 = Fraction(pi[0])
    return [
        float(sum((binom_pmf(n, k, p0) for k in range(t, n + 1)), Fraction(0)))
        for t in range(n + 1)
    ]


# ---------------------------------------------------------------------------
# joint-count reference for window and residue functions
#
# A step function is described by a dict:
#   {"kind": "window", "symbol": s, "lo": lo, "hi": hi, "anchor": (coord, sym) or None}
#   {"kind": "residue", "modulus": q, "coeffs": [...], "symbol_map": [...], "residue": r}
# Coordinates are 1-based as in the library's file formats.


def count_hitting(cells: dict, n: int, specs) -> float:
    """E[prod_j f_j(X^(j))] by a float transfer over per-step count/residue axes."""
    dims = [n + 1 if s["kind"] == "window" else s["modulus"] for s in specs]
    state = np.zeros(dims)
    state[(0,) * len(specs)] = 1.0
    support = [(tup, float(w)) for tup, w in cells.items() if w > 0]
    for coord in range(1, n + 1):
        nxt = np.zeros(dims)
        for tup, w in support:
            shifted = state
            alive = True
            for axis, (spec, sym) in enumerate(zip(specs, tup)):
                if spec["kind"] == "window":
                    anchor = spec["anchor"]
                    if anchor is not None and anchor[0] == coord and anchor[1] != sym:
                        alive = False
                        break
                    step = 1 if sym == spec["symbol"] else 0
                else:
                    step = (spec["coeffs"][coord - 1] * spec["symbol_map"][sym]) % spec["modulus"]
                if step:
                    shifted = np.roll(shifted, step, axis=axis)
            if alive:
                nxt += w * shifted
        state = nxt
    for axis, spec in enumerate(specs):
        keep = np.zeros(dims[axis], dtype=bool)
        if spec["kind"] == "window":
            keep[spec["lo"] : spec["hi"] + 1] = True
        else:
            keep[spec["residue"]] = True
        state = np.compress(keep, state, axis=axis)
    return float(state.sum())


# ---------------------------------------------------------------------------
# dense tables: numpy tensors with axis i = coordinate i+1


def table_tensor(values, m: int, n: int) -> np.ndarray:
    """Mixed-radix value list (coordinate 1 least significant) as a tensor."""
    arr = np.array([float(v) for v in values]).reshape((m,) * n)
    return arr.transpose(tuple(reversed(range(n))))


def mean(t: np.ndarray, pi: np.ndarray) -> float:
    for _ in range(t.ndim):
        t = t @ pi
    return float(t)


def average_axis(t: np.ndarray, pi: np.ndarray, axis: int) -> np.ndarray:
    """Average out one coordinate, keeping it as a dummy axis."""
    return np.expand_dims(np.tensordot(t, pi, axes=([axis], [0])), axis) * np.ones_like(t)


def influence(t: np.ndarray, pi: np.ndarray, axis: int) -> float:
    avg = np.tensordot(t, pi, axes=([axis], [0]))
    sq = np.tensordot(t * t, pi, axes=([axis], [0]))
    return mean(sq - avg * avg, pi)


def restrict(t: np.ndarray, axis: int, symbol: int) -> np.ndarray:
    """Fix a coordinate; it stays as a dummy axis."""
    return np.expand_dims(np.take(t, symbol, axis=axis), axis) * np.ones_like(t)


def max_operator(t: np.ndarray, axis: int, y: int, z: int) -> np.ndarray:
    return np.maximum(restrict(t, axis, y), restrict(t, axis, z))


def noise(t: np.ndarray, pi: np.ndarray, r: float) -> np.ndarray:
    for axis in range(t.ndim):
        t = r * t + (1.0 - r) * average_axis(t, pi, axis)
    return t


def table_hitting(cells: dict, m: int, steps: int, tensors) -> float:
    """E[prod_j f_j(X^(j))] for dense tables by contracting one coordinate at a time."""
    n = tensors[0].ndim
    w = np.zeros(m**steps)
    for tup, wt in cells.items():
        idx = 0
        for d in reversed(tup):
            idx = idx * m + d
        w[idx] = float(wt)
    joint = tensors[0]
    for t in tensors[1:]:
        joint = np.multiply.outer(joint, t)
    # axes (step j, coordinate i) at j*n + i; regroup per coordinate with the
    # last step first so C order flattens each tuple with step 1 least significant
    order = [j * n + i for i in range(n) for j in reversed(range(steps))]
    joint = joint.transpose(order).reshape((m**steps,) * n)
    for _ in range(n):
        joint = joint @ w
    return float(joint)


def resilience_violation(t: np.ndarray, pi: np.ndarray, eps: float, k: int):
    """First restriction of size <= k (support symbols) moving E[f] by more
    than a factor 1 +- eps, or None."""
    mu = mean(t, pi)
    support = [s for s in range(len(pi)) if pi[s] > 0]
    n = t.ndim
    lo, hi = (1 - eps) * mu - 1e-12, (1 + eps) * mu + 1e-12

    def marginal_table(keep):
        out = t
        for axis in reversed(range(n)):
            if axis not in keep:
                out = np.tensordot(out, pi, axes=([axis], [0]))
        return out

    for i in range(n):
        vals = marginal_table({i})
        for s in support:
            if not lo <= vals[s] <= hi:
                return ((i + 1, s),)
    if k >= 2:
        for i in range(n):
            for j in range(i + 1, n):
                vals = marginal_table({i, j})
                for s in support:
                    for u in support:
                        if not lo <= vals[s, u] <= hi:
                            return ((i + 1, s), (j + 1, u))
    return None


def double_sample_weights(cells: dict, m: int, steps: int, j: int) -> np.ndarray:
    """Joint law of (Y, Z): two independent draws of step j given the other steps."""
    tensor = np.moveaxis(weight_tensor(cells, m, steps), j, 0).reshape(m, -1)
    rest = tensor.sum(axis=0)
    ok = rest > 0
    return (tensor[:, ok] / rest[ok]) @ tensor[:, ok].T


# ---------------------------------------------------------------------------
# Gaussian references


def orthant(rho: float) -> float:
    """P[G1 > 0, G2 > 0] for standard normals with correlation rho."""
    return 0.25 + math.asin(rho) / (2.0 * math.pi)


def within_sigmas(estimate: float, stderr: float, want: float, what: str) -> None:
    require(
        abs(estimate - want) <= MC_SIGMAS * stderr,
        f"{what}: estimate {estimate!r} is more than {MC_SIGMAS} stderr "
        f"({stderr!r}) from {want!r}",
    )
