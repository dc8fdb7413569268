"""Command-line entry point: machine-readable reports over every module.

Every run prints one JSON report (or a flat key = value table with --table).
Numbers carry exactness tags: {"value": "p/q", "kind": "rational"} for exact
quantities, kind "float" for deterministic floating point, kind "monte-carlo"
for seeded sampling estimates.  Exit status: 0 when the requested computation
succeeded and every checked inequality held, 1 on a violated certificate or an
explicit refusal (correlation 1, budget cap, ...), 2 on usage or input-parse
errors.  A reader that closes the pipe early (`| head`) cuts the output off
quietly; the exit status stays that of the computation.

Each subcommand, and each `verify` suite, parses only the options its handler
reads; any other flag is a usage error.  The report carries `seed` exactly
when the command takes --seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
import time
from fractions import Fraction

from ._util import Number, mixed_radix_digits, number_to_json, sha256_bytes
from .dist_core import (
    Alphabet,
    DistributionFormatError,
    MarginalDistribution,
    StepDistribution,
    alpha,
    beta,
    check_edge_variance,
    double_sample_kernel,
    equal_marginals,
    format_distribution,
    is_markov_generated,
    marginal,
    parse_distribution,
    rho,
)
from .decompose import convex_cycle_decomposition, decomposition_guarantees
from .fourier import (
    BudgetExceeded,
    FunctionSpec,
    _moments,
    _rebase,
    analyze,
    build_basis,
    format_function,
    make_table_function,
    parse_function,
    resolve_engine,
    to_table,
)
from .hitting import (
    counterexample_three_sets,
    counterexample_unequal_marginals,
    density_increment,
    estimate_hitting_exponent,
    influence_reduction,
    markov_same_set_check,
    multi_set_expectation,
)
from .invariance import (
    ThresholdForm,
    discrete_ensemble,
    gaussian_rhc_check,
    hypercontractivity_check,
    invariance_gap,
    mollifier_phi,
    poly_from_function,
    smoothing_gap,
)


# ---------------------------------------------------------------------------
# report plumbing


def _tag(x: Number) -> dict:
    return number_to_json(x)


def _tag_float(x) -> dict:
    return {"value": float(x), "kind": "float"}


def _tag_mc(x) -> dict:
    return {"value": float(x), "kind": "monte-carlo"}


class _LoadError(Exception):
    """Input file unreadable or unparseable: exit code 2."""


class _UsageError(ValueError):
    """A command given more or fewer functions than it takes, or a step its
    distribution lacks: exit code 2."""


def _read_file(path: str, inputs: dict) -> str:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as e:
        raise _LoadError(f"cannot read {path}: {e}") from e
    inputs[path] = "sha256:" + sha256_bytes(data)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise _LoadError(f"{path} is not UTF-8: {e}") from e


def _load_dist(path: str, inputs: dict) -> StepDistribution:
    text = _read_file(path, inputs)
    try:
        return parse_distribution(text, name=path)
    except DistributionFormatError as e:
        raise _LoadError(f"{path}: {e}") from e


def _load_fn(path: str, inputs: dict) -> FunctionSpec:
    text = _read_file(path, inputs)
    try:
        return parse_function(text)
    except ValueError as e:
        raise _LoadError(f"{path}: {e}") from e


def _load_fns(args, inputs: dict) -> list:
    """Every --fn, re-targeted at --n when given."""
    fns = [_load_fn(path, inputs) for path in args.fn]
    return fns if args.n is None else [_rebase(f, args.n) for f in fns]


def _load_one_fn(args, inputs: dict, what: str) -> FunctionSpec:
    """The one --fn of a command that takes exactly one function."""
    if len(args.fn) != 1:
        raise _UsageError(f"{what} takes exactly one function")
    return _load_fns(args, inputs)[0]


def _load_step_fns(args, inputs: dict, p: StepDistribution, what: str, shared: bool = True) -> list:
    """One function per step of p from the --fn; with `shared`, a single --fn
    also serves every step."""
    if len(args.fn) != p.steps and not (shared and len(args.fn) == 1):
        how = "one function, or one per step" if shared else "exactly one function per step"
        raise _UsageError(f"{what} takes {how} of the distribution ({p.steps})")
    fns = _load_fns(args, inputs)
    return fns if len(fns) == p.steps else fns * p.steps


def _step_marginal(p: StepDistribution, step: int) -> MarginalDistribution:
    """The marginal of --step, which the parser holds to >= 1; a step past
    the distribution's steps is a usage error, as a wrong --fn count is."""
    if step > p.steps:
        raise _UsageError(f"--step {step} exceeds the distribution's {p.steps} steps")
    return marginal(p, step)


def _flat_lines(tree, prefix=""):
    if isinstance(tree, dict):
        if set(tree) == {"value", "kind"}:
            yield f"{prefix} = {tree['value']} [{tree['kind']}]"
            return
        for key in tree:
            yield from _flat_lines(tree[key], f"{prefix}.{key}" if prefix else str(key))
    elif isinstance(tree, (list, tuple)):
        for idx, item in enumerate(tree):
            yield from _flat_lines(item, f"{prefix}[{idx}]")
    else:
        yield f"{prefix} = {tree}"


# ---------------------------------------------------------------------------
# subcommand handlers: return (results dict, ok flag)


def _cmd_inspect(args, inputs):
    p = _load_dist(args.dist, inputs)
    results: dict = {
        "distribution": args.dist,
        "alphabet": list(p.alphabet.symbols),
        "steps": p.steps,
        "support_size": len(p.support()),
        "exact": p.exact,
        "alpha": _tag(alpha(p)),
        "beta": _tag(beta(p)),
        "equal_marginals": equal_marginals(p),
        "marginals": [
            [_tag(q) for q in marginal(p, j).probs] for j in range(1, p.steps + 1)
        ],
    }
    try:
        results["rho"] = _tag_float(rho(p))
    except ValueError as e:
        results["rho"] = None
        results["rho_note"] = str(e)
    if p.steps >= 2:
        generated, _ = is_markov_generated(p)
        results["markov_generated"] = generated
    return results, True


def _cmd_decompose(args, inputs):
    p = _load_dist(args.dist, inputs)
    dec = convex_cycle_decomposition(p)
    guarantees = decomposition_guarantees(dec, p)
    parts = []
    for part, gpart in zip(dec.parts, guarantees.parts):
        entry = {
            "kind": part.kind,
            "beta": _tag(part.weight),
            "support_alpha": _tag(gpart.support_alpha),
            "rho": _tag_float(gpart.part_rho),
            "rho_defined": gpart.rho_defined,
            "distribution_file": format_distribution(part.dist),
        }
        if part.cycle is not None:
            entry["cycle"] = {
                "s": part.cycle.s,
                "p": _tag(part.cycle.p),
                "vertices": list(part.cycle.vertices),
            }
        parts.append(entry)
    results = {
        "distribution": args.dist,
        "part_count": len(parts),
        "alpha_base": _tag(guarantees.alpha_base),
        "alpha_floor": _tag(guarantees.alpha_floor),
        "rho_ceiling": _tag_float(guarantees.rho_ceiling),
        "parts": parts,
        "guarantees_hold": guarantees.all_ok,
    }
    return results, guarantees.all_ok


def _cmd_fourier(args, inputs):
    p = _load_dist(args.dist, inputs)
    pi = _step_marginal(p, args.step)
    f = _load_one_fn(args, inputs, "fourier")
    # the expansion's budget check refuses support^n before any walk below
    expansion = analyze(f, build_basis(pi), budget=args.budget)
    exp_val, var_val, infs = _moments(f, pi, args.budget)
    top = sorted(
        expansion.coeffs.items(), key=lambda kv: (-abs(kv[1]), kv[0])
    )[: args.top]
    results = {
        "function": args.fn[0],
        "n": f.n,
        "step": args.step,
        "expectation": _tag(exp_val),
        "variance": _tag(var_val),
        "influences": [_tag(v) for v in infs],
        "total_degree": expansion.degree(),
        "top_coefficients": [
            {"sigma": list(sig), "coefficient": _tag_float(c)} for sig, c in top
        ],
    }
    return results, True


def _cmd_hit(args, inputs):
    p = _load_dist(args.dist, inputs)
    fns = _load_step_fns(args, inputs, p, "hit")
    value = multi_set_expectation(p, fns[0].n, tuple(fns), args.engine, args.budget)
    results = {
        "distribution": args.dist,
        "functions": list(args.fn),
        "n": fns[0].n,
        "steps": p.steps,
        "engine": resolve_engine(args.engine, fns),
        "expectation": _tag(value),
    }
    return results, True


def _density_log_json(g, chain, log, alphabet):
    return {
        "kind": log.kind,
        "params": {k: (_tag(v) if isinstance(v, (Fraction, int, float)) else v)
                   for k, v in log.params.items()},
        "iterations": [
            {
                "restriction": {
                    str(coord): alphabet.symbols[sym]
                    for coord, sym in st.restriction.fixed_items()
                },
                "before": _tag(st.before),
                "after": _tag(st.after),
                "loss": _tag(st.loss),
            }
            for st in log.iterations
        ],
        "total_loss": _tag(log.total_loss()),
        "result_function": format_function(to_table(g)),
    }


def _influence_log_json(gs, log, alphabet):
    return {
        "kind": log.kind,
        "params": {k: (_tag(v) if isinstance(v, (Fraction, int, float)) else v)
                   for k, v in log.params.items()},
        "iterations": [
            {
                "j_star": st.j_star,
                "coordinate": st.i,
                "context": [alphabet.symbols[s] for s in st.x_bar],
                "y": alphabet.symbols[st.y],
                "z": alphabet.symbols[st.z],
                "prob_y": _tag(st.prob_y),
                "prob_z": _tag(st.prob_z),
                "before": [_tag(v) for v in st.before],
                "after": [_tag(v) for v in st.after],
                "product_before": _tag(st.product_before),
                "product_after": _tag(st.product_after),
                "gain": _tag(st.gain),
            }
            for st in log.iterations
        ],
        "result_functions": [format_function(to_table(g)) for g in gs],
    }


def _cmd_reduce(args, inputs):
    if args.k is not None and args.eps is None:
        raise _UsageError("--k caps the density loop and needs --eps")
    p = _load_dist(args.dist, inputs)
    if args.tau is not None:
        fns = _load_step_fns(args, inputs, p, "the influence loop", shared=False)
        gs, log = influence_reduction(
            p, fns[0].n, tuple(fns), args.tau, budget=args.budget
        )
        results = {"loop": "influence", "log": _influence_log_json(gs, log, p.alphabet)}
    else:
        f = _load_one_fn(args, inputs, "the density loop")
        k = args.k if args.k is not None else 1
        g, chain, log = density_increment(p, f.n, f, args.eps, k, budget=args.budget)
        results = {"loop": "density", "log": _density_log_json(g, chain, log, p.alphabet)}
    return results, True


# -- verify suites


def _random_rational_dist(rng: random.Random, steps: int, m: int,
                          force_diagonal: bool = False,
                          symmetric: bool = False) -> StepDistribution:
    """Seeded random exact distribution; per-step support size always >= 2."""
    while True:
        cells = {}
        for idx in range(m**steps):
            w = rng.choice((0, 0, 1, 1, 2, 3))
            if w:
                cells[mixed_radix_digits(idx, m, steps)] = Fraction(w)
        if force_diagonal:
            for a in range(m):
                cells[(a,) * steps] = Fraction(max(1, int(cells.get((a,) * steps, 0))))
        if symmetric and steps == 2:
            sym_cells = {}
            for (a, b), w in cells.items():
                sym_cells[(a, b)] = sym_cells.get((a, b), Fraction(0)) + w
                sym_cells[(b, a)] = sym_cells.get((b, a), Fraction(0)) + w
            cells = sym_cells
        total = sum(cells.values())
        if not cells or total == 0:
            continue
        p = _cells_dist(m, steps, {tup: w / total for tup, w in cells.items()})
        if p is not None:
            return p


def _cells_dist(m: int, steps: int, cells: dict) -> StepDistribution | None:
    """The exact distribution over symbols 0..m-1 with weight cells[tup]
    (Fractions summing to 1) on each listed step tuple and 0 elsewhere, or
    None if some step's marginal has fewer than 2 support symbols."""
    p = StepDistribution.from_cells(Alphabet(tuple(map(str, range(m)))), steps, cells)
    if all(len(marginal(p, j).support_indices()) >= 2 for j in range(1, steps + 1)):
        return p
    return None


def _suite_edge_variance(args, inputs):
    rng = random.Random(args.seed)
    count = args.samples
    worst = math.inf
    checked = 0
    for _ in range(count):
        p = _random_rational_dist(rng, 2, rng.choice((2, 3, 4)))
        for j in (1, 2):
            kern = double_sample_kernel(p, j)
            size = len(kern.alphabet)
            for s in range(size):
                f = [Fraction(1 if t == s else 0) for t in range(size)]
                rep = check_edge_variance(p, j, f)
                checked += 1
                margin = float(rep.lhs) - rep.rhs
                worst = min(worst, margin)
                if not rep.holds:
                    raise ArithmeticError(
                        f"edge-variance inequality failed with margin {margin}"
                    )
    return {
        "suite": "edge-variance",
        "instances": count,
        "indicators_checked": checked,
        "worst_margin": _tag_float(worst),
        "all_hold": True,
    }, True


def _suite_decomposition(args, inputs):
    rng = random.Random(args.seed)
    count = args.samples
    worst_parts = 0
    for _ in range(count):
        p = _random_rational_dist(
            rng, 2, rng.choice((2, 3, 4, 5)), force_diagonal=True, symmetric=True
        )
        dec = convex_cycle_decomposition(p)
        guarantees = decomposition_guarantees(dec, p)
        m = len(p.alphabet)
        if dec.reconstruct() != p.weights:
            raise ArithmeticError("decomposition does not recompose the distribution")
        if len(dec.parts) > m * m + m:
            raise ArithmeticError("part count exceeds |alphabet|^2 + |alphabet|")
        if not guarantees.all_ok:
            raise ArithmeticError("decomposition guarantees failed")
        worst_parts = max(worst_parts, len(dec.parts))
    return {
        "suite": "decomposition",
        "instances": count,
        "max_part_count": worst_parts,
        "all_hold": True,
    }, True


def _suite_counterexamples(args, inputs):
    skew = counterexample_unequal_marginals(args.n_list, budget=args.budget)
    three = counterexample_three_sets(args.three_n, budget=args.budget)
    return {
        "suite": "counterexamples",
        "unequal_marginals": {
            "n": [e.n for e in skew.entries],
            "values": [_tag(e.value) for e in skew.entries],
            "normalized_ratios": [_tag(e.ratio) for e in skew.entries],
            "strictly_decreasing": skew.ratios_strictly_decreasing,
            "decay_rate": _tag_float(skew.decay_rate),
        },
        "three_sets": {
            "n": three.n,
            "rho": _tag_float(three.rho),
            "triple_product": _tag(three.triple_product),
            "measures": [_tag(v) for v in three.measures],
            "max_influences": [_tag(v) for v in three.max_influences],
        },
    }, skew.ratios_strictly_decreasing and three.triple_product == 0


def _random_markov_dist(rng: random.Random, m: int, steps: int) -> StepDistribution:
    """pi from the row sums of a symmetric positive matrix; reversible kernel."""
    while True:
        sym = [[Fraction(rng.randint(0, 3)) for _ in range(m)] for _ in range(m)]
        for a in range(m):
            for b in range(a + 1, m):
                sym[b][a] = sym[a][b]
            sym[a][a] = Fraction(rng.randint(1, 3))
        row_sums = [sum(row) for row in sym]
        if any(s == 0 for s in row_sums):
            continue
        total = sum(row_sums)
        cells = {}
        for idx in range(m**steps):
            tup = mixed_radix_digits(idx, m, steps)
            w = Fraction(row_sums[tup[0]], total)
            ok = True
            for a, b in zip(tup, tup[1:]):
                if sym[a][b] == 0:
                    ok = False
                    break
                w *= Fraction(sym[a][b], row_sums[a])
            if ok and w > 0:
                cells[tup] = w
        p = _cells_dist(m, steps, cells)
        if p is not None:
            return p


def _random_table_fn(rng: random.Random, n: int, m: int) -> FunctionSpec:
    values = [Fraction(rng.randint(0, 8), 8) for _ in range(m**n)]
    return make_table_function(n, tuple(str(a) for a in range(m)), values)


def _suite_markov(args, inputs):
    rng = random.Random(args.seed)
    count = args.samples
    for _ in range(count):
        m = rng.choice((2, 3))
        p = _random_markov_dist(rng, m, 3)
        n = rng.randint(1, 3)
        f = _random_table_fn(rng, n, m)
        rep = markov_same_set_check(p, n, f, budget=args.budget)
        if not (rep.equal and rep.pointwise_ok):
            raise ArithmeticError("markov reduction identity failed")
    return {
        "suite": "markov",
        "instances": count,
        "all_hold": True,
    }, True


_INDEPENDENT_BITS = """\
alphabet 0 1
steps 2
entry 0 0 1/4
entry 0 1 1/4
entry 1 0 1/4
entry 1 1 1/4
"""

_IDENTITY_BITS = """\
alphabet 0 1
steps 2
entry 0 0 1/2
entry 1 1 1/2
"""


def _suite_exponent(args, inputs):
    mu_grid = [0.05, 0.08, 0.12, 0.2, 0.3, 0.45, 0.6]
    n = args.n
    independent = estimate_hitting_exponent(
        parse_distribution(_INDEPENDENT_BITS), mu_grid, n=n, budget=args.budget
    )
    identity = estimate_hitting_exponent(
        parse_distribution(_IDENTITY_BITS), mu_grid, n=n, budget=args.budget
    )
    ok = abs(independent.slope - 2.0) <= 0.05 and abs(identity.slope - 1.0) <= 0.05
    results = {
        "suite": "exponent",
        "n": n,
        "independent_product": {
            "slope": _tag_float(independent.slope),
            "intercept": _tag_float(independent.intercept),
            "rms_residual": _tag_float(independent.rms_residual),
        },
        "identity_coupling": {
            "slope": _tag_float(identity.slope),
            "intercept": _tag_float(identity.intercept),
            "rms_residual": _tag_float(identity.rms_residual),
        },
        "slopes_within_tolerance": ok,
    }
    if not ok:
        raise ArithmeticError("exponent slopes left the expected windows")
    return results, ok


# -- invariance subcommands


def _polys_for(p, fns, budget):
    """The polynomial of each step's function in its marginal's basis."""
    return tuple(
        poly_from_function(f, build_basis(marginal(p, j)), budget=budget)
        for j, f in enumerate(fns, start=1)
    )


def _cmd_inv_hyper(args, inputs):
    p = _load_dist(args.dist, inputs)
    pi = _step_marginal(p, args.step)
    f = _load_one_fn(args, inputs, "invariance hyper")
    basis = build_basis(pi)
    poly = poly_from_function(f, basis, budget=args.budget)
    a = args.alpha
    if a is None:
        a = min(float(pi.probs[s]) for s in pi.support_indices())
    ens = discrete_ensemble(pi, f.n)
    rep = hypercontractivity_check(poly, ens, a, budget=args.budget)
    results = {
        "check": "hypercontractivity",
        "alpha": _tag_float(a),
        "rho": _tag_float(rep.rho),
        "method": rep.method,
        "noise_inequality": {
            "lhs": _tag_float(rep.noise_lhs),
            "rhs": _tag_float(rep.noise_rhs),
            "statement": "E[|T_rho P|^3]^(1/3) <= E[P^2]^(1/2)",
            "holds": rep.noise_holds,
        },
        "degree_inequality": {
            "degree": rep.degree,
            "lhs": _tag_float(rep.degree_lhs),
            "rhs": _tag_float(rep.degree_rhs),
            "statement": "E[|P|^3]^(1/3) <= (2/alpha^(1/6))^d E[P^2]^(1/2)",
            "holds": rep.degree_holds,
        },
    }
    return results, rep.noise_holds and rep.degree_holds


def _cmd_inv_gap(args, inputs):
    p = _load_dist(args.dist, inputs)
    polys = _polys_for(
        p, _load_step_fns(args, inputs, p, "invariance gap"), args.budget
    )
    rep = invariance_gap(
        polys, p, args.lam, samples=args.samples, seed=args.seed,
        c_const=args.c_const, budget=args.budget,
    )
    results = {
        "check": "invariance-gap",
        "lambda": _tag_float(args.lam),
        "discrete_value": _tag_float(rep.discrete_value),
        "gaussian_estimate": _tag_mc(rep.gaussian_estimate),
        "stderr": _tag_mc(rep.gaussian_stderr),
        "gap": _tag_mc(rep.gap),
        "bound": _tag_float(rep.bound),
        "tau": _tag_float(rep.tau),
        "degree": rep.degree,
        "alpha": _tag_float(rep.alpha),
        "statement": f"gap {rep.gap} <= bound {rep.bound} + 3 stderr",
        "holds": rep.holds,
        "seed": rep.seed,
        "samples": rep.samples,
    }
    return results, rep.holds


def _cmd_inv_smooth(args, inputs):
    p = _load_dist(args.dist, inputs)
    polys = _polys_for(
        p, _load_step_fns(args, inputs, p, "invariance smooth"), args.budget
    )
    rep = smoothing_gap(polys, p, args.gamma, args.eps, budget=args.budget)
    results = {
        "check": "smoothing-gap",
        "gamma": _tag_float(rep.gamma),
        "eps": _tag_float(rep.eps),
        "gamma_max": _tag_float(rep.gamma_max),
        "gamma_in_admissible_range": rep.in_range,
        "raw_value": _tag_float(rep.raw_value),
        "smoothed_value": _tag_float(rep.smoothed_value),
        "gap": _tag_float(rep.gap),
        "statement": f"gap {rep.gap} <= eps {rep.eps} when gamma <= {rep.gamma_max}",
        "holds": rep.holds,
    }
    return results, rep.holds


def _cmd_inv_rhc(args, inputs):
    ell = args.ell
    r = args.rho
    cov = [[1.0 if a == b else r for b in range(ell)] for a in range(ell)]
    offsets = args.offsets or [0.0] * ell
    signs = args.signs or [1] * ell
    if len(offsets) != ell or len(signs) != ell:
        raise ValueError("offsets and signs must list one value per step")
    forms = tuple(ThresholdForm(s, t) for s, t in zip(signs, offsets))
    rep = gaussian_rhc_check(cov, forms, samples=args.samples, seed=args.seed)
    results = {
        "check": "gaussian-reverse-hypercontractivity",
        "ell": ell,
        "rho": _tag_float(rep.rho),
        "product_estimate": _tag_mc(rep.product_estimate),
        "product_stderr": _tag_mc(rep.product_stderr),
        "measures": [_tag_mc(m) for m in rep.mus],
        "rhs": _tag_mc(rep.rhs),
        "rhs_stderr": _tag_mc(rep.rhs_stderr),
        "statement": (
            f"estimate {rep.product_estimate} + 3 stderr >= "
            f"(prod mu)^(l/(1-rho^2)) = {rep.rhs} - 3 stderr"
        ),
        "psd_condition": {
            "min_eigenvalue": _tag_float(rep.min_eigenvalue),
            "p": _tag_float(rep.p_condition),
            "holds": rep.eq46a_holds,
        },
        "holds": rep.holds,
        "seed": rep.seed,
        "samples": rep.samples,
    }
    if rep.quadrature_value is not None:
        results["quadrature_cross_value"] = _tag_float(rep.quadrature_value)
    return results, rep.holds


def _cmd_inv_mollifier(args, inputs):
    lam = args.lam
    if args.x is not None:
        return {
            "check": "mollifier-value",
            "lambda": _tag_float(lam),
            "x": _tag_float(args.x),
            "phi_lambda": _tag_float(mollifier_phi(lam, args.x)),
        }, True
    grid = [(-2.0 + 5.0 * i / 9999) for i in range(10000)]
    sup_dev = 0.0
    monotone = True
    prev = None
    for x in grid:
        v = mollifier_phi(lam, x)
        plain = min(max(x, 0.0), 1.0)
        sup_dev = max(sup_dev, abs(v - plain))
        if prev is not None and v < prev - 1e-12:
            monotone = False
        prev = v
    identities = (
        mollifier_phi(lam, -lam) == 0.0
        and mollifier_phi(lam, (1.0 - lam) / 2 + lam / 2) == (1.0 + lam) / 2 - lam / 2
        and mollifier_phi(lam, 1.0 + lam) == 1.0
    )
    ok = sup_dev <= lam + 1e-12 and monotone and identities
    results = {
        "check": "mollifier-grid",
        "lambda": _tag_float(lam),
        "grid_points": len(grid),
        "sup_deviation_from_clamp": _tag_float(sup_dev),
        "statement": f"sup |phi_lambda - clamp| = {sup_dev} <= lambda = {lam}",
        "monotone": monotone,
        "piecewise_identities": identities,
        "holds": ok,
    }
    if not ok:
        raise ArithmeticError("mollifier grid properties failed")
    return results, ok


# ---------------------------------------------------------------------------
# parser


def _listed(convert, what: str):
    """An argparse type for a comma-separated list of `what`: a malformed
    token is a usage error (exit 2) before any work."""

    def parse(text: str) -> list:
        try:
            return [convert(tok) for tok in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {what}, got {text!r}"
            ) from None

    return parse


def _at_least(low: int):
    """An argparse type for an integer >= low: anything else is a usage
    error (exit 2) before any work."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value

    return parse


def _add_common(sp, dist=False, fn="", needs_n=False, budget=False, samples=None):
    """The options of a subcommand, each one its handler reads: `fn`, when
    given, is the help of --fn; `samples`, when given, is the (least value,
    default) of --samples, which always comes with --seed."""
    if dist:
        sp.add_argument("--dist", required=True, help="distribution file path")
    if fn:
        sp.add_argument("--fn", action="append", required=True, help=f"function spec file ({fn})")
    if needs_n:
        sp.add_argument("--n", type=_at_least(1), default=None,
                        help="coordinate count (re-targets structured functions)")
    if budget:
        sp.add_argument("--budget", type=_at_least(1), default=None,
                        help="enumeration cap (default 2^24); refuses beyond it")
    if samples is not None:
        least, default = samples
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--samples", type=_at_least(least), default=default)
    fmt = sp.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="as_table", action="store_false", default=False)
    fmt.add_argument("--table", dest="as_table", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrhit",
        description="exact computation and verification for correlated product spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("inspect", help="alpha, beta, rho, and structure flags")
    sp.add_argument("dist", help="distribution file path")
    _add_common(sp)
    sp.set_defaults(handler=_cmd_inspect)

    sp = sub.add_parser("decompose", help="convex cycle/point decomposition")
    sp.add_argument("dist", help="distribution file path")
    _add_common(sp)
    sp.set_defaults(handler=_cmd_decompose)

    sp = sub.add_parser("fourier", help="expectation, variance, influences, coefficients")
    _add_common(sp, dist=True, fn="exactly one", needs_n=True, budget=True)
    sp.add_argument("--step", type=_at_least(1), default=1, help="marginal used for the basis")
    sp.add_argument("--top", type=_at_least(0), default=16, help="coefficient table size")
    sp.set_defaults(handler=_cmd_fourier)

    sp = sub.add_parser("hit", help="same-set / multi-set expectation")
    _add_common(sp, dist=True, fn="one, or one per step", needs_n=True, budget=True)
    sp.add_argument("--engine", choices=("auto", "enumerate", "dp"), default="auto",
                    help="auto takes the joint-count dp unless some function is a table")
    sp.set_defaults(handler=_cmd_hit)

    sp = sub.add_parser("reduce", help="density increment or influence reduction loop")
    _add_common(sp, dist=True, fn="one per step for --tau, exactly one for --eps",
                needs_n=True, budget=True)
    loop = sp.add_mutually_exclusive_group(required=True)
    loop.add_argument("--tau", type=float, default=None, help="influence threshold")
    loop.add_argument("--eps", type=float, default=None, help="density increment factor")
    sp.add_argument("--k", type=int, default=None,
                    help="restriction size cap of the density loop (default 1; needs --eps)")
    sp.set_defaults(handler=_cmd_reduce)

    sp = sub.add_parser("verify", help="named verification suite")
    suites = sp.add_subparsers(dest="suite", required=True)
    # --samples counts random instances: a suite that checks none would
    # report a vacuous pass
    vp = suites.add_parser("edge-variance", help="edge-variance inequality on indicators")
    _add_common(vp, samples=(1, 50))
    vp.set_defaults(handler=_suite_edge_variance)

    vp = suites.add_parser("decomposition", help="convex decompositions recompose")
    _add_common(vp, samples=(1, 20))
    vp.set_defaults(handler=_suite_decomposition)

    vp = suites.add_parser("counterexamples", help="skew-pair and three-sets catalogs")
    _add_common(vp, budget=True)
    vp.add_argument("--n", dest="n_list", type=_listed(int, "integers"), default=[6, 9, 12],
                    help="comma-separated skew-pair sizes")
    vp.add_argument("--three-n", type=_at_least(1), default=60,
                    help="three-sets catalog size")
    vp.set_defaults(handler=_suite_counterexamples)

    vp = suites.add_parser("markov", help="Markov chain reduction identity")
    _add_common(vp, budget=True, samples=(1, 20))
    vp.set_defaults(handler=_suite_markov)

    vp = suites.add_parser("exponent", help="hitting exponent slopes 2 and 1")
    _add_common(vp, budget=True)
    vp.add_argument("--n", type=_at_least(1), default=30, help="coordinate count")
    vp.set_defaults(handler=_suite_exponent)

    sp = sub.add_parser("invariance", help="polynomial/Gaussian checks")
    inv = sp.add_subparsers(dest="subcheck", required=True)

    # gap and rhc always draw, so their --samples is a Monte Carlo sample count
    mc_samples = (2, 200_000)
    ip = inv.add_parser("hyper", help="hypercontractive third-moment inequalities")
    _add_common(ip, dist=True, fn="exactly one", needs_n=True, budget=True)
    ip.add_argument("--step", type=_at_least(1), default=1)
    ip.add_argument("--alpha", type=float, default=None,
                    help="least symbol probability (default: from the marginal)")
    ip.set_defaults(handler=_cmd_inv_hyper)

    ip = inv.add_parser("gap", help="discrete vs Gaussian mollified-product gap")
    _add_common(ip, dist=True, fn="one, or one per step", needs_n=True, budget=True,
                samples=mc_samples)
    ip.add_argument("--lambda", dest="lam", type=float, required=True)
    ip.add_argument("--c-const", type=float, default=10.0)
    ip.set_defaults(handler=_cmd_inv_gap)

    ip = inv.add_parser("smooth", help="noise-smoothing expectation gap")
    _add_common(ip, dist=True, fn="one, or one per step", needs_n=True, budget=True)
    ip.add_argument("--gamma", type=float, required=True)
    ip.add_argument("--eps", type=float, required=True)
    ip.set_defaults(handler=_cmd_inv_smooth)

    ip = inv.add_parser("rhc", help="Gaussian reverse hypercontractivity MC check")
    _add_common(ip, samples=mc_samples)
    ip.add_argument("--ell", type=_at_least(1), default=2)
    ip.add_argument("--rho", type=float, default=0.5)
    ip.add_argument("--offsets", type=_listed(float, "numbers"), default=None,
                    help="comma-separated")
    ip.add_argument("--signs", type=_listed(int, "integers"), default=None,
                    help="comma-separated +-1")
    ip.set_defaults(handler=_cmd_inv_rhc)

    ip = inv.add_parser("mollifier", help="smoothed-clamp value / grid properties")
    _add_common(ip)
    ip.add_argument("--lambda", dest="lam", type=float, required=True)
    ip.add_argument("--x", type=float, default=None)
    ip.set_defaults(handler=_cmd_inv_mollifier)

    return parser


# ---------------------------------------------------------------------------
# driver


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(argv)
    inputs: dict = {}
    started = time.perf_counter()
    try:
        results, ok = args.handler(args, inputs)
    except (_LoadError, _UsageError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BudgetExceeded as e:
        results, ok = {"refusal": str(e)}, False
    except ArithmeticError as e:
        results, ok = {"violation": str(e)}, False
    except ValueError as e:
        results, ok = {"refusal": str(e)}, False
    report = {
        "command": list(argv),
        "inputs": inputs,
        "ok": ok,
        "results": results,
        "wall_time_s": round(time.perf_counter() - started, 6),
    }
    if "seed" in args:
        report["seed"] = args.seed
    try:
        if args.as_table:
            for line in _flat_lines(results):
                print(line)
            print(f"ok = {ok}")
        else:
            print(json.dumps(report, indent=2, sort_keys=True))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early (`| head`): drop the rest of the output, and
        # point stdout at devnull so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if ok else 1
