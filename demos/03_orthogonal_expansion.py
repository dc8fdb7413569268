"""
Orthogonal expansion, influences, and the noise operator
========================================================

Functions on product spaces expand over a product orthonormal basis.
The expansion is a multilinear polynomial in the basis functions, the
same object the invariance checks evaluate. It gives Parseval,
coordinate influences by two routes, a noise operator, and projections
onto coordinate subsets.
"""

import itertools
from fractions import Fraction
from pathlib import Path

from corrhit import (
    analyze,
    build_basis,
    evaluate,
    expectation,
    influence,
    make_junta,
    marginal,
    noise_operator,
    parse_distribution,
    parse_function,
    projection_subset,
    variance,
)

here = Path(__file__).parent
p = parse_distribution((here / "data" / "basic.dist").read_text())
pi = marginal(p, 1)

# the dictator function of the first coordinate, read from its JSON form
f = parse_function((here / "data" / "dictator.json").read_text())
print("E[f]   =", expectation(f, pi))
print("Var[f] =", variance(f, pi))
print("influence of coordinate 1:", influence(f, pi, i=1))

# expand over the orthonormal basis of the uniform trit marginal: the
# coefficients of a multilinear polynomial, whose squared sums give E[f^2]
# and, over the terms that involve coordinate 1, its influence
basis = build_basis(pi)
exp = analyze(f, basis)
print("coefficients:")
for sigma, c in sorted(exp.coeffs.items()):
    if abs(c) > 1e-12:
        print("  ", sigma, round(c, 6))
print("Parseval total (= E[f^2]):", round(exp.second_moment(), 12))
print("influence from coefficients:", round(exp.influence(1), 12))

# the noise operator averages the function under re-randomization;
# at rho = 1/2 the dictator smooths to (1/4, 3/4, 1/4)-style values
g = noise_operator(f, Fraction(1, 2), pi)
print("T_{1/2} f values:", g.payload["values"])

# projecting onto a subset of coordinates keeps only that part of the
# expansion; the empty projection is the mean
two = make_junta(2, ("0", "1", "2"), [(2, "1")])
proj = projection_subset(two, (1,), pi)
print("projection onto {1} of a coordinate-2 junta is constant:",
      {evaluate(proj, x) for x in itertools.product(range(3), repeat=2)})
