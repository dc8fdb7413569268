"""Shared distribution texts, seeded instance generators and probes for the tests.

Generators here are deliberately independent of the package's own random
suites in cli.py: tests must not inherit a bug from the code under test.
"""

from __future__ import annotations

import random
from fractions import Fraction

from corrhit import fourier
from corrhit.dist_core import StepDistribution, marginal, parse_distribution

BASIC_TEXT = """\
alphabet 0 1 2
steps 2
entry 0 0 1/6
entry 0 1 1/6
entry 1 1 1/6
entry 1 2 1/6
entry 2 2 1/6
entry 2 0 1/6
"""

SKEW_TEXT = """\
alphabet 0 1
steps 2
entry 0 0 1/3
entry 0 1 1/3
entry 1 1 1/3
"""

AP3_TEXT = """\
alphabet 0 1 2
steps 3
entry 0 0 0 1/6
entry 1 1 1 1/6
entry 2 2 2 1/6
entry 0 1 2 1/6
entry 1 2 0 1/6
entry 2 0 1 1/6
"""

UNIFORM_BITS_TEXT = """\
alphabet 0 1
steps 2
entry 0 0 1/4
entry 0 1 1/4
entry 1 0 1/4
entry 1 1 1/4
"""

IDENTITY_BITS_TEXT = """\
alphabet 0 1
steps 2
entry 0 0 1/2
entry 1 1 1/2
"""


def basic_dist() -> StepDistribution:
    return parse_distribution(BASIC_TEXT)


def skew_dist() -> StepDistribution:
    return parse_distribution(SKEW_TEXT)


def ap3_dist() -> StepDistribution:
    return parse_distribution(AP3_TEXT)


def dist_from_cells(cells: dict, m: int, steps: int) -> StepDistribution:
    total = sum(cells.values())
    lines = ["alphabet " + " ".join(str(a) for a in range(m)), f"steps {steps}"]
    for tup, w in sorted(cells.items()):
        lines.append("entry " + " ".join(str(a) for a in tup) + f" {Fraction(w) / total}")
    return parse_distribution("\n".join(lines) + "\n")


def random_dist(rng: random.Random, m: int, steps: int,
                full_support: bool = False,
                symmetric: bool = False,
                positive_diagonal: bool = False) -> StepDistribution:
    """Random exact distribution with every step marginal supported on >= 2 symbols."""
    while True:
        cells: dict = {}
        for idx in range(m**steps):
            tup = tuple((idx // m**j) % m for j in range(steps))
            w = rng.randint(1, 5) if full_support else rng.choice((0, 0, 1, 2, 3))
            if w:
                cells[tup] = Fraction(w)
        if symmetric and steps == 2:
            folded: dict = {}
            for (a, b), w in cells.items():
                folded[(a, b)] = folded.get((a, b), Fraction(0)) + w
                folded[(b, a)] = folded.get((b, a), Fraction(0)) + w
            cells = folded
        if positive_diagonal:
            for a in range(m):
                cells.setdefault((a,) * steps, Fraction(1))
        if not cells:
            continue
        p = dist_from_cells(cells, m, steps)
        if all(len(marginal(p, j).support_indices()) >= 2 for j in range(1, steps + 1)):
            return p


def random_markov_dist(rng: random.Random, m: int, steps: int) -> StepDistribution:
    """Reversible-kernel chain: pi from the row sums of a symmetric matrix."""
    while True:
        sym = [[Fraction(0)] * m for _ in range(m)]
        for a in range(m):
            for b in range(a, m):
                w = Fraction(rng.randint(1, 3)) if a == b else Fraction(rng.randint(0, 3))
                sym[a][b] = w
                sym[b][a] = w
        row_sums = [sum(row) for row in sym]
        if any(s == 0 for s in row_sums):
            continue
        total = sum(row_sums)
        cells = {}
        for idx in range(m**steps):
            tup = tuple((idx // m**j) % m for j in range(steps))
            w = Fraction(row_sums[tup[0]], total)
            for a, b in zip(tup, tup[1:]):
                w *= Fraction(sym[a][b], row_sums[a])
            if w > 0:
                cells[tup] = w
        p = dist_from_cells(cells, m, steps)
        if all(len(marginal(p, j).support_indices()) >= 2 for j in range(1, steps + 1)):
            return p


def random_unit_table(rng: random.Random, n: int, m: int, denominator: int = 8):
    """Random [0,1] rational table values for alphabet size m, n coordinates."""
    return [Fraction(rng.randint(0, denominator), denominator) for _ in range(m**n)]


def count_walks(monkeypatch) -> list:
    """A list that gains one entry per joint-count walk
    (`fourier._JointLayout.walk`) for the rest of the test."""
    walks: list = []
    walk = fourier._JointLayout.walk

    def counted(self, *args, **kwargs):
        walks.append(None)
        return walk(self, *args, **kwargs)

    monkeypatch.setattr(fourier._JointLayout, "walk", counted)
    return walks
