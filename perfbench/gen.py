"""Seeded inputs for the decide and scale workloads, written as concrete syntax.

Every pair carries the verdict its construction guarantees, so the benchmark
checks probproc's answers against something probproc did not compute:

* exchange law, "equivalent": a probabilistic choice among external choices
  that all offer the same menu M equals the external choice over M whose
  branches each continue as the probabilistic choice of the continuations,
      p{w1:(a->P1 [] b->Q1), w2:(a->P2 [] b->Q2)}
        ~ a->p{w1:P1, w2:P2} [] b->p{w1:Q1, w2:Q2}
  (the coin-machine law), placed in the same prefix, external-choice or
  probabilistic-choice context on both sides;
* changed first-menu weight, "distinguished": p{w:X, 1-w:Y} against
  p{w':X', 1-w':Y} with w != w', where X ~ X' by the law above offer menu M
  and Y offers a different menu N, so the first menu distributions differ;
  the surrounding context keeps them apart (trace probabilities are linear
  in the branch weights and every context here has positive weights).

The generator is the benchmark's own and never calls probproc, so a change to
probproc's random generators cannot change these workloads.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

DECIDE_LABELS = ("a", "b", "c", "d")
DECIDE_DEPTH = 4
SCALE_KS = (2, 3, 4, 5, 6)


def _fraction(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _weights(rng: random.Random, parts: int) -> list[Fraction]:
    """`parts` positive weights with a small common denominator, summing to 1."""
    den = rng.choice([d for d in (2, 3, 4, 6, 8) if d >= parts])
    cuts = sorted(rng.sample(range(1, den), parts - 1))
    bounds = [0, *cuts, den]
    return [Fraction(hi - lo, den) for lo, hi in zip(bounds, bounds[1:])]


def _branch(label: str, body: str) -> str:
    return label if body == "0" else f"{label}->({body})"


def _prob(weights: list[Fraction], bodies: list[str]) -> str:
    inner = ", ".join(f"{_fraction(w)}:({b})" for w, b in zip(weights, bodies))
    return f"p{{{inner}}}"


def filler(rng: random.Random, depth: int) -> str:
    """A random process of at most `depth` nested operators, any operator."""
    if depth <= 0 or rng.random() < 0.2:
        return "0"
    pick = rng.random()
    if pick < 0.55:
        labels = sorted(rng.sample(DECIDE_LABELS, rng.randint(1, 3)))
        return " [] ".join(_branch(a, filler(rng, depth - 1)) for a in labels)
    if pick < 0.88:
        weights = _weights(rng, rng.randint(2, 3))
        return _prob(weights, [filler(rng, depth - 1) for _ in weights])
    op = rng.choice(("||", "|[]|"))
    return f"({filler(rng, depth - 1)}) {op} ({filler(rng, depth - 1)})"


def _law_pair(rng: random.Random, depth: int) -> tuple[str, str, tuple[str, ...]]:
    """Both sides of the exchange law, and the menu M both offer first."""
    menu = tuple(sorted(rng.sample(DECIDE_LABELS, rng.randint(1, 3))))
    weights = _weights(rng, rng.randint(2, 3))
    conts = [[filler(rng, depth - 1) for _ in menu] for _ in weights]
    left = _prob(
        weights,
        [" [] ".join(_branch(a, row[j]) for j, a in enumerate(menu)) for row in conts],
    )
    right = " [] ".join(
        f"{a}->{_prob(weights, [row[j] for row in conts])}" for j, a in enumerate(menu)
    )
    return left, right, menu


def _context(rng: random.Random):
    """A one-hole context: none, a prefix, an external or a probabilistic choice."""
    pick = rng.random()
    if pick < 0.4:
        return lambda hole: hole
    label, other = rng.sample(DECIDE_LABELS, 2)
    if pick < 0.7:
        return lambda hole: f"{label}->({hole})"
    rest = filler(rng, 1)
    if pick < 0.85:
        return lambda hole: f"{label}->({hole}) [] {_branch(other, rest)}"
    weights = _weights(rng, 2)
    return lambda hole: _prob(weights, [hole, rest])


def decide_pair(rng: random.Random) -> tuple[str, str, bool]:
    """One (left, right, expected equivalent) pair of alphabet 4 and depth 4."""
    wrap = _context(rng)
    if rng.random() < 0.5:
        left, right, _ = _law_pair(rng, DECIDE_DEPTH - 2)
        return wrap(left), wrap(right), True
    x_left, x_right, menu = _law_pair(rng, DECIDE_DEPTH - 3)
    others = [
        labels
        for size in (1, 2, 3)
        for labels in combinations(DECIDE_LABELS, size)
        if labels != menu
    ]
    other = rng.choice(others)
    y = " [] ".join(_branch(a, filler(rng, DECIDE_DEPTH - 2)) for a in other)
    den = rng.choice((3, 4, 5, 6, 8))
    n1, n2 = rng.sample(range(1, den), 2)
    w1, w2 = Fraction(n1, den), Fraction(n2, den)
    left = _prob([w1, 1 - w1], [x_left, y])
    right = _prob([w2, 1 - w2], [x_right, y])
    return wrap(left), wrap(right), False


def coin_early(i: int) -> str:
    """The coin machine that flips first, with actions h, t and prize p renamed."""
    return f"p{{1/2:(h{i}->p{i}->0 [] t{i}->0), 1/2:(h{i}->0 [] t{i}->p{i}->0)}}"


def coin_late(i: int, heads: Fraction = Fraction(1, 2)) -> str:
    """The coin machine that flips after the press; `heads` is the coin's bias."""
    tails = 1 - heads
    return (
        f"h{i}->p{{{_fraction(heads)}:p{i}->0, {_fraction(tails)}:0}}"
        f" [] t{i}->p{{{_fraction(heads)}:0, {_fraction(tails)}:p{i}->0}}"
    )


def chain(copies: list[str]) -> str:
    return " |[]| ".join(f"({c})" for c in copies)


def scale_pairs(rng: random.Random) -> list[tuple[int, str, str, bool]]:
    """(k, left, right, expected equivalent) for the k-fold |[]| chains.

    Copies share no action, so the chain interleaves them.  Early against late
    is equivalent copy by copy; biasing one late copy's coin to 1/3 changes the
    probability of the prize menu after that copy's h, which distinguishes.
    The seed picks the copies' names.  The biased copy is always the one whose
    actions sort last, so witness synthesis searches past every other copy
    and its cost does not depend on the seed.
    """
    pairs = []
    for k in SCALE_KS:
        names = rng.sample(range(10), k)
        biased = names.index(max(names))
        early = chain([coin_early(i) for i in names])
        late = chain([coin_late(i) for i in names])
        skewed = chain(
            [
                coin_late(i, Fraction(1, 3) if n == biased else Fraction(1, 2))
                for n, i in enumerate(names)
            ]
        )
        pairs.append((k, early, late, True))
        pairs.append((k, early, skewed, False))
    return pairs
