"""Testing semantics: symbolic outcomes, test enumeration, and witnesses.

Running a test against a process synchronizes them step by step.  When both
sides are nondeterministic and share the enabled actions K, each a in K is
taken with the symbolic weight a / sum(K); success ("w" enabled by the test)
yields outcome 1, and probabilistic states mix outcomes by their weights.
The outcome of a run is therefore an exact rational function of the action
names, and two processes are testing-equivalent when every test yields equal
outcome functions.

Enumeration covers the canonical success-reaching tests: either the bare
success marker, or an external choice over a non-empty label set whose
branches each continue as a canonical test (success being the depth-zero
one).  Branches that can never succeed are omitted: they only ever
contribute outcome zero and distinguish nothing, and synthesized witnesses
never need them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import comb

from .pts import (
    OMEGA,
    Pts,
    View,
    condition_view,
    root_view,
    view_menu_distribution,
    view_to_pts,
)
from .ratfunc import RationalFn
from .readytrace import menu_key, views_differ
from .semantics import compile_term
from .terms import ExternalChoice, Term, success


def apply_test(process: Pts, test: Pts) -> RationalFn:
    """The exact symbolic outcome of running the test against the process."""
    process.require_acyclic()
    test.require_acyclic()
    memo: dict[tuple[int, int], RationalFn] = {}
    one = RationalFn.one()
    zero = RationalFn.zero()

    def run(s: int, t: int) -> RationalFn:
        key = (s, t)
        if key in memo:
            return memo[key]
        if test.kind(t) == "n" and OMEGA in test.menu(t):
            out = one
        elif process.kind(s) == "p":
            out = zero
            for weight, target in process.prob_successors(s):
                out = out + RationalFn.scalar(weight) * run(target, t)
        elif test.kind(t) == "p":
            out = zero
            for weight, target in test.prob_successors(t):
                out = out + RationalFn.scalar(weight) * run(s, target)
        else:
            common = sorted((process.menu(s) & test.menu(t)) - {OMEGA})
            if not common:
                out = zero
            else:
                offered = RationalFn.zero()
                for label in common:
                    offered = offered + RationalFn.var(label)
                out = zero
                for label in common:
                    out = out + (RationalFn.var(label) / offered) * run(
                        process.action_successor(s, label),
                        test.action_successor(t, label),
                    )
        memo[key] = out
        return out

    return run(process.root, test.root)


# --- canonical test enumeration ---------------------------------------------


def _exact_depth_tests(
    universes: tuple[frozenset[str], ...],
    level: int,
    depth: int,
    memo: dict,
) -> list[Term]:
    """All canonical tests of exact action depth `depth`, whose actions at
    each nesting level come from the corresponding universe; deterministic
    order (label-set size, labels, then branch combinations)."""
    key = (level, depth)
    if key in memo:
        return memo[key]
    if depth == 0:
        memo[key] = [success()]
        return memo[key]
    out: list[Term] = []
    if level < len(universes) and universes[level]:
        allowed = sorted(universes[level])
        options: list[tuple[int, Term]] = []
        for d in range(depth):
            options.extend(
                (d, t) for t in _exact_depth_tests(universes, level + 1, d, memo)
            )
        for size in range(1, len(allowed) + 1):
            for labels in combinations(allowed, size):
                for combo in product(options, repeat=size):
                    if max(d for d, _ in combo) != depth - 1:
                        continue
                    out.append(
                        ExternalChoice(
                            tuple(
                                (label, target)
                                for label, (_, target) in zip(labels, combo)
                            )
                        )
                    )
    memo[key] = out
    return out


def _iter_tests(universes: tuple[frozenset[str], ...], max_depth: int):
    memo: dict = {}
    for depth in range(max_depth + 1):
        yield from _exact_depth_tests(universes, 0, depth, memo)


def iter_tests(alphabet, max_depth: int):
    """Every canonical test of action depth <= max_depth, exactly once."""
    if max_depth < 0:
        raise ValueError("max_depth must be non-negative")
    alphabet = frozenset(alphabet)
    yield from _iter_tests((alphabet,) * max_depth, max_depth)


def count_tests(universes, max_depth: int) -> int:
    """Size of the canonical enumeration without materializing it."""
    universes = tuple(frozenset(u) for u in universes)
    memo: dict = {}

    def upto(level: int, depth: int) -> int:
        if depth < 0:
            return 0
        key = (level, depth)
        if key in memo:
            return memo[key]
        total = 1  # the success test
        n = len(universes[level]) if level < len(universes) else 0
        for d in range(1, depth + 1):
            u = upto(level + 1, d - 1)
            v = upto(level + 1, d - 2)
            total += sum(
                comb(n, size) * (u**size - v**size) for size in range(1, n + 1)
            )
        memo[key] = total
        return total

    return upto(0, max_depth)


def _level_universes(pts: Pts, depth: int) -> list[frozenset[str]]:
    """Actions enabled after exactly k synchronized steps, for k < depth."""
    levels: list[frozenset[str]] = []
    frontier = {pts.root}
    for _ in range(depth):
        settled: set[int] = set()
        for state in frontier:
            if pts.kind(state) == "p":
                settled.update(target for _, target in pts.prob_successors(state))
            else:
                settled.add(state)
        enabled: set[str] = set()
        for state in settled:
            enabled |= pts.menu(state)
        levels.append(frozenset(enabled))
        frontier = {
            pts.action_successor(state, label)
            for state in settled
            for label in pts.menu(state)
        }
    return levels


def relevant_universes(left: Pts, right: Pts, depth: int) -> tuple[frozenset[str], ...]:
    """Per-level action sets outside which test branches are inert.

    A test arm on an action that neither process can enable at that stage
    never synchronizes, so it changes neither outcome; dropping such arms
    shrinks the enumeration without changing any verdict.
    """
    la = _level_universes(left, depth)
    lb = _level_universes(right, depth)
    return tuple(a | b for a, b in zip(la, lb))


@dataclass(frozen=True)
class TestVerdict:
    equivalent: bool
    depth: int
    test: Term | None = None
    left_result: RationalFn | None = None
    right_result: RationalFn | None = None

    def describe(self) -> str:
        if self.equivalent:
            return f"equivalent up to test depth {self.depth}"
        from .terms import render

        return (
            f"distinguished by test {render(self.test)}: "
            f"{self.left_result} vs {self.right_result}"
        )


def bounded_testing_equivalent(left: Pts, right: Pts, depth: int | None = None) -> TestVerdict:
    """Compare outcomes over every canonical test up to the given depth.

    The default depth, one more than the larger action depth, makes the
    bounded search a complete decision procedure for acyclic processes.
    Returns the first distinguishing test in enumeration order, if any.
    """
    left.require_acyclic()
    right.require_acyclic()
    if depth is None:
        depth = max(left.action_depth, right.action_depth) + 1
    universes = relevant_universes(left, right, depth)
    for test in _iter_tests(universes, depth):
        compiled = compile_term(test)
        out_left = apply_test(left, compiled)
        out_right = apply_test(right, compiled)
        if out_left != out_right:
            return TestVerdict(False, depth, test, out_left, out_right)
    return TestVerdict(True, depth)


# --- witness synthesis -------------------------------------------------------


def _distinguishes(left: Pts, right: Pts, candidate: Term) -> bool:
    compiled = compile_term(candidate)
    return apply_test(left, compiled) != apply_test(right, compiled)


def distinguishing_test(left: Pts, right: Pts) -> Term | None:
    """A verified success-reaching test telling the two processes apart.

    Returns None when the processes are observationally equivalent (then no
    test can separate them).  Otherwise builds a candidate recursively: when
    the initial menu distributions differ at a smallest menu M, probing every
    action outside M succeeds with different total probability; when they
    agree, some menu/action step leads to inequivalent continuations, and the
    step's action is prefixed onto a recursive witness, padded with probe
    arms over first-level actions outside the menu until the outcomes differ.
    Every returned test is checked against both processes first, and none
    contains probabilistic branching.
    """
    left.require_acyclic()
    right.require_acyclic()
    memo: dict = {}
    if views_differ(left, root_view(left), right, root_view(right), memo) is None:
        return None
    alpha = frozenset(left.alphabet | right.alphabet)
    return _synthesize(left, root_view(left), right, root_view(right), alpha, memo)


def _synthesize(
    left: Pts, lview: View, right: Pts, rview: View, alpha: frozenset[str], memo: dict
) -> Term:
    ldist = view_menu_distribution(left, lview)
    rdist = view_menu_distribution(right, rview)
    left_here = view_to_pts(left, lview)
    right_here = view_to_pts(right, rview)

    if ldist != rdist:
        differing = sorted(
            (
                menu
                for menu in set(ldist) | set(rdist)
                if ldist.get(menu, Fraction(0)) != rdist.get(menu, Fraction(0))
            ),
            key=menu_key,
        )
        for menu in differing:
            outside = sorted(alpha - menu)
            if not outside:
                continue
            candidate = ExternalChoice(tuple((b, success()) for b in outside))
            if _distinguishes(left_here, right_here, candidate):
                return candidate
        raise AssertionError("differing menu distributions admit no probe test")

    for menu in sorted(ldist, key=menu_key):
        for action in sorted(menu):
            lnext = condition_view(left, lview, menu, action)
            rnext = condition_view(right, rview, menu, action)
            if views_differ(left, lnext, right, rnext, memo) is None:
                continue
            deeper = _synthesize(left, lnext, right, rnext, alpha, memo)
            probes = sorted(set().union(*ldist) - menu)
            for size in range(len(probes) + 1):
                for extra in combinations(probes, size):
                    branches = [(action, deeper)]
                    branches.extend((b, success()) for b in extra)
                    candidate = ExternalChoice(
                        tuple(sorted(branches, key=lambda br: br[0]))
                    )
                    if _distinguishes(left_here, right_here, candidate):
                        return candidate
    raise AssertionError("inequivalent positions admit no distinguishing test")


def term_action_depth(term: Term) -> int:
    """Longest chain of non-success actions in a test term."""
    best = 0
    stack = [(term, 0)]
    while stack:
        node, depth = stack.pop()
        best = max(best, depth)
        if isinstance(node, ExternalChoice):
            stack.extend(
                (sub, depth + 1) for label, sub in node.branches if label != OMEGA
            )
    return best
