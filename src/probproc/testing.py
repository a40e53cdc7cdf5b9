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

The bounded search decides from per-branch functionals whether any test up
to the depth differs, and at which smallest depth (`_differing_depth`); it
enumerates tests only at that depth, to report the first differing one.
Every outcome comes from one evaluator (`_Outcomes.of`), and witness
synthesis follows the one differing path of the ready-trace verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from typing import Iterator

from .pts import OMEGA, Pts
from .ratfunc import RationalFn
from .readytrace import differing_path, views_differ
from .semantics import _Compiler
from .terms import EMPTY_ORDER, ExternalChoice, Term, success


_ZERO = RationalFn.zero()
_ONE = RationalFn.one()
# Test counts above this are reported as a bound, not computed exactly.
_SHOWN_COUNT = 10**30


class _Outcomes:
    """Outcomes of one process against many tests, sharing one memo.

    A test is stepped by `steps`, whose `prob_steps(node)` lists weighted
    successors and `action_steps(node)` maps labels to successors: a
    `semantics._Compiler` steps test terms, `_GraphSteps` a compiled test.
    Terms are stepped as written, so they must not use |[]|, whose sync sets
    only `compile_term` pins; enumerated and synthesized tests never do.

    Running synchronizes the process state s with the test node t.  The
    cases are tried in this order: t offers success; s is probabilistic,
    mixing the settled states it reaches by their weights (the graph's
    `_settled`); t is probabilistic; otherwise every common label a is taken
    with weight a / sum(common), in sorted order.  Each pair is computed once.

    `of` builds every sum in that order, so its results print the same
    however the memo was filled.  `unit_step` serves `_differing_depth`,
    which decides on functionals rather than tests.
    """

    def __init__(self, process: Pts, steps):
        self.process = process
        self.steps = steps
        self._settled = process._settled
        self._memo: dict[tuple[int, object], RationalFn] = {}
        self._unit_steps: dict[tuple, tuple[dict[str, dict[int, RationalFn]], Fraction]] = {}

    def of(self, test) -> RationalFn:
        """The outcome of running the test from the process root."""
        return self._at(self.process.root, test)

    def unit_step(
        self, state: int, labels: tuple[str, ...]
    ) -> tuple[dict[str, dict[int, RationalFn]], Fraction]:
        """One step of a test over the labels from the state: per label b,
        each successor by b with the sum of weight * share of b over the
        nondeterministic states leading to it; and the total weight of the
        states offering some label, which is the sum of all coefficients
        because each state's shares add up to one."""
        key = (state, labels)
        out = self._unit_steps.get(key)
        if out is None:
            actions = self.process.actions
            step: dict[str, dict[int, RationalFn]] = {}
            total = 0
            den, pairs = self._settled[state]
            for weight, settled in pairs:
                offered = actions[settled]
                common = tuple(sorted(offered.keys() & labels))
                if not common:
                    continue
                total += weight
                scaled = _scalar(Fraction(weight, den))
                for label, share in zip(common, _share(common)):
                    successors = step.setdefault(label, {})
                    target = offered[label]
                    coefficient = scaled * share
                    if target in successors:
                        coefficient = successors[target] + coefficient
                    successors[target] = coefficient
            out = self._unit_steps[key] = (step, Fraction(total, den))
        return out

    def mixed(self, weights: list[tuple[int, int]], test) -> RationalFn:
        """The sum of weight * outcome(state, test) over the weighted states."""
        out = _ZERO
        for weight, state in weights:
            out = out + _scalar(weight) * self._at(state, test)
        return out

    def _at(self, s: int, t) -> RationalFn:
        key = (s, t)
        out = self._memo.get(key)
        if out is not None:
            return out
        process, steps = self.process, self.steps
        weighted = steps.prob_steps(t)
        actions = {} if weighted else steps.action_steps(t)
        if OMEGA in actions:
            return _ONE
        out = _ZERO
        if process.kinds[s] == "p":
            den, pairs = self._settled[s]
            for weight, settled in pairs:
                out = out + _scalar(Fraction(weight, den)) * self._at(settled, t)
        elif weighted:
            for weight, target in weighted:
                out = out + _scalar(weight) * self._at(s, target)
        else:
            offered = process.actions[s]
            common = tuple(sorted(offered.keys() & actions.keys()))
            for label, share in zip(common, _share(common)):
                out = out + share * self._at(offered[label], actions[label])
        self._memo[key] = out
        return out


_scalar = lru_cache(maxsize=1024)(RationalFn.scalar)


@lru_cache(maxsize=1024)
def _share(labels: tuple[str, ...]) -> tuple[RationalFn, ...]:
    """var(a) / sum(labels) for each label a, built once per label set."""
    offered = _ZERO
    for label in labels:
        offered = offered + RationalFn.var(label)
    return tuple(RationalFn.var(label) / offered for label in labels)


def _shape(f: RationalFn) -> tuple:
    """The polynomials of f as a hashable key: equal keys, identical functions."""
    return frozenset(f.num.items()), frozenset(f.den.items())


class _GraphSteps:
    """Steps through a compiled test graph the way `_Compiler` steps terms:
    the graph's own maps, `()` and `{}` for a state of the other kind."""

    def __init__(self, test: Pts):
        self.prob_steps = test.weighted.__getitem__
        self.action_steps = test.actions.__getitem__


def apply_test(process: Pts, test: Pts) -> RationalFn:
    """The exact symbolic outcome of running the test against the process."""
    process.require_acyclic()
    test.require_acyclic()
    return _Outcomes(process, _GraphSteps(test)).of(test.root)


# --- canonical test enumeration ---------------------------------------------


def _exact_depth_tests(
    universes: tuple[frozenset[str], ...],
    level: int,
    depth: int,
    memo: dict,
) -> list[Term]:
    """The list of `_iter_exact_depth_tests`, memoized.

    The tests depend only on the universes they can reach, so the memo is
    keyed by those: equal subtests at different levels are one object.
    """
    key = (universes[level : level + depth], depth)
    out = memo.get(key)
    if out is None:
        out = memo[key] = list(_iter_exact_depth_tests(universes, level, depth, memo))
    return out


def _iter_exact_depth_tests(
    universes: tuple[frozenset[str], ...],
    level: int,
    depth: int,
    memo: dict,
) -> Iterator[Term]:
    """All canonical tests of exact action depth `depth`, whose actions at
    each nesting level come from the corresponding universe; deterministic
    order (label-set size, labels, then branch combinations).

    The tests are generated as they are asked for; the subtests one level
    down come from the memoized lists of `_exact_depth_tests`.
    """
    if depth == 0:
        yield success()
        return
    span = universes[level : level + depth]
    if not (span and span[0]):
        return
    allowed = sorted(span[0])
    options: list[tuple[int, Term]] = []
    for d in range(depth):
        options.extend((d, t) for t in _exact_depth_tests(universes, level + 1, d, memo))
    for size in range(1, len(allowed) + 1):
        for labels in combinations(allowed, size):
            for combo in product(options, repeat=size):
                if max(d for d, _ in combo) != depth - 1:
                    continue
                yield ExternalChoice(
                    tuple((label, target) for label, (_, target) in zip(labels, combo))
                )


def count_tests(universes, max_depth: int, cap: int | None = None) -> int:
    """Size of the canonical enumeration without materializing it.

    A test over labels L at one level picks, for each a in L, success or a
    test one level deeper, so the tests of depth <= d number
    (1 + count(next level, d - 1)) ** |universe|.  Counts can have
    astronomically many digits; with a cap, the result is exact when it is
    at most the cap and cap + 1 otherwise.
    """
    if max_depth < 0:
        return 0
    universes = tuple(frozenset(u) for u in universes)
    total = 1
    for level in reversed(range(max_depth)):
        width = len(universes[level]) if level < len(universes) else 0
        total = (1 + total) ** width
        if cap is not None and total > cap:
            total = cap + 1
    return total


def _level_universes(pts: Pts, depth: int) -> list[frozenset[str]]:
    """Actions enabled after exactly k synchronized steps, for k < depth;
    weighted steps are followed through the graph's `_settled` routine."""
    pts.require_acyclic()
    settled_of, actions = pts._settled, pts.actions
    levels: list[frozenset[str]] = []
    frontier = {pts.root}
    for _ in range(depth):
        settled = {state for root in frontier for _, state in settled_of[root][1]}
        levels.append(frozenset().union(*(actions[state] for state in settled)))
        frontier = {dst for state in settled for dst in actions[state].values()}
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


def _differing_depth(left: _Outcomes, right: _Outcomes, depth: int) -> int | None:
    """The smallest exact depth of a test, up to `depth`, whose outcomes on
    the two processes differ; None when no such test does.

    Works on functionals instead of tests.  A functional is a pair of
    coefficient maps, alpha over left states and beta over right states,
    and sends a test t to sum alpha(s) * outcome(s, t) minus the same sum
    for beta.  The processes agree on every test when ({left root: 1},
    {right root: 1}) is constant, its value at success being 0.

    A test [] b.t_b over labels L sends a functional to the sum over b of
    its child (alpha_{L,b}, beta_{L,b}) at t_b, each state's coefficient
    carried along its `_Outcomes.unit_step`.  The t_b vary independently,
    so the functional is constant iff for every L each child is constant
    one level down, and the children's values at success balance its own:

        sum beta + sum_b total(alpha_{L,b}) == sum alpha + sum_b total(beta_{L,b})

    A unit step's total is the number T(s, L), so the balance reads
    sum alpha(s) * (1 - T(s, L)) == sum beta(s) * (1 - T(s, L)), the weight
    L blocks on each side, and needs no subtraction of functions.  A failed
    balance shows at the depth-1 test [] b.w; a child first not constant at
    depth d shows at depth d + 1.

    Labels that no state of the functional offers change neither balance
    nor children, so L ranges over the offered labels only.  That leaves
    out the tests that block every state, which score sum alpha against
    sum beta; those agree already, since the balances one level up fix the
    mass the functional puts on each menu, and with it the children's
    totals.  So the answer is the same for tests over any labels as over
    the relevant universes, whatever the level.  Functionals are memoized
    per remaining depth and coefficient polynomials.
    """
    memo: dict[tuple, int | None] = {}

    def key(coefficients: dict[int, RationalFn]) -> frozenset:
        return frozenset((state, _shape(c)) for state, c in coefficients.items())

    def differs(remaining: int, alpha: dict, beta: dict) -> int | None:
        """The smallest depth <= remaining of a test on which the
        functional differs from its value at success, or None."""
        if remaining == 0:
            return None
        memo_key = (remaining, key(alpha), key(beta))
        if memo_key in memo:
            return memo[memo_key]
        label_sets = _label_sets(_offered(alpha, left) | _offered(beta, right))
        out = None
        for labels in label_sets:
            if _blocked(alpha, left, labels) != _blocked(beta, right, labels):
                out = 1
                break
        else:
            for labels, label in ((ls, label) for ls in label_sets for label in ls):
                # Once a child differs, only a shallower difference matters.
                bound = remaining - 1 if out is None else out - 2
                if bound < 1:
                    break
                found = differs(
                    bound,
                    _successors(alpha, left, labels, label),
                    _successors(beta, right, labels, label),
                )
                if found is not None:
                    out = found + 1
        memo[memo_key] = out
        return out

    return differs(depth, {left.process.root: _ONE}, {right.process.root: _ONE})


def _label_sets(labels: frozenset[str]) -> list[tuple[str, ...]]:
    """The non-empty subsets of the labels, each sorted."""
    ordered = sorted(labels)
    return [
        subset for size in range(1, len(ordered) + 1) for subset in combinations(ordered, size)
    ]


def _offered(coefficients: dict, outcomes: _Outcomes) -> frozenset[str]:
    """Every label some settled state of the coefficient map offers."""
    actions, settled_of = outcomes.process.actions, outcomes._settled
    return frozenset().union(
        *(actions[settled] for state in coefficients for _, settled in settled_of[state][1])
    )


def _blocked(coefficients: dict, outcomes: _Outcomes, labels: tuple[str, ...]) -> RationalFn:
    """The sum of coefficient * (1 - T(state, labels)): the weight that a
    test over the labels blocks."""
    out = _ZERO
    for state, coefficient in coefficients.items():
        blocked = 1 - outcomes.unit_step(state, labels)[1]
        if blocked:
            if blocked != 1:
                coefficient = coefficient * _scalar(blocked)
            out = out + coefficient
    return out


def _successors(
    coefficients: dict, outcomes: _Outcomes, labels: tuple[str, ...], label: str
) -> dict[int, RationalFn]:
    """The coefficient map of one child: each state's coefficient carried
    along its unit step by the label, added per successor."""
    out: dict[int, RationalFn] = {}
    for state, coefficient in coefficients.items():
        for target, weight in outcomes.unit_step(state, labels)[0].get(label, {}).items():
            carried = coefficient * weight
            if target in out:
                carried = out[target] + carried
            out[target] = carried
    return out


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


def bounded_testing_equivalent(
    left: Pts, right: Pts, depth: int | None = None, budget: int | None = None
) -> TestVerdict:
    """Compare outcomes over every canonical test up to the given depth.

    The default depth, one more than the larger action depth, makes the
    bounded search a complete decision procedure for acyclic processes.
    Returns the first distinguishing test in enumeration order, if any,
    with its two outcomes from `_Outcomes.of`: the verdict and the depth of
    that test come from `_differing_depth`, and only the tests of that
    exact depth are run.  With a budget, raises ValueError, before any
    work, when there are more tests than it.
    """
    left.require_acyclic()
    right.require_acyclic()
    if depth is None:
        depth = max(left.action_depth, right.action_depth) + 1
    if depth < 0:
        raise ValueError(f"test depth must be non-negative, got {depth}")
    universes = relevant_universes(left, right, depth)
    if budget is not None:
        count = count_tests(universes, depth, cap=max(budget, _SHOWN_COUNT))
        if count > budget:
            size = f"more than {_SHOWN_COUNT:.0e}" if count > _SHOWN_COUNT else count
            raise ValueError(
                f"bounded testing search up to depth {depth} has {size} tests, "
                f"over the budget of {budget}"
            )
    steps = _Compiler(EMPTY_ORDER)
    left_outcomes = _Outcomes(left, steps)
    right_outcomes = _Outcomes(right, steps)
    found = _differing_depth(left_outcomes, right_outcomes, depth)
    if found is None:
        return TestVerdict(True, depth)
    # Tests come by exact depth and none shallower than `found` differs, so
    # the first differing test of that depth is the first of the whole
    # enumeration.
    for test in _iter_exact_depth_tests(universes, 0, found, {}):
        out_left, out_right = left_outcomes.of(test), right_outcomes.of(test)
        if out_left != out_right:
            return TestVerdict(False, depth, test, out_left, out_right)
    raise AssertionError(f"no test of depth {found} differs")


# --- witness synthesis -------------------------------------------------------


def distinguishing_test(left: Pts, right: Pts) -> Term | None:
    """A verified success-reaching test telling the two processes apart.

    Returns None when the processes are observationally equivalent (then no
    test can separate them).  Otherwise the test follows the differing path
    of the ready-trace verdict (`readytrace.differing_path`) and is built
    from its end upwards.  The last pair first differs at a menu M: probe
    every action outside M.  A pair above first differs at a step (M, a):
    take the first candidate a.W [] (sum of b.w over b in E) that tells it
    apart, W being the test one level down and E each subset, by size and
    then in sorted order, of the labels offered outside M.  Each candidate
    is checked against both processes, and none contains probabilistic
    branching.

    Why the first differing step always suffices.  Let (M, a) be the first
    differing step in observation order.  Every menu N with a strictly
    inside M comes earlier, so its child (N, a) is ready-trace equivalent,
    and by the coincidence theorem its outcome difference delta_N on W is 0.
    Menus without a add nothing, as both sides give them equal mass.  With
    R the labels offered outside M and S = N - M, the candidate over E
    differs by

        D(E) = sum over S subset of R of c_S * a / (a + sum(S & E)),

    where c_S sums p(N) * delta_N over the menus N with a and N - M = S,
    so c_{} = p(M) * delta_M != 0.  As R's variables grow against a, the
    matrix [a / (a + sum(S & E))] over E, S subsets of R tends to the
    disjointness matrix (determinant +-1), so it is nonsingular and some E
    gives D(E) != 0.  At the last pair the probe succeeds from a state
    exactly when its menu is not inside M, and the menus strictly inside M
    come earlier, so the outcomes differ by p_R(M) - p_L(M).
    """
    left.require_acyclic()
    right.require_acyclic()
    lt, rt = left.positions, right.positions
    memo: dict = {}
    start = (lt.start(left.root), rt.start(right.root))
    if views_differ(lt, rt, start, memo) is None:
        return None
    steps = _Compiler(EMPTY_ORDER)
    left_outcomes, right_outcomes = _Outcomes(left, steps), _Outcomes(right, steps)
    witness = None
    for (lpos, rpos), step in reversed(differing_path(memo, start)):
        if len(step) == 1:
            outside = sorted((left.alphabet | right.alphabet) - step[0])
            probe = tuple((b, success()) for b in outside)
            candidates = [ExternalChoice(probe)] if probe else []
        else:
            menu, action, _ = step
            probes = sorted(set().union(*lt.menus[lpos]) - menu)
            arm = [(action, witness)]
            candidates = (
                ExternalChoice(tuple(sorted(arm + [(b, success()) for b in extra])))
                for size in range(len(probes) + 1)
                for extra in combinations(probes, size)
            )
        # A candidate's outcome at a position is the sum of weight *
        # outcome(state) over its branches, divided by the total; the sides
        # are compared with each sum scaled by the other side's total.
        lweights = [(weight * rt.totals[rpos], state) for weight, state in lt.keys[lpos]]
        rweights = [(weight * lt.totals[lpos], state) for weight, state in rt.keys[rpos]]
        witness = next(
            (
                candidate
                for candidate in candidates
                if left_outcomes.mixed(lweights, candidate)
                != right_outcomes.mixed(rweights, candidate)
            ),
            None,
        )
        if witness is None:
            raise AssertionError("inequivalent positions admit no distinguishing test")
    return witness


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
