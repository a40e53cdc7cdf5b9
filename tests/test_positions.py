"""Interned positions: the integer table against the Fraction views it
replaced, refused and mutated hand-made graphs, conditioning counts, pairs
decided on one joint graph, and graphs too deep for recursion."""

import random
import re
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, count
from math import gcd

import pytest

from probproc import readytrace
from probproc.fixtures import (
    COIN_MACHINE_EARLY,
    COIN_MACHINE_LATE,
    MIXED_FOLLOWUP_FIRST,
    MIXED_FOLLOWUP_SECOND,
    PREFIX_DISTRIB_LEFT,
    PREFIX_DISTRIB_RIGHT,
)
from probproc.harness import (
    GenConfig,
    context_distribution_pair,
    equivalent_pair,
    prefix_distribution_pair,
    random_priority_order,
    random_term,
)
from probproc.parser import parse_term, parse_test
from probproc.pts import MenuNotOffered, Positions, Pts, _edges, format_menu, validate
from probproc.readytrace import (
    ReadyTrace,
    menu_key,
    ready_trace_equivalent,
    trace_probability,
)
from probproc.semantics import _Compiler, compile_pair, compile_term
from probproc.terms import EMPTY_ORDER, ExternalChoice, render, success
from probproc import testing
from probproc.testing import _Outcomes, _outcome_pair, apply_test, distinguishing_test

from helpers import build, iter_ready_traces, tree_signature

F = Fraction


# --- the reference: positions as Fraction views ------------------------------
#
# A view is ("s", state) or ("d", ((state, probability), ...)) sorted by
# state.  These functions are the conditioning, equivalence and synthesis
# code that the position table replaced, kept to check the table against.


def _ref_branches(pts, view):
    if view[0] == "d":
        return tuple((weight, state) for state, weight in view[1])
    return pts.weighted[view[1]]


def _ref_is_probabilistic(pts, view):
    return view[0] == "d" or pts.kinds[view[1]] == "p"


def _ref_menu_distribution(pts, view):
    if not _ref_is_probabilistic(pts, view):
        return {pts.menu(view[1]): F(1)}
    out = {}
    for weight, target in _ref_branches(pts, view):
        menu = pts.menu(target)
        out[menu] = out.get(menu, F(0)) + weight
    return out


def _ref_condition(pts, view, menu, action):
    menu = frozenset(menu)
    if action not in menu:
        raise MenuNotOffered(f"action {action!r} is not in menu {format_menu(menu)}")
    if not _ref_is_probabilistic(pts, view):
        state = view[1]
        if pts.menu(state) != menu:
            raise MenuNotOffered(
                f"state {state} offers {format_menu(pts.menu(state))}, "
                f"not {format_menu(menu)}"
            )
        return ("s", pts.actions[state][action])
    matching = [
        (weight, target)
        for weight, target in _ref_branches(pts, view)
        if pts.menu(target) == menu
    ]
    if not matching:
        raise MenuNotOffered(f"menu {format_menu(menu)} has probability zero here")
    total = sum(weight for weight, _ in matching)
    acc = {}
    for weight, target in matching:
        after = pts.actions[target][action]
        if pts.kinds[after] == "n":
            acc[after] = acc.get(after, F(0)) + weight / total
        else:
            for inner_weight, inner_target in pts.weighted[after]:
                acc[inner_target] = (
                    acc.get(inner_target, F(0)) + weight * inner_weight / total
                )
    return ("d", tuple(sorted(acc.items())))


def _ref_view_to_pts(pts, view):
    if view[0] == "s":
        return replace(pts, root=view[1])
    fresh = max(pts.kinds) + 1
    return replace(
        pts,
        kinds={**pts.kinds, fresh: "p"},
        actions={**pts.actions, fresh: {}},
        weighted={**pts.weighted, fresh: tuple((weight, target) for target, weight in view[1])},
        root=fresh,
    )


def _ref_views_differ(left, lview, right, rview, memo):
    key = (lview, rview)
    if key in memo:
        return memo[key]
    ldist = _ref_menu_distribution(left, lview)
    rdist = _ref_menu_distribution(right, rview)
    result = None
    if ldist != rdist:
        for menu in sorted(set(ldist) | set(rdist), key=menu_key):
            lp = ldist.get(menu, F(0))
            rp = rdist.get(menu, F(0))
            if lp != rp:
                result = ((menu,), (), lp, rp)
                break
    else:
        for menu in sorted(ldist, key=menu_key):
            for action in sorted(menu):
                sub = _ref_views_differ(
                    left,
                    _ref_condition(left, lview, menu, action),
                    right,
                    _ref_condition(right, rview, menu, action),
                    memo,
                )
                if sub is not None:
                    menus, actions, lp, rp = sub
                    p = ldist[menu]
                    result = ((menu,) + menus, (action,) + actions, p * lp, p * rp)
                    break
            if result is not None:
                break
    memo[key] = result
    return result


def _ref_synthesize(left, lview, right, rview, alpha, memo, fallbacks):
    """Reference synthesis: on a differing menu or child that admits no
    witness it moves on to the next one; `fallbacks` counts each move."""
    ldist = _ref_menu_distribution(left, lview)
    rdist = _ref_menu_distribution(right, rview)
    steps = _Compiler(EMPTY_ORDER)
    left_here = _Outcomes(_ref_view_to_pts(left, lview), steps)
    right_here = _Outcomes(_ref_view_to_pts(right, rview), steps)

    def distinguishes(candidate):
        return left_here.of(candidate) != right_here.of(candidate)

    if ldist != rdist:
        differing = sorted(
            (m for m in set(ldist) | set(rdist) if ldist.get(m, F(0)) != rdist.get(m, F(0))),
            key=menu_key,
        )
        for menu in differing:
            outside = sorted(alpha - menu)
            if outside:
                candidate = ExternalChoice(tuple((b, success()) for b in outside))
                if distinguishes(candidate):
                    return candidate
            fallbacks["menu"] += 1
        raise AssertionError("differing menu distributions admit no probe test")
    for menu in sorted(ldist, key=menu_key):
        for action in sorted(menu):
            lnext = _ref_condition(left, lview, menu, action)
            rnext = _ref_condition(right, rview, menu, action)
            if _ref_views_differ(left, lnext, right, rnext, memo) is None:
                continue
            deeper = _ref_synthesize(left, lnext, right, rnext, alpha, memo, fallbacks)
            probes = sorted(set().union(*ldist) - menu)
            for size in range(len(probes) + 1):
                for extra in combinations(probes, size):
                    branches = [(action, deeper)]
                    branches.extend((b, success()) for b in extra)
                    candidate = ExternalChoice(tuple(sorted(branches, key=lambda br: br[0])))
                    if distinguishes(candidate):
                        return candidate
            fallbacks["child"] += 1
    raise AssertionError("inequivalent positions admit no distinguishing test")


def _ref_verdict_and_witness(left, right, fallbacks):
    memo = {}
    lroot, rroot = ("s", left.root), ("s", right.root)
    witness = _ref_views_differ(left, lroot, right, rroot, memo)
    if witness is None:
        return None, None
    alpha = frozenset(left.alphabet | right.alphabet)
    return witness, _ref_synthesize(left, lroot, right, rroot, alpha, memo, fallbacks)


def _ref_iter_ready_traces(pts, max_len):
    def walk(view, menus, actions, probability):
        dist = _ref_menu_distribution(pts, view)
        for menu in sorted(dist, key=menu_key):
            p = probability * dist[menu]
            trace = ReadyTrace(menus + (menu,), actions)
            yield trace, p
            if len(trace) < max_len:
                for action in sorted(menu):
                    yield from walk(
                        _ref_condition(pts, view, menu, action),
                        menus + (menu,),
                        actions + (action,),
                        p,
                    )

    yield from walk(("s", pts.root), (), (), F(1))


def _ref_views(pts):
    """Every view reachable from the root through menu/action steps."""
    seen = {("s", pts.root)}
    frontier = [("s", pts.root)]
    while frontier:
        view = frontier.pop()
        for menu in _ref_menu_distribution(pts, view):
            for action in menu:
                child = _ref_condition(pts, view, menu, action)
                if child not in seen:
                    seen.add(child)
                    frontier.append(child)
    return seen


# --- corpora -----------------------------------------------------------------


def _corpus(seed: int, n: int):
    """Pairs from the three law generators with random priority orders, and
    each left side crossed with the previous right side, which mostly
    gives distinguished pairs.  The generators use |[]| and prio."""
    cfg = GenConfig(alphabet_size=3, max_depth=3, seed=seed)
    rng = random.Random(seed)
    makers = (equivalent_pair, prefix_distribution_pair, context_distribution_pair)
    previous = None
    for index in range(n):
        sub = random.Random(rng.getrandbits(64))
        order = random_priority_order(cfg, sub)
        left, right = makers[index % len(makers)](cfg, sub)
        yield compile_term(left, order), compile_term(right, order)
        if previous is not None:
            yield compile_term(left, order), compile_term(previous, order)
        previous = right


@pytest.mark.parametrize("seed", [2009, 20260809])
def test_table_matches_the_fraction_views(seed):
    distinguished = equivalent = 0
    fallbacks = Counter()
    for left, right in _corpus(seed, 120):
        expected, expected_witness = _ref_verdict_and_witness(left, right, fallbacks)
        verdict = ready_trace_equivalent(left, right)
        assert verdict.equivalent == (expected is None)
        if expected is None:
            equivalent += 1
            assert distinguishing_test(left, right) is None
            continue
        distinguished += 1
        menus, actions, lp, rp = expected
        assert verdict.trace == ReadyTrace(menus, actions)
        assert (verdict.left_probability, verdict.right_probability) == (lp, rp)
        assert str(verdict.left_probability) == str(lp)
        assert distinguishing_test(left, right) == expected_witness
        assert trace_probability(left, verdict.trace) == lp
        assert trace_probability(right, verdict.trace) == rp
    assert equivalent > 60 and distinguished > 60
    # The synthesis keeps only the first differing menu and child, which
    # the reference never moves past.
    assert sum(fallbacks.values()) == 0, fallbacks
    for left, right in _corpus(seed, 30):
        for pts in (left, right):
            max_len = pts.action_depth + 1
            assert list(iter_ready_traces(pts)) == list(_ref_iter_ready_traces(pts, max_len))
            for trace, p in _ref_iter_ready_traces(pts, 3):
                assert trace_probability(pts, trace) == p


def _ref_distribution(pts, view):
    """A view's distribution over settled states, as (state, probability)
    pairs sorted by state."""
    if view[0] == "d":
        return view[1]
    if pts.kinds[view[1]] == "n":
        return ((view[1], F(1)),)
    return tuple(sorted((state, weight) for weight, state in pts.weighted[view[1]]))


def test_one_position_per_distinct_distribution():
    """Exploring every step from the root interns exactly one position per
    distinct reference distribution, and each key is gcd-reduced."""
    for left, right in _corpus(7, 40):
        for pts in (left, right):
            table = pts.positions
            frontier = [table.start(pts.root)]
            seen = set(frontier)
            while frontier:
                pid = frontier.pop()
                for menu in table.menus[pid]:
                    for action in menu:
                        child = table.child(pid, menu, action)
                        if child not in seen:
                            seen.add(child)
                            frontier.append(child)
            distributions = {_ref_distribution(pts, view) for view in _ref_views(pts)}
            assert len(table.keys) == len(seen) == len(distributions)
            for pid, key in enumerate(table.keys):
                weights = [weight for weight, _ in key]
                assert min(weights) >= 1 and gcd(*weights) == 1
                assert sum(weights) == table.totals[pid]
                assert tuple((state, F(w, table.totals[pid])) for w, state in key) in distributions


def test_a_settled_state_is_its_one_point_distribution():
    """Conditioning that lands on one state gives the id of that state's
    own start, so a random choice leaves no trace in the table."""
    pts = compile_term(parse_term("p{1/2: a->b, 1/2: c}"))
    table = pts.positions
    after = table.child(table.start(pts.root), frozenset("a"), "a")
    (state,) = [s for s, kind in pts.kinds.items() if kind == "n" and pts.menu(s) == {"b"}]
    assert table.start(state) == after
    assert table.keys[after] == ((1, state),)


def test_probabilistic_state_without_edges_is_refused():
    # Its menu weights would total zero, which no cross-multiplication can
    # compare; validate reports the same graph.  Both semantics refuse it,
    # also behind a weighted step.
    empty = build({"a"}, {0: "p"}, [], [], 0)
    behind = build({"a"}, {0: "p", 1: "p", 2: "n"}, [], [(0, 1, 1)], 0)
    offer = compile_term(parse_term("a"))
    probe = compile_term(parse_test("a->w"))
    for call in (
        lambda: ready_trace_equivalent(empty, offer),
        lambda: ready_trace_equivalent(offer, empty),
        lambda: trace_probability(empty, ReadyTrace((frozenset(),), ())),
        lambda: ready_trace_equivalent(behind, offer),
        lambda: apply_test(empty, probe),
        lambda: apply_test(behind, probe),
        lambda: testing.bounded_testing_equivalent(behind, offer),
    ):
        with pytest.raises(ValueError, match="no outgoing edges"):
            call()


# --- chained weighted steps ---------------------------------------------------


def _chained(pts: Pts, rng: random.Random) -> Pts:
    """The graph rebuilt with `build` so that weighted edges pass through
    fresh probabilistic states: each edge is kept, routed through a chain of
    one or two fresh states, or split into a direct part and a routed part
    whose weights add up to the edge's.  The first edge is always split,
    and the root sits under a fresh weight-one state half the time."""
    fresh = count(max(pts.kinds) + 1)
    kinds = dict(pts.kinds)
    weighted = []

    def routed(src, weight, dst):
        for _ in range(rng.randint(1, 2)):
            step = next(fresh)
            kinds[step] = "p"
            weighted.append((src, weight, step))
            src, weight = step, F(1)
        weighted.append((src, weight, dst))

    action_edges, prob_edges = _edges(pts)
    for index, (src, weight, dst) in enumerate(prob_edges):
        shape = "split" if index == 0 else rng.choice(("keep", "route", "split"))
        if shape == "keep":
            weighted.append((src, weight, dst))
        elif shape == "route":
            routed(src, weight, dst)
        else:
            part = weight * F(rng.randint(1, 3), 4)
            weighted.append((src, part, dst))
            routed(src, weight - part, dst)
    root = pts.root
    if rng.random() < 0.5:
        root = next(fresh)
        kinds[root] = "p"
        routed(root, F(1), pts.root)
    return build(pts.alphabet, kinds, action_edges, weighted, root)


@pytest.mark.parametrize("seed", [2009, 20260809])
def test_chained_weighted_steps_are_refused(seed):
    """A graph whose weighted edges run through chains of fresh
    probabilistic states, or split into paths whose weights add, is one
    that `validate` reports, so every analysis refuses it in those words."""
    rng = random.Random(seed)
    refused = 0
    for left, right in _corpus(seed, 30):
        chained = (_chained(left, rng), _chained(right, rng))
        for flat, graph, other in zip((left, right), chained, (right, left)):
            if not any(graph.kinds[dst] == "p" for _, _, dst in _edges(graph)[1]):
                assert not any(flat.weighted.values())
                continue
            refused += 1
            for call in (
                lambda: ready_trace_equivalent(graph, other),
                lambda: ready_trace_equivalent(other, graph),
                lambda: testing.bounded_testing_equivalent(graph, other),
                lambda: distinguishing_test(other, graph),
                lambda: next(iter_ready_traces(graph)),
                lambda: apply_test(graph, compile_term(parse_test("a->w"))),
            ):
                with pytest.raises(
                    ValueError, match="probabilistic edge targets probabilistic state"
                ):
                    call()
    assert refused > 60


# --- mutated graphs ------------------------------------------------------------
#
# Each mutation changes one compiled graph by hand, at a state the rng picks,
# and returns None where the graph has no state it applies to.  Fresh states
# are numbered past the graph's, so no mutation makes a cycle.


def _pick(rng, pts, kind):
    states = [state for state, tag in pts.kinds.items() if tag == kind]
    return rng.choice(states) if states else None


def _with(pts, **maps):
    """The graph with these states' entries replaced in its maps."""
    return replace(pts, **{name: getattr(pts, name) | entries for name, entries in maps.items()})


def _with_leaf(pts):
    """A fresh nondeterministic state offering nothing, and the graph with it."""
    leaf = max(pts.kinds) + 1
    return leaf, _with(pts, kinds={leaf: "n"}, actions={leaf: {}}, weighted={leaf: ()})


def _duplicate_pair(pts, rng):
    state = _pick(rng, pts, "p")
    if state is None:
        return None
    pairs = pts.weighted[state]
    return _with(pts, weighted={state: pairs + (rng.choice(pairs),)})


def _split_pair(pts, rng):
    """One pair written as two halves naming the same successor."""
    state = _pick(rng, pts, "p")
    if state is None:
        return None
    pairs = list(pts.weighted[state])
    index = rng.randrange(len(pairs))
    weight, dst = pairs[index]
    pairs[index : index + 1] = [(weight / 2, dst), (weight / 2, dst)]
    return _with(pts, weighted={state: tuple(pairs)})


def _move_weight(pts, rng):
    """Part of one pair's weight moved to another pair; the sum stays one."""
    states = [state for state, pairs in pts.weighted.items() if len(pairs) > 1]
    if not states:
        return None
    state = rng.choice(states)
    pairs = list(pts.weighted[state])
    give, take = rng.sample(range(len(pairs)), 2)
    part = pairs[give][0] * F(rng.randint(1, 3), 4)
    pairs[give] = (pairs[give][0] - part, pairs[give][1])
    pairs[take] = (pairs[take][0] + part, pairs[take][1])
    return _with(pts, weighted={state: tuple(pairs)})


def _drop_weight(pts, rng):
    """One pair's weight halved, so the weights sum to less than one."""
    state = _pick(rng, pts, "p")
    if state is None:
        return None
    pairs = list(pts.weighted[state])
    index = rng.randrange(len(pairs))
    pairs[index] = (pairs[index][0] / 2, pairs[index][1])
    return _with(pts, weighted={state: tuple(pairs)})


def _action_on_probabilistic(pts, rng):
    state = _pick(rng, pts, "p")
    if state is None:
        return None
    leaf, graph = _with_leaf(pts)
    return _with(graph, actions={state: {"a": leaf}})


def _weighted_on_nondeterministic(pts, rng):
    state = _pick(rng, pts, "n")
    leaf, graph = _with_leaf(pts)
    return _with(graph, weighted={state: ((F(1), leaf),)})


def _foreign_label(pts, rng):
    state = _pick(rng, pts, "n")
    leaf, graph = _with_leaf(pts)
    return _with(graph, actions={state: {**pts.actions[state], "z": leaf}})


def _retarget_at_probabilistic(pts, rng):
    """One weighted step routed through a fresh weight-one probabilistic state."""
    state = _pick(rng, pts, "p")
    if state is None:
        return None
    pairs = list(pts.weighted[state])
    index = rng.randrange(len(pairs))
    weight, dst = pairs[index]
    fresh = max(pts.kinds) + 1
    pairs[index] = (weight, fresh)
    return _with(
        pts,
        kinds={fresh: "p"},
        actions={fresh: {}},
        weighted={fresh: ((F(1), dst),), state: tuple(pairs)},
    )


_MUTATIONS = (
    _duplicate_pair,
    _split_pair,
    _move_weight,
    _drop_weight,
    _action_on_probabilistic,
    _weighted_on_nondeterministic,
    _foreign_label,
    _retarget_at_probabilistic,
)


@pytest.mark.parametrize("seed", [2009, 20260809])
def test_every_accepted_mutation_keeps_the_two_verdicts_equal(seed):
    """Each compiled graph of the corpus gets one mutation.  The mutated
    graph is either refused by both deciders, in `validate`'s words, or
    both decide it the same way against the graph it was made from: the
    paper's coincidence of testing and ready traces, on every graph the
    library accepts."""
    rng = random.Random(seed)
    applied, refused = Counter(), Counter()
    for pair in _corpus(seed, 20):
        for original in pair:
            mutations = list(_MUTATIONS)
            rng.shuffle(mutations)
            mutation, mutated = next(
                (f, graph) for f in mutations if (graph := f(original, rng)) is not None
            )
            applied[mutation.__name__] += 1
            problems = "; ".join(validate(mutated, allow_success=True))
            try:
                verdict = ready_trace_equivalent(mutated, original)
            except ValueError as exc:
                assert str(exc) == problems
                with pytest.raises(ValueError, match=re.escape(problems)):
                    testing.bounded_testing_equivalent(original, mutated)
                refused[mutation.__name__] += 1
                continue
            tested = testing.bounded_testing_equivalent(mutated, original)
            assert tested.equivalent == verdict.equivalent, mutation.__name__
            assert not problems
    assert applied.keys() == {m.__name__ for m in _MUTATIONS}
    assert refused.keys() == applied.keys() - {"_move_weight"}
    assert refused["_move_weight"] == 0


# --- counting ----------------------------------------------------------------


def test_each_position_step_is_conditioned_once(monkeypatch):
    conditioned = Counter()
    original = Positions._condition

    def counting(self, pid, menu, action):
        conditioned[(id(self), pid, menu, action)] += 1
        return original(self, pid, menu, action)

    monkeypatch.setattr(Positions, "_condition", counting)
    synthesized = 0
    pairs = list(_corpus(11, 40))  # alive throughout, so no table reuses an id
    for left, right in pairs:
        verdict = ready_trace_equivalent(left, right)
        after_verdict = sum(conditioned.values())
        witness = distinguishing_test(left, right)
        # Synthesis walks only steps the verdict already took.
        assert sum(conditioned.values()) == after_verdict
        assert (witness is None) == verdict.equivalent
        synthesized += witness is not None
    assert synthesized > 20
    assert conditioned and max(conditioned.values()) == 1


def test_label_set_shares_are_built_once_across_tests():
    process = compile_term(parse_term("p{1/2:a->b [] c, 1/2:a [] b [] c}"))
    test = compile_term(parse_test("a->(b->w [] c) [] b->w [] c->w"))
    other = compile_term(parse_term("a [] b->c [] c->(a [] b)"))
    testing._share.cache_clear()
    first = apply_test(process, test)
    apply_test(other, test)
    assert apply_test(process, test) == first
    info = testing._share.cache_info()
    assert info.misses == info.currsize >= 3
    assert info.hits > 0


# --- one walk for both operands ------------------------------------------------


def _pair_corpus():
    """The fixture pairs, then per config 98 seeded pairs, equivalent and
    random in turn, each with a random priority order."""
    fixtures = [
        (COIN_MACHINE_EARLY, COIN_MACHINE_LATE),
        (MIXED_FOLLOWUP_FIRST, MIXED_FOLLOWUP_SECOND),
        (PREFIX_DISTRIB_LEFT, PREFIX_DISTRIB_RIGHT),
        ("a->p{1/2:b, 1/2:c}", "p{1/2:a->b, 1/2:a->c}"),
    ]
    for left, right in fixtures:
        yield parse_term(left), parse_term(right), EMPTY_ORDER
    for cfg in (GenConfig(2, 3, seed=20260809), GenConfig(3, 3, seed=7)):
        rng = random.Random(cfg.seed)
        for index in range(98):
            if index % 2 == 0:
                left, right = equivalent_pair(cfg, rng)
            else:
                left, right = random_term(cfg, rng), random_term(cfg, rng)
            yield left, right, random_priority_order(cfg, rng)


def _decisions(left: Pts, right: Pts) -> list:
    """Everything the two semantics print about a pair."""
    verdict = ready_trace_equivalent(left, right)
    shown = [verdict.describe()]
    witness = distinguishing_test(left, right)
    if witness is not None:
        compiled = compile_term(witness)
        shown += [render(witness), str(apply_test(left, compiled)), str(apply_test(right, compiled))]
    shown.append(testing.bounded_testing_equivalent(left, right, depth=2).describe())
    return shown


def test_the_joint_decision_equals_the_separate_one():
    distinguished = shared = 0
    for left, right, order in _pair_corpus():
        apart = compile_term(left, order), compile_term(right, order)
        joint = compile_pair(left, right, order)
        assert joint[0].positions is joint[1].positions
        assert joint[0]._settled is joint[1]._settled
        labels = apart[0].alphabet | apart[1].alphabet
        assert joint[0].alphabet == joint[1].alphabet == labels
        assert validate(joint[0]) == validate(joint[1]) == []
        expected = _decisions(*apart)
        assert _decisions(*joint) == expected, (render(left), render(right))
        distinguished += expected[0] != "equivalent"
        shared += len(joint[0].kinds) < len(apart[0].kinds) + len(apart[1].kinds)
    assert 50 < distinguished < 150
    assert shared > 100


def test_a_joint_walk_compiles_each_shared_state_once():
    left, right = parse_term("a->p{1/2:b, 1/2:c}"), parse_term("p{1/2:a->b, 1/2:a->c}")
    apart = compile_term(left), compile_term(right)
    joint = compile_pair(left, right)
    assert [len(graph.kinds) for graph in apart] == [5, 6]
    assert len(joint[0].kinds) == 8
    assert (joint[0].root, joint[1].root) == (0, 1)
    # One root alone is numbered as compile_term numbers it.
    alone = compile_pair(left, left)
    assert (alone[0].root, alone[1].root) == (0, 0)
    assert (alone[0].kinds, alone[0].actions, alone[0].weighted) == (
        apart[0].kinds,
        apart[0].actions,
        apart[0].weighted,
    )


def test_a_graph_paired_with_itself_is_equivalent_on_sight(monkeypatch):
    # A position paired with itself is not expanded, and a functional whose
    # two coefficient maps are identical is not stepped.
    def refused(*args):
        raise AssertionError("a pair was expanded")

    monkeypatch.setattr(readytrace, "_first_differing_menu", refused)
    monkeypatch.setattr(Positions, "_condition", refused)
    monkeypatch.setattr(_Outcomes, "unit_step", refused)
    graph = compile_term(parse_term(COIN_MACHINE_EARLY))
    assert ready_trace_equivalent(graph, graph).equivalent
    assert distinguishing_test(graph, graph) is None
    assert testing.bounded_testing_equivalent(graph, graph, depth=3).equivalent


def test_sides_share_outcomes_only_on_the_same_three_maps():
    graph = compile_term(parse_term(COIN_MACHINE_LATE))
    other_root = next(state for state in graph.kinds if state != graph.root)
    for twin, shared in [
        (replace(graph, root=other_root), True),
        (replace(graph, weighted=dict(graph.weighted)), False),
        (replace(graph, actions=dict(graph.actions)), False),
        (replace(graph, kinds=dict(graph.kinds)), False),
    ]:
        left, right = _outcome_pair(graph, twin)
        assert (left._memo is right._memo) == shared
        assert (left._unit_steps is right._unit_steps) == shared


# --- depth -------------------------------------------------------------------

_STEPS = 10_000


def _chain(steps: int, weight: Fraction, split_first: bool) -> Pts:
    """`steps` a-steps ending in a menu {b} with probability `weight` and
    {} otherwise: split by a coin after the chain, or before it into two
    chains that look alike until their ends."""
    kinds, actions, weighted = {}, [], []
    if not split_first:
        for state in range(steps):
            kinds[state] = "n"
            actions.append((state, "a", state + 1))
        coin, offer, dead, end = steps, steps + 1, steps + 2, steps + 3
        kinds.update({coin: "p", offer: "n", dead: "n", end: "n"})
        weighted += [(coin, weight, offer), (coin, 1 - weight, dead)]
        actions.append((offer, "b", end))
        return build({"a", "b"}, kinds, actions, weighted, 0)
    root = 0
    kinds[root] = "p"
    starts = []
    for branch in range(2):
        base = 1 + branch * (steps + 2)
        starts.append(base)
        for state in range(base, base + steps):
            kinds[state] = "n"
            actions.append((state, "a", state + 1))
        kinds[base + steps] = "n"
        if branch == 0:
            kinds[base + steps + 1] = "n"
            actions.append((base + steps, "b", base + steps + 1))
    weighted += [(root, weight, starts[0]), (root, 1 - weight, starts[1])]
    return build({"a", "b"}, kinds, actions, weighted, root)


def test_deep_chains_are_decided_without_recursion():
    late = _chain(_STEPS, F(1, 3), split_first=False)
    early = _chain(_STEPS, F(1, 3), split_first=True)
    other = _chain(_STEPS, F(1, 2), split_first=True)
    assert late.action_depth == early.action_depth == _STEPS + 1

    assert ready_trace_equivalent(late, early).equivalent
    assert distinguishing_test(late, early) is None

    verdict = ready_trace_equivalent(late, other)
    assert not verdict.equivalent
    assert len(verdict.trace) == _STEPS + 1
    assert verdict.trace.actions == ("a",) * _STEPS
    assert verdict.trace.menus[-1] == frozenset()
    assert (verdict.left_probability, verdict.right_probability) == (F(2, 3), F(1, 2))
    assert trace_probability(late, verdict.trace) == F(2, 3)
    assert trace_probability(other, verdict.trace) == F(1, 2)


def test_deep_chain_pair_gets_a_witness():
    late = _chain(_STEPS, F(1, 3), split_first=False)
    other = _chain(_STEPS, F(1, 2), split_first=True)
    witness = distinguishing_test(late, other)
    # the chain's steps, then a probe of both actions where the menus differ
    for _ in range(_STEPS):
        (label, witness), = witness.branches
        assert label == "a"
    assert witness == parse_test("a->w [] b->w")


def test_ready_traces_of_a_deep_chain():
    steps = 3_000
    chain = _chain(steps, F(1, 3), split_first=False)
    traces = list(iter_ready_traces(chain))
    assert len(traces) == steps + 3
    for length, (trace, probability) in enumerate(traces[:steps], start=1):
        assert trace.menus == (frozenset("a"),) * length
        assert trace.actions == ("a",) * (length - 1)
        assert probability == 1
    tails = [(trace.menus[steps:], trace.actions[steps:], p) for trace, p in traces[steps:]]
    assert tails == [
        ((frozenset(),), (), F(2, 3)),
        ((frozenset("b"),), (), F(1, 3)),
        ((frozenset("b"), frozenset()), ("b",), F(1, 3)),
    ]
    assert trace_probability(chain, traces[-1][0]) == F(1, 3)


def test_tree_signature_of_a_deep_chain():
    signature = tree_signature(_chain(_STEPS, F(1, 3), split_first=False))
    depth = 0
    while signature[1]:
        signature = signature[1][0][1]
        depth += 1
    assert depth == _STEPS + 2


def test_tree_signature_of_a_deep_coin_split():
    """Both branches of the 1/2-1/2 coin share a weight, so their order
    comes from the digests, not from comparing the deep signatures."""
    coin, weights = tree_signature(_chain(_STEPS, F(1, 2), split_first=True))
    assert coin == "p"
    assert [weight for weight, _ in weights] == [F(1, 2), F(1, 2)]
    depths = []
    for _, signature in weights:
        depth = 0
        while signature[1]:
            signature = signature[1][0][1]
            depth += 1
        depths.append(depth)
    assert sorted(depths) == [_STEPS, _STEPS + 1]


def test_tree_signature_of_an_early_coin_chain_takes_linear_time():
    """Five early coin machines under |[]| flip 32 equally weighted ways at
    the root over 1,025 shared states; ordering those siblings by unfolding
    their signatures took tens of seconds."""
    copies = [
        f"p{{1/2:(h{i}->p{i}->0 [] t{i}->0), 1/2:(h{i}->0 [] t{i}->p{i}->0)}}"
        for i in range(5)
    ]
    graph = compile_term(parse_term(" |[]| ".join(f"({copy})" for copy in copies)))
    assert len(graph.kinds) == 1025
    started = time.perf_counter()
    coin, branches = tree_signature(graph)
    assert time.perf_counter() - started < 5
    assert coin == "p" and len(branches) == 32
    assert {weight for weight, _ in branches} == {F(1, 32)}
