"""Testing semantics: outcomes, enumeration, bounded search, synthesis."""

import random
import time
from fractions import Fraction
from itertools import combinations, product

import pytest

from probproc.fixtures import (
    COIN_MACHINE_EARLY,
    COIN_MACHINE_LATE,
    COIN_PROBE_TEST,
    COIN_USER_TEST,
    MIXED_FOLLOWUP_FIRST,
    MIXED_FOLLOWUP_PROBE,
    MIXED_FOLLOWUP_SECOND,
)
from probproc.harness import (
    GenConfig,
    _budget_depth,
    _random_term,
    equivalent_pair,
    random_context,
    random_priority_order,
    random_term,
)
from probproc.parser import parse_term, parse_test
from probproc.pts import Pts, validate
from probproc.ratfunc import RationalFn
from probproc.readytrace import menu_distribution, ready_trace_equivalent
from probproc.semantics import _Compiler, compile_term
from probproc.terms import (
    EMPTY_ORDER,
    ExternalChoice,
    Priority,
    ProbChoice,
    SharedPar,
    SyncPar,
    alphabet,
    has_prob_choice,
    prefix,
    render,
    subterms,
    success,
)
from probproc.testing import (
    _Outcomes,
    _differing_depth,
    _exact_depth_tests,
    _iter_exact_depth_tests,
    _shape,
    count_tests,
    distinguishing_test,
    relevant_universes,
    term_action_depth,
    apply_test,
    bounded_testing_equivalent,
)

from helpers import build, iter_ready_traces

F = Fraction
var = RationalFn.var
scalar = RationalFn.scalar
half = scalar(F(1, 2))


def graph(text: str) -> Pts:
    return compile_term(parse_term(text))


def run(process_text: str, test_text: str) -> RationalFn:
    return apply_test(graph(process_text), compile_term(parse_test(test_text)))


def iter_tests_over(universes, max_depth: int):
    """Every canonical test of action depth <= max_depth whose actions at
    each nesting level come from that level's universe, in the order the
    bounded search enumerates them."""
    memo: dict = {}
    for depth in range(max_depth + 1):
        yield from _iter_exact_depth_tests(universes, 0, depth, memo)


def iter_tests(labels, max_depth: int):
    """Every canonical test over the labels of action depth <= max_depth."""
    return iter_tests_over((frozenset(labels),) * max_depth, max_depth)


def test_user_guessing_wins_half_the_time():
    assert run(COIN_MACHINE_EARLY, COIN_USER_TEST) == half
    assert run(COIN_MACHINE_LATE, COIN_USER_TEST) == half


def test_one_sided_probe_yields_symbolic_outcome():
    h, t = var("h"), var("t")
    expected = (h + scalar(2) * t) / (scalar(2) * (h + t))
    early = run(COIN_MACHINE_EARLY, COIN_PROBE_TEST)
    late = run(COIN_MACHINE_LATE, COIN_PROBE_TEST)
    assert early == expected
    assert late == expected
    assert early == late
    assert str(early) == "(h + 2*t) / (2*h + 2*t)"


def test_disjoint_menus_score_zero():
    assert run("a->0", "b->w") == RationalFn.zero()


def test_probabilistic_test_mixes_outcomes():
    # test-side branching mixes outcomes once the process side is settled
    assert run("a->0", "p{1/2:a->w, 1/2:b->w}") == half
    # when both sides branch, the process side resolves first
    both = run("p{1/2:a->0, 1/2:b->0}", "p{1/2:a->w, 1/2:b->w}")
    # by hand: each process branch meets the halved test arms, scoring 1/2
    assert both == half


def test_success_beside_other_branches_dominates():
    assert run("a->b->0", "a->0 [] w") == RationalFn.one()
    assert run("0", "a->w [] w") == RationalFn.one()


def test_success_test_scores_one_everywhere():
    rng = random.Random(3)
    cfg = GenConfig(alphabet_size=3, max_depth=3, seed=3)
    success_graph = compile_term(parse_test("w"))
    for _ in range(50):
        pts = compile_term(random_term(cfg, rng))
        assert apply_test(pts, success_graph) == RationalFn.one()


def test_outcome_at_all_ones_is_a_probability():
    rng = random.Random(5)
    cfg = GenConfig(alphabet_size=2, max_depth=3, seed=5)
    probes = [compile_term(t) for t in iter_tests(("a", "b"), 2)]
    for _ in range(40):
        pts = compile_term(random_term(cfg, rng))
        for probe in probes[:12]:
            value = apply_test(pts, probe).evaluate(
                {name: 1 for name in pts.alphabet}
            )
            assert 0 <= value <= 1


def _hand_unrolled_outcomes():
    """The two mixed-followup outcomes computed step by step, without the
    outcome recursion: each synchronization contributes label/sum(common),
    success contributes one, and the root mixes its halves."""
    a, b = var("a"), var("b")
    common = a + b

    # first machine, branch {a,b}: a succeeds at once, b then c succeeds
    first_ab = (a / common) * scalar(1) + (b / common) * scalar(1)
    # first machine, branch {b,e}: only b is offered by the probe, then d
    # meets c->w and scores zero
    first_be = scalar(1) * RationalFn.zero()
    first = half * first_ab + half * first_be

    # second machine, branch {a,b}: a succeeds, b then d meets c->w: zero
    second_ab = (a / common) * scalar(1) + (b / common) * RationalFn.zero()
    # second machine, branch {b,e}: b then c succeeds
    second_be = scalar(1) * scalar(1)
    second = half * second_ab + half * second_be
    return first, second


def test_probe_outcomes_match_hand_unrolled_oracle():
    first, second = _hand_unrolled_outcomes()
    assert first == half
    a, b = var("a"), var("b")
    assert second == half * (a / (a + b)) + half
    assert run(MIXED_FOLLOWUP_FIRST, MIXED_FOLLOWUP_PROBE) == first
    assert run(MIXED_FOLLOWUP_SECOND, MIXED_FOLLOWUP_PROBE) == second
    assert first != second


def test_enumeration_singleton_alphabet_depth_one():
    tests = [render(t) for t in iter_tests(("a",), 1)]
    assert tests == ["w", "a->w"]


def test_enumeration_two_letters_depth_one():
    tests = [render(t) for t in iter_tests(("a", "b"), 1)]
    assert tests == ["w", "a->w", "b->w", "a->w [] b->w"]


def test_enumeration_empty_alphabet():
    assert [render(t) for t in iter_tests((), 3)] == ["w"]


def test_enumeration_counts_and_uniqueness():
    alphabet = ("a", "b")
    for depth in (1, 2, 3):
        tests = list(iter_tests(alphabet, depth))
        assert len(tests) == count_tests((frozenset(alphabet),) * depth, depth)
        assert len(set(tests)) == len(tests)
    assert len(list(iter_tests(alphabet, 2))) == 25


def test_enumeration_respects_per_level_universes():
    universes = (frozenset({"a"}), frozenset(), frozenset({"b"}))
    tests = [render(t) for t in iter_tests_over(universes, 3)]
    # nothing can continue below the empty middle level
    assert tests == ["w", "a->w"]
    assert count_tests(universes, 3) == 2


def test_count_tests_caps_astronomical_counts():
    # Each level squares the count: at 60 levels it has about 2^60 digits.
    wide = (frozenset("ab"),) * 60
    assert count_tests(wide, 60, cap=10**6) == 10**6 + 1
    assert [count_tests(wide, depth) for depth in range(5)] == [1, 4, 25, 676, 458329]
    assert count_tests(wide, 4, cap=458329) == 458329
    assert count_tests(wide, 4, cap=1000) == 1001
    # An empty level above cuts everything below it off.
    assert count_tests((frozenset(),) + wide, 60, cap=10) == 1
    assert count_tests(wide, -1) == 0


def test_bounded_search_rejects_negative_depth_and_over_budget():
    machine = graph(COIN_MACHINE_EARLY)
    with pytest.raises(ValueError, match="non-negative"):
        bounded_testing_equivalent(machine, machine, depth=-1)
    size = count_tests(relevant_universes(machine, machine, 3), 3)
    with pytest.raises(ValueError, match=f"has {size} tests, over the budget of {size - 1}"):
        bounded_testing_equivalent(machine, machine, depth=3, budget=size - 1)
    assert bounded_testing_equivalent(machine, machine, depth=3, budget=size).equivalent


def test_bounded_equivalence_of_coin_machines():
    verdict = bounded_testing_equivalent(graph(COIN_MACHINE_EARLY), graph(COIN_MACHINE_LATE), depth=3)
    assert verdict.equivalent
    assert verdict.depth == 3


def test_bounded_equivalence_finds_the_published_probe():
    verdict = bounded_testing_equivalent(
        graph(MIXED_FOLLOWUP_FIRST), graph(MIXED_FOLLOWUP_SECOND), depth=2
    )
    assert not verdict.equivalent
    assert render(verdict.test) == MIXED_FOLLOWUP_PROBE
    assert verdict.left_result == half
    a, b = var("a"), var("b")
    assert verdict.right_result == half * (a / (a + b)) + half


def test_bounded_equivalence_is_reflexive():
    machine = graph(COIN_MACHINE_EARLY)
    for depth in (1, 2, 4):
        assert bounded_testing_equivalent(machine, machine, depth=depth).equivalent


def test_default_depth_is_action_depth_plus_one():
    verdict = bounded_testing_equivalent(graph("a->b->0"), graph("a->c->0"))
    assert verdict.depth == 3
    assert not verdict.equivalent


def test_bounded_equivalence_across_different_alphabets():
    verdict = bounded_testing_equivalent(graph("a->0"), graph("b->0"), depth=1)
    assert not verdict.equivalent
    assert render(verdict.test) == "a->w"
    assert verdict.left_result == RationalFn.one()
    assert verdict.right_result == RationalFn.zero()


def test_synthesis_on_the_mixed_pair():
    left, right = graph(MIXED_FOLLOWUP_FIRST), graph(MIXED_FOLLOWUP_SECOND)
    witness = distinguishing_test(left, right)
    assert witness is not None
    assert not has_prob_choice(witness)
    compiled = compile_term(witness)
    assert apply_test(left, compiled) != apply_test(right, compiled)


def test_synthesis_returns_none_for_equivalent_processes():
    machine = graph(COIN_MACHINE_EARLY)
    assert distinguishing_test(machine, machine) is None
    assert distinguishing_test(machine, graph(COIN_MACHINE_LATE)) is None


def test_synthesis_base_case_probes_outside_the_menu():
    # menu distributions differ at {a}: probing b alone separates them
    left = graph("a->0")
    right = graph("p{1/2:a->0, 1/2:b->0}")
    witness = distinguishing_test(left, right)
    assert witness is not None
    assert render(witness) == "b->w"


def _numeric_outcome(process: Pts, test: Pts, point: dict) -> F:
    """Independent oracle: the outcome recursion evaluated directly with
    Fractions at a fixed point, bypassing the symbolic engine entirely."""
    from probproc.pts import OMEGA

    def run(s: int, t: int) -> F:
        if test.kinds[t] == "n" and OMEGA in test.menu(t):
            return F(1)
        if process.kinds[s] == "p":
            return sum(
                (w * run(s2, t) for w, s2 in process.weighted[s]), F(0)
            )
        if test.kinds[t] == "p":
            return sum((w * run(s, t2) for w, t2 in test.weighted[t]), F(0))
        common = sorted((process.menu(s) & test.menu(t)) - {OMEGA})
        if not common:
            return F(0)
        total = sum(point[label] for label in common)
        return sum(
            (point[label] / total)
            * run(process.actions[s][label], test.actions[t][label])
            for label in common
        )

    return run(process.root, test.root)


def test_symbolic_outcome_matches_independent_numeric_recursion():
    rng = random.Random(19)
    cfg = GenConfig(alphabet_size=3, max_depth=3, seed=19)
    probes = list(iter_tests(("a", "b", "c"), 2))
    checked = 0
    for _ in range(40):
        pts = compile_term(random_term(cfg, rng))
        for probe_term in rng.sample(probes, 15):
            probe = compile_term(probe_term)
            symbolic = apply_test(pts, probe)
            for _ in range(3):
                point = {
                    name: F(rng.randint(1, 30), rng.randint(1, 30))
                    for name in ("a", "b", "c")
                }
                assert symbolic.evaluate(
                    {k: v for k, v in point.items() if k in symbolic.variables()}
                ) == _numeric_outcome(pts, probe, point)
                checked += 1
    assert checked >= 1000


def test_every_enumerated_test_can_succeed():
    # tests that cannot reach success score zero everywhere and are omitted
    from probproc.pts import OMEGA

    for probe_term in iter_tests(("a", "b"), 2):
        compiled = compile_term(probe_term)
        reaches = any(OMEGA in moves for moves in compiled.actions.values())
        assert reaches


def test_tests_may_use_every_operator():
    # test terms admit the full grammar, not just choices
    outcome = run("a->b->0", "prio(a->w) || a->w")
    assert outcome == RationalFn.one()
    # second arm continues with c, which the process cannot follow
    mixed = run("a->b->0", "p{1/2:a->w, 1/2:(a->c->w |[]| a->0)}")
    assert mixed == half


def test_the_term_evaluator_steps_a_raw_shared_parallel():
    # The evaluator pins a |[]| when it first steps it, as compiling does, so
    # a test term written with |[]| scores what its compiled graph scores.
    process = compile_term(parse_term("a->b"))
    test = parse_test("(a->w) |[]| b")
    assert test.sync is None
    outcome = _Outcomes(process, _Compiler(EMPTY_ORDER)).of(test)
    assert outcome == apply_test(process, compile_term(parse_test("(a->w) |[]| b")))
    assert outcome == RationalFn.one()
    for process_text, test_text in (
        ("a->b->0 [] c", "(a->b->w) |[]| (c [] a->b)"),
        ("p{1/2:a->c, 1/2:b}", "p{1/3:(a->w |[]| c), 2/3:prio(b->w)} |[]| (a [] b)"),
        ("a->(b->0 |[]| c)", "a->((b->w [] c) |[]| (c->w [] b))"),
    ):
        process = compile_term(parse_term(process_text))
        stepped = _Outcomes(process, _Compiler(EMPTY_ORDER)).of(parse_test(test_text))
        assert stepped == apply_test(process, compile_term(parse_test(test_text)))


def test_synthesis_agrees_with_ready_trace_verdicts_on_random_pairs():
    rng = random.Random(11)
    cfg = GenConfig(alphabet_size=2, max_depth=3, seed=11)
    seen_distinguished = 0
    for _ in range(60):
        left = compile_term(random_term(cfg, rng))
        right = compile_term(random_term(cfg, rng))
        witness = distinguishing_test(left, right)
        equivalent = ready_trace_equivalent(left, right).equivalent
        assert (witness is None) == equivalent
        if witness is not None:
            seen_distinguished += 1
            assert not has_prob_choice(witness)
            compiled = compile_term(witness)
            assert apply_test(left, compiled) != apply_test(right, compiled)
            assert term_action_depth(witness) >= 1
    assert seen_distinguished > 20


def test_term_action_depth_survives_deep_chains():
    term = success()
    for _ in range(10_000):
        term = prefix("a", term)
    assert term_action_depth(term) == 10_000


def test_shared_term_evaluator_agrees_with_compiled_tests():
    """Stepping test terms through one memo, in either order, prints exactly
    what running each compiled test graph on its own prints.

    Each enumeration contributes its first and last 60 tests: the shallowest
    and the deepest ones with the widest menus, which share the most subtests.
    """
    rng = random.Random(7)
    cfg = GenConfig(seed=7)
    compiled = {}
    checked = 0
    for _ in range(60):
        term = random_term(cfg, rng)
        pts = compile_term(term)
        tests = list(iter_tests(alphabet(term), 2))
        if len(tests) > 120:
            tests = tests[:60] + tests[-60:]
        expected = []
        for test in tests:
            if test not in compiled:
                compiled[test] = compile_term(test)
            expected.append(str(apply_test(pts, compiled[test])))
        forward = _Outcomes(pts, _Compiler(EMPTY_ORDER))
        assert [str(forward.of(test)) for test in tests] == expected
        backward = _Outcomes(pts, _Compiler(EMPTY_ORDER))
        reversed_outcomes = [str(backward.of(test)) for test in reversed(tests)]
        assert reversed_outcomes[::-1] == expected
        checked += len(tests)
    assert checked > 5000


def test_the_term_stepper_agrees_with_compiled_tests_of_every_operator():
    """A test term built from every operator scores, stepped through the
    compiler, what its compiled graph scores.  The two are compared as
    functions: a compiled test merges weighted steps that reach one target,
    so a few outcomes print as other sums of the same function."""
    cfg = GenConfig(alphabet_size=3, max_depth=3, seed=11)
    rng = random.Random(cfg.seed)
    stepped_kinds = set()
    for _ in range(400):
        pts = compile_term(random_term(cfg, rng))
        test = random_context(cfg, rng)(success())
        compiler = _Compiler(EMPTY_ORDER)
        assert _Outcomes(pts, compiler).of(test) == apply_test(pts, compile_term(test))
        stepped_kinds |= {type(node) for node in compiler._cache}
    assert {ProbChoice, Priority, SyncPar, SharedPar} <= stepped_kinds


def _first_enumerated_difference(left: Pts, right: Pts, depth: int):
    """The first test up to the depth, in enumeration order, whose outcomes
    differ, with both outcomes from `_Outcomes.of`; None when every test
    agrees.  Each pair of polynomials is compared once."""
    steps = _Compiler(EMPTY_ORDER)
    left_outcomes, right_outcomes = _Outcomes(left, steps), _Outcomes(right, steps)
    differ = {}
    for test in iter_tests_over(relevant_universes(left, right, depth), depth):
        out_left, out_right = left_outcomes.of(test), right_outcomes.of(test)
        key = (_shape(out_left), _shape(out_right))
        if key not in differ:
            differ[key] = out_left != out_right
        if differ[key]:
            return test, out_left, out_right
    return None


def _canonical_search(left: Pts, right: Pts, depth: int):
    """The bounded search's verdict, from comparing every test in turn."""
    first = _first_enumerated_difference(left, right, depth)
    if first is None:
        return (True, depth, None, "None", "None")
    test, out_left, out_right = first
    return (False, depth, render(test), str(out_left), str(out_right))


def _searched(left: Pts, right: Pts, depth: int):
    verdict = bounded_testing_equivalent(left, right, depth=depth)
    test = None if verdict.test is None else render(verdict.test)
    return (
        verdict.equivalent, verdict.depth, test,
        str(verdict.left_result), str(verdict.right_result),
    )


def test_weighted_steps_that_chain_are_refused():
    """State 2 is reached by two weighted paths, 1/2 directly and 1/2 * 1/2
    through the probabilistic state 1.  `validate` reports the step to
    state 1, so every analysis refuses the graph in those words; the flat
    term is the way to write it."""
    chain = build(
        alphabet={"a", "b", "c"},
        kinds={0: "p", 1: "p", 2: "n", 3: "n", 4: "n", 5: "n"},
        action_edges=[(2, "a", 4), (2, "b", 5), (3, "a", 5), (4, "c", 5)],
        prob_edges=[(0, F(1, 2), 2), (0, F(1, 2), 1), (1, F(1, 2), 2), (1, F(1, 2), 3)],
        root=0,
    )
    problem = "probabilistic edge targets probabilistic state 1"
    assert validate(chain) == [problem]
    flat = graph("p{3/4:(a->c->0 [] b->0), 1/4:a->0}")
    probe = compile_term(parse_test("a->w"))
    for call in (
        lambda: _Outcomes(chain, _Compiler(EMPTY_ORDER)),
        lambda: _decided(flat, chain, 3),
        lambda: bounded_testing_equivalent(chain, flat),
        lambda: ready_trace_equivalent(flat, chain),
        lambda: distinguishing_test(chain, flat),
        lambda: menu_distribution(chain),
        lambda: apply_test(chain, probe),
        lambda: apply_test(flat, chain),
        lambda: next(iter_ready_traces(chain)),
    ):
        with pytest.raises(ValueError, match=f"^{problem}$"):
            call()


def test_search_matches_canonical_outcomes():
    """The search at the distinguishing depth finds the same first test, and
    prints the same outcomes, as comparing every test in turn."""
    # Outcomes print reduced: both states reach b->0 by a, and the common
    # factor (a + c) of their sum is cancelled.
    process = graph("p{3/4:a->b [] c, 1/4:a->b [] c->c}")
    outcome = _Outcomes(process, _Compiler(EMPTY_ORDER)).of(parse_test("a->w [] c->c->w"))
    assert str(outcome) == "(4*a + c) / (4*a + 4*c)"
    # The first root reaches (a->c->0 [] b->0) by two paths of the term.
    left = graph("p{1/2:p{1/2:(a->c->0 [] b->0), 1/2:a->0}, 1/2:(a->c->0 [] b->0)}")
    for right, equivalent in (
        (graph("p{3/4:(a->c->0 [] b->0), 1/4:a->0}"), True),
        (graph("p{1/2:(a->c->0 [] b->0), 1/2:a->0}"), False),
    ):
        found = _searched(left, right, 3)
        assert found == _canonical_search(left, right, 3)
        assert found[0] == equivalent

    rng = random.Random(2027)
    verdicts = []
    for cfg in (GenConfig(seed=2027), GenConfig(alphabet_size=2, max_depth=3, seed=2027)):
        for index in range(40):
            order = random_priority_order(cfg, rng)
            if index % 2:
                pair = equivalent_pair(cfg, rng)
            else:
                pair = random_term(cfg, rng), random_term(cfg, rng)
            left, right = (compile_term(term, order) for term in pair)
            depth = 1
            while depth < 4 and count_tests(
                relevant_universes(left, right, depth + 1), depth + 1
            ) <= 200:
                depth += 1
            expected = _canonical_search(left, right, depth)
            assert _searched(left, right, depth) == expected
            verdicts.append(expected[0])
    assert 20 < verdicts.count(True) < 60


def _coincidence_pairs(cfg: GenConfig, n: int):
    """Compiled pairs drawn the way the coincidence suite draws them:
    equivalent pairs and independent random pairs alternately."""
    rng = random.Random(cfg.seed)
    for index in range(n):
        sub = random.Random(rng.getrandbits(64))
        order = random_priority_order(cfg, sub)
        if index % 2 == 0:
            pair = equivalent_pair(cfg, sub)
        else:
            pair = _random_term(cfg, sub, cfg.max_depth), _random_term(cfg, sub, cfg.max_depth)
        yield tuple(compile_term(term, order) for term in pair)


def _decided(left: Pts, right: Pts, depth: int):
    steps = _Compiler(EMPTY_ORDER)
    return _differing_depth(_Outcomes(left, steps), _Outcomes(right, steps), depth)


@pytest.mark.parametrize(
    "cfg, n",
    [(GenConfig(alphabet_size=2, max_depth=3, seed=20260809), 100), (GenConfig(seed=7), 40)],
)
def test_decider_agrees_with_enumeration_at_the_budget_depth(cfg, n):
    """The functional decider gives the enumeration's verdict, its depth is
    that of the first differing test, and the search finds that test."""
    distinguished = 0
    for left, right in _coincidence_pairs(cfg, n):
        depth = _budget_depth(left, right)
        first = _first_enumerated_difference(left, right, depth)
        found = _decided(left, right, depth)
        verdict = bounded_testing_equivalent(left, right, depth=depth)
        if first is None:
            assert found is None and verdict.equivalent
            continue
        distinguished += 1
        assert found == term_action_depth(first[0])
        assert verdict.test == first[0]
    assert n // 3 < distinguished < n - n // 3


@pytest.mark.parametrize(
    "cfg, cut",
    [
        (GenConfig(alphabet_size=2, max_depth=3, seed=20260809), 3),
        (GenConfig(seed=7), 48),
        (GenConfig(alphabet_size=3, max_depth=3, seed=5), 45),
    ],
)
def test_decider_matches_ready_traces_at_the_complete_depth(cfg, cut):
    """The paper's coincidence at full depth, also for the pairs whose
    enumeration the coincidence suite's budget cuts short."""
    shallower = equivalent = 0
    for left, right in _coincidence_pairs(cfg, 100):
        complete = max(left.action_depth, right.action_depth) + 1
        shallower += _budget_depth(left, right) < complete
        found = _decided(left, right, complete)
        assert (found is None) == ready_trace_equivalent(left, right).equivalent
        equivalent += found is None
    assert shallower == cut
    assert 30 < equivalent < 70


def test_decider_handles_a_pair_with_astronomically_many_tests():
    # 10004000600040001 tests up to depth 5, which `equiv` refuses to
    # enumerate; the first differing test is d->a->b->w.
    left = graph("a->b->c->d [] b->c [] c->d [] d->a")
    right = graph("a->b->c->d [] b->c [] c->d [] d->a->b")
    started = time.perf_counter()
    assert _decided(left, right, 5) == 3
    assert _decided(left, right, 2) is None
    assert _decided(left, left, 5) is None
    assert time.perf_counter() - started < 1


def test_first_differing_test_comes_before_the_rest_of_its_depth_is_listed():
    # Depth 3 holds 153,566,715,855 tests; the first differing one follows
    # three blocks of 609, so it is found only if they are generated lazily.
    left = graph("a->b->c->d [] b->c [] c->d [] d->a")
    right = graph("a->b->c->d [] b->c [] c->d [] d->a->b")
    started = time.perf_counter()
    verdict = bounded_testing_equivalent(left, right)
    assert time.perf_counter() - started < 1
    assert not verdict.equivalent
    assert verdict.test == parse_test("d->a->b->w")


@pytest.mark.parametrize(
    "left, right, depth, expected",
    [
        # Tests of depth 1 agree; a->b->w is the first that differs.
        ("a->b->0", "a->c->0", 3, 2),
        # Branch a differs at depth 2 and branch b at depth 3: the smallest
        # counts, not the last one found.
        ("a->c->0 [] b->d->e->0", "a->x->0 [] b->d->f->0", 4, 2),
        # Below probabilistic roots every label set leads to the same maps.
        # The pair (d->e, d->f) is met first below a->c with one step left,
        # where it agrees, and then below b with two steps left.
        ("p{1/2:a->c->d->e, 1/2:b->d->e}", "p{1/2:a->c->d->f, 1/2:b->d->f}", 3, 3),
        # One state on one side meets an equal and an unequal partner.
        ("p{1/2:a->c, 1/2:b->c}", "p{1/2:a->c, 1/2:b->d}", 3, 2),
        ("p{1/2:a->c, 1/2:b->d}", "p{1/2:a->c, 1/2:b->c}", 3, 2),
    ],
)
def test_decider_depths_on_small_pairs(left, right, depth, expected):
    left, right = graph(left), graph(right)
    assert _decided(left, right, depth) == expected
    assert _decided(left, right, expected - 1) is None
    verdict = bounded_testing_equivalent(left, right, depth=depth)
    assert term_action_depth(verdict.test) == expected


def _tests_without_memo(universes, level, depth):
    """Every canonical test of exact depth, listed afresh at each call."""
    if depth == 0:
        return [success()]
    if level >= len(universes) or not universes[level]:
        return []
    options = [
        t for d in range(depth) for t in _tests_without_memo(universes, level + 1, d)
    ]
    depths = [term_action_depth(t) for t in options]
    out = []
    labels = sorted(universes[level])
    for size in range(1, len(labels) + 1):
        for chosen in combinations(labels, size):
            for combo in product(range(len(options)), repeat=size):
                if max(depths[i] for i in combo) == depth - 1:
                    out.append(
                        ExternalChoice(tuple(zip(chosen, (options[i] for i in combo))))
                    )
    return out


def test_enumeration_shares_equal_subtests_across_levels():
    ab, a = frozenset("ab"), frozenset("a")
    for universes in ((ab, ab, ab), (ab, a, ab), (a, ab, frozenset(), ab)):
        for depth in range(len(universes) + 1):
            memo = {}
            tests = _exact_depth_tests(universes, 0, depth, memo)
            assert tests == _tests_without_memo(universes, 0, depth)
    # Every level below the root reaches universes ({a, b},) within the
    # remaining depth, so equal subtests at levels 1 and 2 are one object.
    memo = {}
    objects = {}
    for test in _exact_depth_tests((ab, ab, ab), 0, 3, memo):
        for node in subterms(test):
            objects.setdefault(node, set()).add(id(node))
    assert all(len(ids) == 1 for ids in objects.values())
