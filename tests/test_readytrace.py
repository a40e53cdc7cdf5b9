"""Observation probabilities: distributions, traces, and equivalence."""

import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from probproc import readytrace
from probproc.fixtures import (
    COIN_MACHINE_EARLY,
    COIN_MACHINE_LATE,
    MENU_CONDITIONING_EXAMPLE,
    MIXED_FOLLOWUP_FIRST,
    MIXED_FOLLOWUP_SECOND,
)
from probproc.harness import GenConfig, random_term, raw_trace_probability
from probproc.parser import parse_term
from probproc.pts import CyclicGraphError, Pts
from probproc.readytrace import (
    ReadyTrace,
    UNDEFINED,
    menu_distribution,
    parse_trace,
    ready_trace_equivalent,
    trace_probability,
)
from probproc.semantics import compile_pair, compile_term

from helpers import build, derived_process, iter_ready_traces

F = Fraction


def graph(text: str) -> Pts:
    return compile_term(parse_term(text))


def menus(*labels: str) -> frozenset:
    return frozenset(labels)


def test_menu_distribution_of_conditioning_example():
    dist = menu_distribution(graph(MENU_CONDITIONING_EXAMPLE))
    assert dist == {
        menus("a", "b"): F(1, 2),
        menus("a", "c"): F(1, 4),
        menus("a", "e"): F(1, 4),
    }


def test_menu_distribution_degenerate_cases():
    assert menu_distribution(graph("0")) == {frozenset(): F(1)}
    assert menu_distribution(graph("h->0 [] t->0")) == {menus("h", "t"): F(1)}


def test_trace_probability_separates_the_mixed_pair():
    trace = ReadyTrace((menus("a", "b"), menus("c")), ("b",))
    assert trace_probability(graph(MIXED_FOLLOWUP_FIRST), trace) == F(1, 2)
    assert trace_probability(graph(MIXED_FOLLOWUP_SECOND), trace) == F(0)


def conditional_menu_probability(pts: Pts, trace: ReadyTrace):
    """Probability of the final menu given the entire earlier history, read
    off the position table; undefined when the history has probability zero."""
    table = pts.positions
    pos = table.start(pts.root)
    for menu, action in zip(trace.menus, trace.actions):
        if menu not in table.menus[pos]:
            return UNDEFINED
        pos = table.child(pos, menu, action)
    return F(table.menus[pos].get(trace.menus[-1], 0), table.totals[pos])


def test_conditional_menu_probability_renormalizes():
    trace = ReadyTrace((menus("a", "b"), menus("c")), ("b",))
    assert conditional_menu_probability(graph(MIXED_FOLLOWUP_FIRST), trace) == F(1)
    assert conditional_menu_probability(graph(MIXED_FOLLOWUP_SECOND), trace) == F(0)


def test_zero_probability_prefix_is_undefined():
    trace = ReadyTrace((menus("h"), menus("p")), ("h",))
    machine = graph(COIN_MACHINE_EARLY)  # initial menu is always {h,t}
    assert trace_probability(machine, trace) is UNDEFINED
    assert conditional_menu_probability(machine, trace) is UNDEFINED
    # a zero for the final menu alone stays a defined zero
    tail = ReadyTrace((menus("h", "t"), menus("q_nonexistent")), ("t",))
    with pytest.raises(ValueError):
        ReadyTrace((menus("h"),), ("h",))
    assert trace_probability(machine, tail) == F(0)


def test_trace_invariants_enforced():
    with pytest.raises(ValueError):
        ReadyTrace((menus("a", "b"), menus("c")), ("z",))
    with pytest.raises(ValueError):
        ReadyTrace((), ())


def test_trace_render_and_parse():
    trace = ReadyTrace((menus("h", "t"), menus("p"), frozenset()), ("h", "p"))
    assert trace.render() == "{h,t} -h-> {p} -p-> {}"
    assert parse_trace(trace.render()) == trace


def test_trace_round_trip_on_enumerated_traces():
    rng = random.Random(83)
    cfg = GenConfig(alphabet_size=3, max_depth=3, seed=83)
    seen = 0
    for _ in range(60):
        pts = compile_term(random_term(cfg, rng))
        for trace, _ in iter_ready_traces(pts, max_len=3):
            assert parse_trace(trace.render()) == trace
            seen += 1
    assert seen > 200


def test_enumerate_traces_of_deadlock():
    out = list(iter_ready_traces(graph("0")))
    assert out == [(ReadyTrace((frozenset(),), ()), F(1))]


def test_enumerate_traces_of_single_action():
    out = list(iter_ready_traces(graph("a->0"), max_len=2))
    assert out == [
        (ReadyTrace((menus("a"),), ()), F(1)),
        (ReadyTrace((menus("a"), frozenset()), ("a",)), F(1)),
    ]


def test_enumerate_traces_of_coin_machine():
    found = dict(iter_ready_traces(graph(COIN_MACHINE_EARLY), max_len=2))
    key = ReadyTrace((menus("h", "t"), menus("p")), ("h",))
    assert found[key] == F(1, 2)
    # enumeration covers exactly the positive-probability traces
    assert all(p > 0 for p in found.values())


def test_equivalence_of_the_two_coin_machines():
    verdict = ready_trace_equivalent(graph(COIN_MACHINE_EARLY), graph(COIN_MACHINE_LATE))
    assert verdict.equivalent


def test_distinguishing_trace_of_the_mixed_pair():
    verdict = ready_trace_equivalent(
        graph(MIXED_FOLLOWUP_FIRST), graph(MIXED_FOLLOWUP_SECOND)
    )
    assert not verdict.equivalent
    assert verdict.trace == ReadyTrace((menus("a", "b"), menus("c")), ("b",))
    assert verdict.left_probability == F(1, 2)
    assert verdict.right_probability == F(0)


def test_equivalence_is_reflexive():
    machine = graph(COIN_MACHINE_EARLY)
    assert ready_trace_equivalent(machine, machine).equivalent


def _coin_chain(machine: str, k: int) -> str:
    """k copies of a coin machine under |[]|, copy i's actions suffixed i,
    so the copies share no action and interleave."""
    copies = (re.sub(r"\b([htp])(?=->)", rf"\g<1>{i}", machine) for i in range(k))
    return " |[]| ".join(f"({copy})" for copy in copies)


@pytest.mark.parametrize("k, separate, joint", [(2, 12, 5), (3, 47, 28), (4, 174, 127)])
def test_each_position_pair_is_expanded_once(monkeypatch, k, separate, joint):
    """A chain's pairs are reached along many interleavings; the walk keeps
    each pair it finds equivalent, so it expands every pair once, on two
    separate graphs and on the one graph of `compile_pair`."""
    left, right = (
        parse_term(_coin_chain(machine, k)) for machine in (COIN_MACHINE_EARLY, COIN_MACHINE_LATE)
    )
    calls = Counter()
    first_differing_menu = readytrace._first_differing_menu

    def counting(lt, lpos, rt, rpos):
        calls[lpos, rpos] += 1
        return first_differing_menu(lt, lpos, rt, rpos)

    monkeypatch.setattr(readytrace, "_first_differing_menu", counting)
    for graphs, pairs in [
        ((compile_term(left), compile_term(right)), separate),
        (compile_pair(left, right), joint),
    ]:
        calls.clear()
        assert ready_trace_equivalent(*graphs).equivalent
        assert (len(calls), set(calls.values())) == (pairs, {1})


def test_cyclic_inputs_rejected():
    loop = build(
        alphabet={"a"},
        kinds={0: "n"},
        action_edges=[(0, "a", 0)],
        prob_edges=[],
        root=0,
    )
    with pytest.raises(CyclicGraphError):
        menu_distribution(loop)
    with pytest.raises(CyclicGraphError):
        ready_trace_equivalent(loop, loop)


def test_equivalence_relation_on_random_terms():
    rng = random.Random(17)
    cfg = GenConfig(alphabet_size=2, max_depth=3, seed=17)
    graphs = [compile_term(random_term(cfg, rng)) for _ in range(12)]
    verdicts = {}
    for i, left in enumerate(graphs):
        for j, right in enumerate(graphs):
            verdicts[(i, j)] = ready_trace_equivalent(left, right).equivalent
    for i in range(len(graphs)):
        assert verdicts[(i, i)]
        for j in range(len(graphs)):
            assert verdicts[(i, j)] == verdicts[(j, i)]
            for k in range(len(graphs)):
                if verdicts[(i, j)] and verdicts[(j, k)]:
                    assert verdicts[(i, k)]


def test_conditioning_consistency_on_random_terms():
    # the probability of a longer trace factors through the derived process
    rng = random.Random(23)
    cfg = GenConfig(alphabet_size=3, max_depth=3, seed=23)
    checked = 0
    for _ in range(300):
        pts = compile_term(random_term(cfg, rng))
        for trace, _ in iter_ready_traces(pts, max_len=3):
            if len(trace) < 2:
                continue
            first_menu, first_action = trace.menus[0], trace.actions[0]
            rest = ReadyTrace(trace.menus[1:], trace.actions[1:])
            after = derived_process(pts, pts.root, first_menu, first_action)
            whole = trace_probability(pts, trace)
            parts = menu_distribution(pts)[first_menu] * trace_probability(after, rest)
            assert whole == parts
            if len(rest) >= 2:
                assert conditional_menu_probability(
                    pts, trace
                ) == conditional_menu_probability(after, rest)
            checked += 1
    assert checked > 200


def test_chained_probability_matches_brute_force_walk():
    rng = random.Random(29)
    cfg = GenConfig(alphabet_size=3, max_depth=3, seed=29)
    for _ in range(200):
        pts = compile_term(random_term(cfg, rng))
        for trace, chained in iter_ready_traces(pts, max_len=4):
            assert chained == raw_trace_probability(pts, trace)
            assert trace_probability(pts, trace) == chained


def test_enumeration_covers_exactly_the_brute_force_support():
    # every alternation the raw graph can realize appears in the stream,
    # and nothing else does
    from itertools import combinations

    rng = random.Random(77)
    cfg = GenConfig(alphabet_size=2, max_depth=2, seed=77)
    for _ in range(80):
        pts = compile_term(random_term(cfg, rng))
        enumerated = {trace for trace, _ in iter_ready_traces(pts, max_len=2)}
        alphabet = sorted(pts.alphabet)
        menus = [
            frozenset(subset)
            for size in range(len(alphabet) + 1)
            for subset in combinations(alphabet, size)
        ]
        realized = set()
        for first in menus:
            single = ReadyTrace((first,), ())
            if raw_trace_probability(pts, single) > 0:
                realized.add(single)
            for action in sorted(first):
                for second in menus:
                    double = ReadyTrace((first, second), (action,))
                    if raw_trace_probability(pts, double) > 0:
                        realized.add(double)
        assert enumerated == realized
