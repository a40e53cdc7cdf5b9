"""Transition-graph structure: validation, menus, conditioning, serialization."""

import json
import random
import re
from fractions import Fraction

import pytest

from probproc.fixtures import COIN_MACHINE_EARLY, COIN_USER_TEST, MENU_CONDITIONING_EXAMPLE
from probproc.harness import GenConfig, random_priority_order, random_term
from probproc.parser import parse_term, parse_test
from probproc.pts import CyclicGraphError, MenuNotOffered, Pts, to_dot, to_json, validate
from probproc.readytrace import (
    ReadyTrace,
    menu_distribution,
    ready_trace_equivalent,
    trace_probability,
)
from probproc.semantics import compile_term
from probproc.testing import apply_test, bounded_testing_equivalent, distinguishing_test

from helpers import build, derived_process, tree_signature

F = Fraction


def coin_machine() -> Pts:
    return compile_term(parse_term(COIN_MACHINE_EARLY))


def test_coin_machine_is_valid():
    assert validate(coin_machine()) == []


def test_weights_must_sum_to_one():
    bad = build(
        alphabet={"a"},
        kinds={0: "p", 1: "n", 2: "n"},
        action_edges=[],
        prob_edges=[(0, F(1, 2), 1), (0, F(1, 3), 2)],
        root=0,
    )
    assert any("sum" in problem for problem in validate(bad))


def test_prob_edge_to_prob_state_reported():
    bad = build(
        alphabet={"a"},
        kinds={0: "p", 1: "p", 2: "n"},
        action_edges=[],
        prob_edges=[(0, F(1), 1), (1, F(1), 2)],
        root=0,
    )
    assert any("targets probabilistic" in problem for problem in validate(bad))


def test_dangling_probabilistic_state_reported():
    bad = build(
        alphabet={"a"}, kinds={0: "p"}, action_edges=[], prob_edges=[], root=0
    )
    assert any("no outgoing" in problem for problem in validate(bad))


def test_cycle_flagged_but_not_fatal():
    loop = build(
        alphabet={"a"},
        kinds={0: "n"},
        action_edges=[(0, "a", 0)],
        prob_edges=[],
        root=0,
    )
    assert any("cycle" in problem for problem in validate(loop))
    with pytest.raises(CyclicGraphError):
        menu_distribution(loop)


_CYCLES = {
    "through a probabilistic edge": build(
        alphabet={"a"},
        kinds={0: "p", 1: "n"},
        action_edges=[(1, "a", 0)],
        prob_edges=[(0, F(1), 1)],
        root=0,
    ),
    "unreachable from the root": build(
        alphabet={"a"},
        kinds={0: "n", 1: "n", 2: "n"},
        action_edges=[(1, "a", 2), (2, "a", 1)],
        prob_edges=[],
        root=0,
    ),
    "self-loop": build(
        alphabet={"a"},
        kinds={0: "n"},
        action_edges=[(0, "a", 0)],
        prob_edges=[],
        root=0,
    ),
}


@pytest.mark.parametrize("cyclic", _CYCLES.values(), ids=_CYCLES.keys())
def test_every_graph_operation_refuses_a_cycle(cyclic):
    assert not cyclic.is_acyclic
    assert validate(cyclic) == ["graph contains a cycle"]
    user = compile_term(parse_test(COIN_USER_TEST))
    machine = coin_machine()
    refusals = [
        lambda: cyclic.action_depth,
        lambda: menu_distribution(cyclic),
        lambda: trace_probability(cyclic, ReadyTrace((frozenset("a"),), ())),
        lambda: ready_trace_equivalent(cyclic, machine),
        lambda: apply_test(cyclic, user),
        lambda: apply_test(machine, cyclic),
        lambda: bounded_testing_equivalent(cyclic, machine),
        lambda: bounded_testing_equivalent(machine, cyclic, depth=1),
        lambda: distinguishing_test(cyclic, machine),
    ]
    for refusal in refusals:
        with pytest.raises(CyclicGraphError):
            refusal()


@pytest.mark.parametrize("edge", [(0, "a", 7), (5, "a", 0)], ids=["(0,a,7)", "(5,a,0)"])
def test_an_edge_with_an_unknown_end_is_reported(edge):
    # Written as maps, validate reports the edge; written as edges, it is refused.
    src, label, dst = edge
    graph = Pts({"a"}, {0: "n"}, {0: {}, src: {label: dst}}, {0: ()}, 0)
    written = f"({src},{label},{dst})"
    assert validate(graph) == [f"action edge {written} uses unknown state"]
    with pytest.raises(ValueError, match=re.escape(f"edge {written} uses unknown state")):
        build({"a"}, {0: "n"}, [edge], [], 0)


def _one_weight(weight: Fraction) -> Pts:
    """A probabilistic root whose one weighted step, of this weight, leads
    to a state offering a."""
    kinds = {0: "p", 1: "n", 2: "n"}
    return Pts({"a"}, kinds, {0: {}, 1: {"a": 2}, 2: {}}, {0: ((weight, 1),), 1: (), 2: ()}, 0)


_WEIGHTS = pytest.mark.parametrize("weight", [F(0), F(3, 2)], ids=["zero", "three halves"])


def _outside(weight: Fraction) -> str:
    return re.escape(f"weight {weight} of edge (0,1) is outside (0,1]")


@_WEIGHTS
def test_a_weight_outside_the_unit_interval_is_reported(weight):
    # validate reports the weight; written as edges, it is refused.
    assert validate(_one_weight(weight))[0] == f"weight {weight} of edge (0,1) is outside (0,1]"
    with pytest.raises(ValueError, match=_outside(weight)):
        build({"a"}, {0: "p", 1: "n", 2: "n"}, [(1, "a", 2)], [(0, weight, 1)], 0)


@_WEIGHTS
def test_menu_distribution_refuses_a_weight_outside_the_unit_interval(weight):
    graph = _one_weight(weight)
    # validate and the writers read the maps, so they still take the graph
    assert validate(graph)[0] == f"weight {weight} of edge (0,1) is outside (0,1]"
    assert to_json(graph) and to_dot(graph)
    with pytest.raises(ValueError, match=_outside(weight)):
        menu_distribution(graph)


@_WEIGHTS
def test_ready_trace_equivalent_refuses_a_weight_outside_the_unit_interval(weight):
    offer = compile_term(parse_term("a"))
    for left, right in ((_one_weight(weight), offer), (offer, _one_weight(weight))):
        with pytest.raises(ValueError, match=_outside(weight)):
            ready_trace_equivalent(left, right)


@_WEIGHTS
def test_apply_test_refuses_a_weight_outside_the_unit_interval(weight):
    probe = compile_term(parse_test("a->w"))
    with pytest.raises(ValueError, match=_outside(weight)):
        apply_test(_one_weight(weight), probe)


def _maps(kinds, actions, weighted, root=0, alphabet=("a", "b")) -> Pts:
    """A graph written as maps, `{}` and `()` for the entries not given."""
    return Pts(
        frozenset(alphabet),
        kinds,
        {state: {} for state in kinds} | actions,
        {state: () for state in kinds} | weighted,
        root,
    )


# One graph per problem that `validate` reports, with its report.
_MALFORMED = {
    "weights summing to 1/2": (
        _one_weight(F(1, 2)),
        ["weights leaving state 0 sum to 1/2, not 1"],
    ),
    "a weight outside (0,1]": (
        _one_weight(F(3, 2)),
        ["weight 3/2 of edge (0,1) is outside (0,1]", "weights leaving state 0 sum to 3/2, not 1"],
    ),
    "a weight that is not a number": (
        _one_weight("1/2"),
        ["weight '1/2' of edge (0,1) is not an int or a Fraction"],
    ),
    "an inexact weight": (
        _one_weight(1.0),
        ["weight 1.0 of edge (0,1) is not an int or a Fraction"],
    ),
    "an action step leaving a probabilistic state": (
        _maps({0: "p", 1: "n"}, {0: {"a": 1}}, {0: ((F(1), 1),)}),
        ["action edge leaves probabilistic state 0"],
    ),
    "a weighted step leaving a nondeterministic state": (
        _maps({0: "n", 1: "n"}, {}, {0: ((F(1), 1),)}),
        ["probabilistic edge leaves nondeterministic state 0"],
    ),
    "a weighted step to a probabilistic state": (
        _maps({0: "p", 1: "p", 2: "n"}, {}, {0: ((F(1), 1),), 1: ((F(1), 2),)}),
        ["probabilistic edge targets probabilistic state 1"],
    ),
    "a probabilistic state without steps": (
        _maps({0: "p"}, {}, {}),
        ["state 0 is probabilistic but has no outgoing edges"],
    ),
    "a label outside the alphabet": (
        _maps({0: "n", 1: "n"}, {0: {"z": 1}}, {}),
        ["label 'z' is not in the alphabet"],
    ),
    "an unknown kind": (
        _maps({0: "x"}, {}, {}),
        ["state 0 has unknown kind 'x'"],
    ),
    "a root that is not a state": (
        _maps({0: "n"}, {}, {}, root=5),
        ["root 5 is not a state"],
    ),
    "a missing map entry": (
        Pts(frozenset({"a"}), {0: "n", 1: "n"}, {0: {"a": 1}}, {0: ()}, 0),
        ["state 1 has no action map", "state 1 has no weighted tuple"],
    ),
    "an action map that is not a map": (
        _maps({0: "n"}, {0: 5}, {}),
        ["action map of state 0 is not a map: 5"],
    ),
    "a weighted tuple that is not of pairs": (
        _maps({0: "p", 1: "n"}, {}, {0: (1,)}),
        ["weighted tuple of state 0 is not a tuple of pairs: (1,)"],
    ),
    "a weighted tuple that is not a tuple": (
        _maps({0: "p", 1: "n"}, {}, {0: 5}),
        ["weighted tuple of state 0 is not a tuple of pairs: 5"],
    ),
    "a weighted successor that cannot be hashed": (
        _maps({0: "p", 1: "n"}, {}, {0: ((F(1), [1]),)}),
        ["probabilistic edge (0,1,[1]) uses unknown state"],
    ),
    "an action successor that cannot be hashed": (
        _maps({0: "n", 1: "n"}, {0: {"a": [1]}}, {}),
        ["action edge (0,a,[1]) uses unknown state"],
    ),
    "a root that cannot be hashed": (
        _maps({0: "n"}, {}, {}, root=[0]),
        ["root [0] is not a state"],
    ),
    "a successor named twice": (
        _maps(
            {0: "p", 1: "n", 2: "n", 3: "n"},
            {1: {"a": 3}, 2: {"b": 3}},
            {0: ((F(1, 4), 1), (F(1, 4), 1), (F(1, 2), 2))},
        ),
        ["weighted tuple of state 0 names successor 1 twice"],
    ),
    "a cycle": (
        _maps({0: "n"}, {0: {"a": 0}}, {}),
        ["graph contains a cycle"],
    ),
}


@pytest.mark.parametrize("graph, problems", _MALFORMED.values(), ids=_MALFORMED.keys())
def test_every_analysis_refuses_a_graph_validate_reports(graph, problems):
    assert validate(graph, allow_success=True) == problems
    # A cycle alone is refused as such; anything else in validate's words.
    error, message = (
        (CyclicGraphError, "operation requires an acyclic graph")
        if problems == ["graph contains a cycle"]
        else (ValueError, "; ".join(problems))
    )
    offer = compile_term(parse_term("a"))
    probe = compile_term(parse_test("a->w"))
    for call in (
        lambda: graph.action_depth,
        lambda: menu_distribution(graph),
        lambda: trace_probability(graph, ReadyTrace((frozenset("a"),), ())),
        lambda: distinguishing_test(graph, offer),
        lambda: distinguishing_test(offer, graph),
        lambda: ready_trace_equivalent(graph, offer),
        lambda: ready_trace_equivalent(offer, graph),
        lambda: bounded_testing_equivalent(graph, offer),
        lambda: bounded_testing_equivalent(offer, graph, depth=1),
        lambda: apply_test(graph, probe),
        lambda: apply_test(offer, graph),
    ):
        with pytest.raises(error) as caught:
            call()
        assert str(caught.value) == message


def test_validate_reads_the_maps_as_they_are_now():
    """A cycle added to a hand-written graph after its first analysis is
    reported, as it is for a fresh graph of the same maps."""
    graph = _maps({0: "n", 1: "n", 2: "n"}, {0: {"a": 1}, 1: {"a": 2}}, {})
    menu_distribution(graph)
    graph.actions[2]["b"] = 1
    assert validate(graph) == ["graph contains a cycle"]
    fresh = _maps(graph.kinds, graph.actions, graph.weighted)
    assert validate(fresh) == ["graph contains a cycle"]


def _naive_action_depth(graph: Pts, state: int) -> int:
    actions = [1 + _naive_action_depth(graph, dst) for dst in graph.actions[state].values()]
    weighted = [_naive_action_depth(graph, dst) for _, dst in graph.weighted[state]]
    return max(actions + weighted, default=0)


@pytest.mark.parametrize(
    "cfg", [GenConfig(alphabet_size=3, max_depth=4, seed=11), GenConfig(4, 3, seed=12)]
)
def test_action_depth_matches_a_recursive_reference(cfg):
    rng = random.Random(cfg.seed)
    for _ in range(200):
        graph = compile_term(random_term(cfg, rng), random_priority_order(cfg, rng))
        assert graph.is_acyclic
        assert graph.action_depth == _naive_action_depth(graph, graph.root)


def test_parallel_prob_edges_merge_at_construction():
    merged = build(
        alphabet={"a"},
        kinds={0: "p", 1: "n"},
        action_edges=[],
        prob_edges=[(0, F(1, 2), 1), (0, F(1, 2), 1)],
        root=0,
    )
    assert merged.weighted[0] == ((F(1), 1),)
    assert validate(merged) == []


def test_menus():
    machine = coin_machine()
    # sole probabilistic root; both its targets offer both buttons
    targets = [t for _, t in machine.weighted[machine.root]]
    for target in targets:
        assert machine.menu(target) == frozenset({"h", "t"})
    deadlock = compile_term(parse_term("0"))
    assert deadlock.menu(deadlock.root) == frozenset()
    with pytest.raises(ValueError):
        machine.menu(machine.root)


def test_derived_nondeterministic_reroots():
    graph = compile_term(parse_term("a->b->0"))
    after = derived_process(graph, graph.root, frozenset({"a"}), "a")
    assert after.menu(after.root) == frozenset({"b"})
    assert validate(after) == []


def test_derived_conditions_and_renormalizes():
    graph = compile_term(parse_term(MENU_CONDITIONING_EXAMPLE))
    after = derived_process(graph, graph.root, frozenset({"a", "b"}), "a")
    weights = sorted(w for w, _ in after.weighted[after.root])
    assert weights == [F(1, 4), F(3, 4)]
    assert validate(after) == []
    # the 1/4 branch continues with c, the 3/4 branch with d
    by_weight = {w: after.menu(t) for w, t in after.weighted[after.root]}
    assert by_weight[F(1, 4)] == frozenset({"c"})
    assert by_weight[F(3, 4)] == frozenset({"d"})


def test_derived_rejects_unoffered_menu():
    graph = compile_term(parse_term(MENU_CONDITIONING_EXAMPLE))
    with pytest.raises(MenuNotOffered):
        derived_process(graph, graph.root, frozenset({"a", "b"}), "b_missing")
    with pytest.raises(MenuNotOffered):
        derived_process(graph, graph.root, frozenset({"b"}), "b")


def test_derived_flattens_probabilistic_successors():
    # conditioning steps through the action and one probabilistic level
    graph = compile_term(parse_term("p{1/2:a->p{1/3:x->0, 2/3:y->0}, 1/2:b->0}"))
    after = derived_process(graph, graph.root, frozenset({"a"}), "a")
    outcome = {after.menu(t): w for w, t in after.weighted[after.root]}
    assert outcome == {frozenset({"x"}): F(1, 3), frozenset({"y"}): F(2, 3)}
    assert validate(after) == []


def test_derived_mixes_flat_and_deep_successors():
    # two branches with one menu; one a-successor is plain, one branches again
    graph = build(
        alphabet={"a", "x", "y"},
        kinds={0: "p", 1: "n", 2: "n", 3: "n", 4: "p", 5: "n", 6: "n"},
        action_edges=[(1, "a", 3), (2, "a", 4)],
        prob_edges=[
            (0, F(1, 2), 1),
            (0, F(1, 2), 2),
            (4, F(1, 4), 5),
            (4, F(3, 4), 6),
        ],
        root=0,
    )
    assert validate(graph) == []
    after = derived_process(graph, 0, frozenset({"a"}), "a")
    weights = {t: w for w, t in after.weighted[after.root]}
    assert weights == {3: F(1, 2), 5: F(1, 8), 6: F(3, 8)}
    assert validate(after) == []


def test_derived_merges_coincident_targets():
    # Two branches with the same menu whose a-successors are one shared state.
    shared = build(
        alphabet={"a"},
        kinds={0: "p", 1: "n", 2: "n", 3: "n"},
        action_edges=[(1, "a", 3), (2, "a", 3)],
        prob_edges=[(0, F(1, 3), 1), (0, F(2, 3), 2)],
        root=0,
    )
    after = derived_process(shared, 0, frozenset({"a"}), "a")

    # oracle: enumerate the conditioned edges without merging, then sum
    unmerged = []
    total = F(1, 3) + F(2, 3)
    for weight, branch in shared.weighted[0]:
        successor = shared.actions[branch]["a"]
        unmerged.append((weight / total, successor))
    summed: dict[int, Fraction] = {}
    for weight, target in unmerged:
        summed[target] = summed.get(target, F(0)) + weight

    assert dict((t, w) for w, t in after.weighted[after.root]) == summed
    assert summed == {3: F(1)}


def test_derived_output_always_validates():
    import random

    from probproc.harness import GenConfig, random_term

    graph = compile_term(parse_term(COIN_MACHINE_EARLY))
    dist_targets = [t for _, t in graph.weighted[graph.root]]
    for target in dist_targets:
        for action in sorted(graph.menu(target)):
            after = derived_process(graph, graph.root, graph.menu(target), action)
            assert validate(after) == []

    rng = random.Random(71)
    cfg = GenConfig(alphabet_size=3, max_depth=3, seed=71)
    checked = 0
    for _ in range(200):
        pts = compile_term(random_term(cfg, rng))
        if pts.kinds[pts.root] == "p":
            menus = {pts.menu(t) for _, t in pts.weighted[pts.root]}
        else:
            menus = {pts.menu(pts.root)}
        for menu in menus:
            for action in sorted(menu):
                after = derived_process(pts, pts.root, menu, action)
                assert validate(after) == []
                checked += 1
    assert checked > 100


def test_menu_of_compiled_test_root():
    user = compile_term(parse_test(COIN_USER_TEST))
    assert user.menu(user.root) == frozenset({"h", "t"})


def _from_json(text: str) -> Pts:
    """The graph that a `to_json` document describes."""
    doc = json.loads(text)
    return build(
        alphabet=doc["alphabet"],
        kinds={state["id"]: state["kind"] for state in doc["states"]},
        action_edges=[(e["from"], e["label"], e["to"]) for e in doc["action_edges"]],
        prob_edges=[(e["from"], Fraction(e["weight"]), e["to"]) for e in doc["prob_edges"]],
        root=doc["root"],
    )


def test_json_round_trip():
    graph = coin_machine()
    again = _from_json(to_json(graph))
    assert tree_signature(again) == tree_signature(graph)
    assert again.alphabet == graph.alphabet
    assert validate(again) == []


def test_json_rejects_dangling_edge():
    # A document whose edge leads to no state is refused when it is read.
    doc = json.loads(to_json(compile_term(parse_term("a->b->0"))))
    doc["action_edges"][0]["to"] = 7
    with pytest.raises(ValueError, match=re.escape("edge (0,a,7) uses unknown state")):
        _from_json(json.dumps(doc))


def test_json_round_trips_compiled_test():
    text = to_json(compile_term(parse_test("a->w")))
    assert to_json(_from_json(text)) == text


def test_dot_output_styles_probabilistic_edges_dashed():
    dot = to_dot(coin_machine())
    assert dot.startswith("digraph")
    assert "style=dashed" in dot
    assert 'label="h"' in dot and 'label="1/2"' in dot
    quoted = build(
        alphabet={'a"b', "c\\"},
        kinds={0: "n", 1: "n", 2: "n"},
        action_edges=[(0, 'a"b', 1), (0, "c\\", 2)],
        prob_edges=[],
        root=0,
    )
    dot = to_dot(quoted, title='x"y')
    assert dot.startswith('digraph "x\\"y" {')
    assert 'label="a\\"b"' in dot and 'label="c\\\\"' in dot


def test_tree_signature_ignores_state_names_only():
    one = compile_term(parse_term("a->b->0"))
    renamed = build(
        alphabet={"a", "b"},
        kinds={7: "n", 8: "n", 9: "n"},
        action_edges=[(7, "a", 8), (8, "b", 9)],
        prob_edges=[],
        root=7,
    )
    assert tree_signature(one) == tree_signature(renamed)
    other = compile_term(parse_term("a->c->0"))
    assert tree_signature(one) != tree_signature(other)
