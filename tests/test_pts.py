"""Transition-graph structure: validation, menus, conditioning, serialization."""

import json
import random
import re
from fractions import Fraction

import pytest

from probproc.fixtures import COIN_MACHINE_EARLY, COIN_USER_TEST, MENU_CONDITIONING_EXAMPLE
from probproc.harness import GenConfig, random_priority_order, random_term
from probproc.parser import parse_term, parse_test
from probproc.pts import (
    CyclicGraphError,
    MenuNotOffered,
    Pts,
    derived_process,
    from_json,
    to_dot,
    to_json,
    tree_signature,
    validate,
)
from probproc.readytrace import iter_ready_traces, ready_trace_equivalent
from probproc.semantics import compile_term
from probproc.testing import apply_test, bounded_testing_equivalent, distinguishing_test

F = Fraction


def coin_machine() -> Pts:
    return compile_term(parse_term(COIN_MACHINE_EARLY))


def test_coin_machine_is_valid():
    assert validate(coin_machine()) == []


def test_weights_must_sum_to_one():
    bad = Pts.build(
        alphabet={"a"},
        kinds={0: "p", 1: "n", 2: "n"},
        action_edges=[],
        prob_edges=[(0, F(1, 2), 1), (0, F(1, 3), 2)],
        root=0,
    )
    assert any("sum" in problem for problem in validate(bad))


def test_reactive_determinism_violation_reported():
    bad = Pts.build(
        alphabet={"a"},
        kinds={0: "n", 1: "n", 2: "n"},
        action_edges=[(0, "a", 1), (0, "a", 2)],
        prob_edges=[],
        root=0,
    )
    assert any("reactive determinism" in problem for problem in validate(bad))


def test_prob_edge_to_prob_state_reported():
    bad = Pts.build(
        alphabet={"a"},
        kinds={0: "p", 1: "p", 2: "n"},
        action_edges=[],
        prob_edges=[(0, F(1), 1), (1, F(1), 2)],
        root=0,
    )
    assert any("targets probabilistic" in problem for problem in validate(bad))


def test_dangling_probabilistic_state_reported():
    bad = Pts.build(
        alphabet={"a"}, kinds={0: "p"}, action_edges=[], prob_edges=[], root=0
    )
    assert any("no outgoing" in problem for problem in validate(bad))


def test_cycle_flagged_but_not_fatal():
    loop = Pts.build(
        alphabet={"a"},
        kinds={0: "n"},
        action_edges=[(0, "a", 0)],
        prob_edges=[],
        root=0,
    )
    assert any("cycle" in problem for problem in validate(loop))
    with pytest.raises(CyclicGraphError):
        derived_process(loop, 0, frozenset({"a"}), "a")


_CYCLES = {
    "through a probabilistic edge": Pts.build(
        alphabet={"a"},
        kinds={0: "p", 1: "n"},
        action_edges=[(1, "a", 0)],
        prob_edges=[(0, F(1), 1)],
        root=0,
    ),
    "unreachable from the root": Pts.build(
        alphabet={"a"},
        kinds={0: "n", 1: "n", 2: "n"},
        action_edges=[(1, "a", 2), (2, "a", 1)],
        prob_edges=[],
        root=0,
    ),
    "self-loop": Pts.build(
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
        lambda: tree_signature(cyclic),
        lambda: next(iter_ready_traces(cyclic)),
        lambda: apply_test(cyclic, user),
        lambda: apply_test(machine, cyclic),
        lambda: bounded_testing_equivalent(cyclic, machine),
        lambda: bounded_testing_equivalent(machine, cyclic, depth=1),
        lambda: distinguishing_test(cyclic, machine),
    ]
    for refusal in refusals:
        with pytest.raises(CyclicGraphError):
            refusal()


# Each graph has one action edge, named by its key, with an end not in `kinds`.
_UNKNOWN_ENDS = {
    "(0,a,7)": Pts.build({"a"}, {0: "n"}, [(0, "a", 7)], [], 0),
    "(5,a,0)": Pts.build({"a"}, {0: "n"}, [(5, "a", 0)], [], 0),
}


@pytest.mark.parametrize("edge", _UNKNOWN_ENDS)
def test_graph_operations_refuse_an_edge_to_an_unknown_state(edge):
    dangling = _UNKNOWN_ENDS[edge]
    assert validate(dangling) == [f"action edge {edge} uses unknown state"]
    refusals = [
        lambda: dangling.is_acyclic,
        lambda: dangling.action_depth,
        lambda: ready_trace_equivalent(dangling, dangling),
        lambda: bounded_testing_equivalent(dangling, coin_machine()),
    ]
    message = re.escape(f"edge {edge} uses unknown state")
    for refusal in refusals:
        with pytest.raises(ValueError, match=message):
            refusal()


def _naive_action_depth(graph: Pts, state: int) -> int:
    actions = [1 + _naive_action_depth(graph, dst) for dst in graph._action_map[state].values()]
    weighted = [_naive_action_depth(graph, dst) for _, dst in graph.prob_successors(state)]
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
    merged = Pts.build(
        alphabet={"a"},
        kinds={0: "p", 1: "n"},
        action_edges=[],
        prob_edges=[(0, F(1, 2), 1), (0, F(1, 2), 1)],
        root=0,
    )
    assert merged.prob_successors(0) == ((F(1), 1),)
    assert validate(merged) == []


def test_menus():
    machine = coin_machine()
    # sole probabilistic root; both its targets offer both buttons
    targets = [t for _, t in machine.prob_successors(machine.root)]
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
    weights = sorted(w for w, _ in after.prob_successors(after.root))
    assert weights == [F(1, 4), F(3, 4)]
    assert validate(after) == []
    # the 1/4 branch continues with c, the 3/4 branch with d
    by_weight = {w: after.menu(t) for w, t in after.prob_successors(after.root)}
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
    outcome = {after.menu(t): w for w, t in after.prob_successors(after.root)}
    assert outcome == {frozenset({"x"}): F(1, 3), frozenset({"y"}): F(2, 3)}
    assert validate(after) == []


def test_derived_mixes_flat_and_deep_successors():
    # two branches with one menu; one a-successor is plain, one branches again
    graph = Pts.build(
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
    weights = {t: w for w, t in after.prob_successors(after.root)}
    assert weights == {3: F(1, 2), 5: F(1, 8), 6: F(3, 8)}
    assert validate(after) == []


def test_derived_merges_coincident_targets():
    # Two branches with the same menu whose a-successors are one shared state.
    shared = Pts.build(
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
    for weight, branch in shared.prob_successors(0):
        successor = shared.action_successor(branch, "a")
        unmerged.append((weight / total, successor))
    summed: dict[int, Fraction] = {}
    for weight, target in unmerged:
        summed[target] = summed.get(target, F(0)) + weight

    assert dict((t, w) for w, t in after.prob_successors(after.root)) == summed
    assert summed == {3: F(1)}


def test_derived_output_always_validates():
    import random

    from probproc.harness import GenConfig, random_term

    graph = compile_term(parse_term(COIN_MACHINE_EARLY))
    dist_targets = [t for _, t in graph.prob_successors(graph.root)]
    for target in dist_targets:
        for action in sorted(graph.menu(target)):
            after = derived_process(graph, graph.root, graph.menu(target), action)
            assert validate(after) == []

    rng = random.Random(71)
    cfg = GenConfig(alphabet_size=3, max_depth=3, seed=71)
    checked = 0
    for _ in range(200):
        pts = compile_term(random_term(cfg, rng))
        if pts.kind(pts.root) == "p":
            menus = {pts.menu(t) for _, t in pts.prob_successors(pts.root)}
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


def test_json_round_trip():
    graph = coin_machine()
    again = from_json(to_json(graph))
    assert tree_signature(again) == tree_signature(graph)
    assert again.alphabet == graph.alphabet
    assert validate(again) == []


def test_json_rejects_dangling_edge():
    doc = json.loads(to_json(compile_term(parse_term("a->b->0"))))
    doc["action_edges"][0]["to"] = 7
    with pytest.raises(ValueError, match="uses unknown state"):
        from_json(json.dumps(doc))


def _one_weight_document(weight: str) -> str:
    return json.dumps(
        {
            "alphabet": ["a"],
            "root": 0,
            "states": [{"id": 0, "kind": "p"}, {"id": 1, "kind": "n"}],
            "action_edges": [],
            "prob_edges": [{"from": 0, "weight": weight, "to": 1}],
        }
    )


@pytest.mark.parametrize(
    "text, problem",
    [
        ("{}", "missing key 'alphabet'"),
        ("[]", "expected a JSON object, got list"),
        (
            '{"alphabet": [], "root": 0, "states": [{"id": 0}],'
            ' "action_edges": [], "prob_edges": []}',
            "missing key 'kind'",
        ),
        (_one_weight_document("1/0"), "invalid graph: weight '1/0' of edge (0,1) "),
        (_one_weight_document("abc"), "invalid graph: weight 'abc' of edge (0,1) "),
    ],
    ids=["empty object", "array", "state without kind", "zero denominator", "not a number"],
)
def test_json_rejects_malformed_documents_with_one_line(text, problem):
    with pytest.raises(ValueError) as info:
        from_json(text)
    message = str(info.value)
    assert problem in message and "\n" not in message


def test_json_round_trips_compiled_test():
    text = to_json(compile_term(parse_test("a->w")))
    assert to_json(from_json(text)) == text


def test_dot_output_styles_probabilistic_edges_dashed():
    dot = to_dot(coin_machine())
    assert dot.startswith("digraph")
    assert "style=dashed" in dot
    assert 'label="h"' in dot and 'label="1/2"' in dot
    quoted = Pts.build(
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
    renamed = Pts.build(
        alphabet={"a", "b"},
        kinds={7: "n", 8: "n", 9: "n"},
        action_edges=[(7, "a", 8), (8, "b", 9)],
        prob_edges=[],
        root=7,
    )
    assert tree_signature(one) == tree_signature(renamed)
    other = compile_term(parse_term("a->c->0"))
    assert tree_signature(one) != tree_signature(other)
