"""Compilation rules: flattening, priority, both parallels, state sharing."""

import copy
import hashlib
import os
import pickle
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from probproc.fixtures import (
    COIN_USER_TEST,
    GAME_GUESSER,
    GAME_TOSSER,
    MIXED_FOLLOWUP_PROBE,
)
from probproc import semantics, terms
from probproc.harness import (
    GenConfig,
    fill_context,
    random_context,
    random_priority_order,
    random_term,
)
from probproc.parser import parse_priority, parse_term, parse_test
from probproc.pts import OMEGA, Pts, to_dot, to_json, validate
from probproc.readytrace import ready_trace_equivalent
from probproc.semantics import _pin_sync_sets, _Shared, compile_term, composition_warnings
from probproc.terms import (
    Empty,
    ExternalChoice,
    Priority,
    ProbChoice,
    SharedPar,
    SyncPar,
    alphabet,
    children,
    prefix,
    subterms,
)

from helpers import build, tree_signature

F = Fraction


def compiled(text: str, order=None, test=False) -> Pts:
    term = (parse_test if test else parse_term)(text)
    return compile_term(term, order) if order else compile_term(term)


def test_empty_process_is_one_deadlocked_state():
    graph = compiled("0")
    assert graph.kinds == {0: "n"}
    assert graph.menu(0) == frozenset()


def test_nested_probabilistic_choice_flattens():
    graph = compiled("p{1/2:a->0, 1/2:p{1/2:b->0, 1/2:c->0}}")
    weights = sorted(w for w, _ in graph.weighted[graph.root])
    assert weights == [F(1, 4), F(1, 4), F(1, 2)]
    assert validate(graph) == []


def test_equal_weighted_branches_merge():
    graph = compiled("p{1/2:a->0, 1/2:a->0}")
    assert graph.weighted[graph.root] == ((F(1), graph.root + 1),)


def test_priority_drops_dominated_actions():
    order = parse_priority("a > b")
    graph = compiled("prio(a->0 [] b->0)", order)
    assert graph.menu(graph.root) == frozenset({"a"})
    # incomparable actions both survive
    graph = compiled("prio(a->0 [] b->0)")
    assert graph.menu(graph.root) == frozenset({"a", "b"})
    # priority applies at every later step as well
    order = parse_priority("b > c")
    graph = compiled("prio(a->(b->0 [] c->0))", order)
    after = graph.actions[graph.root]["a"]
    assert graph.menu(after) == frozenset({"b"})


def test_priority_on_deadlock_is_deadlock():
    graph = compiled("prio(0)", parse_priority("a > b"))
    assert graph.menu(graph.root) == frozenset()


def test_priority_passes_probabilistic_steps_through():
    graph = compiled("prio(p{1/3:a->0, 2/3:b->0})", parse_priority("a > b"))
    assert graph.kinds[graph.root] == "p"
    menus = {graph.menu(t) for _, t in graph.weighted[graph.root]}
    assert menus == {frozenset({"a"}), frozenset({"b"})}


def test_lockstep_parallel_synchronizes_everything():
    graph = compiled("(a->b->0) || (a->c->0)")
    assert graph.menu(graph.root) == frozenset({"a"})
    after = graph.actions[graph.root]["a"]
    assert graph.menu(after) == frozenset()  # b and c cannot synchronize


def test_lockstep_parallel_multiplies_weights():
    graph = compiled("p{1/2:a->0, 1/2:b->0} || p{1/3:a->0, 2/3:c->0}")
    weights = sorted(w for w, _ in graph.weighted[graph.root])
    assert weights == [F(1, 6), F(1, 6), F(1, 3), F(1, 3)]
    assert validate(graph) == []


def test_one_sided_probabilistic_step():
    graph = compiled("p{1/2:a->0, 1/2:b->0} || (a->0)")
    assert graph.kinds[graph.root] == "p"
    assert sorted(w for w, _ in graph.weighted[graph.root]) == [F(1, 2), F(1, 2)]


def test_shared_parallel_synchronizes_only_shared_actions():
    graph = compiled("(a->x->0) |[]| (a->y->0)")
    # a is shared; x and y are not and interleave afterwards
    assert graph.menu(graph.root) == frozenset({"a"})
    after = graph.actions[graph.root]["a"]
    assert graph.menu(after) == frozenset({"x", "y"})


def test_shared_parallel_blocks_interleaving_beside_probabilistic_peer():
    # The left x-step must wait while the right side resolves its choice.
    graph = compiled("(x->0) |[]| p{1/2:a->0, 1/2:b->0}")
    assert graph.kinds[graph.root] == "p"
    for _, target in graph.weighted[graph.root]:
        assert "x" in graph.menu(target)


def test_shared_parallel_sync_set_fixed_at_composition():
    # After the right side does its only shared action, the leftover left
    # action stays blocked: the synchronization set does not shrink.
    graph = compiled("(a->a->0) |[]| (a->b->0)")
    after_a = graph.actions[graph.root]["a"]
    assert graph.menu(after_a) == frozenset({"b"})  # second a still needs both
    after_b = graph.actions[after_a]["b"]
    assert graph.menu(after_b) == frozenset()


def test_game_composition_matches_drawn_tree():
    composed = compile_term(
        SharedPar(parse_term(GAME_TOSSER), parse_term(GAME_GUESSER))
    )
    assert validate(composed) == []

    kinds = {0: "p"}
    action_edges = []
    prob_edges = [(0, F(1, 2), 1), (0, F(1, 2), 10)]
    # coin says head: guess g1 wins, guess g2 dead-ends after rev
    for i in (1, 10):
        kinds.update({i + j: "n" for j in range(9)})
    action_edges += [
        (1, "wrt", 2), (2, "g1", 3), (2, "g2", 4),
        (3, "rev", 5), (4, "rev", 6), (5, "head", 7), (7, "ok", 8),
        (10, "wrt", 11), (11, "g1", 12), (11, "g2", 13),
        (12, "rev", 14), (13, "rev", 15), (15, "tail", 16), (16, "ok", 17),
    ]
    kinds = {s: k for s, k in kinds.items() if s in
             {0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 12, 13, 14, 15, 16, 17}}
    expected = build(
        alphabet={"wrt", "rev", "head", "tail", "g1", "g2", "ok"},
        kinds=kinds,
        action_edges=action_edges,
        prob_edges=prob_edges,
        root=0,
    )
    assert validate(expected) == []
    assert tree_signature(composed) == tree_signature(expected)


def test_tests_compile_with_success_edges():
    graph = compiled("h->p->w [] t->w", test=True)
    assert validate(graph, allow_success=True) == []
    assert OMEGA not in graph.alphabet
    after_t = graph.actions[graph.root]["t"]
    assert OMEGA in graph.menu(after_t)


def test_compiled_random_terms_always_validate():
    rng = random.Random(4)
    cfg = GenConfig(alphabet_size=3, max_depth=4, seed=4)
    for _ in range(500):
        term = random_term(cfg, rng)
        order = random_priority_order(cfg, rng)
        graph = compile_term(term, order)
        assert validate(graph) == []
        assert graph.is_acyclic and "_order" not in vars(graph)  # handed over, not walked
        assert graph.alphabet == alphabet(term)


def test_composition_warning_on_pairwise_sharing_chain():
    term = parse_term("(a->b->0 |[]| b->c->0) |[]| c->a->0")
    warnings = composition_warnings(term)
    assert len(warnings) == 1 and "associative" in warnings[0]
    assert composition_warnings(parse_term("a->0 |[]| a->0")) == []
    # sharing p,q and q,r without p,r sharing is allowed
    chain = parse_term("(a->0 |[]| a->b->0) |[]| b->0")
    assert composition_warnings(chain) == []


# Tests, so that the writers and validate walk success edges too.
_PINNED_TESTS = (
    COIN_USER_TEST,
    "h->p->w [] t->w",
    MIXED_FOLLOWUP_PROBE,
    "p{1/3:a->w, 2/3:b->(c->w [] d)}",
    "prio(a->w [] b->c->w) || (a->w [] b->c->w)",
    "(a->b->w [] c) |[]| (b->c [] c)",
)


def _pinned(graphs, write) -> str:
    digest = hashlib.sha256()
    for graph in graphs:
        digest.update(write(graph).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def test_compiled_graphs_are_pinned():
    """Compiled JSON of seeded random terms replays byte for byte, and so
    do the JSON, DOT and validation of those and of a few tests."""
    cfg = GenConfig(alphabet_size=3, max_depth=4, seed=0)
    rng = random.Random(20261018)
    graphs = []
    kinds = set()
    for _ in range(200):
        term = random_term(cfg, rng)
        kinds |= {type(node) for node in subterms(term)}
        graphs.append(compile_term(term, random_priority_order(cfg, rng)))
    assert {SharedPar, Priority} <= kinds
    assert _pinned(graphs, to_json) == (
        "1b736f550c7790ff7c00a1e39aa1f6fc21baf0e140cb17825a5694adae48cc7a"
    )
    graphs += [compiled(text, test=True) for text in _PINNED_TESTS]
    assert _pinned(graphs, to_json) == (
        "f20ef2816c517da8ea430de49190f42bc3a11880d459351ce29a57f95b4cbbea"
    )
    assert _pinned(graphs, to_dot) == (
        "4ec3183f6a6b7f08920ae60996f6ef54e22776172e2199e632ac371a0143aa5a"
    )
    problems = lambda graph: repr((validate(graph), validate(graph, allow_success=True)))
    assert _pinned(graphs, problems) == (
        "226e7677b1d0b2a7e41605b803ff82a67a45a8bbb7763dd2d3629bcb3a31969d"
    )


def test_pinning_sync_sets_rebuilds_only_above_a_shared_parallel():
    free = parse_term("p{1/2:a->b, 1/2:prio(c [] d)} || (a->c [] b)")
    assert _pin_sync_sets(free)[0] is free
    left, right = parse_term("a->b"), parse_term("b [] c->d")
    term = SyncPar(free, Priority(SharedPar(left, right)))
    pinned, _ = _pin_sync_sets(term)
    assert pinned is not term and pinned.left is free
    shared = pinned.right.body
    assert isinstance(shared, _Shared)
    assert shared.left is left and shared.right is right
    assert shared.sync == frozenset({"b"})


def test_pinning_a_chain_visits_each_node_once(monkeypatch):
    """Each |[]| takes its operands' alphabets from the walk below it rather
    than walking them again, so a chain of n compositions costs O(n) node
    visits, not O(n^2).  A visit is a call of `children` (which every
    generic traversal makes) or of `rebuild`."""
    chain = prefix("a0")
    for i in range(1, 300):
        chain = SharedPar(chain, prefix(f"a{i}", prefix(f"a{i - 1}")))
    nodes = sum(1 for _ in subterms(chain))
    visits = 0

    def counted(fn):
        def wrapper(*args):
            nonlocal visits
            visits += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(terms, "children", counted(terms.children))
    monkeypatch.setattr(semantics, "children", counted(terms.children))
    monkeypatch.setattr(semantics, "rebuild", counted(terms.rebuild))
    pinned, _ = _pin_sync_sets(chain)
    assert visits <= nodes
    for i in reversed(range(1, 300)):
        assert pinned.sync == frozenset({f"a{i - 1}"})
        pinned = pinned.left


def test_pinning_survives_deep_chains():
    """A prefix chain 10^4 deep above b |[]| c compiles and is decided."""

    def chain(last):
        term = SharedPar(prefix("b"), prefix(last))
        for _ in range(10_000):
            term = prefix("a", term)
        return term

    left = compile_term(chain("c"))
    assert len(left.kinds) == 10_004
    assert ready_trace_equivalent(left, compile_term(chain("c"))).equivalent
    verdict = ready_trace_equivalent(left, compile_term(chain("d")))
    assert verdict.trace.menus[-1] == frozenset("bc")
    assert len(verdict.trace) == 10_001


def _naive_chain_warnings(parts):
    labels = [alphabet(part) for part in parts]
    warnings = []
    for a, b, c in combinations(range(len(labels)), 3):
        ab, bc, ac = labels[a] & labels[b], labels[b] & labels[c], labels[a] & labels[c]
        if ab and bc and ac:
            warnings.append(
                "components %d, %d and %d of a |[]| chain share actions "
                "pairwise (%s); the chain is not associative"
                % (a, b, c, sorted(ab | bc | ac))
            )
    return warnings


def _random_chain(parts, rng):
    """Some bracketing of parts[0] |[]| ... |[]| parts[-1]."""
    if len(parts) == 1:
        return parts[0]
    k = rng.randint(1, len(parts) - 1)
    return SharedPar(_random_chain(parts[:k], rng), _random_chain(parts[k:], rng))


def test_composition_warnings_match_the_scan_of_every_triple():
    rng = random.Random(11)
    # depth 1 keeps |[]| out of the parts' subterms, so each chain is the only one
    cfg = GenConfig(alphabet_size=4, max_depth=1, seed=11)
    seen = 0
    for _ in range(300):
        parts = []
        while len(parts) < 16:
            part = random_term(cfg, rng)
            if not isinstance(part, SharedPar):
                parts.append(part)
        parts = parts[: rng.randint(1, 16)]
        expected = _naive_chain_warnings(parts)
        assert composition_warnings(_random_chain(parts, rng)) == expected
        seen += len(expected)
    assert seen > 100


def _unpruned_composition_warnings(term):
    """composition_warnings entering every subterm, however few |[]| it has."""
    warnings = []
    stack = [(term, False)]
    while stack:
        node, under_shared = stack.pop()
        if isinstance(node, SharedPar) and not under_shared:
            warnings.extend(semantics._chain_warnings(node))
        inside = isinstance(node, SharedPar)
        stack.extend((child, inside) for child in reversed(children(node)))
    return warnings


def _generated_alphabet(term):
    return frozenset(
        label
        for node in subterms(term)
        if isinstance(node, ExternalChoice)
        for label, _ in node.branches
        if label != OMEGA
    )


def _fast_path_corpus():
    """Random terms and filled contexts, and |[]| chains nested under every
    operator and inside the components of other chains."""
    rng = random.Random(13)
    configs = [GenConfig(2, 2, seed=1), GenConfig(3, 3, seed=2), GenConfig(4, 4, seed=3)]
    for cfg in configs:
        for _ in range(150):
            yield random_term(cfg, rng)
            yield fill_context(random_context(cfg, rng), random_term(cfg, rng))
    part_cfg = GenConfig(alphabet_size=3, max_depth=2, seed=4)
    for _ in range(150):
        parts = [random_term(part_cfg, rng) for _ in range(rng.randint(2, 6))]
        chain = _random_chain(parts, rng)
        other = random_term(part_cfg, rng)
        half = F(1, 2)
        yield prefix("a", chain)
        yield ProbChoice(((half, chain), (half, other)))
        yield SyncPar(other, chain)
        yield Priority(chain)
        yield _random_chain([other, prefix("b", chain), *parts], rng)


def test_fast_paths_match_their_references_on_a_seeded_corpus():
    warned = free = 0
    for term in _fast_path_corpus():
        for node in subterms(term):
            assert node._shared == sum(isinstance(sub, SharedPar) for sub in subterms(node))
            assert alphabet(node) == _generated_alphabet(node)
            assert _pin_sync_sets(node)[1] == alphabet(node)
            if not node._shared:
                free += 1
                assert _pin_sync_sets(node)[0] is node
        warnings = composition_warnings(term)
        assert warnings == _unpruned_composition_warnings(term)
        warned += bool(warnings)
    assert warned > 300 and free > 10_000


def test_building_a_long_shared_chain_stays_small():
    # Facts stored per node must take constant space: a set of labels on
    # every node of a chain grows with the square of its length.
    tracemalloc.start()
    try:
        chain = prefix("a0")
        for i in range(1, 2_000):
            chain = SharedPar(chain, prefix(f"a{i}", prefix(f"a{i - 1}")))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_a_compiled_graph_keeps_each_step_once():
    # The k=5 |[]| chain of early coin machines has 1,025 states.  Its graph
    # retains 0.39 MB when each step is stored once, in the maps, and 0.83 MB
    # when every step is also kept in an edge list.
    term = parse_term(" |[]| ".join(
        f"(p{{1/2:(h{i}->p{i}->0 [] t{i}->0), 1/2:(h{i}->0 [] t{i}->p{i}->0)}})"
        for i in range(5)
    ))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        graph = compile_term(term)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(graph.kinds) == 1025
    assert retained < 0.6 * 2**20


def test_composition_warnings_handle_a_long_chain():
    chain = prefix("a0")
    for i in range(1, 10_000):
        chain = SharedPar(chain, prefix(f"a{i}", prefix(f"b{i}")))
    started = time.perf_counter()
    assert composition_warnings(chain) == []
    assert time.perf_counter() - started < 5


def _round_trips(term):
    yield copy.copy(term)
    yield copy.deepcopy(term)
    yield pickle.loads(pickle.dumps(term))


def test_terms_copy_and_pickle_through_their_constructors():
    for term in _fast_path_corpus():
        for original in (term, _pin_sync_sets(term)[0]):
            for restored in _round_trips(original):
                assert restored == original and hash(restored) == hash(original)
    for restored in _round_trips(Empty()):
        assert restored is Empty()


def test_a_pickled_term_is_rehashed_where_it_is_loaded():
    """The loading process hashes labels with its own seed, not the dumper's."""
    text = "p{1/3:a->b, 2/3:(c || prio(d))} |[]| (b [] c)"
    dump = (
        "import pickle, sys; from probproc.parser import parse_term; "
        f"sys.stdout.buffer.write(pickle.dumps(parse_term({text!r})))"
    )
    src = str(Path(semantics.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONHASHSEED": "1", "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", dump], env=env, capture_output=True, check=True)
    loaded = pickle.loads(out.stdout)
    assert loaded == parse_term(text) and hash(loaded) == hash(parse_term(text))
