"""Concrete syntax: parsing, rendering, alphabets, priority orders."""

import random
from fractions import Fraction

import pytest

from probproc.fixtures import COIN_MACHINE_EARLY, GAME_GUESSER, GAME_TOSSER
from probproc.harness import GenConfig, random_term
from probproc.parser import ParseError, parse_priority, parse_term, parse_test
from probproc.pts import OMEGA
from probproc.semantics import compile_term
from probproc.terms import (
    Empty,
    ExternalChoice,
    PriorityOrder,
    ProbChoice,
    Priority,
    SyncPar,
    alphabet,
    has_prob_choice,
    prefix,
    render,
    shared_alphabet,
    subterms,
    success,
    uses_success,
)

F = Fraction


def test_parse_coin_machine_structure():
    term = parse_term(COIN_MACHINE_EARLY)
    assert isinstance(term, ProbChoice)
    assert [w for w, _ in term.branches] == [F(1, 2), F(1, 2)]
    first = term.branches[0][1]
    assert isinstance(first, ExternalChoice)
    assert [label for label, _ in first.branches] == ["h", "t"]
    # h leads to the prize, t deadlocks
    h_target = dict(first.branches)["h"]
    assert h_target == prefix("p")
    assert dict(first.branches)["t"] == Empty()


def test_parse_zero_and_bare_labels():
    assert parse_term("0") == Empty()
    assert parse_term("a") == prefix("a")
    assert parse_term("a->0") == prefix("a")


def test_parse_test_with_success_marker():
    term = parse_test("h->p->w [] t->w")
    assert isinstance(term, ExternalChoice)
    targets = dict(term.branches)
    assert targets["t"] == success()
    assert targets["h"] == ExternalChoice((("p", success()),))


def test_success_marker_rejected_in_processes():
    with pytest.raises(ParseError):
        parse_term("a->w")


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as info:
        parse_term("a->(b->0")
    assert "line 1" in str(info.value)
    with pytest.raises(ParseError) as info:
        parse_term("p{1/2:a, 1/3:b}")
    assert "sum" in str(info.value)
    with pytest.raises(ParseError) as info:
        parse_term("a->0 [] a->b")
    assert "duplicate" in str(info.value)
    with pytest.raises(ParseError):
        parse_term("p{0/1:a, 1/1:b}")


def test_operator_precedence_choice_binds_tighter_than_parallel():
    term = parse_term("a->0 [] b->0 || c->0")
    assert isinstance(term, SyncPar)
    assert isinstance(term.left, ExternalChoice)
    assert len(term.left.branches) == 2


def test_prefix_target_binds_tighter_than_choice():
    term = parse_term("h->p->0 [] t->0")
    assert isinstance(term, ExternalChoice)
    assert dict(term.branches)["h"] == prefix("p")


def test_parallel_is_left_associative():
    term = parse_term("a || b || c")
    assert isinstance(term, SyncPar)
    assert isinstance(term.left, SyncPar)


def test_p_and_prio_remain_usable_as_labels():
    term = parse_term("h->p->0")
    assert dict(term.branches)["h"] == prefix("p")
    term = parse_term("prio->0")
    assert term == prefix("prio")
    assert isinstance(parse_term("prio(a->0)"), Priority)


def test_singleton_probabilistic_choice():
    term = parse_term("p{1:a->b}")
    assert isinstance(term, ProbChoice)
    assert term.branches[0][0] == F(1)


def test_alphabets():
    assert alphabet(parse_term(COIN_MACHINE_EARLY)) == frozenset({"h", "t", "p"})
    assert alphabet(Empty()) == frozenset()
    assert alphabet(parse_term("a->p{1/2:b, 1/2:c}")) == frozenset({"a", "b", "c"})
    assert alphabet(parse_test("a->w")) == frozenset({"a"})  # success excluded
    assert OMEGA not in alphabet(parse_test("w"))


def test_subterms_walks_in_pre_order():
    term = parse_term("p{1/2:a->b, 1/2:c} || prio(d)")
    assert [render(sub) for sub in subterms(term)] == [
        "p{1/2:a->b, 1/2:c} || prio(d)",
        "p{1/2:a->b, 1/2:c}",
        "a->b",
        "b",
        "0",
        "c",
        "0",
        "prio(d)",
        "d",
        "0",
    ]


def test_traversals_survive_deep_terms():
    term = Empty()
    for _ in range(10_000):
        term = prefix("a", term)
    assert alphabet(term) == frozenset({"a"})
    assert uses_success(term) is False
    assert has_prob_choice(term) is False
    with pytest.raises(TypeError, match="not a term"):
        compile_term(object())


def test_deep_terms_hash():
    chain = success()
    for _ in range(10_000):
        chain = prefix("a", chain)
    assert isinstance(hash(chain), int)
    assert {chain: 1}[chain] == 1


def test_shared_alphabet_of_game_players():
    tosser, guesser = parse_term(GAME_TOSSER), parse_term(GAME_GUESSER)
    assert shared_alphabet(tosser, guesser) == frozenset({"wrt", "rev", "head", "tail"})
    assert shared_alphabet(parse_term("a"), parse_term("b")) == frozenset()
    same = parse_term("a->b")
    assert shared_alphabet(same, same) == alphabet(same)


def test_term_invariants_enforced_on_construction():
    with pytest.raises(ValueError):
        ExternalChoice((("a", Empty()), ("a", Empty())))
    with pytest.raises(ValueError):
        ProbChoice(((F(1, 2), Empty()), (F(1, 3), Empty())))
    with pytest.raises(ValueError):
        ProbChoice(((F(3, 2), Empty()),))


def test_priority_order_closure_and_cycles():
    order = PriorityOrder((("a", "b"), ("b", "c")))
    assert order.higher("a", "b")
    assert order.higher("a", "c")
    assert not order.higher("c", "a")
    with pytest.raises(ValueError):
        PriorityOrder((("a", "b"), ("b", "a")))


def test_parse_priority_file():
    order = parse_priority("a > b\n# comment\nb > c\n")
    assert order.higher("a", "c")
    with pytest.raises(ParseError):
        parse_priority("a >")


def test_render_round_trip_pinned():
    for text, parser in [
        (COIN_MACHINE_EARLY, parse_term),
        ("h->p{1/2:p->0, 1/2:0} [] t->p{1/2:0, 1/2:p->0}", parse_term),
        ("h->p->w [] t->w", parse_test),
        ("(a->0 [] b->0) |[]| prio(c->0)", parse_term),
        ("p{1:a->b}", parse_term),
    ]:
        term = parser(text)
        assert parser(render(term)) == term


def test_render_round_trip_random():
    rng = random.Random(99)
    cfg = GenConfig(alphabet_size=3, max_depth=4, seed=99)
    for _ in range(1000):
        term = random_term(cfg, rng)
        assert parse_term(render(term)) == term
