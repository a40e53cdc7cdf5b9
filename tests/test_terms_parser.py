"""Concrete syntax: parsing, rendering, alphabets, priority orders."""

import hashlib
import importlib.util
import random
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import pytest

from probproc import parser
from probproc.fixtures import COIN_MACHINE_EARLY, GAME_GUESSER, GAME_TOSSER
from probproc.harness import GenConfig, equivalent_pair, random_term
from probproc.parser import ParseError, parse_priority, parse_term, parse_test
from probproc.pts import OMEGA
from probproc.semantics import _pin_sync_sets, compile_term
from probproc.terms import (
    Empty,
    ExternalChoice,
    PriorityOrder,
    ProbChoice,
    Priority,
    SharedPar,
    SyncPar,
    alphabet,
    has_prob_choice,
    map_children,
    prefix,
    render,
    subterms,
    success,
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
    # |[]| synchronizes on the actions occurring in both operands, the set
    # that compiling pins at each composition.
    def sync(left, right):
        return _pin_sync_sets(SharedPar(left, right))[0].sync

    tosser, guesser = parse_term(GAME_TOSSER), parse_term(GAME_GUESSER)
    assert sync(tosser, guesser) == frozenset({"wrt", "rev", "head", "tail"})
    assert sync(parse_term("a"), parse_term("b")) == frozenset()
    same = parse_term("a->b")
    assert sync(same, same) == alphabet(same)


def test_term_invariants_enforced_on_construction():
    with pytest.raises(ValueError):
        ExternalChoice((("a", Empty()), ("a", Empty())))
    with pytest.raises(ValueError):
        ProbChoice(((F(1, 2), Empty()), (F(1, 3), Empty())))
    with pytest.raises(ValueError):
        ProbChoice(((F(3, 2), Empty()),))


def test_each_weight_is_checked_where_it_is_written():
    # A valid 2/2 earlier in the text does not make a later lone 2 valid.
    with pytest.raises(ParseError) as info:
        parse_term("p{2/2:a} || p{2:b}")
    assert str(info.value) == "weight 2 is outside (0,1] (line 1, column 15)"


def test_choices_built_from_lists_store_tuples():
    external = ExternalChoice([("a", Empty()), ("b", Empty())])
    weighted = ProbChoice([(F(1, 2), Empty()), (F(1, 2), external)])
    assert type(external.branches) is type(weighted.branches) is tuple
    assert external == parse_term("a [] b")
    assert weighted == parse_term("p{1/2:0, 1/2:(a [] b)}")
    assert hash(weighted) == hash(parse_term("p{1/2:0, 1/2:(a [] b)}"))


def test_a_prio_branch_and_a_priority_hash_apart():
    # "prio" is an ordinary label, so it must not stand for Priority in a key.
    choice, priority = prefix("a"), prefix("a")
    for _ in range(3):
        choice, priority = ExternalChoice((("prio", choice),)), Priority(priority)
        assert hash(choice) != hash(priority)


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


def test_unreadable_weight_digits_give_a_positioned_parse_error():
    # "²" passes str.isdigit, so it lexes as an int token, but int() rejects it
    with pytest.raises(ParseError) as info:
        parse_term("p{²:a}")
    assert str(info.value) == "weight '²' is not a decimal number (line 1, column 3)"
    with pytest.raises(ParseError) as info:
        parse_term("p{1/2:a,\n  1/7²:b}")
    assert (info.value.line, info.value.column) == (2, 5)


def _reference_tokenize(text: str) -> list[tuple[str, str, int, int]]:
    """The character-by-character tokenizer that the single pattern replaced."""
    tokens = []
    line, column = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
            continue
        if ch.isspace():
            column += 1
            i += 1
            continue
        matched = False
        for symbol in parser._SYMBOLS:
            if text.startswith(symbol, i):
                tokens.append((symbol, symbol, line, column))
                i += len(symbol)
                column += len(symbol)
                matched = True
                break
        if matched:
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], line, column))
            column += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], line, column))
            column += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, column)
    tokens.append(("end", "", line, column))
    return tokens


# Every symbol, the keyword-like labels, ASCII word characters, whitespace
# that does and does not end a line, and characters that trip str.isdigit,
# str.isalpha or the word pattern: a superscript digit, a vulgar fraction,
# an Arabic-Indic digit, a precomposed and a combining accent, and "$".
_PIECES = parser._SYMBOLS + ["p", "prio", "w", "a", "Zq", "x9", "_", "0", "12", "7"]
_PIECES += ["\n", "\t", "\r", "\x85", " ", "²", "½", "١", "é", "e\u0301", "$"]


def _lex_reference(text):
    try:
        return _reference_tokenize(text)
    except ParseError as exc:
        return str(exc)


def _lex(text):
    """The flat tokenizer's kinds and texts, each token placed by `_position`."""
    try:
        kinds, texts = parser._tokenize(text)
    except ParseError as exc:
        return str(exc)
    return [
        (kind, token, *parser._position(text, texts, index))
        for index, (kind, token) in enumerate(zip(kinds, texts))
    ]


def test_tokenizer_agrees_with_the_character_by_character_reference():
    rng = random.Random(20261018)
    errors = 0
    for _ in range(50_000):
        text = "".join(rng.choice(_PIECES) for _ in range(rng.randint(0, 10)))
        expected = _lex_reference(text)
        assert _lex(text) == expected, repr(text)
        errors += isinstance(expected, str)
    assert 5_000 < errors < 45_000  # both outcomes are well represented


def test_trailing_whitespace_is_tokenized_in_linear_time():
    text = "a->b" + " \n" * 15_000
    start = perf_counter()
    assert parser._tokenize(text) == (["name", "->", "name", "end"], ["a", "->", "b", ""])
    # linear: a few milliseconds; rescanning the run from each of its
    # characters takes seconds
    assert perf_counter() - start < 0.5
    with pytest.raises(ParseError) as info:
        parse_term(text + "$")
    assert str(info.value) == "unexpected character '$' (line 15001, column 1)"


class _Token(NamedTuple):
    kind: str
    text: str
    line: int
    column: int


class _ReferenceParser:
    """The parser over positioned `_Token`s that the flat token lists replaced."""

    def __init__(self, tokens: list[_Token], allow_success: bool):
        self.tokens = tokens
        self.pos = 0
        self.allow_success = allow_success

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, kind: str) -> _Token:
        token = self.peek()
        if token.kind != kind:
            raise ParseError(
                f"expected {kind!r}, found {token.text or 'end of input'!r}",
                token.line,
                token.column,
            )
        return self.next()

    def fail(self, message: str):
        token = self.peek()
        raise ParseError(message, token.line, token.column)

    def parse_process(self):
        term = self.parse_choice()
        while self.peek().kind in ("||", "|[]|"):
            op = self.next().kind
            right = self.parse_choice()
            term = SyncPar(term, right) if op == "||" else SharedPar(term, right)
        return term

    def _at_atom(self) -> bool:
        token = self.peek()
        if token.kind == "(":
            return True
        if token.kind == "int" and token.text == "0":
            return True
        if token.kind == "name" and token.text == "p":
            return self.tokens[self.pos + 1].kind == "{"
        if token.kind == "name" and token.text == "prio":
            return self.tokens[self.pos + 1].kind == "("
        return False

    def parse_choice(self):
        if self._at_atom():
            return self.parse_atom()
        branches = [self.parse_branch()]
        while self.peek().kind == "[]":
            self.next()
            branches.append(self.parse_branch())
        token = self.peek()
        try:
            return ExternalChoice(tuple(branches))
        except ValueError as exc:
            raise ParseError(str(exc), token.line, token.column) from None

    def parse_branch(self):
        token = self.peek()
        if token.kind != "name":
            self.fail(f"expected an action label, found {token.text or 'end of input'!r}")
        label = self.next().text
        if label == OMEGA:
            if not self.allow_success:
                self.fail(f"success marker {OMEGA!r} is only allowed in tests")
            return (OMEGA, Empty())
        if self.peek().kind == "->":
            self.next()
            return (label, self.parse_target())
        return (label, Empty())

    def parse_target(self):
        if self._at_atom():
            return self.parse_atom()
        label, sub = self.parse_branch()
        return ExternalChoice(((label, sub),))

    def parse_atom(self):
        token = self.peek()
        if token.kind == "int" and token.text == "0":
            self.next()
            return Empty()
        if token.kind == "(":
            self.next()
            term = self.parse_process()
            self.expect(")")
            return term
        if token.kind == "name" and token.text == "prio":
            self.next()
            self.expect("(")
            term = self.parse_process()
            self.expect(")")
            return Priority(term)
        if token.kind == "name" and token.text == "p":
            self.next()
            self.expect("{")
            branches = [self.parse_weighted()]
            while self.peek().kind == ",":
                self.next()
                branches.append(self.parse_weighted())
            closing = self.peek()
            self.expect("}")
            try:
                return ProbChoice(tuple(branches))
            except ValueError as exc:
                raise ParseError(str(exc), closing.line, closing.column) from None
        self.fail(f"expected a process, found {token.text or 'end of input'!r}")

    def _weight_int(self, token: _Token) -> int:
        try:
            return int(token.text)
        except ValueError:
            raise ParseError(
                f"weight {token.text!r} is not a decimal number", token.line, token.column
            ) from None

    def parse_weighted(self):
        token = self.expect("int")
        numerator = self._weight_int(token)
        denominator = 1
        if self.peek().kind == "/":
            self.next()
            denominator = self._weight_int(self.expect("int"))
        if denominator == 0:
            raise ParseError("weight denominator is zero", token.line, token.column)
        weight = Fraction(numerator, denominator)
        if not 0 < numerator <= denominator:
            raise ParseError(f"weight {weight} is outside (0,1]", token.line, token.column)
        self.expect(":")
        return (weight, self.parse_process())


def _reference_parse(tokens: list[_Token], allow_success: bool):
    reference = _ReferenceParser(tokens, allow_success)
    term = reference.parse_process()
    reference.expect("end")
    return term


def _reference_tokens(text: str) -> list[_Token]:
    return [_Token(*token) for token in _reference_tokenize(text)]


def _outcome(parse, *args) -> str:
    """The render of the parsed term, or the parse error's message."""
    try:
        return render(parse(*args))
    except ParseError as exc:
        return f"error: {exc}"


def _reference_outcomes(text: str) -> list[str]:
    """The reference's outcomes for the text as a process and as a test."""
    try:
        tokens = _reference_tokens(text)
    except ParseError as exc:
        return [f"error: {exc}"] * 2
    return [_outcome(_reference_parse, tokens, allow_success) for allow_success in (False, True)]


def test_parses_agree_with_the_reference_tokenizer():
    texts = []
    for seed in (3, 2009):
        cfg = GenConfig(seed=seed)
        rng = random.Random(seed)
        texts += [render(random_term(cfg, rng)) for _ in range(200)]
        for _ in range(100):
            texts += [render(term) for term in equivalent_pair(cfg, rng)]
    texts += [text.replace(" ", "\n\t ") for text in texts[::7]]

    for text in texts:
        tokens = _reference_tokens(text)
        assert parse_term(text) == _reference_parse(tokens, allow_success=False)
        assert parse_test(text) == _reference_parse(tokens, allow_success=True)


def _load_decide_generator():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _mutated_renders() -> list[str]:
    """Decide-workload operands and harness renders, each truncated, with one
    character replaced, or with a newline inserted."""
    gen = _load_decide_generator()
    rng = random.Random(9)
    renders = []
    for _ in range(3_500):
        left, right, _ = gen.decide_pair(rng)
        renders += [left, right]
    cfg = GenConfig(seed=9)
    renders += [render(random_term(cfg, rng)) for _ in range(1_000)]
    for _ in range(500):
        renders += [render(term) for term in equivalent_pair(cfg, rng)]
    replacements = "ab0129{}()[]|-<>:,/ \n\tpw²½$é"
    mutated = []
    for text in renders:
        at = rng.randrange(len(text) + 1)
        how = rng.randrange(3)
        if how == 0:
            mutated.append(text[:at])
        elif how == 1:
            mutated.append(text[:at] + rng.choice(replacements) + text[at + 1 :])
        else:
            mutated.append(text[:at] + "\n" + text[at:])
    return mutated


def test_mutated_renders_parse_as_the_reference_parser_does():
    results = []
    for text in _mutated_renders():
        outcomes = [_outcome(parse_term, text), _outcome(parse_test, text)]
        assert outcomes == _reference_outcomes(text), repr(text)
        results += outcomes
    assert len(results) == 2 * 9_000
    errors = sum(result.startswith("error: ") for result in results)
    assert 4_000 < errors < 14_000  # both outcomes are well represented
    # The digest was computed with the parser that preceded the flat tokens.
    digest = hashlib.sha256("\n".join(results).encode()).hexdigest()
    assert digest == "250b9519bff453b7a69c769d428aea4931e88c2ae4632a7e4274148209c35707"


def test_nesting_depths_that_parse():
    """No shallower than the parser over positioned tokens: it reached a
    494-deep prefix chain, 329-deep parentheses and 246-deep nested p{}."""
    chain = parse_term("a->" * 400 + "0")
    for _ in range(400):
        assert chain.branches[0][0] == "a"
        chain = chain.branches[0][1]
    assert chain == Empty()
    assert parse_term("(" * 300 + "a" + ")" * 300) == prefix("a")
    nested = parse_term("p{1:" * 200 + "a" + "}" * 200)
    for _ in range(200):
        assert isinstance(nested, ProbChoice)
        nested = nested.branches[0][1]
    assert nested == prefix("a")


def test_map_children_returns_the_term_when_no_child_changes():
    a, b = prefix("a"), prefix("b", prefix("c"))
    terms = [
        Empty(),
        ExternalChoice((("a", a), ("b", b))),
        ProbChoice(((F(1, 3), a), (F(2, 3), b))),
        Priority(b),
        SyncPar(a, b),
        SharedPar(a, b),
    ]
    for term in terms:
        assert map_children(term, lambda sub: sub) is term
        # an equal but distinct child still counts as a change
        rebuilt = map_children(term, lambda sub: ExternalChoice(sub.branches))
        assert rebuilt == term
        assert isinstance(term, Empty) or rebuilt is not term
