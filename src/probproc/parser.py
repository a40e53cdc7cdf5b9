"""Recursive-descent parser for the concrete process/test syntax.

    process := par
    par     := choice (("||" | "|[]|") choice)*          left associative
    choice  := atom | branch ("[]" branch)*
    branch  := label "->" target | label | "w"           "w" only in tests
    target  := atom | branch-without-[]                  binds tighter than []
    atom    := "0" | "p{" weight ":" process ("," weight ":" process)* "}"
             | "prio(" process ")" | "(" process ")"
    weight  := int "/" int | int

Whitespace is insignificant.  "[]" binds tighter than the parallel
operators.  "p" and "prio" are ordinary labels unless directly followed by
"{" or "(" respectively; "w" is reserved for the success branch of tests.
Errors carry line and column numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .pts import OMEGA
from .terms import (
    Empty,
    ExternalChoice,
    PriorityOrder,
    ProbChoice,
    Priority,
    SharedPar,
    SyncPar,
    Term,
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    column: int


_SYMBOLS = ["|[]|", "[]", "||", "->", "{", "}", "(", ")", ",", ":", "/"]


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
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
        for symbol in _SYMBOLS:
            if text.startswith(symbol, i):
                tokens.append(_Token(symbol, symbol, line, column))
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
            tokens.append(_Token("int", text[i:j], line, column))
            column += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], line, column))
            column += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, column)
    tokens.append(_Token("end", "", line, column))
    return tokens


class _Parser:
    def __init__(self, text: str, allow_success: bool):
        self.tokens = _tokenize(text)
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

    # --- grammar ---------------------------------------------------------

    def parse_process(self) -> Term:
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

    def parse_choice(self) -> Term:
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

    def parse_branch(self) -> tuple[str, Term]:
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

    def parse_target(self) -> Term:
        if self._at_atom():
            return self.parse_atom()
        label, sub = self.parse_branch()
        return ExternalChoice(((label, sub),))

    def parse_atom(self) -> Term:
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

    def parse_weighted(self) -> tuple[Fraction, Term]:
        token = self.expect("int")
        numerator = int(token.text)
        denominator = 1
        if self.peek().kind == "/":
            self.next()
            denominator = int(self.expect("int").text)
        if denominator == 0:
            raise ParseError("weight denominator is zero", token.line, token.column)
        weight = Fraction(numerator, denominator)
        if not (0 < weight <= 1):
            raise ParseError(f"weight {weight} is outside (0,1]", token.line, token.column)
        self.expect(":")
        return (weight, self.parse_process())


def parse_term(text: str) -> Term:
    """Parse a process; the success label is rejected."""
    parser = _Parser(text, allow_success=False)
    term = parser.parse_process()
    parser.expect("end")
    return term


def parse_test(text: str) -> Term:
    """Parse a test; "w" branches mark success."""
    parser = _Parser(text, allow_success=True)
    term = parser.parse_process()
    parser.expect("end")
    return term


def parse_priority(text: str) -> PriorityOrder:
    """Read a priority order from lines of the form `a > b`."""
    pairs: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [part.strip() for part in line.split(">")]
        if len(parts) != 2 or not all(parts):
            raise ParseError(f"expected 'a > b', found {raw.strip()!r}", lineno, 1)
        pairs.append((parts[0], parts[1]))
    try:
        return PriorityOrder(tuple(pairs))
    except ValueError as exc:
        raise ParseError(str(exc), 1, 1) from None
