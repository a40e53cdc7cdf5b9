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

import re
from fractions import Fraction
from typing import NamedTuple

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


class _Token(NamedTuple):
    kind: str
    text: str
    line: int
    column: int


_SYMBOLS = ["|[]|", "[]", "||", "->", "{", "}", "(", ")", ",", ":", "/"]
# One token per match: a whitespace run, a symbol (tried in list order, so
# longest first), a word run, or any other single character (an error).
_TOKEN = re.compile(r"(\s+)|(%s)|(\w+)|(.)" % "|".join(map(re.escape, _SYMBOLS)))


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, column = 1, 1
    for match in _TOKEN.finditer(text):
        group = match.lastindex
        chunk = match.group()
        if group == 1:
            newlines = chunk.count("\n")
            if newlines:
                line += newlines
                column = len(chunk) - chunk.rindex("\n")
            else:
                column += len(chunk)
            continue
        if group == 2:
            tokens.append(_Token(chunk, chunk, line, column))
        elif group == 4:
            raise ParseError(f"unexpected character {chunk!r}", line, column)
        elif chunk.isdigit():
            tokens.append(_Token("int", chunk, line, column))
        elif chunk[0].isalpha() or chunk[0] == "_":
            tokens.append(_Token("name", chunk, line, column))
        else:
            tokens += _split_word(chunk, line, column)
        column += len(chunk)
    tokens.append(_Token("end", "", line, column))
    return tokens


def _split_word(word: str, line: int, column: int) -> list[_Token]:
    """Split a word run that mixes digits with other characters.

    Digit runs become "int" tokens; a letter or "_" starts a "name" that runs
    to the end of the word.
    """
    tokens = []
    i = 0
    while i < len(word):
        ch = word[i]
        if ch.isdigit():
            j = i + 1
            while j < len(word) and word[j].isdigit():
                j += 1
            tokens.append(_Token("int", word[i:j], line, column + i))
            i = j
        elif ch.isalpha() or ch == "_":
            tokens.append(_Token("name", word[i:], line, column + i))
            break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, column + i)
    return tokens


def _weight_int(token: _Token) -> int:
    # str.isdigit, and so the tokenizer, accepts digits such as "²" that int() rejects
    try:
        return int(token.text)
    except ValueError:
        raise ParseError(
            f"weight {token.text!r} is not a decimal number", token.line, token.column
        ) from None


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
        numerator = _weight_int(token)
        denominator = 1
        if self.peek().kind == "/":
            self.next()
            denominator = _weight_int(self.expect("int"))
        if denominator == 0:
            raise ParseError("weight denominator is zero", token.line, token.column)
        weight = Fraction(numerator, denominator)
        if not 0 < numerator <= denominator:
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
