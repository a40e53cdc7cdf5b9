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


_SYMBOLS = ["|[]|", "[]", "||", "->", "{", "}", "(", ")", ",", ":", "/"]
# One match per token, after any whitespace: a symbol (tried in list order, so
# longest first), a word run, or any other character (an error).  Matching
# stops at the trailing whitespace, which would otherwise be rescanned from
# each of its characters.
_TOKEN = re.compile(r"\s*(%s|\w+|\S)" % "|".join(map(re.escape, _SYMBOLS)))
_SYMBOL_KINDS = {symbol: symbol for symbol in _SYMBOLS}


def _word_kind(word: str) -> str | None:
    if word.isdigit():
        return "int"
    if word[0].isalpha() or word[0] == "_":
        return "name"
    return None


def _tokenize(text: str) -> tuple[list[str], list[str]]:
    """The token kinds and texts, ending with an "end" token.

    A kind is the symbol itself, "int", "name" or "end".  Tokens carry no
    position: `_position` recovers one from the texts when an error needs it.
    """
    texts = _TOKEN.findall(text, 0, len(text.rstrip()))
    kinds = [_SYMBOL_KINDS.get(chunk) or _word_kind(chunk) for chunk in texts]
    if None in kinds:
        kinds, texts = _split_words(text, texts)
    kinds.append("end")
    texts.append("")
    return kinds, texts


def _split_words(text: str, chunks: list[str]) -> tuple[list[str], list[str]]:
    """Tokens for chunks that include a word mixing digits with other
    characters, or a character that starts no token.

    Digit runs become "int" tokens; a letter or "_" starts a "name" that runs
    to the end of the word.
    """
    kinds: list[str] = []
    texts: list[str] = []
    for index, chunk in enumerate(chunks):
        kind = _SYMBOL_KINDS.get(chunk) or _word_kind(chunk)
        if kind:
            kinds.append(kind)
            texts.append(chunk)
            continue
        i = 0
        while i < len(chunk):
            ch = chunk[i]
            if ch.isdigit():
                j = i + 1
                while j < len(chunk) and chunk[j].isdigit():
                    j += 1
                kinds.append("int")
                texts.append(chunk[i:j])
                i = j
            elif ch.isalpha() or ch == "_":
                kinds.append("name")
                texts.append(chunk[i:])
                break
            else:
                line, column = _position(text, chunks, index)
                raise ParseError(f"unexpected character {ch!r}", line, column + i)
    return kinds, texts


def _position(text: str, texts: list[str], index: int) -> tuple[int, int]:
    """The line and column of token `index`, the end token at the end of text.

    Only whitespace separates the tokens, so each one is the first
    occurrence of its text after the one before it.
    """
    offset = 0
    for chunk in texts[:index]:
        offset = text.find(chunk, offset) + len(chunk)
    offset = text.find(texts[index], offset) if texts[index] else len(text)
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


class _Parser:
    __slots__ = ("text", "kinds", "texts", "pos", "allow_success")

    def __init__(self, text: str, allow_success: bool):
        self.text = text
        self.kinds, self.texts = _tokenize(text)
        self.pos = 0
        self.allow_success = allow_success

    def error(self, index: int, message: str) -> ParseError:
        return ParseError(message, *_position(self.text, self.texts, index))

    def found(self) -> str:
        return repr(self.texts[self.pos] or "end of input")

    def expect(self, kind: str) -> str:
        pos = self.pos
        if self.kinds[pos] != kind:
            raise self.error(pos, f"expected {kind!r}, found {self.found()}")
        self.pos = pos + 1
        return self.texts[pos]

    # --- grammar ---------------------------------------------------------

    def parse_process(self) -> Term:
        """par: choices joined by "||" and "|[]|"; a choice is an atom or
        branches joined by "[]"."""
        kinds = self.kinds
        term = op = None
        while True:
            right = self.parse_atom()
            if right is None:
                branches = [self.parse_branch()]
                while kinds[self.pos] == "[]":
                    self.pos += 1
                    branches.append(self.parse_branch())
                try:
                    right = ExternalChoice(tuple(branches))
                except ValueError as exc:
                    raise self.error(self.pos, str(exc)) from None
            if op is None:
                term = right
            elif op == "||":
                term = SyncPar(term, right)
            else:
                term = SharedPar(term, right)
            op = kinds[self.pos]
            if op != "||" and op != "|[]|":
                return term
            self.pos += 1

    def parse_branch(self) -> tuple[str, Term]:
        pos = self.pos
        if self.kinds[pos] != "name":
            raise self.error(pos, f"expected an action label, found {self.found()}")
        label = self.texts[pos]
        self.pos = pos + 1
        if label == OMEGA:
            if not self.allow_success:
                raise self.error(pos + 1, f"success marker {OMEGA!r} is only allowed in tests")
            return (OMEGA, Empty())
        if self.kinds[pos + 1] == "->":
            self.pos = pos + 2
            return (label, self.parse_target())
        return (label, Empty())

    def parse_target(self) -> Term:
        term = self.parse_atom()
        if term is not None:
            return term
        return ExternalChoice((self.parse_branch(),))

    def parse_atom(self) -> Term | None:
        """The atom at the current token, or None when no atom starts there."""
        pos = self.pos
        kinds = self.kinds
        kind, text = kinds[pos], self.texts[pos]
        if kind == "(":
            self.pos = pos + 1
            term = self.parse_process()
            self.expect(")")
            return term
        if kind == "int":
            if text != "0":
                return None
            self.pos = pos + 1
            return Empty()
        if kind != "name":
            return None
        if text == "prio" and kinds[pos + 1] == "(":
            self.pos = pos + 2
            term = self.parse_process()
            self.expect(")")
            return Priority(term)
        if text == "p" and kinds[pos + 1] == "{":
            self.pos = pos + 2
            branches = [self.parse_weighted()]
            while kinds[self.pos] == ",":
                self.pos += 1
                branches.append(self.parse_weighted())
            closing = self.pos
            self.expect("}")
            try:
                return ProbChoice(tuple(branches))
            except ValueError as exc:
                raise self.error(closing, str(exc)) from None
        return None

    def weight_int(self) -> int:
        pos = self.pos
        text = self.expect("int")
        # str.isdigit, and so the tokenizer, accepts digits such as "²" that int() rejects
        try:
            return int(text)
        except ValueError:
            raise self.error(pos, f"weight {text!r} is not a decimal number") from None

    def parse_weighted(self) -> tuple[Fraction, Term]:
        start = self.pos
        numerator = self.weight_int()
        denominator = 1
        if self.kinds[self.pos] == "/":
            self.pos += 1
            denominator = self.weight_int()
        if denominator == 0:
            raise self.error(start, "weight denominator is zero")
        weight = Fraction(numerator, denominator)
        if not 0 < numerator <= denominator:
            raise self.error(start, f"weight {weight} is outside (0,1]")
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
