"""Abstract syntax of finite reactive probabilistic processes and tests.

Constructors:

    Empty()                          deadlocked process, written 0
    ExternalChoice(((a, P), ...))    action-prefixed choice a1->P1 [] a2->P2
    ProbChoice(((w, P), ...))        probabilistic choice p{w1:P1, w2:P2}
    Priority(P)                      keep only maximal-priority actions
    SyncPar(P, Q)                    lock-step parallel, written ||
    SharedPar(P, Q)                  synchronize on shared actions, |[]|

A test is a term that may additionally use the reserved success label "w"
as a choice branch (its continuation is always Empty).  Ordinary process
terms must not mention "w".  Structural equality follows the dataclass
fields, so syntactically equal subterms are interchangeable.

Each composite constructor is one `__init__` that validates its fields and
stores, beside them, the term's hash and `_shared`, the number of |[]| nodes
it contains.  The hash is computed from the hashes its subterms stored (a
probabilistic choice hashes its weights as integer numerator/denominator
pairs; a choice's key starts with a label or a weight, any other term's with
its class), so hashing takes constant time at any depth; `_shared` lets a walk
that only matters around |[]| pass over a subterm without entering it.
There is one Empty: `Empty()` returns it, and it compares and hashes by
identity.  Copying and pickling go through `__reduce__`, which rebuilds a
term with its constructor: it is validated again, its hash is recomputed in
the process that loads it (`str` hashes differ between processes), and
Empty comes back as the one Empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import is_
from typing import Callable, Iterator, Union

from .pts import OMEGA

Term = Union["Empty", "ExternalChoice", "ProbChoice", "Priority", "SyncPar", "SharedPar"]

_set = object.__setattr__  # fills a slot of a frozen term while it is built


def _stored_hash(term) -> int:
    return term._hash


def _reduce(term):
    """Rebuild the term through its constructor, which validates it again and
    recomputes its stored hash: `str` hashes differ from process to process,
    so a stored hash must not travel with a pickle."""
    return type(term), tuple(getattr(term, name) for name in term.__match_args__)


@dataclass(frozen=True, init=False, eq=False)
class Empty:
    """There is one Empty: `Empty()` returns it, so `==` and hash are identity."""

    __slots__ = ()
    _hash = hash(())  # both read by the constructors around it
    _shared = 0
    __reduce__ = _reduce

    def __new__(cls):
        return _EMPTY


_EMPTY = object.__new__(Empty)


@dataclass(frozen=True, init=False)
class ExternalChoice:
    branches: tuple[tuple[str, Term], ...]

    __slots__ = ("branches", "_hash", "_shared")
    __hash__ = _stored_hash
    __reduce__ = _reduce

    def __init__(self, branches: tuple[tuple[str, Term], ...]):
        branches = tuple(branches)  # the same object when it is a tuple
        if len(branches) == 1:  # a prefix, the commonest node
            ((label, sub),) = branches
            key, shared = (label, sub._hash), sub._shared
        else:
            labels, hashes, shared = [], [], 0
            for label, sub in branches:
                labels.append(label)
                hashes.append(sub._hash)
                shared += sub._shared
            if not labels:
                raise ValueError("external choice needs at least one branch")
            if len(set(labels)) != len(labels):
                raise ValueError(f"duplicate branch labels in {labels}")
            key = (*labels, *hashes)
        _set(self, "branches", branches)
        _set(self, "_hash", hash(key))
        _set(self, "_shared", shared)


@dataclass(frozen=True, init=False)
class ProbChoice:
    branches: tuple[tuple[Fraction, Term], ...]

    __slots__ = ("branches", "_hash", "_shared")
    __hash__ = _stored_hash
    __reduce__ = _reduce

    def __init__(self, branches: tuple[tuple[Fraction, Term], ...]):
        branches = tuple(branches)  # the same object when it is a tuple
        if not branches:
            raise ValueError("probabilistic choice needs at least one branch")
        # In integers: each weight n/d lies in (0,1] when 0 < n <= d, and the
        # weights sum to one when their running sum num/den, kept over the lcm
        # of the denominators so far, ends with num == den.  The hash reads
        # the same integers rather than hashing each Fraction.
        key: list[int] = []
        shared, num, den = 0, 0, 1
        for weight, sub in branches:
            numerator, denominator = weight.numerator, weight.denominator
            if not 0 < numerator <= denominator:
                raise ValueError(f"weight {weight} is outside (0,1]")
            common = lcm(den, denominator)
            num = num * (common // den) + numerator * (common // denominator)
            den = common
            key += (numerator, denominator, sub._hash)
            shared += sub._shared
        if num != den:
            total = sum(weight for weight, _ in branches)
            raise ValueError(f"weights sum to {total}, not 1")
        _set(self, "branches", branches)
        _set(self, "_hash", hash(tuple(key)))
        _set(self, "_shared", shared)


@dataclass(frozen=True, init=False)
class Priority:
    body: Term

    __slots__ = ("body", "_hash", "_shared")
    __hash__ = _stored_hash
    __reduce__ = _reduce

    def __init__(self, body: Term):
        _set(self, "body", body)
        _set(self, "_hash", hash((Priority, body._hash)))
        _set(self, "_shared", body._shared)


@dataclass(frozen=True, init=False)
class SyncPar:
    left: Term
    right: Term

    __slots__ = ("left", "right", "_hash", "_shared")
    __hash__ = _stored_hash
    __reduce__ = _reduce

    def __init__(self, left: Term, right: Term):
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "_hash", hash((SyncPar, left._hash, right._hash)))
        _set(self, "_shared", left._shared + right._shared)


@dataclass(frozen=True, init=False)
class SharedPar:
    left: Term
    right: Term

    __slots__ = ("left", "right", "_hash", "_shared")
    __hash__ = _stored_hash
    __reduce__ = _reduce

    def __init__(self, left: Term, right: Term):
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "_hash", hash((SharedPar, left._hash, right._hash)))
        _set(self, "_shared", 1 + left._shared + right._shared)


def prefix(label: str, body: Term | None = None) -> ExternalChoice:
    """Single-action prefix label->body (body defaults to Empty)."""
    return ExternalChoice(((label, body if body is not None else Empty()),))


def success() -> ExternalChoice:
    """The immediately succeeding test."""
    return ExternalChoice(((OMEGA, Empty()),))


def children(term: Term) -> list[Term]:
    """The immediate subterms, in syntactic order, as a fresh list."""
    if isinstance(term, (ExternalChoice, ProbChoice)):
        return [sub for _, sub in term.branches]
    if isinstance(term, Priority):
        return [term.body]
    if isinstance(term, (SyncPar, SharedPar)):
        return [term.left, term.right]
    if isinstance(term, Empty):
        return []
    raise TypeError(f"not a term: {term!r}")


def map_children(term: Term, fn: Callable[[Term], object]) -> Term:
    """The same constructor rebuilt with `fn` applied to each immediate subterm.

    When `fn` returns every subterm itself, the term itself is returned, so a
    rewrite rebuilds only the nodes above the subterms it changes.
    """
    subs = children(term)
    new = [fn(sub) for sub in subs]
    return term if all(map(is_, new, subs)) else rebuild(term, new)


def rebuild(term: Term, subs: list) -> Term:
    """The same constructor over new immediate subterms, in `children` order."""
    if isinstance(term, (ExternalChoice, ProbChoice)):
        return type(term)(tuple((key, new) for (key, _), new in zip(term.branches, subs)))
    if isinstance(term, Priority):
        return Priority(*subs)
    return type(term)(*subs)  # SyncPar or SharedPar


def subterms(term: Term) -> Iterator[Term]:
    """Every subterm occurrence in pre-order, the term itself first.

    Iterative, so arbitrarily deep terms never exhaust the call stack.
    """
    stack = [term]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


def alphabet(term: Term) -> frozenset[str]:
    """Action labels occurring syntactically in the term; excludes "w".

    One loop over an explicit stack, so any depth is fine.  The shared Empty
    is never pushed.
    """
    labels: set[str] = set()
    stack = [term]
    while stack:
        node = stack.pop()
        if isinstance(node, ExternalChoice):
            for label, sub in node.branches:
                labels.add(label)
                if sub is not _EMPTY:
                    stack.append(sub)
        elif isinstance(node, ProbChoice):
            for _, sub in node.branches:
                if sub is not _EMPTY:
                    stack.append(sub)
        elif isinstance(node, (SyncPar, SharedPar)):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, Priority):
            stack.append(node.body)
        elif node is not _EMPTY:
            raise TypeError(f"not a term: {node!r}")
    labels.discard(OMEGA)
    return frozenset(labels)


def has_prob_choice(term: Term) -> bool:
    return any(isinstance(node, ProbChoice) for node in subterms(term))


class PriorityOrder:
    """A strict partial order on action labels, closed under transitivity."""

    def __init__(self, pairs: tuple[tuple[str, str], ...] | list[tuple[str, str]] = ()):
        above: dict[str, set[str]] = {}
        for high, low in pairs:
            above.setdefault(high, set()).add(low)
        changed = True
        while changed:
            changed = False
            for high, lows in above.items():
                extra = set()
                for low in lows:
                    extra |= above.get(low, set())
                if not extra <= lows:
                    lows |= extra
                    changed = True
        for high, lows in above.items():
            if high in lows:
                raise ValueError(f"priority order has a cycle through {high!r}")
        self._above = {high: frozenset(lows) for high, lows in above.items()}
        self.pairs = frozenset(
            (high, low) for high, lows in self._above.items() for low in lows
        )

    def higher(self, a: str, b: str) -> bool:
        """True when a has strictly higher priority than b."""
        return b in self._above.get(a, ())

    def __repr__(self) -> str:
        body = ", ".join(f"{h} > {l}" for h, l in sorted(self.pairs))
        return f"PriorityOrder({body})"


EMPTY_ORDER = PriorityOrder()


def _render_branch(label: str, sub: Term) -> str:
    if label == OMEGA:
        return OMEGA
    if isinstance(sub, Empty):
        return label
    return f"{label}->{_render_tight(sub)}"


def _render_tight(term: Term) -> str:
    """Rendering for prefix targets: anything loose gets parentheses."""
    if isinstance(term, ExternalChoice) and len(term.branches) == 1:
        return _render_branch(*term.branches[0])
    if isinstance(term, (ExternalChoice, SyncPar, SharedPar)):
        return f"({render(term)})"
    return render(term)


def render(term: Term) -> str:
    """Concrete syntax; parse(render(t)) reproduces t exactly."""
    if isinstance(term, Empty):
        return "0"
    if isinstance(term, ExternalChoice):
        return " [] ".join(_render_branch(label, sub) for label, sub in term.branches)
    if isinstance(term, ProbChoice):
        inner = ", ".join(
            f"{w.numerator}/{w.denominator}:{render(sub)}" for w, sub in term.branches
        )
        return f"p{{{inner}}}"
    if isinstance(term, Priority):
        return f"prio({render(term.body)})"
    if isinstance(term, (SyncPar, SharedPar)):
        op = "||" if isinstance(term, SyncPar) else "|[]|"

        def side(sub: Term) -> str:
            if isinstance(sub, (SyncPar, SharedPar)):
                return f"({render(sub)})"
            if isinstance(sub, ExternalChoice) and len(sub.branches) > 1:
                return f"({render(sub)})"
            return render(sub)

        return f"{side(term.left)} {op} {side(term.right)}"
    raise TypeError(f"not a term: {term!r}")
