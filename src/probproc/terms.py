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
terms must not mention "w".  Structural equality and hashing follow the
dataclass fields, so syntactically equal subterms are interchangeable.  Each
composite term stores its hash in a slot when it is built, from the hashes
its subterms stored, so hashing takes constant time at any depth.  Beside
the hash it stores `_shared`, the number of |[]| nodes it contains, so a
walk that only matters around |[]| can pass over a subterm without entering
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Iterator, Union

from .pts import OMEGA

Term = Union["Empty", "ExternalChoice", "ProbChoice", "Priority", "SyncPar", "SharedPar"]


def _store_hash(term, shared: int, *fields) -> None:
    """Record the hash the dataclass would compute from these fields, and
    the number of |[]| nodes the term contains."""
    object.__setattr__(term, "_hash", hash(fields))
    object.__setattr__(term, "_shared", shared)


def _stored_hash(term) -> int:
    return term._hash


@dataclass(frozen=True)
class Empty:
    _shared = 0


@dataclass(frozen=True)
class ExternalChoice:
    branches: tuple[tuple[str, Term], ...]

    __slots__ = ("branches", "_hash", "_shared")
    __hash__ = _stored_hash

    def __post_init__(self):
        labels = set()
        shared = 0
        for label, sub in self.branches:
            labels.add(label)
            shared += sub._shared
        if not labels:
            raise ValueError("external choice needs at least one branch")
        if len(labels) != len(self.branches):
            listed = [label for label, _ in self.branches]
            raise ValueError(f"duplicate branch labels in {listed}")
        _store_hash(self, shared, self.branches)


@dataclass(frozen=True)
class ProbChoice:
    branches: tuple[tuple[Fraction, Term], ...]

    __slots__ = ("branches", "_hash", "_shared")
    __hash__ = _stored_hash

    def __post_init__(self):
        if not self.branches:
            raise ValueError("probabilistic choice needs at least one branch")
        # In integers: each weight n/d lies in (0,1] when 0 < n <= d, and the
        # weights sum to one when their numerators over the lcm do.
        common = lcm(*(weight.denominator for weight, _ in self.branches))
        scaled = shared = 0
        for weight, sub in self.branches:
            numerator, denominator = weight.numerator, weight.denominator
            if not 0 < numerator <= denominator:
                raise ValueError(f"weight {weight} is outside (0,1]")
            scaled += numerator * (common // denominator)
            shared += sub._shared
        if scaled != common:
            total = sum(weight for weight, _ in self.branches)
            raise ValueError(f"weights sum to {total}, not 1")
        _store_hash(self, shared, self.branches)


@dataclass(frozen=True)
class Priority:
    body: Term

    __slots__ = ("body", "_hash", "_shared")
    __hash__ = _stored_hash

    def __post_init__(self):
        _store_hash(self, self.body._shared, self.body)


@dataclass(frozen=True)
class SyncPar:
    left: Term
    right: Term

    __slots__ = ("left", "right", "_hash", "_shared")
    __hash__ = _stored_hash

    def __post_init__(self):
        _store_hash(self, self.left._shared + self.right._shared, self.left, self.right)


@dataclass(frozen=True)
class SharedPar:
    left: Term
    right: Term

    __slots__ = ("left", "right", "_hash", "_shared")
    __hash__ = _stored_hash

    def __post_init__(self):
        _store_hash(self, 1 + self.left._shared + self.right._shared, self.left, self.right)


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
    if isinstance(term, (ExternalChoice, ProbChoice)):
        subs = [fn(sub) for _, sub in term.branches]
        if all(new is old for new, (_, old) in zip(subs, term.branches)):
            return term
        return type(term)(tuple((key, new) for (key, _), new in zip(term.branches, subs)))
    if isinstance(term, Priority):
        body = fn(term.body)
        return term if body is term.body else Priority(body)
    if isinstance(term, (SyncPar, SharedPar)):
        left, right = fn(term.left), fn(term.right)
        if left is term.left and right is term.right:
            return term
        return type(term)(left, right)
    if isinstance(term, Empty):
        return term
    raise TypeError(f"not a term: {term!r}")


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

    One loop over an explicit stack, so any depth is fine.
    """
    labels: set[str] = set()
    stack = [term]
    while stack:
        node = stack.pop()
        if isinstance(node, ExternalChoice):
            for label, sub in node.branches:
                labels.add(label)
                stack.append(sub)
        elif isinstance(node, ProbChoice):
            stack.extend(sub for _, sub in node.branches)
        elif isinstance(node, Priority):
            stack.append(node.body)
        elif isinstance(node, (SyncPar, SharedPar)):
            stack.append(node.left)
            stack.append(node.right)
        elif not isinstance(node, Empty):
            raise TypeError(f"not a term: {node!r}")
    labels.discard(OMEGA)
    return frozenset(labels)


def shared_alphabet(left: Term, right: Term) -> frozenset[str]:
    """Actions occurring in both operands: the synchronization set of |[]|."""
    return alphabet(left) & alphabet(right)


def uses_success(term: Term) -> bool:
    return any(
        isinstance(node, ExternalChoice) and any(label == OMEGA for label, _ in node.branches)
        for node in subterms(term)
    )


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
