"""Observation semantics: menus, ready traces, and their exact probabilities.

An observer sees, at each step, the menu of actions currently offered and
picks one; the probabilistic branching is invisible.  A ready trace records
that history as alternating menus and chosen actions, ending on a menu.

`trace_probability` gives the exact probability of observing a whole ready
trace, given the observer's action choices: the value witnesses carry.  It
is undefined (never zero) when a strict prefix of the trace already has
probability zero.  Equivalence of two processes is equality of all the
observation probabilities, each menu's conditioned on the history before
it, decided over pairs of positions by one walk that returns the path to
the first pair whose menus differ (`differing_path`).  Positions are
interned per graph with integer weights (`pts.Positions`), in one table for
the two graphs of `semantics.compile_pair`; fractions are built only for
the probabilities returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .parser import _label
from .pts import Menu, Positions, Pts, format_menu


def menu_key(menu: Menu):
    """Observation order of menus: by size, then by sorted labels."""
    return (len(menu), tuple(sorted(menu)))


class _UndefinedType:
    """Result of conditioning on a zero-probability history."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "undefined"

    def __bool__(self):
        return False


UNDEFINED = _UndefinedType()

Probability = Union[Fraction, _UndefinedType]


@dataclass(frozen=True)
class ReadyTrace:
    """Alternating menus and chosen actions: n menus, n-1 actions."""

    menus: tuple[Menu, ...]
    actions: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "menus", tuple(frozenset(m) for m in self.menus))
        object.__setattr__(self, "actions", tuple(self.actions))
        if not self.menus:
            raise ValueError("a ready trace has at least one menu")
        if len(self.actions) != len(self.menus) - 1:
            raise ValueError(
                f"{len(self.menus)} menus need {len(self.menus) - 1} actions, "
                f"got {len(self.actions)}"
            )
        for action, menu in zip(self.actions, self.menus):
            if action not in menu:
                raise ValueError(
                    f"chosen action {action!r} is not in its menu {format_menu(menu)}"
                )

    def __len__(self) -> int:
        return len(self.menus)

    def render(self) -> str:
        parts = [format_menu(self.menus[0])]
        for action, menu in zip(self.actions, self.menus[1:]):
            parts.append(f"-{action}->")
            parts.append(format_menu(menu))
        return " ".join(parts)

    def __str__(self) -> str:
        return self.render()


def parse_trace(text: str) -> ReadyTrace:
    """Parse the rendering `{h,t} -h-> {p} -p-> {}`; each menu label and
    action must be a label as the term parser reads it in a process, so not
    the reserved success label "w"."""
    menus: list[Menu] = []
    actions: list[str] = []
    rest = text.strip()
    while True:
        if not rest.startswith("{"):
            raise ValueError(f"expected a menu at {rest!r}")
        close = rest.find("}")
        if close < 0:
            raise ValueError(f"unterminated menu in {text!r}")
        inside = rest[1:close]
        words = inside.split(",") if inside.strip() else ()
        menus.append(frozenset(_label(word, "a ready trace") for word in words))
        rest = rest[close + 1 :].strip()
        if not rest:
            break
        if not rest.startswith("-"):
            raise ValueError(f"expected -action-> at {rest!r}")
        arrow = rest.find("->")
        if arrow < 0:
            raise ValueError(f"malformed arrow in {text!r}")
        actions.append(_label(rest[1:arrow], "a ready trace"))
        rest = rest[arrow + 2 :].strip()
    return ReadyTrace(tuple(menus), tuple(actions))


# --- probabilities ---------------------------------------------------------


def menu_distribution(pts: Pts) -> dict[Menu, Fraction]:
    """Probability of each initially observable menu (support only)."""
    table = pts.positions
    return table.distribution(table.start(pts.root))


def trace_probability(pts: Pts, trace: ReadyTrace) -> Probability:
    """Probability of observing the whole trace, given the observer's choices.

    Undefined exactly when some strict prefix already has probability zero;
    a zero for the final menu alone is a defined zero.
    """
    table = pts.positions
    pos = table.start(pts.root)
    num = den = 1
    last = len(trace.menus) - 1
    for i, menu in enumerate(trace.menus):
        weight = table.menus[pos].get(menu, 0)
        if weight == 0:
            return Fraction(0) if i == last else UNDEFINED
        num *= weight
        den *= table.totals[pos]
        if i == last:
            break
        pos = table.child(pos, menu, trace.actions[i])
    return Fraction(num, den)


# --- equivalence -----------------------------------------------------------


@dataclass(frozen=True)
class TraceVerdict:
    equivalent: bool
    trace: ReadyTrace | None = None
    left_probability: Probability | None = None
    right_probability: Probability | None = None

    def describe(self) -> str:
        if self.equivalent:
            return "equivalent"
        return (
            f"distinguished by {self.trace.render()}: "
            f"{self.left_probability} vs {self.right_probability}"
        )


def differing_path(lt: Positions, rt: Positions, start: tuple[int, int]):
    """Where a pair of positions, ids in the two position tables, first
    differs; None when they are equivalent.

    The menu distributions must agree, and after every observable
    menu/action step the positions must stay equivalent.  The path is the
    pairs from `start` along the first differing steps, in menu then action
    order, each with its step (menu, action, child pair), and last the pair
    whose menus differ, with (menu,).  The walk's explicit stack is that
    path when it meets the pair; each pair found equivalent is kept in a
    set, so no pair is expanded twice.

    On one table a position paired with itself is equivalent on sight: one
    id is one distribution over the same states.  Such a pair is never
    expanded.
    """
    same = lt is rt
    if same and start[0] == start[1]:
        return None
    equivalent: set[tuple[int, int]] = set()
    # Frames [pair, remaining steps, step to the child being searched]; the
    # graphs are acyclic, so no pair is on the stack twice.
    stack = [[start, None, None]]
    while stack:
        frame = stack[-1]
        pair, steps = frame[0], frame[1]
        if steps is None:
            menu = _first_differing_menu(lt, pair[0], rt, pair[1])
            if menu is not None:
                return [(above[0], above[2]) for above in stack[:-1]] + [(pair, (menu,))]
            ordered = sorted(lt.menus[pair[0]], key=menu_key)
            steps = frame[1] = ((menu, action) for menu in ordered for action in sorted(menu))
        for menu, action in steps:
            child = (lt.child(pair[0], menu, action), rt.child(pair[1], menu, action))
            if child not in equivalent and not (same and child[0] == child[1]):
                frame[2] = (menu, action, child)
                stack.append([child, None, None])
                break
        else:
            equivalent.add(pair)
            stack.pop()
    return None


def _first_differing_menu(lt: Positions, lpos: int, rt: Positions, rpos: int) -> Menu | None:
    """The first menu, in observation order, observed with different
    probabilities from the two positions; weights compared across totals."""
    lmenus, rmenus = lt.menus[lpos], rt.menus[rpos]
    ltotal, rtotal = lt.totals[lpos], rt.totals[rpos]
    if lmenus.keys() == rmenus.keys() and all(
        weight * rtotal == rmenus[menu] * ltotal for menu, weight in lmenus.items()
    ):
        return None
    return next(
        menu
        for menu in sorted(lmenus.keys() | rmenus.keys(), key=menu_key)
        if lmenus.get(menu, 0) * rtotal != rmenus.get(menu, 0) * ltotal
    )


def ready_trace_equivalent(left: Pts, right: Pts) -> TraceVerdict:
    """Decide observational equivalence; witnesses carry both probabilities,
    each the product of the menu probabilities along the trace.  The trace
    is read off the differing path."""
    lt, rt = left.positions, right.positions
    path = differing_path(lt, rt, (lt.start(left.root), rt.start(right.root)))
    if path is None:
        return TraceVerdict(equivalent=True)
    trace = ReadyTrace(
        tuple(step[0] for _, step in path), tuple(step[1] for _, step in path[:-1])
    )
    return TraceVerdict(
        False, trace, trace_probability(left, trace), trace_probability(right, trace)
    )
