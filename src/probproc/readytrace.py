"""Observation semantics: menus, ready traces, and their exact probabilities.

An observer sees, at each step, the menu of actions currently offered and
picks one; the probabilistic branching is invisible.  A ready trace records
that history as alternating menus and chosen actions, ending on a menu.

Two probability notions are provided, both exact:

  * trace_probability: the probability of observing a whole ready trace,
    given the observer's action choices.  This is the value witnesses carry.
  * conditional_menu_probability: the probability that the final menu is
    observed given the entire earlier history.  Conditioning renormalizes by
    the observed menu's weight at every step, so for each defined history
    the conditional values over possible next menus sum to one.

Both are undefined (never zero) when the history itself has probability
zero.  Equivalence of two processes is equality of all these observation
probabilities, decided recursively with memoization over state pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union

from .pts import (
    Menu,
    Pts,
    View,
    condition_view,
    format_menu,
    root_view,
    view_menu_distribution,
)


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


def menu_key(menu: Menu):
    return (len(menu), tuple(sorted(menu)))


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
    """Parse the rendering `{h,t} -h-> {p} -p-> {}`."""
    menus: list[Menu] = []
    actions: list[str] = []
    rest = text.strip()
    while True:
        if not rest.startswith("{"):
            raise ValueError(f"expected a menu at {rest!r}")
        close = rest.find("}")
        if close < 0:
            raise ValueError(f"unterminated menu in {text!r}")
        inside = rest[1:close].strip()
        menus.append(frozenset(part.strip() for part in inside.split(",") if part.strip()))
        rest = rest[close + 1 :].strip()
        if not rest:
            break
        if not rest.startswith("-"):
            raise ValueError(f"expected -action-> at {rest!r}")
        arrow = rest.find("->")
        if arrow < 0:
            raise ValueError(f"malformed arrow in {text!r}")
        actions.append(rest[1:arrow].strip())
        rest = rest[arrow + 2 :].strip()
    return ReadyTrace(tuple(menus), tuple(actions))


# --- probabilities ---------------------------------------------------------


def menu_distribution(pts: Pts, state: int | None = None) -> dict[Menu, Fraction]:
    """Probability of each initially observable menu (support only)."""
    pts.require_acyclic()
    view = ("s", pts.root if state is None else state)
    return view_menu_distribution(pts, view)


def trace_probability(pts: Pts, trace: ReadyTrace, state: int | None = None) -> Probability:
    """Probability of observing the whole trace, given the observer's choices.

    Undefined exactly when some strict prefix already has probability zero;
    a zero for the final menu alone is a defined zero.
    """
    pts.require_acyclic()
    view: View = ("s", pts.root if state is None else state)
    value = Fraction(1)
    last = len(trace.menus) - 1
    for i, menu in enumerate(trace.menus):
        dist = view_menu_distribution(pts, view)
        p = dist.get(menu, Fraction(0))
        value *= p
        if i == last:
            break
        if p == 0:
            return UNDEFINED
        view = condition_view(pts, view, menu, trace.actions[i])
    return value


def conditional_menu_probability(
    pts: Pts, trace: ReadyTrace, state: int | None = None
) -> Probability:
    """Probability of the final menu given the entire earlier history."""
    if len(trace) < 2:
        raise ValueError("conditioning needs a trace with at least two menus")
    pts.require_acyclic()
    view: View = ("s", pts.root if state is None else state)
    for menu, action in zip(trace.menus, trace.actions):
        if view_menu_distribution(pts, view).get(menu, Fraction(0)) == 0:
            return UNDEFINED
        view = condition_view(pts, view, menu, action)
    return view_menu_distribution(pts, view).get(trace.menus[-1], Fraction(0))


def iter_ready_traces(
    pts: Pts, max_len: int | None = None, state: int | None = None
) -> Iterator[tuple[ReadyTrace, Fraction]]:
    """All traces of positive probability up to max_len menus, in a fixed order.

    max_len defaults to one more than the graph's action depth, beyond which
    every trace ends in the empty menu and cannot extend.
    """
    pts.require_acyclic()
    if max_len is None:
        max_len = pts.action_depth + 1
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    start: View = ("s", pts.root if state is None else state)

    def walk(view, menus, actions, probability):
        dist = view_menu_distribution(pts, view)
        for menu in sorted(dist, key=menu_key):
            p = probability * dist[menu]
            trace = ReadyTrace(menus + (menu,), actions)
            yield trace, p
            if len(trace) < max_len:
                for action in sorted(menu):
                    yield from walk(
                        condition_view(pts, view, menu, action),
                        menus + (menu,),
                        actions + (action,),
                        p,
                    )

    yield from walk(start, (), (), Fraction(1))


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


_Witness = tuple  # (menus, actions, left probability, right probability)


def views_differ(
    left: Pts, lview: View, right: Pts, rview: View, memo: dict | None = None
) -> _Witness | None:
    """Recursive equivalence of two positions; returns a minimal-prefix witness.

    The menu distributions must agree, and after every observable menu/action
    step the positions must stay equivalent.  The returned witness carries
    whole-trace probabilities for both sides.
    """
    if memo is None:
        memo = {}
    key = (lview, rview)
    if key in memo:
        return memo[key]
    ldist = view_menu_distribution(left, lview)
    rdist = view_menu_distribution(right, rview)
    result: _Witness | None = None
    if ldist != rdist:
        for menu in sorted(set(ldist) | set(rdist), key=menu_key):
            lp = ldist.get(menu, Fraction(0))
            rp = rdist.get(menu, Fraction(0))
            if lp != rp:
                result = ((menu,), (), lp, rp)
                break
    else:
        for menu in sorted(ldist, key=menu_key):
            for action in sorted(menu):
                sub = views_differ(
                    left,
                    condition_view(left, lview, menu, action),
                    right,
                    condition_view(right, rview, menu, action),
                    memo,
                )
                if sub is not None:
                    menus, actions, lp, rp = sub
                    p = ldist[menu]
                    result = ((menu,) + menus, (action,) + actions, p * lp, p * rp)
                    break
            if result is not None:
                break
    memo[key] = result
    return result


def ready_trace_equivalent(left: Pts, right: Pts) -> TraceVerdict:
    """Decide observational equivalence; witnesses carry both probabilities."""
    left.require_acyclic()
    right.require_acyclic()
    witness = views_differ(left, root_view(left), right, root_view(right))
    if witness is None:
        return TraceVerdict(equivalent=True)
    menus, actions, lp, rp = witness
    return TraceVerdict(
        equivalent=False,
        trace=ReadyTrace(menus, actions),
        left_probability=lp,
        right_probability=rp,
    )
