"""Bipartite probabilistic transition graphs.

States are opaque integers, each tagged "n" (nondeterministic: only labeled
action steps leave it) or "p" (probabilistic: only weighted steps leave it,
weights summing to one).  A state with no outgoing step must be tagged "n".
A graph is its maps: per state, an action map from label to successor, so
the choice offered by a nondeterministic state is between actions only,
and a tuple of (weight, successor) pairs, at most one per successor.

Every analysis reads only graphs that `validate` passes: a graph that
`compile_term` builds is handed over as valid, any other is checked once by
`Pts.require_valid`, the one gate, before the first analysis reads it.  So
a weighted step always leads to a nondeterministic state, and both
semantics read weighted steps through one routine per graph
(`Pts._settled`): the settled states a state reaches, with their weights,
which is all an observer or a test can tell of a random choice.

The reserved label "w" marks the success action of tests; it is never part
of a declared alphabet.  A graph holds its caller's maps, which must not
change after its first analysis: only `validate` reads them uncached.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from itertools import chain
from math import gcd, lcm
from operator import itemgetter
from typing import Mapping

OMEGA = "w"

Menu = frozenset[str]


_target = itemgetter(1)

_CYCLE = "graph contains a cycle"


class CyclicGraphError(ValueError):
    """Raised when an operation that needs an acyclic graph receives a cycle."""


class MenuNotOffered(ValueError):
    """Raised when conditioning on a menu/action pair the state cannot offer."""


@dataclass(frozen=True)
class Pts:
    """A graph: per state its kind, its action map and its weighted tuple,
    `{}` and `()` for a state of the other kind.

    `compile_term` builds the maps in its walk and hands them, with the fact
    that `validate` passes the graph, to `Pts.valid`.  The maps must not
    change after the graph's first analysis: the gate's verdict and the
    tables read from them are cached per graph.
    """

    alphabet: frozenset[str]
    kinds: Mapping[int, str]
    actions: Mapping[int, Mapping[str, int]]
    weighted: Mapping[int, tuple[tuple[Fraction, int], ...]]
    root: int

    @staticmethod
    def valid(
        alphabet: frozenset[str],
        kinds: dict[int, str],
        actions: dict[int, dict[str, int]],
        weighted: dict[int, tuple[tuple[Fraction, int], ...]],
        root: int,
    ) -> Pts:
        """A graph its builder knows `validate` to pass, never checked or
        walked to find out."""
        pts = Pts(alphabet, kinds, actions, weighted, root)
        pts.__dict__.update(is_acyclic=True, _problems=())
        return pts

    def menu(self, state: int) -> Menu:
        """The set of actions the state offers; defined for "n" states only."""
        if self.kinds[state] != "n":
            raise ValueError(f"state {state} is probabilistic and offers no menu")
        return frozenset(self.actions[state])

    @cached_property
    def _order(self) -> tuple[int, ...] | None:
        """The graph's `_post_order`, walked once per graph."""
        return _post_order(self)

    @cached_property
    def is_acyclic(self) -> bool:
        """Handed over by `Pts.valid`, else read off `_order`."""
        return self._order is not None

    @cached_property
    def _problems(self) -> tuple[str, ...]:
        """What `validate` reports, success steps allowed; handed over empty
        by `Pts.valid`."""
        return tuple(validate(self, allow_success=True))

    def require_valid(self) -> None:
        """The gate every analysis passes before it reads the graph.  A graph
        `validate` reports is refused: a cycle alone with CyclicGraphError,
        anything else with one ValueError line of its problems."""
        problems = self._problems
        if problems == (_CYCLE,):
            raise CyclicGraphError("operation requires an acyclic graph")
        if problems:
            raise ValueError("; ".join(problems))

    @cached_property
    def action_depth(self) -> int:
        """Largest number of action edges on any path from the root."""
        self.require_valid()
        depth: dict[int, int] = {}
        actions, weighted = self.actions, self.weighted
        for state in self._order:
            successors = actions[state].values()
            here = 1 + max(map(depth.__getitem__, successors)) if successors else 0
            for _, dst in weighted[state]:
                here = max(here, depth[dst])
            depth[state] = here
        return depth[self.root]

    @cached_property
    def _settled(self) -> _Filled:
        """Per state, the settled states it reaches through weighted steps
        (`_settle`), each state's filled once; read by both semantics."""
        self.require_valid()
        return _Filled(partial(_settle, self.kinds, self.weighted))

    @cached_property
    def positions(self) -> Positions:
        """The graph's position table, filled as positions are asked for."""
        return Positions(self)


def _edges(pts: Pts) -> tuple[list[tuple[int, str, int]], list[tuple[int, Fraction, int]]]:
    """The graph's action and weighted edges, as (source, label or weight,
    target), in the order of its maps: state by state."""
    return (
        [(src, label, dst) for src, moves in pts.actions.items() for label, dst in moves.items()],
        [(src, weight, dst) for src, pairs in pts.weighted.items() for weight, dst in pairs],
    )


def validate(pts: Pts, allow_success: bool = False) -> list[str]:
    """Check every structural invariant, returning one message per violation.

    Never raises: an empty list means the graph is well formed and acyclic.
    A cycle is looked for only in a graph with no other problem; every
    analysis refuses a graph reported here (`Pts.require_valid`).
    """
    problems: list[str] = []
    states = set(pts.kinds)
    if not _is_state(pts.root, states):
        problems.append(f"root {pts.root} is not a state")
    for state, kind in pts.kinds.items():
        if kind not in ("n", "p"):
            problems.append(f"state {state} has unknown kind {kind!r}")
        for name, entries in (("action map", pts.actions), ("weighted tuple", pts.weighted)):
            if state not in entries:
                problems.append(f"state {state} has no {name}")

    allowed = set(pts.alphabet) | ({OMEGA} if allow_success else set())
    if OMEGA in pts.alphabet:
        problems.append(f"alphabet must not contain the reserved label {OMEGA!r}")

    # A map of the wrong shape is one problem, and the edge, range and sum
    # checks pass over its state.
    action_edges, prob_edges, unsummable = [], [], set()
    for src, moves in pts.actions.items():
        if not isinstance(moves, Mapping):
            problems.append(f"action map of state {src} is not a map: {moves!r}")
            unsummable.add(src)
        else:
            action_edges += [(src, label, dst) for label, dst in moves.items()]
    for src, pairs in pts.weighted.items():
        if type(pairs) is not tuple or not all(type(p) is tuple and len(p) == 2 for p in pairs):
            problems.append(f"weighted tuple of state {src} is not a tuple of pairs: {pairs!r}")
            unsummable.add(src)
        elif src not in unsummable:
            prob_edges += [(src, weight, dst) for weight, dst in pairs]
    for src, label, dst in action_edges:
        if src not in states or not _is_state(dst, states):
            problems.append(f"action edge ({src},{label},{dst}) uses unknown state")
            continue
        if pts.kinds[src] != "n":
            problems.append(f"action edge leaves probabilistic state {src}")
        if label not in allowed:
            problems.append(f"label {label!r} is not in the alphabet")

    steps: set[tuple[int, int]] = set()
    for src, weight, dst in prob_edges:
        if src not in states or not _is_state(dst, states):
            problems.append(f"probabilistic edge ({src},{weight},{dst}) uses unknown state")
            continue
        if pts.kinds[src] != "p":
            problems.append(f"probabilistic edge leaves nondeterministic state {src}")
        if pts.kinds[dst] == "p":
            problems.append(f"probabilistic edge targets probabilistic state {dst}")
        if (src, dst) in steps:
            problems.append(f"weighted tuple of state {src} names successor {dst} twice")
        steps.add((src, dst))
        if type(weight) not in (int, Fraction):  # not bool, not float
            problems.append(f"weight {weight!r} of edge ({src},{dst}) is not an int or a Fraction")
            unsummable.add(src)
        elif not (0 < weight <= 1):
            problems.append(f"weight {weight} of edge ({src},{dst}) is outside (0,1]")

    for state, kind in pts.kinds.items():
        pairs = pts.weighted.get(state)
        if kind != "p" or state in unsummable:
            continue
        if not pairs:
            problems.append(f"state {state} is probabilistic but has no outgoing edges")
        elif (total := sum(w for w, _ in pairs)) != 1:
            problems.append(f"weights leaving state {state} sum to {total}, not 1")

    if not problems and _post_order(pts) is None:
        problems.append(_CYCLE)
    return problems


def _post_order(pts: Pts) -> tuple[int, ...] | None:
    """Every state, each after all of its successors, by an iterative
    post-order over the graph's maps as they are now; None on a cycle,
    reachable or not."""
    actions, weighted = pts.actions, pts.weighted
    order: list[int] = []
    done: set[int] = set()
    active: set[int] = set()
    for start in pts.kinds:
        if start in done:
            continue
        active.add(start)
        stack = [(start, chain(actions[start].values(), map(_target, weighted[start])))]
        while stack:
            state, pending = stack[-1]
            for dst in pending:
                if dst in active:
                    return None
                if dst not in done:
                    active.add(dst)
                    stack.append(
                        (dst, chain(actions[dst].values(), map(_target, weighted[dst])))
                    )
                    break
            else:
                stack.pop()
                active.discard(state)
                done.add(state)
                order.append(state)
    return tuple(order)


def _is_state(value, states: set) -> bool:
    """Whether the value names a state; a value that cannot be hashed, such
    as a list, names none."""
    try:
        return value in states
    except TypeError:
        return False


# --- positions and conditioning ---------------------------------------------
#
# A position is a distribution over settled (nondeterministic) states, all
# that an observer can know: a state is the distribution it settles into, so
# a settled state is the one-point distribution on itself.  Each graph interns
# its positions in one table, built as they are first asked for and kept on
# the graph (`Pts.positions`).


def format_menu(menu: Menu) -> str:
    return "{" + ",".join(sorted(menu)) + "}"


class _Filled(dict):
    """A dict that computes a missing value from its key, once."""

    __slots__ = ("_fill",)

    def __init__(self, fill):
        super().__init__()
        self._fill = fill

    def __missing__(self, key):
        value = self[key] = self._fill(key)
        return value


def _settle(kinds, weighted, state: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The settled (nondeterministic) states that the state reaches, as
    (denominator, ((weight, settled state), ...)): a nondeterministic state
    reaches itself alone, a probabilistic state its weighted tuple, each
    weight an integer over the lcm of the weights' denominators.  The graph
    is one `validate` passes, so every weighted step settles."""
    if kinds[state] == "n":
        return 1, ((1, state),)
    pairs = weighted[state]
    common = lcm(*(weight.denominator for weight, _ in pairs))
    return common, tuple(
        (weight.numerator * (common // weight.denominator), dst) for weight, dst in pairs
    )


class Positions:
    """The positions of one graph, interned to ints; the two graphs that
    `semantics.compile_pair` builds on one set of maps share one table.

    A position's key is its distribution, which is also its list of
    branches: the (weight, settled state) pairs sorted by state, with integer
    weights proportional to the probabilities and reduced by their gcd, so
    equal distributions get one id.  `start` interns the distribution that a
    state settles into; each conditioning brings its branches' weights to
    one denominator before it interns the result.

    Per id the table keeps the key, its branches grouped by the states'
    menus, its menu -> weight map and the total weight; a menu's probability
    is its weight over the total.  `child` conditions each (id, menu,
    action) once.  The table reads only the graph's action map and weighted
    closure (`_settled`), and holds them but not the graph, which holds the
    table.
    """

    def __init__(self, pts: Pts):
        self._actions = pts.actions
        self._settled = pts._settled
        # The fill function does not refer to the table, so no cycle keeps
        # it alive after its graph is gone.
        self._menu_of = _Filled(partial(_state_menu, pts.actions, {}))
        self.keys: list[tuple[tuple[int, int], ...]] = []
        self._groups: list[dict[Menu, list[tuple[int, int]]]] = []
        self.menus: list[dict[Menu, int]] = []
        self.totals: list[int] = []
        self._ids: dict[tuple, int] = {}
        self._children: dict[tuple[int, Menu, str], int] = {}

    def start(self, state: int) -> int:
        """The id of the distribution that the state settles into."""
        return self._interned({settled: weight for weight, settled in self._settled[state][1]})

    def child(self, pid: int, menu: Menu, action: str) -> int:
        """The position after the menu was observed and the action performed."""
        key = (pid, menu, action)
        out = self._children.get(key)
        if out is None:
            out = self._children[key] = self._condition(pid, menu, action)
        return out

    def distribution(self, pid: int) -> dict[Menu, Fraction]:
        """Support-only map of initially observable menus; values sum to one."""
        total = self.totals[pid]
        return {menu: Fraction(weight, total) for menu, weight in self.menus[pid].items()}

    def _condition(self, pid: int, menu: Menu, action: str) -> int:
        """The branches whose menu matches, stepped through the action and
        settled over one common denominator; branches that land on the same
        state add their weights."""
        if action not in menu:
            raise MenuNotOffered(f"action {action!r} is not in menu {format_menu(menu)}")
        actions, settled_of = self._actions, self._settled
        acc: dict[int, int] = {}
        common = 1
        for weight, target in self._groups[pid].get(menu, ()):
            den, pairs = settled_of[actions[target][action]]
            if common % den:
                # Bring the weights summed so far to the larger denominator.
                scale = den // gcd(common, den)
                common *= scale
                acc = {state: value * scale for state, value in acc.items()}
            weight *= common // den
            for inner, state in pairs:
                acc[state] = acc.get(state, 0) + weight * inner
        if not acc:
            raise MenuNotOffered(f"menu {format_menu(menu)} has probability zero here")
        return self._interned(acc)

    def _interned(self, weights: dict[int, int]) -> int:
        """The id of the distribution with these positive weights by state."""
        if len(weights) == 1:
            key = ((1, *weights),)
        else:
            divisor = gcd(*weights.values())
            key = tuple((weights[state] // divisor, state) for state in sorted(weights))
        pid = self._ids.get(key)
        if pid is not None:
            return pid
        menu_of = self._menu_of
        groups: dict[Menu, list[tuple[int, int]]] = {}
        for branch in key:
            groups.setdefault(menu_of[branch[1]], []).append(branch)
        menus = {menu: sum(weight for weight, _ in group) for menu, group in groups.items()}
        pid = self._ids[key] = len(self.keys)
        self.keys.append(key)
        self._groups.append(groups)
        self.menus.append(menus)
        self.totals.append(sum(menus.values()))
        return pid


def _state_menu(actions, menus: dict[Menu, Menu], state: int) -> Menu:
    """The settled state's menu, one object per distinct menu."""
    menu = frozenset(actions[state])
    return menus.setdefault(menu, menu)


def to_json(pts: Pts) -> str:
    action_edges, prob_edges = _edges(pts)
    doc = {
        "alphabet": sorted(pts.alphabet),
        "root": pts.root,
        "states": [
            {"id": state, "kind": kind} for state, kind in sorted(pts.kinds.items())
        ],
        "action_edges": [
            {"from": src, "label": label, "to": dst} for src, label, dst in action_edges
        ],
        "prob_edges": [
            {"from": src, "weight": f"{w.numerator}/{w.denominator}", "to": dst}
            for src, w, dst in prob_edges
        ],
    }
    return json.dumps(doc, indent=2)


def _dot_string(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(pts: Pts, title: str = "pts") -> str:
    """GraphViz rendering: solid labeled action edges, dashed weighted edges."""
    lines = [f"digraph {_dot_string(title)} {{", "  rankdir=TB;"]
    for state, kind in sorted(pts.kinds.items()):
        shape = "circle" if kind == "n" else "point"
        marker = ', penwidth=2' if state == pts.root else ""
        lines.append(f'  s{state} [shape={shape}, label=""{marker}];')
    action_edges, prob_edges = _edges(pts)
    for src, label, dst in action_edges:
        lines.append(f"  s{src} -> s{dst} [label={_dot_string(label)}];")
    for src, weight, dst in prob_edges:
        lines.append(
            f'  s{src} -> s{dst} [style=dashed, label="{weight.numerator}/{weight.denominator}"];'
        )
    lines.append("}")
    return "\n".join(lines)
