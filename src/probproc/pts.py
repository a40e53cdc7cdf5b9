"""Bipartite probabilistic transition graphs.

States are opaque integers, each tagged "n" (nondeterministic: only labeled
action edges leave it) or "p" (probabilistic: only weighted edges leave it,
weights summing to one, targets nondeterministic).  A state with no outgoing
edge must be tagged "n".  No two action edges share a source and label, so
the choice offered by a nondeterministic state is between actions only.

The reserved label "w" marks the success action of tests; it is never part
of a declared alphabet.  Graphs are immutable after construction; duplicate
weighted edges between the same pair of states are merged by adding their
weights when the graph is built.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from hashlib import blake2b
from itertools import chain
from math import gcd, lcm
from operator import itemgetter
from typing import Iterable, Mapping

OMEGA = "w"

Menu = frozenset[str]

ActionEdge = tuple[int, str, int]
ProbEdge = tuple[int, Fraction, int]


_target = itemgetter(1)


class CyclicGraphError(ValueError):
    """Raised when an operation that needs an acyclic graph receives a cycle."""


class MenuNotOffered(ValueError):
    """Raised when conditioning on a menu/action pair the state cannot offer."""


def _merge_prob_edges(edges: Iterable[tuple[int, object, int]]) -> tuple[ProbEdge, ...]:
    # Insertion order keeps the first edge of each pair in place.
    acc: dict[tuple[int, int], Fraction] = {}
    for src, weight, dst in edges:
        if type(weight) is not Fraction:
            weight = Fraction(weight)
        key = (src, dst)
        acc[key] = acc[key] + weight if key in acc else weight
    return tuple((src, weight, dst) for (src, dst), weight in acc.items())


@dataclass(frozen=True)
class Pts:
    """A graph: its edges, and per state its action map and weighted tuple.

    `compile_term` builds the maps in its walk and hands them, with the fact
    that the graph is acyclic, to `Pts.with_maps`.  `Pts.build` is the
    constructor from edges (for `from_json` and hand-made graphs): it merges
    duplicate weighted edges, and such a graph derives its maps from its
    edges when first asked.
    """

    alphabet: frozenset[str]
    kinds: Mapping[int, str]
    action_edges: tuple[ActionEdge, ...]
    prob_edges: tuple[ProbEdge, ...]
    root: int

    @staticmethod
    def build(
        alphabet: Iterable[str],
        kinds: Mapping[int, str],
        action_edges: Iterable[tuple[int, str, int]],
        prob_edges: Iterable[tuple[int, object, int]],
        root: int,
    ) -> Pts:
        return Pts(
            alphabet=frozenset(alphabet),
            kinds=dict(kinds),
            action_edges=tuple(dict.fromkeys(action_edges)),
            prob_edges=_merge_prob_edges(prob_edges),
            root=root,
        )

    @staticmethod
    def with_maps(
        alphabet: frozenset[str],
        kinds: dict[int, str],
        action_map: dict[int, dict[str, int]],
        prob_map: dict[int, tuple[tuple[Fraction, int], ...]],
        action_edges: tuple[ActionEdge, ...],
        prob_edges: tuple[ProbEdge, ...],
        root: int,
        acyclic: bool,
    ) -> Pts:
        """A graph whose maps, the edges already merged, and acyclicity the
        caller has built: they become the graph's own, never derived again."""
        pts = Pts(alphabet, kinds, action_edges, prob_edges, root)
        pts.__dict__.update(_action_map=action_map, _prob_map=prob_map, is_acyclic=acyclic)
        return pts

    def kind(self, state: int) -> str:
        return self.kinds[state]

    # Each state's action map and weighted tuple, `{}` and `()` for a state of
    # the other kind.  Derived here only for a graph built from edges, which
    # may have an edge with an end that is not in `kinds`: it is refused.

    @cached_property
    def _action_map(self) -> dict[int, dict[str, int]]:
        out: dict[int, dict[str, int]] = {s: {} for s in self.kinds}
        for src, label, dst in self.action_edges:
            if src not in out or dst not in out:
                raise ValueError(f"edge ({src},{label},{dst}) uses unknown state")
            out[src][label] = dst
        return out

    @cached_property
    def _prob_map(self) -> dict[int, tuple[tuple[Fraction, int], ...]]:
        out: dict[int, list[tuple[Fraction, int]]] = {s: [] for s in self.kinds}
        for src, weight, dst in self.prob_edges:
            if src not in out or dst not in out:
                raise ValueError(f"edge ({src},{weight},{dst}) uses unknown state")
            out[src].append((weight, dst))
        return {s: tuple(v) for s, v in out.items()}

    def menu(self, state: int) -> Menu:
        """The set of actions the state offers; defined for "n" states only."""
        if self.kinds[state] != "n":
            raise ValueError(f"state {state} is probabilistic and offers no menu")
        return frozenset(self._action_map[state])

    def action_successor(self, state: int, label: str) -> int:
        successors = self._action_map[state]
        if label not in successors:
            raise MenuNotOffered(f"state {state} has no {label!r} edge")
        return successors[label]

    def prob_successors(self, state: int) -> tuple[tuple[Fraction, int], ...]:
        return self._prob_map[state]

    @cached_property
    def _order(self) -> tuple[int, ...] | None:
        """Every state, each after all of its successors, by an iterative
        post-order over the graph's maps; None on a cycle, reachable or not.
        Raises ValueError on an edge to or from a state not in `kinds`."""
        actions, weighted = self._action_map, self._prob_map
        order: list[int] = []
        done: set[int] = set()
        active: set[int] = set()
        for start in self.kinds:
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

    @cached_property
    def is_acyclic(self) -> bool:
        """Handed over by `Pts.with_maps`, else read off `_order`."""
        return self._order is not None

    def require_acyclic(self) -> None:
        if not self.is_acyclic:
            raise CyclicGraphError("operation requires an acyclic graph")

    @cached_property
    def action_depth(self) -> int:
        """Largest number of action edges on any path from the root."""
        self.require_acyclic()
        depth: dict[int, int] = {}
        action_map, prob_map = self._action_map, self._prob_map
        for state in self._order:
            actions = action_map[state]
            here = 1 + max(map(depth.__getitem__, actions.values())) if actions else 0
            for _, dst in prob_map[state]:
                here = max(here, depth[dst])
            depth[state] = here
        return depth[self.root]

    @cached_property
    def positions(self) -> Positions:
        """The graph's position table, filled as positions are asked for."""
        return Positions(self)


def validate(pts: Pts, allow_success: bool = False) -> list[str]:
    """Check every structural invariant, returning one message per violation.

    Never raises: an empty list means the graph is well formed and acyclic.
    Cyclic graphs are merely flagged here; operations that need acyclicity
    reject them with CyclicGraphError themselves.
    """
    problems: list[str] = []
    states = set(pts.kinds)
    if pts.root not in states:
        problems.append(f"root {pts.root} is not a state")
    for state, kind in pts.kinds.items():
        if kind not in ("n", "p"):
            problems.append(f"state {state} has unknown kind {kind!r}")

    allowed = set(pts.alphabet) | ({OMEGA} if allow_success else set())
    if OMEGA in pts.alphabet:
        problems.append(f"alphabet must not contain the reserved label {OMEGA!r}")

    seen_pairs: set[tuple[int, str]] = set()
    for src, label, dst in pts.action_edges:
        if src not in states or dst not in states:
            problems.append(f"action edge ({src},{label},{dst}) uses unknown state")
            continue
        if pts.kinds[src] != "n":
            problems.append(f"action edge leaves probabilistic state {src}")
        if label not in allowed:
            problems.append(f"label {label!r} is not in the alphabet")
        if (src, label) in seen_pairs:
            problems.append(
                f"reactive determinism violated: two {label!r} edges leave state {src}"
            )
        seen_pairs.add((src, label))

    weight_sums: dict[int, Fraction] = {}
    for src, weight, dst in pts.prob_edges:
        if src not in states or dst not in states:
            problems.append(f"probabilistic edge ({src},{weight},{dst}) uses unknown state")
            continue
        if pts.kinds[src] != "p":
            problems.append(f"probabilistic edge leaves nondeterministic state {src}")
        if pts.kinds.get(dst) == "p":
            problems.append(f"probabilistic edge targets probabilistic state {dst}")
        if not (0 < weight <= 1):
            problems.append(f"weight {weight} of edge ({src},{dst}) is outside (0,1]")
        weight_sums[src] = weight_sums.get(src, Fraction(0)) + weight

    for state, kind in pts.kinds.items():
        if kind != "p":
            continue
        total = weight_sums.get(state, Fraction(0))
        if total == 0:
            problems.append(
                f"state {state} is probabilistic but has no outgoing edges"
            )
        elif total != 1:
            problems.append(f"weights leaving state {state} sum to {total}, not 1")

    if not problems and not pts.is_acyclic:
        problems.append("graph contains a cycle")
    return problems


# --- positions and conditioning ---------------------------------------------
#
# A position is either an actual state or a distribution over
# nondeterministic states produced by conditioning a probabilistic state on
# an observed menu.  Each graph interns its positions in one table, built as
# positions are first asked for and kept on the graph (`Pts.positions`).


def format_menu(menu: Menu) -> str:
    return "{" + ",".join(sorted(menu)) + "}"


def _menu_key(menu: Menu):
    """Observation order of menus: by size, then by sorted labels."""
    return (len(menu), tuple(sorted(menu)))


class _Filled(dict):
    """A dict that computes a missing value from its key, once."""

    __slots__ = ("_fill",)

    def __init__(self, fill):
        super().__init__()
        self._fill = fill

    def __missing__(self, key):
        value = self[key] = self._fill(key)
        return value


class Positions:
    """The positions of one graph, interned to ints.

    A position's key is ("s", state) for an actual state, or for a
    distribution the tuple of its (weight, state) pairs sorted by state,
    with integer weights proportional to the probabilities and reduced by
    their gcd, so equal distributions get one id.  Edge weights are scaled
    to integers once, by the lcm of their denominators.

    Per id the table keeps the position's branches (weight, nondeterministic
    state), the same grouped by the states' menus, its menu -> weight map,
    the total weight, and its (menu, action) steps with menus in
    observation order and each menu's actions sorted; a menu's probability
    is its weight over the total.  `child` conditions each (id, menu,
    action) once.  The table reads the graph's maps as they are, from the
    compiler or derived once by the graph, and holds them but not the
    graph, which holds the table.
    """

    def __init__(self, pts: Pts):
        self._kinds = pts.kinds
        self._action_map = pts._action_map
        self.scale = lcm(*(weight.denominator for _, weight, _ in pts.prob_edges))
        # The fill functions do not refer to the table, so no cycle keeps
        # it alive after its graph is gone.
        self._menu_of = _Filled(partial(_state_menu, pts.kinds, pts._action_map, {}))
        self._scaled = _Filled(partial(_scaled_edges, pts._prob_map, self.scale))
        self.keys: list[tuple] = []
        self.branches: list[tuple[tuple[int, int], ...]] = []
        self._groups: list[dict[Menu, list[tuple[int, int]]]] = []
        self.menus: list[dict[Menu, int]] = []
        self.totals: list[int] = []
        self.steps: list[tuple[tuple[Menu, str], ...]] = []
        self._ids: dict[tuple, int] = {}
        self._children: dict[tuple[int, Menu, str], int] = {}

    def start(self, state: int) -> int:
        """The id of the position at an actual state."""
        key = ("s", state)
        pid = self._ids.get(key)
        if pid is None:
            if self._kinds[state] == "p":
                if not self._scaled[state]:
                    raise ValueError(
                        f"state {state} is probabilistic but has no outgoing edges"
                    )
                pid = self._intern(key, self._scaled[state])
            else:
                pid = self._intern(key, ((1, state),))
        return pid

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
        """From a nondeterministic state, the action successor.  From a
        probabilistic position, the branches whose menu matches, stepped
        through the action and flattened by one probabilistic level;
        branches that land on the same state add their weights."""
        if action not in menu:
            raise MenuNotOffered(f"action {action!r} is not in menu {format_menu(menu)}")
        kinds, action_map, menu_of = self._kinds, self._action_map, self._menu_of
        key = self.keys[pid]
        if key[0] == "s" and kinds[key[1]] == "n":
            state = key[1]
            if menu_of[state] != menu:
                raise MenuNotOffered(
                    f"state {state} offers {format_menu(menu_of[state])}, "
                    f"not {format_menu(menu)}"
                )
            return self.start(action_map[state][action])
        acc: dict[int, int] = {}
        for weight, target in self._groups[pid].get(menu, ()):
            after = action_map[target][action]
            if kinds[after] == "n":
                acc[after] = acc.get(after, 0) + weight * self.scale
            else:
                for inner, settled in self._scaled[after]:
                    acc[settled] = acc.get(settled, 0) + weight * inner
        if not acc:
            raise MenuNotOffered(f"menu {format_menu(menu)} has probability zero here")
        if len(acc) == 1:
            key = ((1, *acc),)
        else:
            divisor = gcd(*acc.values())
            key = tuple((acc[settled] // divisor, settled) for settled in sorted(acc))
        out = self._ids.get(key)
        if out is None:
            out = self._intern(key, key)
        return out

    def _intern(self, key: tuple, branches: tuple[tuple[int, int], ...]) -> int:
        menu_of = self._menu_of
        groups: dict[Menu, list[tuple[int, int]]] = {}
        for branch in branches:
            groups.setdefault(menu_of[branch[1]], []).append(branch)
        menus = {menu: sum(weight for weight, _ in group) for menu, group in groups.items()}
        ordered = sorted(menus, key=_menu_key) if len(menus) > 1 else menus
        pid = self._ids[key] = len(self.keys)
        self.keys.append(key)
        self.branches.append(branches)
        self._groups.append(groups)
        self.menus.append(menus)
        self.totals.append(sum(menus.values()))
        self.steps.append(tuple((menu, action) for menu in ordered for action in sorted(menu)))
        return pid


def _state_menu(kinds, action_map, menus: dict[Menu, Menu], state: int) -> Menu:
    """The state's menu, one object per distinct menu."""
    if kinds[state] != "n":
        raise ValueError(f"state {state} is probabilistic and offers no menu")
    menu = frozenset(action_map[state])
    return menus.setdefault(menu, menu)


def _scaled_edges(prob_map, scale: int, state: int) -> tuple[tuple[int, int], ...]:
    """The weighted edges of a probabilistic state, scaled to integers."""
    return tuple(
        (weight.numerator * (scale // weight.denominator), target)
        for weight, target in prob_map[state]
    )


def derived_process(pts: Pts, state: int, menu: Menu, action: str) -> Pts:
    """The continuation of `state` given that `menu` was offered and `action` taken.

    For a nondeterministic state the result is the graph re-rooted at the
    action successor.  For a probabilistic state it gets a fresh root whose
    weighted edges are the conditioned distribution.
    """
    pts.require_acyclic()
    table = pts.positions
    key = table.keys[table.child(table.start(state), frozenset(menu), action)]
    if key[0] == "s":
        return Pts(
            alphabet=pts.alphabet,
            kinds=pts.kinds,
            action_edges=pts.action_edges,
            prob_edges=pts.prob_edges,
            root=key[1],
        )
    fresh = max(pts.kinds) + 1
    kinds = dict(pts.kinds)
    kinds[fresh] = "p"
    total = sum(weight for weight, _ in key)
    return Pts(
        alphabet=pts.alphabet,
        kinds=kinds,
        action_edges=pts.action_edges,
        prob_edges=pts.prob_edges
        + tuple((fresh, Fraction(weight, total), target) for weight, target in key),
        root=fresh,
    )


def tree_signature(pts: Pts, state: int | None = None):
    """Canonical form of the tree unfolding below a state.

    Two graphs have equal signatures exactly when their unfoldings are
    isomorphic as ordered-by-label trees, which is the natural reading of
    "the same graph up to state names" for acyclic systems that may share
    structurally equal substates.

    Weighted siblings are ordered by weight, then by a digest built
    bottom-up from their children's digests, so one loop over the graph's
    order builds every signature in linear time, however deep.  `==`
    between signatures of two different graphs still compares their
    unfoldings, which may be exponentially larger than the graphs.
    """
    pts.require_acyclic()
    signatures: dict[int, tuple] = {}
    digests: dict[int, bytes] = {}
    for node in pts._order:
        if pts.kinds[node] == "n":
            tag, children = "n", sorted(pts._action_map[node].items())
        else:
            tag, children = "p", sorted(
                pts._prob_map[node], key=lambda pair: (pair[0], digests[pair[1]])
            )
        signatures[node] = (tag, tuple((key, signatures[dst]) for key, dst in children))
        shape = (tag, tuple((key, digests[dst]) for key, dst in children))
        digests[node] = blake2b(repr(shape).encode(), digest_size=16).digest()
    return signatures[pts.root if state is None else state]


def to_json(pts: Pts) -> str:
    doc = {
        "alphabet": sorted(pts.alphabet),
        "root": pts.root,
        "states": [
            {"id": state, "kind": kind} for state, kind in sorted(pts.kinds.items())
        ],
        "action_edges": [
            {"from": src, "label": label, "to": dst}
            for src, label, dst in pts.action_edges
        ],
        "prob_edges": [
            {"from": src, "weight": f"{w.numerator}/{w.denominator}", "to": dst}
            for src, w, dst in pts.prob_edges
        ],
    }
    return json.dumps(doc, indent=2)


def from_json(text: str) -> Pts:
    """Load a graph written by to_json.

    Every malformed document raises ValueError with one line: what is
    missing or of the wrong type, or what validate reports.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"invalid graph: expected a JSON object, got {type(doc).__name__}")
    try:
        pts = Pts.build(
            alphabet=doc["alphabet"],
            kinds={entry["id"]: entry["kind"] for entry in doc["states"]},
            action_edges=[
                (edge["from"], edge["label"], edge["to"]) for edge in doc["action_edges"]
            ],
            prob_edges=[
                (edge["from"], _weight(edge), edge["to"]) for edge in doc["prob_edges"]
            ],
            root=doc["root"],
        )
        problems = validate(pts, allow_success=True)
    except KeyError as exc:
        raise ValueError(f"invalid graph: missing key {exc}") from None
    except TypeError as exc:
        raise ValueError(f"invalid graph: malformed entry ({exc})") from None
    if problems:
        raise ValueError("invalid graph: " + "; ".join(problems))
    return pts


def _weight(edge: dict) -> Fraction:
    try:
        return Fraction(edge["weight"])
    except (ValueError, ArithmeticError):
        raise ValueError(
            f"invalid graph: weight {edge['weight']!r} of edge "
            f"({edge['from']},{edge['to']}) is not a fraction"
        ) from None


def _dot_string(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(pts: Pts, title: str = "pts") -> str:
    """GraphViz rendering: solid labeled action edges, dashed weighted edges."""
    lines = [f"digraph {_dot_string(title)} {{", "  rankdir=TB;"]
    for state, kind in sorted(pts.kinds.items()):
        shape = "circle" if kind == "n" else "point"
        marker = ', penwidth=2' if state == pts.root else ""
        lines.append(f'  s{state} [shape={shape}, label=""{marker}];')
    for src, label, dst in pts.action_edges:
        lines.append(f"  s{src} -> s{dst} [label={_dot_string(label)}];")
    for src, weight, dst in pts.prob_edges:
        lines.append(
            f'  s{src} -> s{dst} [style=dashed, label="{weight.numerator}/{weight.denominator}"];'
        )
    lines.append("}")
    return "\n".join(lines)
