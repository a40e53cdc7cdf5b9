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
from functools import cached_property
from typing import Iterable, Mapping

OMEGA = "w"

Menu = frozenset[str]

ActionEdge = tuple[int, str, int]
ProbEdge = tuple[int, Fraction, int]


class CyclicGraphError(ValueError):
    """Raised when an operation that needs an acyclic graph receives a cycle."""


class MenuNotOffered(ValueError):
    """Raised when conditioning on a menu/action pair the state cannot offer."""


def _merge_prob_edges(edges: Iterable[tuple[int, object, int]]) -> tuple[ProbEdge, ...]:
    acc: dict[tuple[int, int], Fraction] = {}
    order: list[tuple[int, int]] = []
    for src, weight, dst in edges:
        key = (src, dst)
        if key not in acc:
            acc[key] = Fraction(0)
            order.append(key)
        acc[key] += Fraction(weight)
    return tuple((src, acc[(src, dst)], dst) for src, dst in order)


@dataclass(frozen=True)
class Pts:
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

    def kind(self, state: int) -> str:
        return self.kinds[state]

    @cached_property
    def _action_map(self) -> dict[int, dict[str, int]]:
        out: dict[int, dict[str, int]] = {s: {} for s in self.kinds}
        for src, label, dst in self.action_edges:
            out[src][label] = dst
        return out

    @cached_property
    def _prob_map(self) -> dict[int, tuple[tuple[Fraction, int], ...]]:
        out: dict[int, list[tuple[Fraction, int]]] = {s: [] for s in self.kinds}
        for src, weight, dst in self.prob_edges:
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
    def is_acyclic(self) -> bool:
        color: dict[int, int] = {}
        out: dict[int, list[int]] = {s: [] for s in self.kinds}
        for src, _, dst in self.action_edges:
            out[src].append(dst)
        for src, _, dst in self.prob_edges:
            out[src].append(dst)

        for start in self.kinds:
            if color.get(start):
                continue
            stack = [(start, iter(out[start]))]
            color[start] = 1
            while stack:
                node, children = stack[-1]
                advanced = False
                for child in children:
                    if color.get(child) == 1:
                        return False
                    if color.get(child) is None:
                        color[child] = 1
                        stack.append((child, iter(out.get(child, ()))))
                        advanced = True
                        break
                if not advanced:
                    color[node] = 2
                    stack.pop()
        return True

    def require_acyclic(self) -> None:
        if not self.is_acyclic:
            raise CyclicGraphError("operation requires an acyclic graph")

    @cached_property
    def action_depth(self) -> int:
        """Largest number of action edges on any path from the root."""
        self.require_acyclic()
        memo: dict[int, int] = {}

        def depth(state: int) -> int:
            if state in memo:
                return memo[state]
            best = 0
            for label, dst in self._action_map[state].items():
                best = max(best, 1 + depth(dst))
            for _, dst in self._prob_map[state]:
                best = max(best, depth(dst))
            memo[state] = best
            return best

        return depth(self.root)

    def reachable(self, start: int | None = None) -> set[int]:
        start = self.root if start is None else start
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            targets = list(self._action_map[node].values())
            targets.extend(dst for _, dst in self._prob_map[node])
            for dst in targets:
                if dst not in seen:
                    seen.add(dst)
                    frontier.append(dst)
        return seen


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
# an observed menu.  Distributions are kept as sorted tuples so positions
# are hashable memo keys.

View = tuple


def format_menu(menu: Menu) -> str:
    return "{" + ",".join(sorted(menu)) + "}"


def root_view(pts: Pts) -> View:
    return ("s", pts.root)


def _branches(pts: Pts, view: View) -> tuple[tuple[Fraction, int], ...]:
    if view[0] == "d":
        return tuple((weight, state) for state, weight in view[1])
    return pts.prob_successors(view[1])


def is_probabilistic(pts: Pts, view: View) -> bool:
    return view[0] == "d" or pts.kind(view[1]) == "p"


def view_menu_distribution(pts: Pts, view: View) -> dict[Menu, Fraction]:
    """Support-only map of initially observable menus; values sum to one."""
    if not is_probabilistic(pts, view):
        return {pts.menu(view[1]): Fraction(1)}
    out: dict[Menu, Fraction] = {}
    for weight, target in _branches(pts, view):
        menu = pts.menu(target)
        out[menu] = out.get(menu, Fraction(0)) + weight
    return out


def condition_view(pts: Pts, view: View, menu: Menu, action: str) -> View:
    """The position after the menu was observed and the action performed.

    From a nondeterministic state this is the action successor.  From a
    probabilistic position the branches whose menu matches are kept,
    renormalized by the menu's total weight, stepped through the action, and
    flattened by one probabilistic level; branches that land on the same
    state are merged by adding their weights.
    """
    menu = frozenset(menu)
    if action not in menu:
        raise MenuNotOffered(f"action {action!r} is not in menu {format_menu(menu)}")
    if not is_probabilistic(pts, view):
        state = view[1]
        if pts.menu(state) != menu:
            raise MenuNotOffered(
                f"state {state} offers {format_menu(pts.menu(state))}, "
                f"not {format_menu(menu)}"
            )
        return ("s", pts.action_successor(state, action))
    matching = [
        (weight, target)
        for weight, target in _branches(pts, view)
        if pts.menu(target) == menu
    ]
    if not matching:
        raise MenuNotOffered(f"menu {format_menu(menu)} has probability zero here")
    total = sum(weight for weight, _ in matching)
    acc: dict[int, Fraction] = {}
    for weight, target in matching:
        after = pts.action_successor(target, action)
        if pts.kind(after) == "n":
            acc[after] = acc.get(after, Fraction(0)) + weight / total
        else:
            for inner_weight, inner_target in pts.prob_successors(after):
                acc[inner_target] = (
                    acc.get(inner_target, Fraction(0)) + weight * inner_weight / total
                )
    return ("d", tuple(sorted(acc.items())))


def view_to_pts(pts: Pts, view: View) -> Pts:
    """Materialize a position as a graph of its own."""
    if view[0] == "s":
        return Pts(
            alphabet=pts.alphabet,
            kinds=pts.kinds,
            action_edges=pts.action_edges,
            prob_edges=pts.prob_edges,
            root=view[1],
        )
    fresh = max(pts.kinds) + 1
    kinds = dict(pts.kinds)
    kinds[fresh] = "p"
    return Pts(
        alphabet=pts.alphabet,
        kinds=kinds,
        action_edges=pts.action_edges,
        prob_edges=pts.prob_edges
        + tuple((fresh, weight, target) for target, weight in view[1]),
        root=fresh,
    )


def derived_process(pts: Pts, state: int, menu: Menu, action: str) -> Pts:
    """The continuation of `state` given that `menu` was offered and `action` taken.

    For a nondeterministic state the result is the graph re-rooted at the
    action successor.  For a probabilistic state it gets a fresh root whose
    weighted edges are the conditioned distribution of `condition_view`.
    """
    pts.require_acyclic()
    return view_to_pts(pts, condition_view(pts, ("s", state), menu, action))


def tree_signature(pts: Pts, state: int | None = None):
    """Canonical form of the tree unfolding below a state.

    Two graphs have equal signatures exactly when their unfoldings are
    isomorphic as ordered-by-label trees, which is the natural reading of
    "the same graph up to state names" for acyclic systems that may share
    structurally equal substates.
    """
    pts.require_acyclic()
    state = pts.root if state is None else state
    memo: dict[int, object] = {}

    def sig(node: int):
        if node in memo:
            return memo[node]
        if pts.kinds[node] == "n":
            out = (
                "n",
                tuple(
                    (label, sig(dst))
                    for label, dst in sorted(pts._action_map[node].items())
                ),
            )
        else:
            children = sorted(
                ((weight, sig(dst)) for weight, dst in pts.prob_successors(node)),
                key=lambda pair: (pair[0], repr(pair[1])),
            )
            out = ("p", tuple(children))
        memo[node] = out
        return out

    return sig(state)


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
                (edge["from"], Fraction(edge["weight"]), edge["to"])
                for edge in doc["prob_edges"]
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
