"""Graph functions that the tests check the package against.

None of them is part of the package: each is built on what the package
exposes (the graph maps and order, the position tables) and serves a check
of other code: graphs written by hand as edges, graph isomorphism,
conditioning against a derived process, sets of ready traces.
"""

from dataclasses import replace
from fractions import Fraction
from hashlib import blake2b

from probproc.pts import Menu, Pts
from probproc.readytrace import ReadyTrace, menu_key


def build(alphabet, kinds, action_edges, prob_edges, root) -> Pts:
    """The graph with these edges, for graphs written by hand.

    Weighted edges between one pair of states merge by adding their
    weights, in the place of the first.  An edge with an end that is not in
    `kinds`, or a weight outside (0,1], is refused in `validate`'s words: a
    graph that needs one is written as maps.
    """
    actions: dict[int, dict[str, int]] = {state: {} for state in kinds}
    merged: dict[int, dict[int, Fraction]] = {state: {} for state in kinds}
    for src, label, dst in action_edges:
        if src not in kinds or dst not in kinds:
            raise ValueError(f"edge ({src},{label},{dst}) uses unknown state")
        actions[src][label] = dst
    for src, weight, dst in prob_edges:
        if src not in kinds or dst not in kinds:
            raise ValueError(f"edge ({src},{weight},{dst}) uses unknown state")
        if not 0 < weight <= 1:
            raise ValueError(f"weight {weight} of edge ({src},{dst}) is outside (0,1]")
        merged[src][dst] = merged[src].get(dst, 0) + Fraction(weight)
    weighted = {state: tuple(zip(out.values(), out)) for state, out in merged.items()}
    return Pts(frozenset(alphabet), dict(kinds), actions, weighted, root)


def tree_signature(pts: Pts):
    """Canonical form of the tree unfolding from the root.

    Two graphs have equal signatures exactly when their unfoldings are
    isomorphic as ordered-by-label trees: the same graph up to state names,
    for acyclic systems that may share structurally equal substates.

    Weighted siblings are ordered by weight, then by a digest built
    bottom-up from their children's digests, so one loop over the graph's
    order builds every signature in linear time, however deep.  `==`
    between signatures of two different graphs still compares their
    unfoldings, which may be exponentially larger than the graphs.
    """
    pts.require_valid()
    signatures: dict[int, tuple] = {}
    digests: dict[int, bytes] = {}
    for node in pts._order:
        if pts.kinds[node] == "n":
            tag, children = "n", sorted(pts.actions[node].items())
        else:
            tag, children = "p", sorted(
                pts.weighted[node], key=lambda pair: (pair[0], digests[pair[1]])
            )
        signatures[node] = (tag, tuple((key, signatures[dst]) for key, dst in children))
        shape = (tag, tuple((key, digests[dst]) for key, dst in children))
        digests[node] = blake2b(repr(shape).encode(), digest_size=16).digest()
    return signatures[pts.root]


def derived_process(pts: Pts, state: int, menu: Menu, action: str) -> Pts:
    """The continuation of `state` given that `menu` was offered and `action` taken.

    The step is taken through the graph's position table.  For a
    nondeterministic state the result is the graph re-rooted at the action
    successor.  For a probabilistic state it gets a fresh root whose
    weighted steps are the conditioned distribution.
    """
    table = pts.positions
    pid = table.child(table.start(state), frozenset(menu), action)
    if pts.kinds[state] == "n":
        return replace(pts, root=pts.actions[state][action])
    fresh, total = max(pts.kinds) + 1, table.totals[pid]
    return replace(
        pts,
        kinds={**pts.kinds, fresh: "p"},
        actions={**pts.actions, fresh: {}},
        weighted={**pts.weighted, fresh: tuple(
            (Fraction(weight, total), target) for weight, target in table.keys[pid]
        )},
        root=fresh,
    )


def iter_ready_traces(pts: Pts, max_len: int | None = None):
    """All traces of positive probability up to max_len menus, each with its
    probability, read from the position table in a fixed order.

    max_len defaults to one more than the graph's action depth, beyond which
    every trace ends in the empty menu and cannot extend.
    """
    if max_len is None:
        max_len = pts.action_depth + 1
    table = pts.positions

    def entries(pos, menus, actions, num, den):
        """Each menu at the position, with its trace and weight."""
        weights, total = table.menus[pos], table.totals[pos]
        for menu in sorted(weights, key=menu_key):
            yield pos, menu, menus + (menu,), actions, num * weights[menu], den * total

    def below(pos, menu, menus, actions, num, den):
        """The entries one step on, by each action of the menu in turn."""
        for action in sorted(menu):
            child = table.child(pos, menu, action)
            yield from entries(child, menus, actions + (action,), num, den)

    # A stack of entry iterators, one per trace step, so chains of any
    # depth are walked without recursion.
    stack = [entries(table.start(pts.root), (), (), 1, 1)]
    while stack:
        for pos, menu, menus, actions, num, den in stack[-1]:
            yield ReadyTrace(menus, actions), Fraction(num, den)
            if len(menus) < max_len:
                stack.append(below(pos, menu, menus, actions, num, den))
                break
        else:
            stack.pop()
