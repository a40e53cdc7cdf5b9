"""Compilation of process terms to transition graphs.

The rules, with p -a-> p' for action steps and p ~w~> p' for weighted steps:

    sum a_i.p_i -a_i-> p_i
    p{..w_k:p_k..} ~w_k~> p_k            if p_k has no weighted step
    p{..w_k:p_k..} ~w_k*r~> p_k'         if p_k ~r~> p_k' (nested choices flatten)
    prio(p) -a-> prio(p')                if p -a-> p' and no enabled b beats a
    prio(p) ~w~> prio(p')                if p ~w~> p'
    p||q -a-> p'||q'                     if both sides step on a (lock-step)
    p||q ~w*r~> p'||q'                   if p ~w~> p' and q ~r~> q'
    p||q ~w~> p'||q                      if p ~w~> p' and q has no weighted step
    p|[]|q -a-> p'|[]|q'                 if a is shared and both sides step on a
    p|[]|q -a-> p'|[]|q                  if a unshared, p steps, q has no weighted step
    p|[]|q (weighted steps as for ||)

The synchronization set of |[]| is the set of actions occurring syntactically
in both operands, fixed when the composition is first built (in its `sync`
slot, which `terms.pin` fills in place: compiling rebuilds no term) and kept
while the operands evolve.  A state is probabilistic exactly when it has
weighted steps; equal subterms share one graph state.  One call answers the
rules for a term, `_Compiler.steps`: the walk makes it for each state, and
`testing` for each node of a test term it runs.
"""

from __future__ import annotations

from fractions import Fraction

from .pts import Pts
from .terms import (
    EMPTY_ORDER,
    ExternalChoice,
    PriorityOrder,
    ProbChoice,
    Priority,
    SharedPar,
    SyncPar,
    Term,
    alphabet,
    children,
    pin,
)


class _Compiler:
    """The step rules under one priority order, with one cache of each
    term's steps but an external choice's, which are its own branches."""

    def __init__(self, order: PriorityOrder):
        self.order = order
        self._cache: dict[object, tuple] = {}

    def steps(self, node) -> tuple[tuple[tuple[Fraction, object], ...], dict[str, object]]:
        """The node's weighted steps, nested choices flattened, and its action
        map, empty when there are weighted steps: so either operand of |[]|
        may act alone on an unshared label.  `Pts.steps` answers the same
        call for a state of a compiled graph."""
        if isinstance(node, ExternalChoice):  # its own branches; a cache would mostly miss
            return (), dict(node.branches)
        cached = self._cache.get(node)
        if cached is not None:
            return cached
        weighted: list[tuple[Fraction, object]] = []
        actions: dict[str, object] = {}
        if isinstance(node, ProbChoice):
            for weight, sub in node.branches:
                inner = () if isinstance(sub, ExternalChoice) else self.steps(sub)[0]
                if inner:
                    weighted += [(weight * r, target) for r, target in inner]
                else:
                    weighted.append((weight, sub))
        elif isinstance(node, Priority):
            inner, body = self.steps(node.body)
            weighted = [(w, Priority(t)) for w, t in inner]
            actions = {
                label: Priority(target)
                for label, target in body.items()
                if not any(self.order.higher(other, label) for other in body)
            }
        elif isinstance(node, (SyncPar, SharedPar)):
            if node.__class__ is SharedPar and node.sync is None:
                pin(node)
            (lp, left), (rp, right) = self.steps(node.left), self.steps(node.right)
            step = SyncPar if node.__class__ is SyncPar else node._step
            if lp and rp:
                weighted = [(w * r, step(lt, rt)) for w, lt in lp for r, rt in rp]
            elif lp:
                weighted = [(w, step(lt, node.right)) for w, lt in lp]
            elif rp:
                weighted = [(r, step(node.left, rt)) for r, rt in rp]
            elif node.__class__ is SyncPar:
                actions = {
                    label: SyncPar(left[label], right[label])
                    for label in left.keys() & right.keys()
                }
            else:
                sync = node.sync
                for label, target in left.items():
                    if label not in sync:
                        actions[label] = step(target, node.right)
                    elif label in right:
                        actions[label] = step(target, right[label])
                for label, target in right.items():
                    if label in sync:
                        continue
                    if label in actions:
                        raise ValueError(f"both operands of |[]| interleave label {label!r}")
                    actions[label] = step(node.left, target)
        out = self._cache[node] = (tuple(weighted), actions)
        return out


def compile_term(term: Term, order: PriorityOrder = EMPTY_ORDER) -> Pts:
    """The reachable transition graph of a process or test term.

    States are numbered in breadth-first order from the root, 0.  The walk
    builds each state's action map and weighted tuple as it goes, merging
    weighted steps to one target by adding their weights, and hands them to
    `Pts.valid`: every step leads to a smaller term, and every weighted step
    to a nondeterministic one, since `_Compiler.steps` flattens nested
    choices.
    """
    (pts,) = _walk((term,), order)
    return pts


def compile_pair(left: Term, right: Term, order: PriorityOrder = EMPTY_ORDER) -> tuple[Pts, Pts]:
    """The graphs of two terms from one walk: two roots over one numbering.

    The two graphs hold the same alphabet, maps, weighted closure and
    position table, and differ only in root, so a subterm the operands share
    is one state, stepped and conditioned once for both.  The alphabet is
    the union of the operands', so that `validate` passes both graphs.
    """
    left_pts, right_pts = _walk((left, right), order)
    right_pts.__dict__.update(_settled=left_pts._settled, positions=left_pts.positions)
    return left_pts, right_pts


def _walk(terms: tuple[Term, ...], order: PriorityOrder) -> list[Pts]:
    """One graph per term, rooted at the term's state in one breadth-first
    walk from all of them, the roots numbered first in the terms' order.
    Every graph gets the union of the terms' alphabets."""
    compiler = _Compiler(order)
    labels = frozenset().union(*map(pin, terms))
    ids: dict[object, int] = {}
    nodes: list[object] = []
    for term in terms:
        if ids.setdefault(term, len(nodes)) == len(nodes):
            nodes.append(term)
    kinds: dict[int, str] = {}
    actions: dict[int, dict[str, int]] = {}
    weighted: dict[int, tuple[tuple[Fraction, int], ...]] = {}
    # `nodes` grows while it is walked, so the walk is breadth-first.
    for state, node in enumerate(nodes):
        if isinstance(node, ExternalChoice):  # the commonest node, never weighted
            steps, moves = (), node.branches
        else:
            steps, moves = compiler.steps(node)
            moves = moves.items()
        if steps:
            merged: dict[int, Fraction] = {}
            for weight, target in steps:
                dst = ids.setdefault(target, len(nodes))
                if dst == len(nodes):
                    nodes.append(target)
                if dst in merged:
                    merged[dst] += weight
                else:
                    merged[dst] = weight if type(weight) is Fraction else Fraction(weight)
            kinds[state], actions[state] = "p", {}
            weighted[state] = tuple(zip(merged.values(), merged))
        else:
            out: dict[str, int] = {}
            for label, target in sorted(moves) if len(moves) > 1 else moves:
                dst = out[label] = ids.setdefault(target, len(nodes))
                if dst == len(nodes):
                    nodes.append(target)
            kinds[state], actions[state], weighted[state] = "n", out, ()

    return [Pts.valid(labels, kinds, actions, weighted, ids[term]) for term in terms]


def composition_warnings(term: Term) -> list[str]:
    """Flag |[]| chains whose components break the three-way sharing rule.

    Composing p, q, r is only associative when no two of the pairwise shared
    action sets overlap transitively: if p,q share actions and q,r share
    actions then p,r must not.  Violations are reported, not rejected, since
    a single composition stays meaningful.
    """
    warnings: list[str] = []
    stack = [(term, False)]
    while stack:
        node, under_shared = stack.pop()
        if node._shared < 2:  # a chain of three components has two |[]|
            continue
        if isinstance(node, SharedPar) and not under_shared:
            warnings.extend(_chain_warnings(node))
        inside = isinstance(node, SharedPar)
        stack.extend((child, inside) for child in reversed(children(node)))
    return warnings


def _chain_warnings(chain: SharedPar) -> list[str]:
    """One warning per component triple a < b < c that shares actions pairwise.

    The chain is flattened with an explicit stack.  Only components sharing
    an action with `a` can complete a triple, so the triples come from a
    label -> components index rather than all C(n,3) combinations; they are
    visited in the same lexicographic order.
    """
    parts: list[Term] = []
    stack = [chain]
    while stack:
        node = stack.pop()
        if isinstance(node, SharedPar):
            stack.extend((node.right, node.left))
        else:
            parts.append(node)
    if len(parts) < 3:
        return []
    labels = [alphabet(part) for part in parts]
    holders: dict[str, list[int]] = {}
    for index, own in enumerate(labels):
        for label in own:
            holders.setdefault(label, []).append(index)
    later = [
        {j for label in own for j in holders[label] if j > index}
        for index, own in enumerate(labels)
    ]
    warnings = []
    for a, after_a in enumerate(later):
        for b in sorted(after_a):
            for c in sorted(after_a & later[b]):
                ab = labels[a] & labels[b]
                bc = labels[b] & labels[c]
                ac = labels[a] & labels[c]
                warnings.append(
                    "components %d, %d and %d of a |[]| chain share actions "
                    "pairwise (%s); the chain is not associative"
                    % (a, b, c, sorted(ab | bc | ac))
                )
    return warnings
