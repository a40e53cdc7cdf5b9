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
in both operands, fixed when the composition is first built and kept while
the operands evolve.  A state is probabilistic exactly when it has weighted
steps; equal subterms share one graph state.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .pts import OMEGA, Pts
from .terms import (
    EMPTY_ORDER,
    ExternalChoice,
    PriorityOrder,
    ProbChoice,
    Priority,
    SharedPar,
    SyncPar,
    Term,
    _reduce,
    _set,
    _stored_hash,
    alphabet,
    children,
    rebuild,
)


@dataclass(frozen=True, init=False)
class _Shared:
    """SharedPar with its synchronization set pinned at composition time."""

    left: object
    right: object
    sync: frozenset[str]

    __slots__ = ("left", "right", "sync", "_hash", "_shared")
    __hash__ = _stored_hash
    __reduce__ = _reduce

    def __init__(self, left, right, sync: frozenset[str]):
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "sync", sync)
        _set(self, "_hash", hash((_Shared, left._hash, right._hash, sync)))
        _set(self, "_shared", 1 + left._shared + right._shared)


def _pin_sync_sets(term: Term):
    """The term with each |[]| pinned to its synchronization set, and the
    term's alphabet.

    Each |[]| takes its operands' alphabets from this same walk, so a chain
    of compositions is visited once rather than once per |[]| above it.  A
    subterm without |[]| is returned as it is, with its alphabet, so the walk
    descends only along paths that lead to a |[]|.  The walk keeps its own
    stack, so any depth is fine.
    """
    done: list[tuple[Term, frozenset[str]]] = []
    stack = [(term, -1)]  # (node, -1) to visit; (node, n) to rebuild from the last n done
    while stack:
        node, count = stack.pop()
        if count > 0:
            pinned = done[-count:]
            del done[-count:]
            if isinstance(node, SharedPar):
                (left, left_labels), (right, right_labels) = pinned
                shared = _Shared(left, right, left_labels & right_labels)
                done.append((shared, left_labels | right_labels))
                continue
            labels: set[str] = set()
            if isinstance(node, ExternalChoice):
                labels.update(label for label, _ in node.branches if label != OMEGA)
            for _, sub_labels in pinned:
                labels |= sub_labels
            done.append((rebuild(node, [sub for sub, _ in pinned]), frozenset(labels)))
        elif isinstance(node, SharedPar) or (
            isinstance(node, (ExternalChoice, ProbChoice, Priority, SyncPar)) and node._shared
        ):
            subs = children(node)
            stack.append((node, len(subs)))
            stack += [(sub, -1) for sub in reversed(subs)]
        else:
            done.append((node, alphabet(node)))  # alphabet refuses what is not a term
    return done[0]


class _Compiler:
    def __init__(self, order: PriorityOrder):
        self.order = order
        self._prob_cache: dict[object, tuple[tuple[Fraction, object], ...]] = {}
        self._action_cache: dict[object, dict[str, object]] = {}

    def prob_steps(self, node) -> tuple[tuple[Fraction, object], ...]:
        if isinstance(node, ExternalChoice):  # the commonest node, never weighted
            return ()
        cached = self._prob_cache.get(node)
        if cached is not None:
            return cached
        out: list[tuple[Fraction, object]] = []
        if isinstance(node, ProbChoice):
            for weight, sub in node.branches:
                inner = () if isinstance(sub, ExternalChoice) else self.prob_steps(sub)
                if inner:
                    out += [(weight * r, target) for r, target in inner]
                else:
                    out.append((weight, sub))
        elif isinstance(node, Priority):
            out = [(w, Priority(t)) for w, t in self.prob_steps(node.body)]
        elif isinstance(node, SyncPar):
            lp, rp = self.prob_steps(node.left), self.prob_steps(node.right)
            if lp and rp:
                out = [(w * r, SyncPar(lt, rt)) for w, lt in lp for r, rt in rp]
            elif lp:
                out = [(w, SyncPar(lt, node.right)) for w, lt in lp]
            elif rp:
                out = [(r, SyncPar(node.left, rt)) for r, rt in rp]
        elif isinstance(node, _Shared):
            lp, rp = self.prob_steps(node.left), self.prob_steps(node.right)
            if lp and rp:
                out = [
                    (w * r, _Shared(lt, rt, node.sync)) for w, lt in lp for r, rt in rp
                ]
            elif lp:
                out = [(w, _Shared(lt, node.right, node.sync)) for w, lt in lp]
            elif rp:
                out = [(r, _Shared(node.left, rt, node.sync)) for r, rt in rp]
        result = tuple(out)
        self._prob_cache[node] = result
        return result

    def action_steps(self, node) -> dict[str, object]:
        """The node's action steps.  Only a node without weighted steps is
        asked for them, and then its operands have none either, so either
        operand of |[]| may act alone on an unshared label."""
        if isinstance(node, ExternalChoice):  # its own branches; a cache would mostly miss
            return dict(node.branches)
        cached = self._action_cache.get(node)
        if cached is not None:
            return cached
        out: dict[str, object] = {}
        if isinstance(node, Priority):
            steps = self.action_steps(node.body)
            out = {
                label: Priority(target)
                for label, target in steps.items()
                if not any(self.order.higher(other, label) for other in steps)
            }
        elif isinstance(node, SyncPar):
            left, right = self.action_steps(node.left), self.action_steps(node.right)
            out = {
                label: SyncPar(left[label], right[label])
                for label in left.keys() & right.keys()
            }
        elif isinstance(node, _Shared):
            left, right = self.action_steps(node.left), self.action_steps(node.right)
            for label, target in left.items():
                if label not in node.sync:
                    out[label] = _Shared(target, node.right, node.sync)
                elif label in right:
                    out[label] = _Shared(target, right[label], node.sync)
            for label, target in right.items():
                if label in node.sync:
                    continue
                if label in out:
                    raise ValueError(f"both operands of |[]| interleave label {label!r}")
                out[label] = _Shared(node.left, target, node.sync)
        self._action_cache[node] = out
        return out


def compile_term(term: Term, order: PriorityOrder = EMPTY_ORDER) -> Pts:
    """The reachable transition graph of a process or test term.

    States are numbered in breadth-first order from the root, 0.  The walk
    builds each state's action map and weighted tuple as it goes, merging
    weighted steps to one target by adding their weights, and hands them to
    `Pts.acyclic`, since every step leads to a smaller term.
    """
    compiler = _Compiler(order)
    root, labels = _pin_sync_sets(term)
    ids: dict[object, int] = {root: 0}
    nodes = [root]
    kinds: dict[int, str] = {}
    actions: dict[int, dict[str, int]] = {}
    weighted: dict[int, tuple[tuple[Fraction, int], ...]] = {}
    # `nodes` grows while it is walked, so the walk is breadth-first.
    for state, node in enumerate(nodes):
        if isinstance(node, ExternalChoice):  # the commonest node, never weighted
            steps, moves = (), node.branches
        else:
            steps = compiler.prob_steps(node)
            moves = () if steps else compiler.action_steps(node).items()
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

    return Pts.acyclic(labels, kinds, actions, weighted, 0)


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
