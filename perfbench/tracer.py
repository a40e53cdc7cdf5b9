"""Per-layer spans for probproc, recorded from outside the package.

`Tracer.install` wraps the public functions of the layer modules and the
RationalFn operators at run time, and rebinds every copy of each function in
the package (a `from .testing import apply_test` copies the name into the
importing module, and the harness keeps its suites in a dict).  `uninstall`
puts the originals back.

Each wrapped call belongs to an operation.  A function listed in `ENTRY_OPS`
starts its own operation; any other public function joins its caller's
operation when the caller is in the same module, and otherwise starts the
module's catch-all operation.  A call that stays in its caller's operation
(recursion, helpers) opens no span.  Spans live on a stack with their parent;
when one closes, its self time (span minus child spans) and its duration are
added to its operation, and the (parent, child) edge is counted.  Only these
sums stay in memory, since the oracle workload makes millions of RationalFn
calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

LAYER_MODULES = (
    "parser",
    "terms",
    "semantics",
    "pts",
    "readytrace",
    "testing",
    "ratfunc",
    "harness",
    "cli",
)

ENTRY_OPS = {
    "semantics.compile_term": "semantics.compile",
    "readytrace.ready_trace_equivalent": "readytrace.decide",
    "testing.apply_test": "testing.apply",
    "testing.bounded_testing_equivalent": "testing.enum",
    "testing.distinguishing_test": "testing.synth",
    "terms.render": "terms.render",
    "harness.check_coincidence": "harness.coincidence",
    "harness.check_congruence": "harness.congruence",
    "harness.check_distributivity": "harness.distributivity",
    "harness.check_probability_axioms": "harness.axioms",
    "harness.check_symbolic_numeric": "harness.symbolic_numeric",
}

RATFUNC_OPS = {
    "__add__": "ratfunc.add",
    "__mul__": "ratfunc.mul",
    "__truediv__": "ratfunc.div",
    "__eq__": "ratfunc.eq",
    "__str__": "ratfunc.str",
}

_PARSE_FUNCTIONS = {"parse_term", "parse_test", "parse_any"}


class Tracer:
    def __init__(self):
        self.stack: list[list] = [["bench", "bench", 0.0]]  # [op, module, child time]
        self.ops: dict[str, list] = {}  # op -> [spans, self seconds, span seconds]
        self.edges: dict[tuple[str, str], int] = {}  # (parent op, op) -> spans
        self.counters = {"parser.chars": 0, "semantics.states": 0, "testing.synth.witnesses": 0}
        self._restore: list[tuple[object, str, object]] = []

    # --- recording ---------------------------------------------------------

    def _wrap(self, fn, module: str, op: str | None, after=None):
        stack = self.stack
        ops = self.ops
        edges = self.edges

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            this = op or (parent[0] if parent[1] == module else module)
            if this == parent[0]:
                return fn(*args, **kwargs)
            frame = [this, module, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = perf_counter() - start
                stack.pop()
                parent[2] += span
                stats = ops.get(this)
                if stats is None:
                    stats = ops[this] = [0, 0.0, 0.0]
                stats[0] += 1
                stats[1] += span - frame[2]
                stats[2] += span
                key = (parent[0], this)
                edges[key] = edges.get(key, 0) + 1
            if after is not None:
                after(args, result)
            return result

        return traced

    def _count_chars(self, args, result):
        self.counters["parser.chars"] += len(args[0])

    def _count_states(self, args, result):
        self.counters["semantics.states"] += len(result.kinds)

    def _count_witness(self, args, result):
        if result is not None:
            self.counters["testing.synth.witnesses"] += 1

    def _after(self, module: str, name: str):
        if module == "parser" and name in _PARSE_FUNCTIONS:
            return self._count_chars
        if (module, name) == ("semantics", "compile_term"):
            return self._count_states
        if (module, name) == ("testing", "distinguishing_test"):
            return self._count_witness
        return None

    # --- patching ----------------------------------------------------------

    def _rebind(self, owner, key, value):
        if isinstance(owner, dict):
            self._restore.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._restore.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def install(self) -> None:
        """Wrap every public layer function wherever the package binds it."""
        wrappers = {}
        for module in LAYER_MODULES:
            mod = importlib.import_module(f"probproc.{module}")
            for name, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not name.startswith("_")
                ):
                    wrappers[obj] = self._wrap(
                        obj,
                        module,
                        ENTRY_OPS.get(f"{module}.{name}"),
                        self._after(module, name),
                    )
        for modname, mod in list(sys.modules.items()):
            if modname != "probproc" and not modname.startswith("probproc."):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._rebind(mod, name, wrappers[obj])
                elif isinstance(obj, dict) and not name.startswith("__"):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in wrappers:
                            self._rebind(obj, key, wrappers[value])
        ratfunc = importlib.import_module("probproc.ratfunc").RationalFn
        for method, op in RATFUNC_OPS.items():
            wrapped = self._wrap(getattr(ratfunc, method), "ratfunc", op)
            self._rebind(ratfunc, method, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._restore.clear()

    # --- results -----------------------------------------------------------

    def calls(self, op: str) -> int:
        return self.ops.get(op, [0, 0.0, 0.0])[0]

    def self_s(self, op: str) -> float:
        return self.ops.get(op, [0, 0.0, 0.0])[1]

    def span_s(self, op: str) -> float:
        return self.ops.get(op, [0, 0.0, 0.0])[2]

    def edge_calls(self, parent_prefix: str, op: str) -> int:
        return sum(
            n for (parent, child), n in self.edges.items()
            if child == op and parent.startswith(parent_prefix)
        )

    def table(self) -> list[str]:
        """One line per operation and per parent edge, heaviest self time first."""
        lines = []
        for op, (n, own, span) in sorted(self.ops.items(), key=lambda kv: -kv[1][1]):
            lines.append(f"span {op} calls={n} self_s={own:.6f} span_s={span:.6f}")
            for (parent, child), count in sorted(self.edges.items()):
                if child == op:
                    lines.append(f"  from {parent} calls={count}")
        return lines
