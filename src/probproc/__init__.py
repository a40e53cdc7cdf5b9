"""Workbench for reactive probabilistic processes.

Processes alternate observable action choices with invisible probabilistic
branching.  The package compiles a small process algebra to such graphs and
decides two exact equivalences on them: equality of symbolic test outcomes
(rational functions of the action names) and equality of all Bayesian menu
observation probabilities.  The two notions provably coincide; randomized
suites machine-check that, along with congruence and distributivity laws.
"""

from .parser import ParseError, parse_priority, parse_term, parse_test
from .pts import (
    CyclicGraphError,
    MenuNotOffered,
    OMEGA,
    Pts,
    to_dot,
    to_json,
    validate,
)
from .ratfunc import RationalFn, format_ratfunc
from .readytrace import (
    ReadyTrace,
    TraceVerdict,
    UNDEFINED,
    menu_distribution,
    parse_trace,
    ready_trace_equivalent,
    trace_probability,
)
from .semantics import compile_term, composition_warnings
from .terms import (
    EMPTY_ORDER,
    Empty,
    ExternalChoice,
    PriorityOrder,
    ProbChoice,
    Priority,
    SharedPar,
    SyncPar,
    alphabet,
    prefix,
    render,
    success,
)
from .testing import (
    TestVerdict,
    count_tests,
    distinguishing_test,
    apply_test,
    bounded_testing_equivalent,
)

__all__ = [
    "ParseError", "parse_priority", "parse_term", "parse_test",
    "CyclicGraphError", "MenuNotOffered", "OMEGA", "Pts", "to_dot", "to_json", "validate",
    "RationalFn", "format_ratfunc",
    "ReadyTrace", "TraceVerdict", "UNDEFINED", "menu_distribution", "parse_trace",
    "ready_trace_equivalent", "trace_probability",
    "compile_term", "composition_warnings",
    "EMPTY_ORDER", "Empty", "ExternalChoice", "PriorityOrder", "ProbChoice", "Priority",
    "SharedPar", "SyncPar", "alphabet", "prefix", "render", "success",
    "TestVerdict", "count_tests", "distinguishing_test", "apply_test",
    "bounded_testing_equivalent",
]
