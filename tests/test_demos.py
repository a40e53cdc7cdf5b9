"""The demo scripts and the README's library example run against the package
sources, which export exactly the pinned public names."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import probproc

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo", ["coin_machine.py", "distinguishing_tests.py", "law_checks.py"]
)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    example = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(example, "README.md", "exec"), {})


def test_public_names_are_pinned():
    # A name added to or dropped from the package API shows up here; the
    # list names functions, classes and constants, never a submodule.
    assert sorted(probproc.__all__) == [
        "CyclicGraphError", "EMPTY_ORDER", "Empty", "ExternalChoice", "MenuNotOffered",
        "OMEGA", "ParseError", "Priority", "PriorityOrder", "ProbChoice", "Pts",
        "RationalFn", "ReadyTrace", "SharedPar", "SyncPar", "TestVerdict",
        "TraceVerdict", "UNDEFINED", "alphabet", "apply_test",
        "bounded_testing_equivalent", "compile_term", "composition_warnings",
        "count_tests", "distinguishing_test", "format_ratfunc", "menu_distribution",
        "parse_priority", "parse_term", "parse_test", "parse_trace", "prefix",
        "ready_trace_equivalent", "render", "success", "to_dot", "to_json",
        "trace_probability", "validate",
    ]
