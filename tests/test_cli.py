"""Command-line behavior: outputs, exit codes, file inputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import probproc
from probproc.cli import main
from probproc.fixtures import (
    COIN_MACHINE_EARLY,
    COIN_MACHINE_LATE,
    MIXED_FOLLOWUP_FIRST,
    MIXED_FOLLOWUP_SECOND,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_res_prints_the_symbolic_outcome(capsys):
    code, out, _ = run_cli(
        capsys, "res", "p{1/2:(h->p [] t),1/2:(h [] t->p)}", "h->p->w [] t->w"
    )
    assert code == 0
    assert out.strip() == "(h + 2*t) / (2*h + 2*t)"


def test_equiv_trivial(capsys):
    code, out, _ = run_cli(capsys, "equiv", "0", "0")
    assert code == 0
    assert out.strip() == "equivalent"


def test_equiv_reports_witness_trace_and_values(capsys):
    code, out, _ = run_cli(capsys, "equiv", MIXED_FOLLOWUP_FIRST, MIXED_FOLLOWUP_SECOND)
    assert code == 1
    assert "{a,b} -b-> {c}" in out
    assert "1/2" in out and "0" in out


def test_equiv_testing_method(capsys):
    code, out, _ = run_cli(
        capsys,
        "equiv", COIN_MACHINE_EARLY, COIN_MACHINE_LATE,
        "--method", "testing", "--depth", "3",
    )
    assert code == 0
    assert "bounded" in out


def test_equiv_testing_rejects_a_negative_depth(capsys):
    code, out, err = run_cli(
        capsys, "equiv", "a->b", "a->c", "--method", "testing", "--depth", "-1"
    )
    assert code == 2
    assert out == ""
    assert err == "error: test depth must be non-negative, got -1\n"


def test_equiv_testing_refuses_a_search_over_budget(capsys):
    left = "a->b->c->d [] b->c [] c->d [] d->a"
    right = "a->b->c->d [] b->c [] c->d [] d->a->b"
    code, out, err = run_cli(capsys, "equiv", left, right, "--method", "testing")
    assert code == 2
    assert out == ""
    assert err == (
        "error: bounded testing search up to depth 5 has 10004000600040001 "
        "tests, over the budget of 100000\n"
    )
    # At depth 1 the search has 2^4 tests: the budget bounds it inclusively.
    shallow = ("equiv", left, right, "--method", "testing", "--depth", "1")
    assert run_cli(capsys, *shallow, "--budget", "15")[0] == 2
    code, out, _ = run_cli(capsys, *shallow, "--budget", "16")
    assert code == 0
    assert out == "equivalent (bounded, test depth 1)\n"


def test_trace_prob(capsys):
    code, out, _ = run_cli(
        capsys, "trace-prob", MIXED_FOLLOWUP_FIRST, "--trace", "{a,b} -b-> {c}"
    )
    assert code == 0
    assert out.strip() == "1/2"
    code, out, _ = run_cli(
        capsys, "trace-prob", MIXED_FOLLOWUP_FIRST, "--trace", "{a} -a-> {c}"
    )
    assert code == 0
    assert out.strip() == "undefined"


def test_trace_prob_refuses_a_malformed_trace(capsys):
    # The unclosed first menu once read as the one label "a -a-> {".
    for trace, shown in [
        ("{a -a-> {}", "'a -a-> {'"),
        ("{a,} -a-> {}", "''"),
        ("{a} -1-> {}", "'1'"),
        ("{a} -a b-> {}", "'a b'"),
        ("{2a}", "'2a'"),
    ]:
        code, out, err = run_cli(capsys, "trace-prob", "a->0", "--trace", trace)
        assert (code, out) == (2, "")
        assert err == f"error: malformed label {shown} in a ready trace\n"
    code, out, _ = run_cli(capsys, "trace-prob", "a->0", "--trace", " { a } -a-> { } ")
    assert (code, out) == (0, "1\n")


def test_distinguish(capsys):
    code, out, _ = run_cli(capsys, "distinguish", MIXED_FOLLOWUP_FIRST, MIXED_FOLLOWUP_SECOND)
    assert code == 1
    assert "w" in out
    code, out, _ = run_cli(capsys, "distinguish", COIN_MACHINE_EARLY, COIN_MACHINE_LATE)
    assert code == 0
    assert "not distinguishable" in out


def test_compile_json_and_dot(capsys):
    code, out, _ = run_cli(capsys, "compile", COIN_MACHINE_EARLY)
    assert code == 0
    doc = json.loads(out)
    assert doc["alphabet"] == ["h", "p", "t"]
    assert any(edge["weight"] == "1/2" for edge in doc["prob_edges"])
    code, out, _ = run_cli(capsys, "compile", COIN_MACHINE_EARLY, "--dot")
    assert code == 0
    assert out.startswith("digraph")


def test_compile_with_priority_file(tmp_path, capsys):
    prio = tmp_path / "order.txt"
    prio.write_text("a > b\n")
    code, out, _ = run_cli(
        capsys, "compile", "prio(a->0 [] b->0)", "--prio", str(prio)
    )
    assert code == 0
    doc = json.loads(out)
    labels = {edge["label"] for edge in doc["action_edges"]}
    assert labels == {"a"}


def test_input_from_file(tmp_path, capsys):
    path = tmp_path / "machine.term"
    path.write_text(COIN_MACHINE_EARLY)
    code, out, _ = run_cli(capsys, "equiv", f"@{path}", COIN_MACHINE_LATE)
    assert code == 0


def usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as stop:
        main(list(argv))
    captured = capsys.readouterr()
    return stop.value.code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv",
    [("res", "a"), ("equiv", "a", "b", "--colour", "red"), ()],
    ids=["missing operand", "unknown option", "no command"],
)
def test_usage_error_exits_2_with_one_line(capsys, argv):
    code, out, err = usage_error(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_compile_refuses_dot_with_json(capsys):
    code, out, err = usage_error(capsys, "compile", "a", "--dot", "--json")
    assert code == 2 and out == ""
    assert err == "error: argument --json: not allowed with argument --dot\n"


def test_help_still_prints_usage(capsys):
    code, out, err = usage_error(capsys, "compile", "--help")
    assert code == 0 and err == ""
    assert out.startswith("usage: probproc compile [-h] [--dot | --json]")


def test_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "equiv", "p{1/2:a}", "0")
    assert code == 2
    assert "error" in err


def test_unreadable_weight_is_a_positioned_parse_error(capsys):
    code, out, err = run_cli(capsys, "equiv", "p{²:a}", "a")
    assert code == 2
    assert out == ""
    assert err == "error: weight '²' is not a decimal number (line 1, column 3)\n"


def test_internal_error_exits_2_with_one_line(capsys):
    # Exit 1 would claim the two operands were distinguished.
    chain = "a->" * 600 + "0"
    code, out, err = run_cli(capsys, "equiv", chain, chain)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")


def test_deep_prefix_chains_get_answers_from_every_command():
    # A |[]|-free term is compiled without a recursive walk, so a 400-deep
    # prefix chain is answered by each command.  A fresh interpreter keeps
    # the test runner's own frames off the stack.
    src = str(Path(probproc.__file__).resolve().parents[1])
    deep = "a->" * 400 + "0"
    other = "a->" * 399 + "b->0"
    commands = [
        (["equiv", deep, other], 1),
        (["distinguish", deep, other], 1),
        (["compile", deep], 0),
        (["res", deep, "a->" * 400 + "w"], 0),
        (["trace-prob", deep, "--trace", "{a} -a-> {a}"], 0),
        (["equiv", deep, other, "--method", "testing"], 1),
    ]
    for argv, code in commands:
        done = subprocess.run(
            [sys.executable, "-m", "probproc.cli", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert (argv[0], done.returncode, done.stderr) == (argv[0], code, "")


def test_equiv_answers_a_deep_chain_above_a_shared_composition():
    # Pinning the |[]| walks with its own stack; parsing is still recursive,
    # so the chain stays below the parser's depth limit.
    src = str(Path(probproc.__file__).resolve().parents[1])
    deep = "a->" * 450 + "(b |[]| c)"
    other = "a->" * 450 + "(b |[]| d)"
    for right, code in [(deep, 0), (other, 1)]:
        done = subprocess.run(
            [sys.executable, "-m", "probproc.cli", "equiv", deep, right],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert (done.returncode, done.stderr) == (code, "")
        assert done.stdout.splitlines()[0] == ("equivalent" if code == 0 else "distinguished")


def test_interleaving_clash_is_refused_also_without_asserts():
    # Both operands of |[]| offer w unsynchronized; under python -O a bare
    # assert would vanish and one w would silently replace the other.
    src = str(Path(probproc.__file__).resolve().parents[1])
    results = set()
    for flags in ([], ["-O"]):
        done = subprocess.run(
            [sys.executable, *flags, "-m", "probproc.cli", "res", "a", "a->w |[]| a->w"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        results.add((done.returncode, done.stdout, done.stderr))
    assert results == {(2, "", "error: both operands of |[]| interleave label 'w'\n")}


def test_oracle_rejects_a_negative_sample_count(capsys):
    code, out, err = run_cli(capsys, "oracle", "--samples", "-3")
    assert code == 2
    assert out == ""
    assert err == "error: sample count must be non-negative, got -3\n"


def test_oracle_runs_a_named_check(capsys):
    code, out, _ = run_cli(
        capsys, "oracle", "--seed", "3", "--samples", "5", "--check", "axioms"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["axioms"]["ok"] is True
    assert doc["axioms"]["samples"] == 5


def test_composition_warning_goes_to_stderr(capsys):
    code, _, err = run_cli(
        capsys, "compile", "(a->b->0 |[]| b->c->0) |[]| c->a->0"
    )
    assert code == 0
    assert "associative" in err


def test_runtime_imports_only_the_standard_library():
    # Start-up hooks may load third-party modules before the package is
    # imported, so only the modules the import adds count.
    src = str(Path(probproc.__file__).resolve().parents[1])
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import probproc, probproc.cli, probproc.harness\n"
        "added = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(sorted(added - set(sys.stdlib_module_names) - {'probproc'}))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
