"""Acceptance criteria, one test per criterion, each exact and timed.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Every numeric assertion is exact (Fraction or symbolic
equality); the time bounds are asserted too.
"""

import time
from fractions import Fraction

import pytest

from probproc.fixtures import (
    COIN_MACHINE_EARLY,
    COIN_MACHINE_LATE,
    COIN_PROBE_TEST,
    COIN_USER_TEST,
    GAME_GUESSER,
    GAME_TOSSER,
    MENU_CONDITIONING_EXAMPLE,
    MIXED_FOLLOWUP_FIRST,
    MIXED_FOLLOWUP_PROBE,
    MIXED_FOLLOWUP_SECOND,
)
from probproc.harness import (
    GenConfig,
    check_coincidence,
    check_congruence,
    check_distributivity,
    check_probability_axioms,
    check_symbolic_numeric,
    random_term,
)
from probproc.parser import parse_term, parse_test
from probproc.pts import validate
from probproc.ratfunc import RationalFn
from probproc.readytrace import ReadyTrace, ready_trace_equivalent, trace_probability
from probproc.semantics import compile_term
from probproc.terms import SharedPar, has_prob_choice
from probproc.testing import apply_test, bounded_testing_equivalent, distinguishing_test

from helpers import build, derived_process, tree_signature

F = Fraction
var = RationalFn.var
scalar = RationalFn.scalar


class Timer:
    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        return False


def report(number: int, text: str, timer: Timer) -> None:
    print(f"PASS criterion {number}: {text} ({timer.elapsed:.2f}s)")


@pytest.fixture(scope="module")
def coincidence_report():
    cfg = GenConfig(alphabet_size=2, max_depth=3, seed=20260809)
    with Timer() as timer:
        report_ = check_coincidence(cfg, n_samples=200)
    report_.elapsed_seconds = timer.elapsed
    return report_


def test_criterion_01_guessing_user_wins_exactly_half():
    with Timer() as timer:
        machine = compile_term(parse_term(COIN_MACHINE_EARLY))
        user = compile_term(parse_test(COIN_USER_TEST))
        outcome = apply_test(machine, user)
        assert outcome == scalar(F(1, 2))
    assert timer.elapsed < 1.0
    report(1, "coin machine passes the guessing user with outcome exactly 1/2", timer)


def test_criterion_02_probe_outcome_is_the_published_rational_function():
    with Timer() as timer:
        machine_early = compile_term(parse_term(COIN_MACHINE_EARLY))
        machine_late = compile_term(parse_term(COIN_MACHINE_LATE))
        probe = compile_term(parse_test(COIN_PROBE_TEST))
        h, t = var("h"), var("t")
        expected = (h + scalar(2) * t) / (scalar(2) * (h + t))
        early = apply_test(machine_early, probe)
        late = apply_test(machine_late, probe)
        assert early == expected
        assert late == expected
        assert early == late
    assert timer.elapsed < 1.0
    report(2, "both machines score (h + 2*t) / (2*(h + t)) on the one-sided probe", timer)


def test_criterion_03_coin_machines_equivalent_under_both_semantics():
    with Timer() as timer:
        early = compile_term(parse_term(COIN_MACHINE_EARLY))
        late = compile_term(parse_term(COIN_MACHINE_LATE))
        assert ready_trace_equivalent(early, late).equivalent
        verdict = bounded_testing_equivalent(early, late, depth=3)
        assert verdict.equivalent and verdict.depth == 3
    assert timer.elapsed < 5.0
    report(3, "early and late coin flips equivalent (ready-trace and testing depth 3)", timer)


def test_criterion_04_mixed_pair_distinguished_by_trace_and_test():
    with Timer() as timer:
        first = compile_term(parse_term(MIXED_FOLLOWUP_FIRST))
        second = compile_term(parse_term(MIXED_FOLLOWUP_SECOND))
        trace = ReadyTrace((frozenset({"a", "b"}), frozenset({"c"})), ("b",))
        assert trace_probability(first, trace) == F(1, 2)
        assert trace_probability(second, trace) == F(0)

        probe = compile_term(parse_test(MIXED_FOLLOWUP_PROBE))
        a, b = var("a"), var("b")
        outcome_first = apply_test(first, probe)
        outcome_second = apply_test(second, probe)
        # frozen values verified beforehand by unrolling the outcome
        # recursion by hand over the four-state graphs
        assert outcome_first == scalar(F(1, 2))
        assert outcome_second == scalar(F(1, 2)) * (a / (a + b)) + scalar(F(1, 2))
        assert outcome_first != outcome_second
    assert timer.elapsed < 1.0
    report(4, "trace {a,b}-b->{c} scores 1/2 vs 0 and the probe outcomes differ", timer)


def test_criterion_05_conditioning_renormalizes_to_quarter_and_three_quarters():
    with Timer() as timer:
        graph = compile_term(parse_term(MENU_CONDITIONING_EXAMPLE))
        after = derived_process(graph, graph.root, frozenset({"a", "b"}), "a")
        weights = sorted(w for w, _ in after.weighted[after.root])
        assert weights == [F(1, 4), F(3, 4)]
        assert validate(after) == []
    assert timer.elapsed < 1.0
    report(5, "conditioning on menu {a,b} then a yields weights exactly 1/4 and 3/4", timer)


def test_criterion_06_game_composition_compiles_to_the_expected_graph():
    with Timer() as timer:
        composed = compile_term(
            SharedPar(parse_term(GAME_TOSSER), parse_term(GAME_GUESSER))
        )
        assert validate(composed) == []

        kinds = {0: "p"}
        for base in (1, 10):
            kinds.update({base + offset: "n" for offset in range(8)})
        expected = build(
            alphabet={"wrt", "rev", "head", "tail", "g1", "g2", "ok"},
            kinds=kinds,
            action_edges=[
                (1, "wrt", 2), (2, "g1", 3), (2, "g2", 4),
                (3, "rev", 5), (4, "rev", 6), (5, "head", 7), (7, "ok", 8),
                (10, "wrt", 11), (11, "g1", 12), (11, "g2", 13),
                (12, "rev", 14), (13, "rev", 15), (15, "tail", 16), (16, "ok", 17),
            ],
            prob_edges=[(0, F(1, 2), 1), (0, F(1, 2), 10)],
            root=0,
        )
        assert validate(expected) == []
        assert tree_signature(composed) == tree_signature(expected)
    assert timer.elapsed < 1.0
    report(6, "tosser/guesser composition unfolds to the expected four-leaf tree", timer)


def test_criterion_07_coincidence_suite(coincidence_report):
    assert coincidence_report.samples >= 200
    assert coincidence_report.ok, coincidence_report.failures[:3]
    assert coincidence_report.elapsed_seconds < 300
    timer = Timer()
    timer.elapsed = coincidence_report.elapsed_seconds
    report(
        7,
        f"ready-trace and bounded testing verdicts agree on "
        f"{coincidence_report.samples} pairs",
        timer,
    )


def test_criterion_08_congruence_suite():
    cfg = GenConfig(alphabet_size=2, max_depth=3, seed=808)
    with Timer() as timer:
        result = check_congruence(cfg, n_samples=200)
        assert result.samples >= 200
        assert result.ok, result.failures[:3]
    assert timer.elapsed < 300
    report(8, f"equivalence preserved in {result.samples} random contexts", timer)


def test_criterion_09_distributivity_suites():
    cfg = GenConfig(alphabet_size=2, max_depth=3, seed=909)
    with Timer() as timer:
        result = check_distributivity(cfg, n_samples=200)
        assert result.samples >= 400  # 200 per exchange law plus pinned cases
        assert result.ok, result.failures[:3]
    assert timer.elapsed < 300
    report(9, f"probabilistic choice exchanged in {result.samples} instances", timer)


def test_criterion_10_witness_synthesis(coincidence_report):
    # the coincidence suite already fails any distinguished pair whose
    # synthesized witness is missing, probabilistic, or unverified
    assert coincidence_report.ok
    cfg = GenConfig(alphabet_size=2, max_depth=3, seed=1010)
    import random as _random

    rng = _random.Random(cfg.seed)
    with Timer() as timer:
        pairs = [
            (
                compile_term(parse_term(MIXED_FOLLOWUP_FIRST)),
                compile_term(parse_term(MIXED_FOLLOWUP_SECOND)),
            )
        ]
        for _ in range(60):
            pairs.append(
                (
                    compile_term(random_term(cfg, rng)),
                    compile_term(random_term(cfg, rng)),
                )
            )
        synthesized = 0
        for left, right in pairs:
            if ready_trace_equivalent(left, right).equivalent:
                assert distinguishing_test(left, right) is None
                continue
            witness = distinguishing_test(left, right)
            assert witness is not None
            assert not has_prob_choice(witness)
            compiled = compile_term(witness)
            assert apply_test(left, compiled) != apply_test(right, compiled)
            synthesized += 1
        assert synthesized >= 10
    report(
        10,
        f"synthesized probability-free verified witnesses for {synthesized} "
        f"distinguished pairs",
        timer,
    )


def test_criterion_11_probability_axioms():
    cfg = GenConfig(alphabet_size=3, max_depth=3, seed=1111)
    with Timer() as timer:
        result = check_probability_axioms(cfg, n_samples=200)
        assert result.samples >= 200
        assert result.ok, result.failures[:3]
    assert timer.elapsed < 300
    report(
        11,
        f"distribution, renormalization and brute-force chain checks on "
        f"{result.samples} terms",
        timer,
    )


def test_criterion_12_symbolic_equality_matches_numeric_evaluation():
    cfg = GenConfig(alphabet_size=3, max_depth=3, seed=1212)
    with Timer() as timer:
        result = check_symbolic_numeric(cfg, n_pairs=1000, points_per_pair=100)
        assert result.samples >= 1000
        assert result.ok, result.failures[:3]
    assert timer.elapsed < 300
    report(12, f"symbolic equality agreed with evaluation on {result.samples} pairs", timer)
