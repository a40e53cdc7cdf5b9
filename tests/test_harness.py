"""Generator determinism and the randomized property suites at small scale."""

import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from probproc.harness import (
    CheckReport,
    GenConfig,
    check_coincidence,
    check_congruence,
    check_distributivity,
    check_probability_axioms,
    check_symbolic_numeric,
    equivalent_pair,
    hole,
    prefix_distribution_pair,
    random_context,
    random_priority_order,
    random_term,
    raw_trace_probability,
    run_checks,
)
from probproc.parser import parse_term, parse_test
from probproc.pts import validate
from probproc.ratfunc import RationalFn
from probproc.readytrace import ready_trace_equivalent
from probproc.semantics import compile_term
from probproc.terms import Empty, ProbChoice, children, prefix, render, subterms
# Renamed so that pytest does not take it for a test class.
from probproc.testing import TestVerdict as Verdict


def test_config_bounds_validated():
    with pytest.raises(ValueError):
        GenConfig(alphabet_size=5)
    with pytest.raises(ValueError):
        GenConfig(max_depth=0)


def test_same_seed_reproduces_the_same_term():
    cfg = GenConfig(seed=123)
    assert random_term(cfg) == random_term(cfg)
    assert any(random_term(GenConfig(seed=s)) != random_term(cfg) for s in range(124, 130))


def test_generated_terms_round_trip_and_compile():
    rng = random.Random(31)
    cfg = GenConfig(alphabet_size=3, max_depth=4, seed=31)
    for _ in range(1000):
        term = random_term(cfg, rng)
        assert parse_term(render(term)) == term
        assert validate(compile_term(term)) == []


def test_depth_one_terms_stay_on_the_grammar_floor():
    cfg = GenConfig(alphabet_size=2, max_depth=1, seed=8)
    rng = random.Random(8)
    for _ in range(100):
        term = random_term(cfg, rng)
        assert validate(compile_term(term)) == []


def test_random_contexts_have_one_hole():
    marker = prefix("z")  # a label outside the pool
    rng = random.Random(37)
    cfg = GenConfig(alphabet_size=2, max_depth=3, seed=37)
    for _ in range(200):
        context = random_context(cfg, rng)
        assert sum(node == marker for node in subterms(context(marker))) == 1
        assert validate(compile_term(context(Empty()))) == []


def test_contexts_draw_when_built_and_plug_along_the_path_to_the_hole():
    first, second = prefix("y"), prefix("z", prefix("y"))
    rng = random.Random(59)
    for cfg in (GenConfig(2, 3, seed=59), GenConfig(4, 4, seed=61)):
        for _ in range(200):
            context = random_context(cfg, rng)
            state = rng.getstate()
            plugs = [context(first), context(second)]
            plugs += [context(prefix("z", prefix("y"))), context(prefix("y"))]
            assert rng.getstate() == state
            assert plugs[0] == plugs[3] and plugs[1] == plugs[2]
            # Below each node on the path to the hole, every sibling of the
            # path is one object in both plugs.
            left, right = plugs[0], plugs[1]
            while left is not first:
                assert type(left) is type(right)
                apart = [
                    pair for pair in zip(children(left), children(right)) if pair[0] is not pair[1]
                ]
                assert len(apart) == 1
                left, right = apart[0]
            assert right is second


def test_random_priority_orders_are_strict():
    rng = random.Random(41)
    cfg = GenConfig(alphabet_size=4, max_depth=2, seed=41)
    for _ in range(100):
        order = random_priority_order(cfg, rng)
        for high, low in order.pairs:
            assert not order.higher(low, high)
            assert high != low


def test_equivalent_pairs_share_an_alphabet_and_are_equivalent():
    rng = random.Random(43)
    cfg = GenConfig(alphabet_size=2, max_depth=3, seed=43)
    from probproc.terms import alphabet

    for _ in range(60):
        left, right = equivalent_pair(cfg, rng)
        assert alphabet(left) == alphabet(right)
        verdict = ready_trace_equivalent(compile_term(left), compile_term(right))
        assert verdict.equivalent, (render(left), render(right), verdict.describe())


def test_prefix_pair_has_the_exchange_shape():
    rng = random.Random(47)
    cfg = GenConfig(alphabet_size=2, max_depth=3, seed=47)
    left, right = prefix_distribution_pair(cfg, rng)
    assert isinstance(right, ProbChoice)


def test_hole_context_reduces_congruence_to_plain_equivalence():
    rng = random.Random(53)
    cfg = GenConfig(alphabet_size=2, max_depth=3, seed=53)
    for _ in range(20):
        left, right = equivalent_pair(cfg, rng)
        assert hole(left) is left
        verdict = ready_trace_equivalent(compile_term(hole(left)), compile_term(hole(right)))
        assert verdict.equivalent


def test_pinned_congruence_example_survives_a_peer_composition():
    from probproc.fixtures import (
        PREFIX_DISTRIB_LEFT,
        PREFIX_DISTRIB_PEER,
        PREFIX_DISTRIB_RIGHT,
    )
    from probproc.terms import SharedPar

    peer = parse_term(PREFIX_DISTRIB_PEER)
    wrapped_left = SharedPar(parse_term(PREFIX_DISTRIB_LEFT), peer)
    wrapped_right = SharedPar(parse_term(PREFIX_DISTRIB_RIGHT), peer)
    verdict = ready_trace_equivalent(
        compile_term(wrapped_left), compile_term(wrapped_right)
    )
    assert verdict.equivalent


def test_raw_walk_on_a_known_trace():
    from probproc.fixtures import MIXED_FOLLOWUP_FIRST
    from probproc.readytrace import ReadyTrace

    pts = compile_term(parse_term(MIXED_FOLLOWUP_FIRST))
    trace = ReadyTrace((frozenset({"a", "b"}), frozenset({"c"})), ("b",))
    assert raw_trace_probability(pts, trace) == Fraction(1, 2)


def test_reports_serialize_and_replay():
    cfg = GenConfig(alphabet_size=2, max_depth=3, seed=60)
    first = check_distributivity(cfg, n_samples=10)
    second = check_distributivity(cfg, n_samples=10)
    assert first.to_dict()["passes"] == second.to_dict()["passes"]
    payload = json.dumps(first.to_dict())
    assert json.loads(payload)["name"] == "distributivity"
    assert json.loads(payload)["seed"] == 60


def test_all_suites_pass_at_smoke_scale():
    cfg = GenConfig(alphabet_size=2, max_depth=3, seed=1)
    assert check_coincidence(cfg, n_samples=15).ok
    assert check_congruence(cfg, n_samples=15).ok
    assert check_distributivity(cfg, n_samples=15).ok
    assert check_probability_axioms(cfg, n_samples=15).ok
    assert check_symbolic_numeric(cfg, n_pairs=40).ok


def test_run_checks_selects_by_name():
    cfg = GenConfig(alphabet_size=2, max_depth=2, seed=2)
    out = run_checks(cfg, n_samples=5, only="axioms")
    assert list(out) == ["axioms"]
    with pytest.raises(ValueError):
        run_checks(cfg, n_samples=5, only="nonsense")


def _sha256(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_seeded_reports_and_renders_are_pinned(monkeypatch):
    """Seeded streams replay byte for byte across refactors.

    The digests cover every sample's detail (not only failures) of three
    suites, and the first renders of the two public generators.  Any change
    to the random draws, the generated terms or the verdicts moves them.
    """
    details: list[str] = []
    record = CheckReport.record

    def logging_record(self, ok, detail):
        details.append(json.dumps([self.name, ok, detail], sort_keys=True))
        record(self, ok, detail)

    monkeypatch.setattr(CheckReport, "record", logging_record)
    cfg = GenConfig(seed=2009)
    reports = []
    for name in ("congruence", "distributivity", "axioms"):
        for report in run_checks(cfg, n_samples=20, only=name).values():
            fields = report.to_dict()
            del fields["elapsed_seconds"]
            reports.append(json.dumps(fields, sort_keys=True))
    assert _sha256(reports + details) == (
        "b0e5f80fd4fb4c911e3a4fc408cfcd9fcedf6f8e0fcec340d08b9e442d552841"
    )

    rng = random.Random(2009)
    renders = [render(random_term(cfg, rng)) for _ in range(50)]
    for _ in range(50):
        renders.extend(render(term) for term in equivalent_pair(cfg, rng))
    assert _sha256(renders) == (
        "11754293ebed22667a9d1d6d4f217655b17277b69da3fb7f05a66f58031f5c63"
    )


def test_coincidence_details_are_pinned(monkeypatch):
    """Every sample's coincidence detail replays byte for byte.

    The details carry the bounded testing depth of equivalent pairs and the
    enumeration's first distinguishing test of the others, so any change to
    the test search's verdicts or order moves the digest.
    """
    details: list[str] = []
    record = CheckReport.record

    def logging_record(self, ok, detail):
        details.append(json.dumps([ok, detail], sort_keys=True))
        record(self, ok, detail)

    monkeypatch.setattr(CheckReport, "record", logging_record)
    cfg = GenConfig(alphabet_size=2, max_depth=3, seed=20260809)
    assert check_coincidence(cfg, n_samples=40).ok
    assert len(details) == 40
    assert _sha256(details) == (
        "14e05a5831ab5c21bc397ef3888354f26c137d46bd32310b22ccd0899390e852"
    )


def test_symbolic_numeric_details_are_pinned(monkeypatch):
    """Every symbolic/numeric detail replays byte for byte.

    With `==` forced to True, each unequal pair fails and prints the first
    point at which its two functions differ, so the second digest also pins
    the order of the coordinate draws and the exact evaluation at them.
    """
    details: list[str] = []
    record = CheckReport.record

    def logging_record(self, ok, detail):
        details.append(json.dumps([ok, detail], sort_keys=True))
        record(self, ok, detail)

    monkeypatch.setattr(CheckReport, "record", logging_record)
    configs = (GenConfig(seed=2009), GenConfig(3, 3, seed=1212))
    for cfg in configs:
        assert check_symbolic_numeric(cfg, n_pairs=200).ok
    assert len(details) == 400
    assert _sha256(details) == (
        "ce02cd339f5eab72917dfc71973042b3936e457d8d293915751582ba237a3d24"
    )

    details.clear()
    monkeypatch.setattr(RationalFn, "__eq__", lambda self, other: True)
    for cfg in configs:
        assert not check_symbolic_numeric(cfg, n_pairs=200).ok
    errors = [line for line in details if "equal functions differ at" in line]
    assert (len(details), len(errors)) == (400, 197)
    assert _sha256(details) == (
        "d24269894b8c5bb31eeb05f67b682f66dd0a11efc1202652c20fa77e2a82e213"
    )


def _verdict(equivalent: bool, test: str | None = None):
    return lambda left, right, depth=None: Verdict(
        equivalent, depth, None if test is None else parse_test(test)
    )


@pytest.mark.parametrize(
    "target, fake, failing_sample, error, witness",
    [
        (
            "bounded_testing_equivalent",
            _verdict(False, "h->w"),
            0,
            "testing found a witness for a ready-trace-equivalent pair",
            "h->w",
        ),
        (
            "distinguishing_test",
            lambda left, right: None,
            1,
            "no witness synthesized for a distinguished pair",
            None,
        ),
        (
            "distinguishing_test",
            lambda left, right: parse_test("p{1/2:a->w, 1/2:b->w}"),
            1,
            "synthesized witness uses probabilistic choice",
            "p{1/2:a->w, 1/2:b->w}",
        ),
        (
            "distinguishing_test",
            lambda left, right: parse_test("e->w"),
            1,
            "synthesized witness does not distinguish",
            "e->w",
        ),
        (
            "bounded_testing_equivalent",
            _verdict(True),
            1,
            "enumeration found no witness up to the synthesized depth",
            "b->(a->w [] b->w [] d->w [] e->w) [] e->w",
        ),
    ],
)
def test_coincidence_reports_each_failure(
    monkeypatch, target, fake, failing_sample, error, witness
):
    """Sample 0 is the equivalent coin pair, sample 1 the distinguished
    mixed pair; each fake breaks one step so exactly one sample fails.  The
    last fake denies the synthesized witness, which the detail then shows."""
    from probproc import harness

    monkeypatch.setattr(harness, target, fake)
    cfg = GenConfig(alphabet_size=2, max_depth=3, seed=1)
    report = check_coincidence(cfg, n_samples=2)
    assert (report.samples, report.passes) == (2, 1)
    (detail,) = report.failures
    assert detail["ready_trace_equivalent"] is (failing_sample == 0)
    assert detail["error"] == error
    assert detail.get("witness") == witness


@pytest.mark.parametrize(
    "equal, error",
    [
        (True, "equal functions differ at "),
        (False, "no distinguishing point found for unequal functions"),
    ],
)
def test_symbolic_numeric_reports_each_failure(monkeypatch, equal, error):
    monkeypatch.setattr(RationalFn, "__eq__", lambda self, other: equal)
    report = check_symbolic_numeric(GenConfig(seed=3), n_pairs=6, points_per_pair=20)
    assert not report.ok
    for detail in report.failures:
        assert detail["error"].startswith(error)
        assert "witness" not in detail


def test_symbolic_numeric_fails_when_evaluation_is_wrong(monkeypatch):
    """A wrong evaluator must make equal functions differ numerically.

    The equal pairs of this seed are structurally identical, so the fault
    goes into the first evaluator of each pair only: f's numerator gains 1.
    """
    evaluator = RationalFn.evaluator
    built = itertools.count()

    def broken(self):
        evaluate = evaluator(self)
        bump = 1 if next(built) % 2 == 0 else 0

        def wrong(point):
            num, den = evaluate(point)
            return num + bump, den

        return wrong

    monkeypatch.setattr(RationalFn, "evaluator", broken)
    report = check_symbolic_numeric(GenConfig(seed=3), n_pairs=6, points_per_pair=20)
    assert (report.samples, report.passes) == (6, 3)
    for detail in report.failures:
        assert detail["f"] == detail["g"]
        assert detail["error"].startswith("equal functions differ at ")
