"""Randomized generation and the machine-checked property suites.

Every suite draws its samples from a seeded generator, so any reported
failure replays bit-exactly from the seed carried in the report.  The
suites check, at desk scale:

  * coincidence: the ready-trace verdict and the bounded testing verdict
    agree on every sampled pair, and every distinguished pair also yields a
    synthesized, verified, probability-free witness test;
  * congruence: equivalent processes stay equivalent in every sampled
    context;
  * distributivity: probabilistic choice commutes with prefixed external
    choice and with arbitrary contexts;
  * probability axioms: menu distributions are probability distributions,
    conditional layers renormalize to one, and the chained trace
    probabilities match an independent brute-force walk of the raw graph;
  * symbolic/numeric agreement: the symbolic equality of outcome functions
    matches exact evaluation at random positive rational points.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice

from .fixtures import (
    COIN_MACHINE_EARLY,
    COIN_MACHINE_LATE,
    MIXED_FOLLOWUP_FIRST,
    MIXED_FOLLOWUP_SECOND,
    PREFIX_DISTRIB_LEFT,
    PREFIX_DISTRIB_PEER,
    PREFIX_DISTRIB_RIGHT,
)
from .parser import parse_term
from .pts import Pts
from .ratfunc import RationalFn
from .readytrace import ReadyTrace, UNDEFINED, ready_trace_equivalent, trace_probability
from .semantics import compile_term
from .terms import (
    EMPTY_ORDER,
    alphabet,
    Empty,
    ExternalChoice,
    PriorityOrder,
    ProbChoice,
    Priority,
    SharedPar,
    SyncPar,
    Term,
    has_prob_choice,
    map_children,
    render,
)
from .testing import (
    count_tests,
    distinguishing_test,
    relevant_universes,
    term_action_depth,
    apply_test,
    bounded_testing_equivalent,
)

_LABEL_POOL = ("a", "b", "c", "d")

# Every generated choice has at most this many branches, and the weights of a
# probabilistic choice share a denominator of at most this size.
_MAX_BRANCHING = 3
_MAX_WEIGHT_DENOMINATOR = 8

# The most tests the coincidence suite enumerates for an equivalent pair.
_COINCIDENCE_BUDGET = 1500


@dataclass(frozen=True)
class GenConfig:
    """Bounds for random generation; identical seed and bounds replay exactly."""

    alphabet_size: int = 3
    max_depth: int = 3
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.alphabet_size <= 4:
            raise ValueError("alphabet_size must be between 1 and 4")
        if not 1 <= self.max_depth <= 4:
            raise ValueError("max_depth must be between 1 and 4")

    @property
    def labels(self) -> tuple[str, ...]:
        return _LABEL_POOL[: self.alphabet_size]


def _random_labels(rng: random.Random, labels: tuple[str, ...]) -> list[str]:
    """The sorted labels of an external choice: one to _MAX_BRANCHING of them."""
    return sorted(rng.sample(labels, rng.randint(1, min(_MAX_BRANCHING, len(labels)))))


def _random_weights(rng: random.Random) -> list[Fraction]:
    """The weights of a probabilistic choice: two to _MAX_BRANCHING positive
    fractions over one denominator, summing to one."""
    parts = rng.randint(2, _MAX_BRANCHING)
    total = rng.randint(parts, _MAX_WEIGHT_DENOMINATOR)
    bounds = [0] + sorted(rng.sample(range(1, total), parts - 1)) + [total]
    return [Fraction(high - low, total) for low, high in zip(bounds, bounds[1:])]


def random_term(cfg: GenConfig, rng: random.Random | None = None) -> Term:
    """A random well-formed term within the bounds; deterministic per seed."""
    if rng is None:
        rng = random.Random(cfg.seed)
    return _random_term(cfg, rng, cfg.max_depth)


# Operator weights over _KINDS and the odds that a depth-0 leaf is 0.  The
# aligned pieces of the context law draw with their own mix; seeded reports
# replay only while both mixes stay as they are.
_KINDS = ("choice", "prob", "prio", "sync", "shared", "empty")
_TERM_SHAPE = ((5, 4, 1, 1, 1, 1), 0.4)
_ALIGNED_SHAPE = ((6, 3, 1, 1, 1, 1), 0.3)


def _random_term(
    cfg: GenConfig,
    rng: random.Random,
    depth: int,
    pool: tuple[str, ...] | None = None,
    shape: tuple[tuple[int, ...], float] = _TERM_SHAPE,
) -> Term:
    labels = cfg.labels if pool is None else pool
    weights, leaf_empty = shape
    if depth <= 0:
        if rng.random() < leaf_empty:
            return Empty()
        return ExternalChoice(((rng.choice(labels), Empty()),))
    kind = rng.choices(_KINDS, weights=weights)[0]
    if kind == "empty":
        return Empty()

    def sub() -> Term:
        return _random_term(cfg, rng, depth - 1, pool, shape)

    if kind == "choice":
        chosen = _random_labels(rng, labels)
        return ExternalChoice(tuple((label, sub()) for label in chosen))
    if kind == "prob":
        return ProbChoice(tuple((w, sub()) for w in _random_weights(rng)))
    if kind == "prio":
        return Priority(sub())
    sides = (sub(), sub())
    return SyncPar(*sides) if kind == "sync" else SharedPar(*sides)


def random_priority_order(cfg: GenConfig, rng: random.Random) -> PriorityOrder:
    """A random strict partial order over the alphabet (never cyclic)."""
    ranked = list(cfg.labels)
    rng.shuffle(ranked)
    pairs = [
        (ranked[i], ranked[j])
        for i in range(len(ranked))
        for j in range(i + 1, len(ranked))
        if rng.random() < 0.3
    ]
    return PriorityOrder(tuple(pairs))


@dataclass(frozen=True)
class _Hole:
    _hash = 0  # both read by the term constructors around it
    _shared = 0


def fill_context(context, replacement: Term) -> Term:
    """Substitute the process for the unique hole of a context."""
    if isinstance(context, _Hole):
        return replacement
    return map_children(context, lambda sub: fill_context(sub, replacement))


def random_context(cfg: GenConfig, rng: random.Random, depth: int | None = None):
    """A term with a single hole, built from all operators."""
    depth = cfg.max_depth if depth is None else depth
    if depth <= 0:
        return _Hole()
    kind = rng.choices(
        ("hole", "choice", "prob", "prio", "sync", "shared"),
        weights=(2, 3, 2, 1, 2, 2),
    )[0]
    if kind == "hole":
        return _Hole()
    if kind == "prio":
        return Priority(random_context(cfg, rng, depth - 1))
    if kind in ("sync", "shared"):
        hole_side = random_context(cfg, rng, depth - 1)
        other = _random_term(cfg, rng, depth - 1)
        cls = SyncPar if kind == "sync" else SharedPar
        return cls(hole_side, other) if rng.random() < 0.5 else cls(other, hole_side)
    if kind == "choice":
        cls, keys = ExternalChoice, _random_labels(rng, cfg.labels)
    else:
        cls, keys = ProbChoice, _random_weights(rng)
    slot = rng.randrange(len(keys))
    return cls(
        tuple(
            (
                key,
                random_context(cfg, rng, depth - 1)
                if i == slot
                else _random_term(cfg, rng, depth - 1),
            )
            for i, key in enumerate(keys)
        )
    )


def prefix_distribution_pair(cfg: GenConfig, rng: random.Random) -> tuple[Term, Term]:
    """Both sides of the prefixed-choice/probabilistic-choice exchange law."""
    actions = _random_labels(rng, cfg.labels)
    weights = _random_weights(rng)
    rows = [
        [_random_term(cfg, rng, max(0, cfg.max_depth - 2)) for _ in weights]
        for _ in actions
    ]
    left = ExternalChoice(
        tuple(
            (action, ProbChoice(tuple(zip(weights, row))))
            for action, row in zip(actions, rows)
        )
    )
    right = ProbChoice(
        tuple(
            (w, ExternalChoice(tuple(zip(actions, column))))
            for w, column in zip(weights, zip(*rows))
        )
    )
    return left, right


def _aligned_pieces(
    cfg: GenConfig, rng: random.Random, count: int, depth: int
) -> list[Term]:
    """Random terms sharing one syntactic alphabet.

    The synchronization set of |[]| is computed from the operands' syntactic
    alphabets, so pulling a probabilistic choice out of a context only
    leaves that set unchanged when all alternatives mention the same
    actions.  The exchange law is stated for a fixed operator, hence the
    alignment here.
    """
    target = frozenset(rng.sample(cfg.labels, rng.randint(1, len(cfg.labels))))
    pool = tuple(sorted(target))
    pieces: list[Term] = []
    for _ in range(count):
        piece = None
        for _ in range(50):
            candidate = _random_term(cfg, rng, depth, pool, _ALIGNED_SHAPE)
            if alphabet(candidate) == target:
                piece = candidate
                break
        if piece is None:
            piece = ExternalChoice(tuple((label, Empty()) for label in pool))
        pieces.append(piece)
    return pieces


def context_distribution_pair(cfg: GenConfig, rng: random.Random) -> tuple[Term, Term]:
    """Both sides of pulling a probabilistic choice out of a context."""
    context = random_context(cfg, rng, depth=rng.randint(1, max(1, cfg.max_depth - 1)))
    weights = _random_weights(rng)
    pieces = _aligned_pieces(cfg, rng, len(weights), max(0, cfg.max_depth - 2))
    inner = ProbChoice(tuple(zip(weights, pieces)))
    left = fill_context(context, inner)
    right = ProbChoice(
        tuple((w, fill_context(context, piece)) for w, piece in zip(weights, pieces))
    )
    return left, right


def equivalent_pair(cfg: GenConfig, rng: random.Random) -> tuple[Term, Term]:
    """A pair equal by construction, using only the proved exchange laws."""
    if rng.random() < 0.5:
        return prefix_distribution_pair(cfg, rng)
    return context_distribution_pair(cfg, rng)


# --- reports -----------------------------------------------------------------


@dataclass
class CheckReport:
    name: str
    seed: int
    samples: int = 0
    passes: int = 0
    failures: list = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, ok: bool, detail: dict) -> None:
        self.samples += 1
        if ok:
            self.passes += 1
        else:
            self.failures.append(detail)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "samples": self.samples,
            "passes": self.passes,
            "failures": self.failures,
            "elapsed_seconds": round(self.elapsed_seconds, 3),
            "ok": self.ok,
        }


def _samples(cfg: GenConfig, n: int):
    """(index, seed, generator) per sample; a sample replays from its seed."""
    rng = random.Random(cfg.seed)
    for index in range(n):
        seed = rng.getrandbits(64)
        yield index, seed, random.Random(seed)


def _report(name: str, cfg: GenConfig, outcomes) -> CheckReport:
    """Run a suite's (ok, detail) outcomes into a timed report."""
    report = CheckReport(name=name, seed=cfg.seed)
    started = time.monotonic()
    for ok, detail in outcomes:
        report.record(ok, detail)
    report.elapsed_seconds = time.monotonic() - started
    return report


def _equivalence(
    left: Term, right: Term, order: PriorityOrder, detail: dict
) -> tuple[bool, dict]:
    """The outcome of a sample whose two terms must be equivalent."""
    verdict = ready_trace_equivalent(
        compile_term(left, order), compile_term(right, order)
    )
    detail.update(left=render(left), right=render(right))
    if not verdict.equivalent:
        detail["error"] = verdict.describe()
    return verdict.equivalent, detail


def _budget_depth(left: Pts, right: Pts) -> int:
    """Largest test depth whose full enumeration stays within `_COINCIDENCE_BUDGET`."""
    full = max(left.action_depth, right.action_depth) + 1
    # The level universes of a smaller depth are a prefix of these, and a
    # count reads only the levels below its depth.
    universes = relevant_universes(left, right, full)
    depth = 1
    for candidate in range(1, full + 1):
        if count_tests(universes, candidate) > _COINCIDENCE_BUDGET:
            break
        depth = candidate
    return depth


def _coincidence_error(
    left: Pts, right: Pts, equivalent: bool, detail: dict
) -> tuple[str | None, Term | None]:
    """The error of a coincidence sample, None when it passes, and the test
    its detail shows; records the testing depth of an equivalent pair."""
    if equivalent:
        depth = detail["testing_depth"] = _budget_depth(left, right)
        verdict = bounded_testing_equivalent(left, right, depth=depth)
        if verdict.equivalent:
            return None, None
        return "testing found a witness for a ready-trace-equivalent pair", verdict.test
    witness = distinguishing_test(left, right)
    if witness is None:
        return "no witness synthesized for a distinguished pair", None
    if has_prob_choice(witness):
        return "synthesized witness uses probabilistic choice", witness
    compiled = compile_term(witness)
    if apply_test(left, compiled) == apply_test(right, compiled):
        return "synthesized witness does not distinguish", witness
    # Enumeration yields tests by exact depth, and the universes of a smaller
    # depth are a prefix of these, so this finds the same first
    # distinguishing test as searching each depth up to the witness's.
    found = bounded_testing_equivalent(left, right, depth=term_action_depth(witness))
    if found.equivalent:
        return "enumeration found no witness up to the synthesized depth", witness
    return None, found.test


def check_coincidence(cfg: GenConfig, n_samples: int = 200) -> CheckReport:
    """Ready-trace and bounded testing verdicts must agree on every pair.

    Distinguished pairs must additionally yield a synthesized witness test
    with no probabilistic branching whose outcomes verifiably differ.
    """
    pinned = [
        (parse_term(COIN_MACHINE_EARLY), parse_term(COIN_MACHINE_LATE)),
        (parse_term(MIXED_FOLLOWUP_FIRST), parse_term(MIXED_FOLLOWUP_SECOND)),
    ]

    def outcomes():
        for index, seed, sub in _samples(cfg, n_samples):
            order = random_priority_order(cfg, sub)
            if index < len(pinned):
                left_term, right_term = pinned[index]
            elif index % 2 == 0:
                left_term, right_term = equivalent_pair(cfg, sub)
            else:
                left_term = _random_term(cfg, sub, cfg.max_depth)
                right_term = _random_term(cfg, sub, cfg.max_depth)
            left = compile_term(left_term, order)
            right = compile_term(right_term, order)
            equivalent = ready_trace_equivalent(left, right).equivalent
            detail = {
                "sample_seed": seed,
                "left": render(left_term),
                "right": render(right_term),
                "ready_trace_equivalent": equivalent,
            }
            error, test = _coincidence_error(left, right, equivalent, detail)
            if error is not None:
                detail["error"] = error
            if test is not None:
                detail["witness"] = render(test)
            yield error is None, detail

    return _report("coincidence", cfg, outcomes())


def check_congruence(cfg: GenConfig, n_samples: int = 200) -> CheckReport:
    """Equivalent processes must stay equivalent inside random contexts."""

    def outcomes():
        for index, seed, sub in _samples(cfg, n_samples):
            if index == 0:
                left = parse_term(PREFIX_DISTRIB_LEFT)
                right = parse_term(PREFIX_DISTRIB_RIGHT)
                context = SharedPar(_Hole(), parse_term(PREFIX_DISTRIB_PEER))
                order = EMPTY_ORDER
            else:
                left, right = equivalent_pair(cfg, sub)
                depth = sub.randint(0, cfg.max_depth - 1)
                context = random_context(cfg, sub, depth)
                order = random_priority_order(cfg, sub)
            yield _equivalence(
                fill_context(context, left),
                fill_context(context, right),
                order,
                {"sample_seed": seed},
            )

    return _report("congruence", cfg, outcomes())


def check_distributivity(cfg: GenConfig, n_samples: int = 200) -> CheckReport:
    """Probabilistic choice must commute with prefixing and with contexts.

    After three pinned pairs, the first n_samples seeds go to the prefix law
    and the next n_samples to the context law.
    """
    pinned = [
        ("a->p{1/2:b, 1/2:c}", "p{1/2:a->b, 1/2:a->c}"),
        ("p{1:a->b}", "a->b"),
        (COIN_MACHINE_LATE, COIN_MACHINE_EARLY),
    ]

    def outcomes():
        for left, right in pinned:
            yield _equivalence(parse_term(left), parse_term(right), EMPTY_ORDER, {})
        seeds = _samples(cfg, 2 * n_samples)
        for law in (prefix_distribution_pair, context_distribution_pair):
            for _, seed, sub in islice(seeds, n_samples):
                left, right = law(cfg, sub)
                detail = {"sample_seed": seed, "law": law.__name__}
                yield _equivalence(left, right, random_priority_order(cfg, sub), detail)

    return _report("distributivity", cfg, outcomes())


def raw_trace_probability(pts: Pts, trace: ReadyTrace) -> Fraction:
    """Brute-force joint probability by walking the raw graph directly.

    Independent of the conditioning machinery: it follows probabilistic
    edges by weight and the trace's chosen actions, scoring a path 1 when
    every observed menu matches and 0 otherwise.
    """

    def go(state: int, index: int) -> Fraction:
        if pts.kinds[state] == "p":
            return sum(
                (weight * go(target, index) for weight, target in pts.weighted[state]),
                Fraction(0),
            )
        if pts.menu(state) != trace.menus[index]:
            return Fraction(0)
        if index == len(trace.menus) - 1:
            return Fraction(1)
        return go(pts.actions[state][trace.actions[index]], index + 1)

    return go(pts.root, 0)


def _axiom_problems(pts: Pts, max_menus: int) -> list[str]:
    """Every violated distribution law over the traces of up to max_menus menus."""
    problems: list[str] = []
    table = pts.positions

    def check_position(pos, prefix_menus, prefix_actions):
        dist = table.distribution(pos)
        total = sum(dist.values(), Fraction(0))
        if total != 1:
            problems.append(f"menu distribution sums to {total} after {prefix_actions}")
        if any(not (0 < p <= 1) for p in dist.values()):
            problems.append(f"menu probability outside (0,1] after {prefix_actions}")
        for menu, p in sorted(dist.items(), key=lambda kv: str(kv[0])):
            trace = ReadyTrace(prefix_menus + (menu,), prefix_actions)
            joint = trace_probability(pts, trace)
            brute = raw_trace_probability(pts, trace)
            if joint is UNDEFINED or joint != brute:
                problems.append(
                    f"trace {trace.render()}: chained {joint} vs brute-force {brute}"
                )
            if len(trace.menus) < max_menus:
                for action in sorted(menu):
                    check_position(
                        table.child(pos, menu, action),
                        trace.menus,
                        prefix_actions + (action,),
                    )

    check_position(table.start(pts.root), (), ())
    return problems


def check_probability_axioms(cfg: GenConfig, n_samples: int = 200) -> CheckReport:
    """Distribution laws of the observation probabilities, per sampled term.

    Checks that every menu distribution is a probability distribution, that
    each conditional layer renormalizes to one, and that the chained trace
    probability equals the brute-force joint walk exactly.
    """

    def outcomes():
        for _, seed, sub in _samples(cfg, n_samples):
            term = _random_term(cfg, sub, cfg.max_depth)
            pts = compile_term(term, random_priority_order(cfg, sub))
            detail = {"sample_seed": seed, "term": render(term)}
            problems = _axiom_problems(pts, cfg.max_depth + 1)
            if problems:
                detail["error"] = problems[:5]
            yield not problems, detail

    return _report("probability_axioms", cfg, outcomes())


def random_ratfunc(cfg: GenConfig, rng: random.Random, depth: int = 3) -> RationalFn:
    """A random expression over variables, non-negative scalars, +, * and /."""
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return RationalFn.var(rng.choice(cfg.labels))
        return RationalFn.scalar(
            Fraction(rng.randint(0, 6), rng.randint(1, 6))
        )
    op = rng.choice(("add", "mul", "div"))
    left = random_ratfunc(cfg, rng, depth - 1)
    if op == "add":
        return left + random_ratfunc(cfg, rng, depth - 1)
    if op == "mul":
        return left * random_ratfunc(cfg, rng, depth - 1)
    for _ in range(10):
        right = random_ratfunc(cfg, rng, depth - 1)
        if not right.is_zero():
            return left / right
    return left


def check_symbolic_numeric(
    cfg: GenConfig, n_pairs: int = 1000, points_per_pair: int = 100
) -> CheckReport:
    """Symbolic equality must match exact evaluation at random positive points."""

    def outcomes():
        for index, seed, sub in _samples(cfg, n_pairs):
            f = random_ratfunc(cfg, sub)
            if index % 2 == 0:
                g = random_ratfunc(cfg, sub)
            else:
                # Same function in a different shape: multiply by q/q.
                q = random_ratfunc(cfg, sub, depth=2)
                if q.is_zero():
                    q = RationalFn.one()
                g = (f * q) / q
            names = sorted(f.variables() | g.variables())
            equal = f == g
            detail = {"sample_seed": seed, "f": str(f), "g": str(g)}
            f_at, g_at = f.evaluator(), g.evaluator()
            differs_at = None
            for _ in range(points_per_pair):
                point = {name: (sub.randint(1, 40), sub.randint(1, 40)) for name in names}
                fn, fd = f_at(point)
                gn, gd = g_at(point)
                if fn * gd != gn * fd:
                    differs_at = {name: Fraction(n, d) for name, (n, d) in point.items()}
                    break
            if equal and differs_at is not None:
                detail["error"] = f"equal functions differ at {differs_at}"
            elif not equal and differs_at is None:
                detail["error"] = "no distinguishing point found for unequal functions"
            yield "error" not in detail, detail

    return _report("symbolic_numeric", cfg, outcomes())


# The suites by name, in report order; the command line offers these names.
CHECKS = {
    "coincidence": check_coincidence,
    "congruence": check_congruence,
    "distributivity": check_distributivity,
    "axioms": check_probability_axioms,
    "symbolic-numeric": check_symbolic_numeric,
}


def run_checks(
    cfg: GenConfig, n_samples: int = 200, only: str | None = None
) -> dict[str, CheckReport]:
    """Run the named suite (or all of them) and return reports by name."""
    if n_samples < 0:
        raise ValueError(f"sample count must be non-negative, got {n_samples}")
    names = [only] if only else list(CHECKS)
    out: dict[str, CheckReport] = {}
    for name in names:
        if name not in CHECKS:
            raise ValueError(f"unknown check {name!r}; choose from {sorted(CHECKS)}")
        out[name] = CHECKS[name](cfg, n_samples)
    return out
