"""The probproc benchmark: three seeded workloads run in a closed loop.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 60

One Python process runs one workload on one thread; each item starts only
after the previous one finished.  Items come in rounds, and a run keeps
starting rounds until `--seconds` have passed.  Every item's output is
checked against what its construction guarantees.  With `--trace 0` the
run reports the end-to-end metrics; with `--trace 1` it runs a fixed number
of rounds with every layer wrapped in spans (see tracer.py), replays them
untraced, and reports the per-layer metrics.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.  See
README.md for why each workload exists and which metric should move when.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter

import gen
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
# Set-up is timed again every few seconds between rounds, so that its median
# covers the whole run rather than the machine's state in its first moment.
SETUP_EVERY_S = 3.0

# The oracle always runs the coincidence-suite acceptance seed: its cost sits
# in a few samples (50 samples take 1 s at one seed and 11 s at another), so
# seed-varied oracle input would measure the seed rather than the code.  Of
# the first 8 samples, sample 6 is a heavy bounded enumeration, where the
# suite spends most of its time.
ORACLE_SEED = 20260809
ORACLE_SAMPLES = 8


def import_probproc():
    """Import probproc from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "probproc" or m.startswith("probproc.")]:
        del sys.modules[name]
    import probproc
    import probproc.cli

    if Path(probproc.__file__).resolve().parent != src / "probproc":
        raise ImportError(f"probproc imported from {probproc.__file__}, not {src}")
    return probproc


# --- items -------------------------------------------------------------------


class ItemFailure(Exception):
    """An item's output contradicts what its construction guarantees."""

    def __init__(self, message: str, attempted: int = 1, failed: int = 1):
        super().__init__(message)
        self.attempted = attempted
        self.failed = failed


PHASES = ("compile_s", "decide_s", "synth_s", "witness_s")


def _compile_text(pp, text: str):
    """What `probproc equiv` does with each operand."""
    term = pp.parse_term(text)
    pp.composition_warnings(term)
    return pp.compile_term(term)


def check_pair(pp, left_text: str, right_text: str, expect_equivalent: bool, phases: dict):
    """The `equiv` then `distinguish` path; returns the printed lines and states."""
    t0 = perf_counter()
    left = _compile_text(pp, left_text)
    right = _compile_text(pp, right_text)
    t1 = perf_counter()
    verdict = pp.ready_trace_equivalent(left, right)
    t2 = perf_counter()
    phases["compile_s"] += t1 - t0
    phases["decide_s"] += t2 - t1
    states = len(left.kinds) + len(right.kinds)
    if verdict.equivalent:
        if not expect_equivalent:
            raise ItemFailure("judged equivalent, built distinguished")
        return ["equivalent"], states
    lines = [
        "distinguished",
        verdict.trace.render(),
        str(verdict.left_probability),
        str(verdict.right_probability),
    ]
    if expect_equivalent:
        raise ItemFailure("judged distinguished, built equivalent")
    witness = pp.distinguishing_test(left, right)
    t3 = perf_counter()
    phases["synth_s"] += t3 - t2
    if witness is None:
        raise ItemFailure("no witness for a distinguished pair")
    shown = pp.render(witness)
    if "p{" in shown:
        raise ItemFailure(f"witness {shown} uses probabilistic choice")
    compiled = pp.compile_term(witness)
    left_out = pp.apply_test(left, compiled)
    right_out = pp.apply_test(right, compiled)
    lines += [shown, str(left_out), str(right_out)]
    phases["witness_s"] += perf_counter() - t3
    if left_out == right_out:
        raise ItemFailure(f"witness {shown} gives both sides {left_out}")
    return lines, states


class Decide:
    """Many small constructed pairs through the `equiv`/`distinguish` path."""

    name = "decide"
    repeats = False
    round_size = 200
    nominal_round_s = 1.0

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def next_round(self):
        return [gen.decide_pair(self.rng) for _ in range(self.round_size)]

    def run_item(self, pp, item, phases):
        left, right, expect = item
        lines, _ = check_pair(pp, left, right, expect, phases)
        return 1, lines


class Scale:
    """k-fold |[]| chains of coin machines, k = 2..6, every round the same."""

    name = "scale"
    repeats = True
    nominal_round_s = 9.0

    def __init__(self, seed: int):
        self.pairs = gen.scale_pairs(random.Random(seed))

    def next_round(self):
        return self.pairs

    def run_item(self, pp, item, phases):
        k, left, right, expect = item
        mine = dict.fromkeys(PHASES, 0.0)
        lines, states = check_pair(pp, left, right, expect, mine)
        for key, value in mine.items():
            phases[key] += value
            phases[f"k{k}.{key}"] = phases.get(f"k{k}.{key}", 0.0) + value
        if expect:
            phases[f"k{k}.states"] = states
        return 1, lines


class Oracle:
    """`probproc oracle` in process at the acceptance seed, stdout captured."""

    name = "oracle"
    repeats = True
    nominal_round_s = 2.0

    def __init__(self, seed: int):
        self.argv = ["oracle", "--seed", str(ORACLE_SEED), "--samples", str(ORACLE_SAMPLES)]

    def next_round(self):
        return [self.argv]

    def run_item(self, pp, argv, phases):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = pp.cli.main(argv)
        reports = json.loads(out.getvalue())
        samples = sum(r["samples"] for r in reports.values())
        failures = sum(r["samples"] - r["passes"] for r in reports.values())
        for report in reports.values():
            del report["elapsed_seconds"]
        if code != 0 or failures or not all(r["ok"] for r in reports.values()):
            raise ItemFailure(
                f"oracle exit {code} with {failures} failed samples", samples, max(1, failures)
            )
        return samples, [json.dumps(reports, sort_keys=True)]


WORKLOADS = {cls.name: cls for cls in (Oracle, Decide, Scale)}


# --- measuring ---------------------------------------------------------------


class Run:
    """Counts, latencies and output digests of one measured phase."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.latencies = array("d")  # seconds, one per item run, in order
        self.busy_s = 0.0
        self.round_digests: list[str] = []
        self.phases = dict.fromkeys(PHASES, 0.0)


def measure(pp, workload, rounds: list, run: Run, seconds: float | None = None,
            between=None):
    """Run the given rounds in order; with `seconds`, go on with fresh rounds
    until that much time has passed, calling `between` after a round once
    SETUP_EVERY_S seconds have passed since its last call."""
    started = last = perf_counter()
    pending = iter(rounds)
    while True:
        items = next(pending, None)
        if seconds is None:
            if items is None:
                return
        elif run.round_digests and perf_counter() - started >= seconds:
            return
        elif items is None:
            items = workload.next_round()
        run_round(pp, workload, items, run)
        if between is not None and perf_counter() - last >= SETUP_EVERY_S:
            between()
            last = perf_counter()


def run_round(pp, workload, items, run: Run):
    digest = hashlib.sha256()
    round_start = perf_counter()
    for item in items:
        t = perf_counter()
        try:
            count, lines = workload.run_item(pp, item, run.phases)
            failed = 0
        except Exception as exc:  # a crash is a failed item, not a dead run
            count = getattr(exc, "attempted", 1)
            failed = getattr(exc, "failed", 1)
            lines = [f"failed: {exc!r}"]
            if len(run.errors) < 5:
                run.errors.append(f"{type(exc).__name__}: {exc}")
        run.latencies.append(perf_counter() - t)
        run.attempted += count
        run.failed += failed
        digest.update("\n".join(lines).encode() + b"\n\x00")
    run.busy_s += perf_counter() - round_start
    run.round_digests.append(digest.hexdigest())


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99), interpolated between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workload, run: Run, setup_times: list[float]) -> dict:
    latencies = list(run.latencies)
    if workload.repeats:
        # An item that every round repeats counts once, at its median latency,
        # so a percentile never falls between copies of two different items.
        n = len(latencies) // len(run.round_digests)
        latencies = [statistics.median(latencies[i::n]) for i in range(n)]
    ms = [1e3 * t for t in latencies]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "items_per_s": (run.attempted / run.busy_s, "1/s"),
        "item_p50_ms": (statistics.median(ms), "ms"),
        "item_p90_ms": (quantile(ms, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Tracer, traced: Run, replay: Run) -> dict:
    t = tracer
    out = {
        "parser.calls": (t.calls("parser"), "count"),
        "parser.self_s": (t.self_s("parser"), "s"),
        "parser.chars_per_s": (_ratio(t.counters["parser.chars"], t.self_s("parser")), "1/s"),
        "semantics.compile.calls": (t.calls("semantics.compile"), "count"),
        "semantics.compile.self_s": (t.self_s("semantics.compile"), "s"),
        "semantics.compile.test_calls": (t.edge_calls("testing", "semantics.compile"), "count"),
        "semantics.states": (t.counters["semantics.states"], "count"),
        "semantics.states_per_s": (
            _ratio(t.counters["semantics.states"], t.self_s("semantics.compile")), "1/s"),
        "readytrace.decide.calls": (t.calls("readytrace.decide"), "count"),
        "readytrace.decide.self_s": (t.self_s("readytrace.decide"), "s"),
        "testing.apply.calls": (t.calls("testing.apply"), "count"),
        "testing.apply.self_s": (t.self_s("testing.apply"), "s"),
        "testing.enum.calls": (t.calls("testing.enum"), "count"),
        "testing.enum.self_s": (t.self_s("testing.enum"), "s"),
        "testing.enum.tests_per_verdict": (
            _ratio(t.edge_calls("testing.enum", "semantics.compile"), t.calls("testing.enum")),
            "count"),
        "testing.synth.calls": (t.calls("testing.synth"), "count"),
        "testing.synth.self_s": (t.self_s("testing.synth"), "s"),
        "testing.synth.candidates_per_witness": (
            _ratio(t.edge_calls("testing.synth", "semantics.compile"),
                   t.counters["testing.synth.witnesses"]),
            "count"),
        "terms.render.calls": (t.calls("terms.render"), "count"),
        "terms.render.self_s": (t.self_s("terms.render"), "s"),
    }
    for op in ("add", "mul", "div", "eq", "str"):
        out[f"ratfunc.{op}.calls"] = (t.calls(f"ratfunc.{op}"), "count")
        out[f"ratfunc.{op}.self_s"] = (t.self_s(f"ratfunc.{op}"), "s")
    for suite in ("coincidence", "congruence", "distributivity", "axioms", "symbolic_numeric"):
        out[f"harness.{suite}_s"] = (t.span_s(f"harness.{suite}"), "s")
    for k in gen.SCALE_KS:
        out[f"scale.k{k}.states"] = (replay.phases.get(f"k{k}.states", 0), "count")
        for phase in ("compile_s", "decide_s", "synth_s"):
            per_round = _ratio(replay.phases.get(f"k{k}.{phase}", 0.0),
                               len(replay.round_digests))
            out[f"scale.k{k}.{phase}"] = (per_round, "s")
    out["trace.overhead_frac"] = (traced.busy_s / replay.busy_s - 1, "1")
    return out


# --- reporting ---------------------------------------------------------------


def git_sha() -> str:
    """HEAD of the checkout's own .git, if it has one; never searches upward."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def set_up(name: str, seed: int):
    """Import probproc afresh and build the workload's first round."""
    start = perf_counter()
    pp = import_probproc()
    workload = WORKLOADS[name](seed)
    first = workload.next_round()
    return perf_counter() - start, pp, workload, first


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    took, pp, workload, first = set_up(name, seed)
    setup_times = [took]
    rounds = [first]

    if trace:
        count = max(1, round(seconds / (2 * workload.nominal_round_s)))
        rounds += [workload.next_round() for _ in range(count - 1)]
        tracer = Tracer()
        traced = Run()
        tracer.install()
        try:
            measure(pp, workload, rounds, traced)
        finally:
            tracer.uninstall()
        main = Run()
        measure(pp, workload, rounds, main)
        metrics = per_layer(tracer, traced, main)
        extra = tracer.table()
        runs = [traced, main]
    else:
        # The rounds keep using the first import; later imports are only timed.
        main = Run()
        measure(pp, workload, rounds, main, seconds,
                between=lambda: setup_times.append(set_up(name, seed)[0]))
        metrics = end_to_end(workload, main, setup_times)
        extra = []
        runs = [main]

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    # Repeated inputs must give byte-identical outputs: oracle and scale repeat
    # one round, and a traced round must print what its untraced replay prints.
    stable = not trace or traced.round_digests == main.round_digests
    if workload.repeats:
        stable = stable and len({d for r in runs for d in r.round_digests}) == 1
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "rounds": len(main.round_digests),
        "items": main.attempted,
        "phase_s": {key: main.phases[key] for key in PHASES},
        "setup_s": setup_times,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted if attempted else 1.0,
        "digest": main.round_digests[0] if main.round_digests else None,
        "digests_stable": stable,
        "errors": sum((r.errors for r in runs), []),
    }
    return {
        "record": record,
        "lines": extra,
        "correct": failed == 0 and stable and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"error: cannot import probproc from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    print("run " + json.dumps(result["record"], sort_keys=True))
    for line in result["lines"]:
        print(line)
    for key, (value, unit) in result["metrics"].items():
        print(f"{key} {value} {unit}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
