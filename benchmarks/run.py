"""sekg benchmark: end-to-end metrics, or per-layer metrics with ``--trace 1``.

    python3 benchmarks/run.py --workload build-8x --seed 1 --seconds 30 --trace 0

Workloads (closed loops, one client each; see ``workloads.py``):

* ``build-8x``: load the 8x corpus, run inference, freeze. The write path.
* ``read-8x``: seeded analytics and MATCH ops on a frozen, inferred 8x graph.
* ``cli-4x``: one ``python -m sekg.cli`` subprocess per op over a 4x file,
  cycling in seeded order through all 11 subcommands.

Every op's output is checked outside its timed interval; a wrong output or
an exception is a failed op and makes ``correct`` false. The last stdout line
is the result JSON; the line before it is the run record, also written to
``.bench_out/<workload>.record.json``.

With ``--trace 0`` the loop runs wrapper-free and reports the end-to-end
metrics. Their times are scaled by a calibration kernel timed between ops
(see ``calibration.py``), because the machine's own speed drifts; the
unscaled values are in the run record. With ``--trace 1`` the run does one
traced set-up, then half the time untraced and half traced on the same ops
(``cli-4x`` calls ``sekg.cli.main`` in-process for both halves), and reports
the per-layer metrics of ``layers.py``. Spans go to
``.bench_out/<workload>.spans.tsv``.

Self-tests: ``python3 -m pytest -q benchmarks/test_benchmark.py``.
"""

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from calibration import REFERENCE_S, Calibration

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
IMPORT_PROBES = 5
MAX_TRACEBACKS = 3
MIN_SETUPS = 3
SETUP_SECONDS = 2.0
#: No traced deck starts once this many spans are held, which bounds the
#: tracer's memory (about 30 bytes a span) and the spans file.
MAX_SPANS = 500_000


def _percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class Loop:
    """Closed loop with one client over whole decks of ops."""

    def __init__(self, workload, state, expected, call, calibration, tracer=None):
        self.workload = workload
        self.state = state
        self.expected = expected
        self.call = call
        self.calibration = calibration
        self.tracer = tracer
        self.intervals: list[tuple[float, float]] = []
        self.scaled: list[float] = []
        self.failed = 0
        self.first_deck_counts: Counter | None = None
        self.first_deck_len = 0

    def one(self, op) -> tuple[float, float]:
        """Run, time and check one op; returns its (start, latency) in seconds."""
        wl, tracer = self.workload, self.tracer
        ok = True
        value = None
        self.calibration.maybe_sample()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                value = self.call(self.state, op)
            else:
                tracer.active = True
                tracer.op = len(self.intervals)
                value = tracer.root(wl.span_name(op), self.call, self.state, op)
        except Exception:
            ok = False
            self._report(op)
        finally:
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
        if ok:
            try:
                ok = wl.check(self.state, op, value, self.expected)
            except Exception:
                ok = False
                self._report(op)
            if not ok:
                print(f"check failed: {wl.name} {op!r}", file=sys.stderr)
        self.failed += not ok
        return t0, elapsed

    def _report(self, op) -> None:
        if self.failed < MAX_TRACEBACKS:
            print(f"op raised: {op!r}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)

    def _more(self, start: float, last_deck: float, seconds: float) -> bool:
        if not self.intervals:
            return True
        if self.tracer is not None and self.tracer.span_count() >= MAX_SPANS:
            return False
        return time.perf_counter() - start + last_deck <= seconds

    def run(self, rng, seconds: float) -> "Loop":
        """Run whole decks while the next one is expected to fit in ``seconds``.

        Then scale the op latencies by the calibration samples around them.
        """
        if self.tracer is not None:
            self.tracer.counts.clear()
        start = time.perf_counter()
        last_deck = 0.0
        while self._more(start, last_deck, seconds):
            deck_start = time.perf_counter()
            deck = self.workload.deck(self.state, rng)
            for op in deck:
                self.intervals.append(self.one(op))
            if self.tracer is not None and self.first_deck_counts is None:
                self.first_deck_counts = Counter(self.tracer.counts)
                self.first_deck_len = len(deck)
            last_deck = time.perf_counter() - deck_start
        self.calibration.sample()
        self.scaled = self.calibration.scaled(self.intervals)
        return self

    @property
    def latencies(self) -> list[float]:
        return [elapsed for _, elapsed in self.intervals]

    @property
    def ops_per_s(self) -> float:
        """Ops per second of scaled time spent in ops (checks excluded)."""
        return len(self.scaled) / sum(self.scaled)

    @property
    def unscaled_ops_per_s(self) -> float:
        return len(self.intervals) / sum(self.latencies)


def _setup(workload, seed, calibration, min_seconds, min_reps, tracer=None):
    """Set up from the same seed ``min_reps`` times and for ``min_seconds``.

    Returns the last state and every set-up time, measured and scaled. A
    set-up of a few ms is repeated hundreds of times, so its median spans
    the machine's phases.
    """
    state, intervals = None, []
    start = time.perf_counter()
    while len(intervals) < min_reps or time.perf_counter() - start < min_seconds:
        state = None
        calibration.maybe_sample()
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.active = True
        try:
            state = workload.setup(random.Random(f"{seed}:setup"))
        finally:
            if tracer is not None:
                tracer.active = False
        intervals.append((t0, time.perf_counter() - t0))
    calibration.sample()
    times = [elapsed for _, elapsed in intervals]
    return state, times, calibration.scaled(intervals)


def _ops_rng(seed):
    return random.Random(f"{seed}:ops")


def _warm_up(loop, seed) -> None:
    """One op before timing, so caches and lazy set-up are filled."""
    deck = loop.workload.deck(loop.state, random.Random(f"{seed}:warmup"))
    loop.one(deck[0])


def run_plain(workload, seed, seconds, expected):
    calibration = Calibration()
    state, setup_times, setup_scaled = _setup(
        workload, seed, calibration, SETUP_SECONDS, MIN_SETUPS
    )
    loop = Loop(workload, state, expected, workload.runner(in_process=False), calibration)
    _warm_up(loop, seed)
    loop.run(_ops_rng(seed), seconds)
    lat, scaled = loop.latencies, loop.scaled
    metrics = {
        "latency_p50_ms": (statistics.median(scaled) * 1e3, "ms", len(lat)),
        "ops_per_s": (loop.ops_per_s, "1/s", len(lat)),
        "peak_rss_mb": (resource.getrusage(workload.rusage).ru_maxrss / 1024, "MB", 1),
        "setup_s": (statistics.median(setup_scaled), "s", len(setup_times)),
    }
    extra = {
        "calibration": {
            "samples": len(calibration.times),
            "median_s": statistics.median(calibration.times),
            "reference_s": REFERENCE_S,
        },
        "unscaled": {
            "latency_p50_ms": statistics.median(lat) * 1e3,
            "ops_per_s": loop.unscaled_ops_per_s,
            "setup_s": statistics.median(setup_times),
        },
    }
    if len(lat) >= 100:
        extra["latency_p90_ms"] = {"value": _percentile(scaled, 0.9) * 1e3, "samples": len(lat)}
    attempted = len(lat) + 1
    return metrics, attempted, loop.failed, extra


def _import_probe() -> list[float]:
    import workloads

    code = "import time; t = time.perf_counter(); import sekg.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=workloads.cli_env(),
            capture_output=True, text=True, timeout=workloads.SUBPROCESS_TIMEOUT_S, check=True,
        )
        times.append(float(proc.stdout.strip()) * 1e3)
    return times


def _coverage_cycle(tracer, expected) -> tuple[int, int]:
    """Traced in-process cycle of all 11 subcommands over the 1x corpus."""
    import workloads
    from tracing import COVERAGE

    commands = workloads.cli_commands(str(workloads.write_corpus(1)), 1)
    failed = 0
    tracer.group = COVERAGE
    for n, sub in enumerate(sorted(commands)):
        tracer.active = True
        tracer.op = n
        try:
            value = tracer.root(f"cli.{sub}", workloads.cli_in_process, commands[sub])
        finally:
            tracer.active = False
        if workloads.cli_result(value) != expected["cli"]["1"][sub]:
            print(f"check failed: coverage cycle {sub}", file=sys.stderr)
            failed += 1
    return len(commands), failed


def run_traced(workload, seed, seconds, expected):
    import layers
    from tracing import OPS, SETUP, Tracer

    tracer = Tracer()
    tracer.install()
    tracer.group = SETUP
    try:
        state, _, _ = _setup(workload, seed, Calibration(), 0, 1, tracer)
    finally:
        tracer.uninstall()
    call = workload.runner(in_process=True)
    plain = Loop(workload, state, expected, call, Calibration())
    _warm_up(plain, seed)
    plain.run(_ops_rng(seed), seconds / 2)

    tracer.group = OPS
    tracer.install()
    try:
        traced = Loop(workload, state, expected, call, Calibration(), tracer)
        traced.run(_ops_rng(seed), seconds / 2)
        coverage_ops = coverage_failed = 0
        if layers.missing_layers(tracer):
            coverage_ops, coverage_failed = _coverage_cycle(tracer, expected)
    finally:
        tracer.uninstall()
    tracer.active = False
    # Scaled rates, so a drift of the machine's speed between halves cancels.
    overhead = (plain.ops_per_s / traced.ops_per_s - 1) * 100
    metrics = layers.per_layer_metrics(
        tracer, traced, coverage_ops, _import_probe(), overhead
    )
    out = workload_out(workload)
    tracer.write(out.with_suffix(".spans.tsv"))
    attempted = 1 + len(plain.latencies) + len(traced.latencies) + coverage_ops
    failed = plain.failed + traced.failed + coverage_failed
    extra = {
        "spans": tracer.span_count(),
        "spans_file": str(out.with_suffix(".spans.tsv").relative_to(ROOT)),
        "untraced_ops_per_s": plain.ops_per_s,
        "traced_ops_per_s": traced.ops_per_s,
        "count_deck_ops": traced.first_deck_len,
    }
    return metrics, attempted, failed, extra


def workload_out(workload) -> Path:
    import workloads

    workloads.OUT.mkdir(exist_ok=True)
    return workloads.OUT / workload.name


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    return path.read_text().strip() if path.is_file() else None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _corpus_size(workload) -> dict:
    from sekg import loader

    import corpus

    graph = loader.load_dataset(corpus.corpus_text(workload.k)).graph
    return {"k": workload.k, "nodes": graph.node_count, "asserted_edges": graph.edge_count}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("build-8x", "read-8x", "cli-4x"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "sekg" / "__init__.py").is_file():
        print(f"error: sekg sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sekg

    if Path(sekg.__file__).resolve().parent != (SRC / "sekg").resolve():
        print(f"error: imported sekg from {sekg.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    expected = workloads.load_expected()
    run = run_traced if args.trace else run_plain
    metrics, attempted, failed, extra = run(workload, args.seed, args.seconds, expected)

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
        "corpus": _corpus_size(workload),
        "error_rate": failed / attempted,
        "samples": {name: samples for name, (_, _, samples) in metrics.items()},
        **extra,
    }
    workload_out(workload).with_suffix(".record.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u, _) in metrics.items()},
    }
    print(json.dumps({"run_record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
