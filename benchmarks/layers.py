"""Per-layer metrics of the traced run, and what each one should move.

The layers are the modules of ``sekg``: loader, graph, inference, query,
analytics and cli (``schema`` and ``catalog`` are paid for at import, which
``cli.import.ms`` measures). Kinds of metric:

* ``<layer>.<function>.ms``: median duration of the spans of calls into that
  function from another layer or from the benchmark.
* ``<layer>.<function>.calls`` and the ``inference.*`` and ``query.rows``
  counts: per op, over the first deck of traced ops, so they repeat exactly
  for a seed. A layer the workload's ops never reach counts 0.
* ``<layer>.self_ms``: the layer's self time per op (span durations minus
  their child spans).

A timing takes its spans from the workload's traced ops; failing those, from
its traced set-up (inference and graph writes on ``read-8x``); failing that,
from one traced in-process cycle of the 11 CLI subcommands over the 1x corpus
(query, analytics and cli timings on ``build-8x``, say).

Each row names the end-to-end metric and the workloads it should move. A
p90 latency is not an end-to-end metric (two workloads hold fewer than 100
ops a run; read-8x reports it in its run record), so query and analytics
point at ``ops_per_s`` instead.
"""

import statistics

from tracing import COVERAGE, OPS, SETUP

_LOADER = ("latency_p50_ms", "build-8x, cli-4x")
_GRAPH_WRITE = ("latency_p50_ms", "build-8x")
_GRAPH_READ = ("ops_per_s; latency_p50_ms via inference", "read-8x; build-8x")
_INFERENCE = ("latency_p50_ms; setup_s", "build-8x, cli-4x; read-8x")
_QUERY = ("ops_per_s", "read-8x")
_ANALYTICS = ("ops_per_s; ops_per_s via eval", "read-8x; cli-4x")
_CLI = ("latency_p50_ms, ops_per_s", "cli-4x")
_NONE = ("none (diagnostic)", "all")

CLI_SUBCOMMANDS = (
    "load", "validate", "infer", "stats", "threats", "targets", "paths",
    "same-origin", "query", "export", "eval",
)

#: (name, unit, better, moves, on)
PER_LAYER = [
    ("loader.parse_document.ms", "ms", "lower", *_LOADER),
    ("loader.load_dataset.ms", "ms", "lower", *_LOADER),
    ("loader.self_ms", "ms", "lower", *_LOADER),
    ("graph.add_edge.calls", "count", "lower", *_GRAPH_WRITE),
    ("graph.add_edge.ms", "ms", "lower", *_GRAPH_WRITE),
    ("graph.freeze.ms", "ms", "lower", *_GRAPH_WRITE),
    ("graph.neighbors.calls", "count", "lower", *_GRAPH_READ),
    ("graph.neighbors.ms", "ms", "lower", *_GRAPH_READ),
    ("graph.nodes_by_concept.calls", "count", "lower", *_GRAPH_READ),
    ("graph.nodes_by_concept.ms", "ms", "lower", *_GRAPH_READ),
    ("graph.edges.calls", "count", "lower", *_GRAPH_READ),
    ("graph.edges.ms", "ms", "lower", *_GRAPH_READ),
    ("graph.has_edge.calls", "count", "lower", *_GRAPH_READ),
    ("graph.node.calls", "count", "lower", *_GRAPH_READ),
    ("graph.self_ms", "ms", "lower", *_GRAPH_READ),
    ("inference.axiom_closure.ms", "ms", "lower", *_INFERENCE),
    ("inference.run_rules.ms", "ms", "lower", *_INFERENCE),
    ("inference.rounds", "count", "lower", *_INFERENCE),
    ("inference.added", "count", "lower", *_INFERENCE),
    *[
        (f"inference.fired.R{n}", "count", "lower", *_INFERENCE)
        for n in range(1, 8)
    ],
    ("inference.self_ms", "ms", "lower", *_INFERENCE),
    ("query.parse_query.ms", "ms", "lower", *_QUERY),
    ("query.evaluate_query.ms", "ms", "lower", *_QUERY),
    ("query.rows", "count", "lower", *_QUERY),
    ("query.self_ms", "ms", "lower", *_QUERY),
    *[
        (f"analytics.{fn}.ms", "ms", "lower", *_ANALYTICS)
        for fn in (
            "attack_paths_between", "potential_threats_for_victim",
            "potential_targets_for_attacker", "alternate_methods_for_target",
            "ranked_usage", "same_origin_report", "enumerate_oracle_paths",
        )
    ],
    ("analytics.self_ms", "ms", "lower", *_ANALYTICS),
    ("cli.import.ms", "ms", "lower", *_CLI),
    *[(f"cli.{sub}.ms", "ms", "lower", *_CLI) for sub in CLI_SUBCOMMANDS],
    ("cli.self_ms", "ms", "lower", *_CLI),
    ("trace.overhead_pct", "%", "lower", *_NONE),
]

_SPECIAL = {"cli.import.ms", "trace.overhead_pct"}


def _timed_spans():
    """Span names (or layers, for self time) the timing metrics read."""
    for name, *_ in PER_LAYER:
        if name in _SPECIAL:
            continue
        if name.endswith(".self_ms"):
            yield name, name[: -len(".self_ms")], True
        elif name.endswith(".ms"):
            yield name, name[: -len(".ms")], False


def _group(present, key):
    for group in (OPS, SETUP, COVERAGE):
        if (key, group) in present:
            return group
    return None


def missing_layers(tracer) -> list[str]:
    """Timing metrics with no span among the traced ops or set-up."""
    durations = tracer.durations()
    selfs = tracer.self_times()
    return [
        name for name, key, is_self in _timed_spans()
        if _group({k for k in (selfs if is_self else durations) if k[1] != COVERAGE}, key) is None
    ]


def per_layer_metrics(tracer, loop, coverage_ops, import_ms, overhead_pct) -> dict:
    """name -> (value, unit, samples) for every row of PER_LAYER."""
    durations = tracer.durations()
    selfs = tracer.self_times()
    ops = {OPS: len(loop.latencies), SETUP: 1, COVERAGE: coverage_ops}
    units = {name: unit for name, unit, *_ in PER_LAYER}
    out = {}
    for name, key, is_self in _timed_spans():
        source = selfs if is_self else durations
        group = _group(source, key)
        if group is None:
            raise RuntimeError(f"no spans for {name}")
        if is_self:
            out[name] = (source[(key, group)] / ops[group] / 1e6, "ms", ops[group])
        else:
            values = source[(key, group)]
            out[name] = (statistics.median(values) / 1e6, "ms", len(values))
    counts, deck = loop.first_deck_counts, loop.first_deck_len
    for name, unit, *_ in PER_LAYER:
        if unit == "count":
            key = name[: -len(".calls")] if name.endswith(".calls") else name
            out[name] = (counts.get(key, 0) / deck, unit, deck)
    out["cli.import.ms"] = (statistics.median(import_ms), "ms", len(import_ms))
    out["trace.overhead_pct"] = (overhead_pct, "%", 2)
    return {name: (out[name][0], units[name], out[name][2]) for name, *_ in PER_LAYER}
