"""Self-tests of the benchmark: corpus generator, output checks, tracing.

    python3 -m pytest -q benchmarks/test_benchmark.py
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import corpus  # noqa: E402
import layers  # noqa: E402
from calibration import Calibration  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from sekg import analytics, inference, loader, serialize_dataset  # noqa: E402
from sekg.datasets import canonical_text  # noqa: E402


@pytest.fixture(scope="module")
def expected():
    return workloads.load_expected()


# -- corpus generator ----------------------------------------------------------


def test_one_copy_is_the_bundled_corpus():
    graph = loader.load_dataset(corpus.corpus_text(1)).graph
    bundled = loader.load_dataset(canonical_text()).graph
    assert (graph.node_count, graph.edge_count) == (245, 602)
    assert serialize_dataset(graph) == serialize_dataset(bundled)


@pytest.mark.parametrize("k, nodes, edges", [(4, 578, 2123), (8, 1022, 4151)])
def test_k_copies_counts(k, nodes, edges):
    result = loader.load_dataset(corpus.corpus_text(k), strict_vocab=True)
    assert (result.graph.node_count, result.graph.edge_count) == (nodes, edges)
    assert result.warnings == []


def test_generator_is_deterministic_and_order_free():
    assert corpus.corpus_text(8) == corpus.corpus_text(8)
    shuffled = corpus.corpus_text(4, [2, 0, 3, 1])
    assert shuffled != corpus.corpus_text(4)
    assert serialize_dataset(loader.load_dataset(shuffled).graph) == serialize_dataset(
        loader.load_dataset(corpus.corpus_text(4)).graph
    )


def test_generator_rejects_bad_arguments():
    with pytest.raises(ValueError):
        corpus.corpus_text(0)
    with pytest.raises(ValueError):
        corpus.corpus_text(3, [0, 1, 1])


# -- output checks -------------------------------------------------------------


def _one_deck(workload, state, expected, seed=7):
    loop = run.Loop(
        workload, state, expected, workload.runner(in_process=False), Calibration()
    )
    for op in workload.deck(state, random.Random(seed)):
        loop.one(op)
    return loop


def test_build_counts_one_dropped_inferred_edge(monkeypatch, expected):
    build = workloads.Build()
    text = build.setup(random.Random(1))
    assert _one_deck(build, text, expected).failed == 0

    real = inference.run_inference

    def dropping(graph, *args, **kwargs):
        outcome = real(graph, *args, **kwargs)
        key = next(key for key, edge in graph._edges.items() if edge.is_inferred)
        del graph._edges[key]
        return outcome

    monkeypatch.setattr(inference, "run_inference", dropping)
    assert _one_deck(build, text, expected).failed == 1


@pytest.fixture(scope="module")
def read_graph():
    return workloads.Read().setup(random.Random(1))


def test_read_counts_wrong_results_and_exceptions(monkeypatch, expected, read_graph):
    read = workloads.Read()
    assert _one_deck(read, read_graph, expected).failed == 0

    real = analytics.same_origin_report

    def missing_pair(graph):
        report = real(graph)
        report["same_affiliation"].pop()
        return report

    monkeypatch.setattr(analytics, "same_origin_report", missing_pair)
    same_origin_ops = workloads.READ_MIX["same_origin"][1]
    assert _one_deck(read, read_graph, expected).failed == same_origin_ops

    def boom(graph, victim_id):
        raise RuntimeError("injected")

    monkeypatch.setattr(analytics, "potential_threats_for_victim", boom)
    threats_ops = workloads.READ_MIX["threats"][1]
    assert _one_deck(read, read_graph, expected).failed == same_origin_ops + threats_ops


def test_cli_counts_a_changed_dataset(expected, tmp_path):
    cli = workloads.Cli()
    commands = cli.setup(random.Random(1))
    assert cli.check(commands, "load", workloads.cli_subprocess(commands["load"]), expected)

    path = Path(commands["load"][1])
    lines = path.read_text(encoding="utf-8").splitlines()
    dropped = tmp_path / "dropped.sekg"
    dropped.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    value = workloads.cli_subprocess(["load", str(dropped)])
    assert value[0] == 0
    assert not cli.check(commands, "load", value, expected)
    assert not cli.check(commands, "load", (1,) + value[1:], expected)


# -- tracing -------------------------------------------------------------------

COUNTS = [name for name, unit, *_ in layers.PER_LAYER if unit == "count"]


@pytest.mark.parametrize("name", ["build-8x", "read-8x", "cli-4x"])
def test_traced_counts_repeat_exactly(name, expected):
    workload = workloads.WORKLOADS[name]
    first = run.run_traced(workload, 3, 0.5, expected)
    second = run.run_traced(workload, 3, 0.5, expected)
    assert first[2] == second[2] == 0  # no failed op
    for metrics in (first[0], second[0]):
        assert list(metrics) == [row[0] for row in layers.PER_LAYER]
    assert {n: first[0][n][0] for n in COUNTS} == {n: second[0][n][0] for n in COUNTS}


def test_traced_build_counts(expected):
    metrics = run.run_traced(workloads.Build(), 1, 0.5, expected)[0]
    got = {n: metrics[n][0] for n in COUNTS if n.startswith(("graph.", "inference."))}
    assert got["graph.add_edge.calls"] == 4151 + 1200
    assert got["graph.neighbors.calls"] == 20704
    assert got["graph.has_edge.calls"] == 17672
    assert got["inference.rounds"] == 2
    fired = {n[-2:]: v for n, v in got.items() if n.startswith("inference.fired.")}
    assert fired == {"R1": 120, "R2": 344, "R3": 16, "R4": 0, "R5": 240, "R6": 240, "R7": 240}


def test_tracer_restores_every_patched_name():
    from tracing import Tracer

    import sekg.cli

    before = (sekg.cli.run_inference, loader.load_dataset, sekg.graph.KnowledgeGraph.neighbors)
    tracer = Tracer()
    tracer.install()
    assert sekg.cli.run_inference is not before[0]
    assert sekg.cli.run_inference is inference.run_inference
    tracer.uninstall()
    after = (sekg.cli.run_inference, loader.load_dataset, sekg.graph.KnowledgeGraph.neighbors)
    assert after == before


# -- contract ------------------------------------------------------------------


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(row[:3]) for row in layers.PER_LAYER
    ]
    names = {m["name"] for m in spec["end_to_end"]}
    assert "setup_s" in names
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"
    )


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "build-8x", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
