"""Count laws across k-times corpora: a correctness check that scales.

``replicated_graph(g, k)`` makes k copies of the bundled corpus's scenarios
sharing its vocabulary nodes, so the same-origin relations and the chains
join across copies and every output count is a quadratic in k. Each law is
fitted to the code's own outputs at k = 1, 2, 3 and must predict its
outputs at k = 4 and 6, where no brute-force reference runs. No constant
is pinned: a change that broke an optimised path only at larger sizes
breaks the law.
"""

from fractions import Fraction

import pytest

from conftest import replicated_graph
from sekg.analytics import (
    evaluation_report,
    potential_targets_for_attacker,
    potential_threats_for_victim,
    same_origin_report,
)
from sekg.inference import run_inference
from sekg.query import run_query

FITTED = (1, 2, 3)
PREDICTED = (4, 6)

CHAIN_MATCH = (
    "MATCH (a:Attacker)-[:craft_and_perform]->(m)-[:to_exploit]->(h)"
    "<-[:have_vul]-(v:AttackTarget) RETURN DISTINCT a, v"
)


def counts(asserted_graph, k: int) -> dict[str, int]:
    """The output counts of the k-times corpus, inferred and frozen."""
    graph = replicated_graph(asserted_graph, k)
    added = len(run_inference(graph).added)
    graph.freeze()
    report = evaluation_report(graph)
    quads = report["patterns"]["path_quads"]  # its outputs are the chains
    out = {
        "nodes": graph.node_count,
        "edges": graph.edge_count,
        "edges added": added,
        "chains": quads.true_positives + quads.false_positives,
        "chain MATCH rows": len(run_query(CHAIN_MATCH, graph)),
        **{f"oracle {name}": n for name, n in report["oracle"].items()},
        **{f"labels {name}": n for name, n in report["labels"].items()},
    }
    for name, metrics in report["patterns"].items():
        out[f"{name} TP"] = metrics.true_positives
        out[f"{name} FP"] = metrics.false_positives
        out[f"{name} omitted"] = metrics.omitted
    for relation, pairs in same_origin_report(graph).items():
        out[f"same-origin {relation}"] = len(pairs)
    out["threats to victim7_0"] = len(potential_threats_for_victim(graph, "victim7_0"))
    out["targets of attacker10_0"] = len(potential_targets_for_attacker(graph, "attacker10_0"))
    return out


def quadratic_at(values: list[int], k: int) -> Fraction:
    """The quadratic through (FITTED[i], values[i]), at ``k`` (Lagrange)."""
    total = Fraction(0)
    for i, (xi, yi) in enumerate(zip(FITTED, values)):
        term = Fraction(yi)
        for j, xj in enumerate(FITTED):
            if j != i:
                term *= Fraction(k - xj, xi - xj)
        total += term
    return total


@pytest.fixture(scope="module")
def by_k(asserted_graph) -> dict[int, dict[str, int]]:
    return {k: counts(asserted_graph, k) for k in (*FITTED, *PREDICTED)}


def test_every_count_is_a_quadratic_in_k(by_k):
    names = list(by_k[1])
    assert len(names) == 25  # 23 corpus-wide counts, then one threat and one target list
    wrong = {}
    for name in names:
        fitted = [by_k[k][name] for k in FITTED]
        for k in PREDICTED:
            predicted = quadratic_at(fitted, k)
            if predicted != by_k[k][name]:
                wrong[f"{name} at k={k}"] = (str(predicted), by_k[k][name])
    assert wrong == {}


def test_the_laws_are_not_flat(by_k):
    # A law that predicts a constant would hold for a count stuck at zero;
    # the chain outputs must grow as k squared, the per-copy ones as k.
    assert by_k[6]["chains"] == 36 * by_k[1]["chains"]
    assert by_k[6]["nodes"] > by_k[4]["nodes"] > by_k[1]["nodes"]
    assert by_k[6]["threats to victim7_0"] > by_k[1]["threats to victim7_0"] > 0
    assert by_k[6]["targets of attacker10_0"] > by_k[1]["targets of attacker10_0"] > 0
