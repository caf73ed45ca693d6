"""Analysis patterns, the path oracle, and the evaluation harness.

All operations are read-only and deterministic: identical graphs produce
identical (and identically ordered) results.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .errors import GraphError
from .graph import RED_RELATIONS, Direction, KnowledgeGraph
from .query import Conjunction, match

_CHAIN = Conjunction(
    (("a", "craft_and_perform", "m"), ("m", "to_exploit", "h"), ("v", "have_vul", "h")),
    (),
    ("a", "m", "h", "v"),
)
#: The chain join planned once per pin shape: (attacker given, victim given).
_CHAIN_PLANS = {
    (False, False): _CHAIN.plan(),
    (True, False): _CHAIN.plan(inputs=("a",)),
    (False, True): _CHAIN.plan(inputs=("v",)),
    (True, True): _CHAIN.plan(inputs=("a", "v")),
}


class End(Enum):
    """Which endpoint of an edge a ranking groups by."""

    SRC = "src"
    DST = "dst"


class RankedCount(NamedTuple):
    id: str
    count: int
    rank: int


class ThreatPair(NamedTuple):
    """One (attacker, method, victim) threat with its evidence."""

    attacker: str
    method: str
    victim: str
    shared_vulnerabilities: frozenset[str]
    origin_scenarios: tuple[int, int]


class AttackPath(NamedTuple):
    """Simple path over red relations from an attacker to a victim.

    ``steps[i]`` holds ``(relation, forward)`` for the hop between
    ``nodes[i]`` and ``nodes[i + 1]``; ``forward`` is False when the stored
    edge points against the direction of travel.
    """

    nodes: tuple[str, ...]
    steps: tuple[tuple[str, bool], ...]

    def describe(self) -> str:
        out = [self.nodes[0]]
        for (relation, forward), node in zip(self.steps, self.nodes[1:]):
            arrow = f"-{relation}->" if forward else f"<-{relation}-"
            out.append(arrow)
            out.append(node)
        return " ".join(out)


class EvalMetrics(NamedTuple):
    true_positives: int
    false_positives: int
    omitted: int
    precision: float
    recall: float
    f1: float


def ranked_usage(
    graph: KnowledgeGraph, relation: str, count_end: End, k: int
) -> list[RankedCount]:
    """Rank the nodes of one edge endpoint by how many edges they carry.

    Competition ranking: tied counts share a rank and are ordered by id. The
    result keeps every item whose rank is <= ``k``, so a tie straddling the
    boundary is returned whole rather than cut arbitrarily. ``count_end``
    must be an ``End`` and ``k`` at least 1.
    """
    if not isinstance(count_end, End):
        raise TypeError(f"count_end must be an End, got {count_end!r}")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    direction = Direction.OUT if count_end is End.SRC else Direction.IN
    adjacency = graph.adjacency(relation, direction)
    ordered = sorted(
        ((node_id, len(ids)) for node_id, ids in adjacency.items()),
        key=lambda item: (-item[1], item[0]),
    )
    out: list[RankedCount] = []
    rank, previous = 0, None
    for position, (node_id, count) in enumerate(ordered):
        if count != previous:
            rank, previous = position + 1, count
        if rank > k:
            break
        out.append(RankedCount(node_id, count, rank))
    return out


def vulnerability_chains(
    graph: KnowledgeGraph,
    attacker_id: str | None = None,
    victim_id: str | None = None,
) -> list[tuple[str, str, str, str]]:
    """Sorted (attacker, method, vulnerability, victim) chains attacker
    -craft_and_perform-> method -to_exploit-> vulnerability <-have_vul- victim.

    One join (see :meth:`Conjunction.plan`), made once per pin shape: the
    given ids are its one input row. A pinned id that is unknown or of the
    wrong concept raises GraphError.
    """
    row = []
    for node_id, concept in ((attacker_id, "Attacker"), (victim_id, "AttackTarget")):
        if node_id is not None:
            actual = graph.node(node_id).concept
            if actual != concept:
                raise GraphError(f"expected an {concept}, got {node_id!r} ({actual})")
            row.append(node_id)
    plan = _CHAIN_PLANS[attacker_id is not None, victim_id is not None]
    return sorted(match(graph, plan, [row]))


def potential_threats_for_victim(
    graph: KnowledgeGraph, victim_id: str
) -> list[ThreatPair]:
    """Out-of-scenario (attacker, method) pairs exploiting the victim's flaws.

    One ThreatPair per distinct pair, carrying every vulnerability of the
    victim that the method exploits. Methods of the victim's own scenario
    are excluded.
    """
    victim = graph.node(victim_id)
    pairs: dict[tuple[str, str], set[str]] = {}
    for attacker, method, hv, _ in vulnerability_chains(graph, victim_id=victim_id):
        pairs.setdefault((attacker, method), set()).add(hv)
    return [
        ThreatPair(
            attacker, method, victim_id, frozenset(shared),
            (graph.node(attacker).scenario_id or 0, victim.scenario_id or 0),
        )
        for (attacker, method), shared in pairs.items()
        if graph.node(method).scenario_id != victim.scenario_id
    ]


def potential_targets_for_attacker(
    graph: KnowledgeGraph, attacker_id: str
) -> list[ThreatPair]:
    """Out-of-scenario victims vulnerable to any of the attacker's methods.

    Deduplicated by victim: each pair reports the attacker's own method
    sharing the most vulnerabilities with that victim (ties resolved by
    method id). Alternate same-scenario methods of the victim are provided
    separately by :func:`alternate_methods_for_target`.
    """
    attacker = graph.node(attacker_id)
    shared: dict[str, dict[str, set[str]]] = {}
    for _, method, hv, victim in vulnerability_chains(graph, attacker_id=attacker_id):
        shared.setdefault(victim, {}).setdefault(method, set()).add(hv)
    out = []
    for victim in sorted(shared):
        scenario = graph.node(victim).scenario_id
        if scenario == attacker.scenario_id:
            continue
        by_method = shared[victim]
        method = min(by_method, key=lambda m: (-len(by_method[m]), m))
        out.append(
            ThreatPair(
                attacker_id, method, victim, frozenset(by_method[method]),
                (attacker.scenario_id or 0, scenario or 0),
            )
        )
    return out


def alternate_methods_for_target(
    graph: KnowledgeGraph, attacker_id: str, victim_id: str
) -> tuple[str, ...]:
    """Victim-scenario methods exploiting flaws the attacker can also reach."""
    scenario = graph.node(victim_id).scenario_id
    shared = {hv for _, _, hv, _ in vulnerability_chains(graph, attacker_id, victim_id)}
    methods = {
        method
        for hv in shared
        for method in graph.neighbors(hv, "to_exploit", Direction.IN)
        if graph.node(method).scenario_id == scenario
    }
    return tuple(sorted(methods))


def attack_paths_between(
    graph: KnowledgeGraph, attacker_id: str, victim_id: str
) -> tuple[list[AttackPath], list[str]]:
    """Vulnerability-hop paths between one attacker and one victim.

    Returns the paths (attacker -craft_and_perform-> method -to_exploit->
    vulnerability <-have_vul- victim) plus the auxiliary methods: methods
    from other scenarios than the victim's that exploit the victim's
    vulnerabilities but sit on none of the returned paths.
    """
    chains = vulnerability_chains(graph, attacker_id, victim_id)
    scenario = graph.node(victim_id).scenario_id
    on_path = {method for _, method, _, _ in chains}
    auxiliary = {
        method
        for hv in graph.neighbors(victim_id, "have_vul")
        for method in graph.neighbors(hv, "to_exploit", Direction.IN)
        if method not in on_path and graph.node(method).scenario_id != scenario
    }
    steps = (("craft_and_perform", True), ("to_exploit", True), ("have_vul", False))
    return [AttackPath(chain, steps) for chain in chains], sorted(auxiliary)


def enumerate_oracle_paths(graph: KnowledgeGraph) -> list[tuple[str, ...]]:
    """Ground truth: the red-relation paths attacker -> victim, as sorted
    node-id tuples.

    Undirected paths over the red relation set that visit at most one node
    per concept and stop at the first AttackTarget. A node has one concept,
    so the concept rule makes every path simple and bounds its length; each
    red relation joins its own pair of concepts in a fixed direction, so the
    concepts fix each hop's relation. Each path is a single attack account:
    attacker -> method -> victim over apply_to, or attacker -> method ->
    vulnerability -> victim.
    """
    adjacency = [
        graph.adjacency(relation, direction)
        for relation in RED_RELATIONS
        for direction in Direction
    ]
    paths: list[tuple[str, ...]] = []
    nodes: list[str] = []
    seen = {"Attacker"}

    def walk(node_id: str) -> None:
        for lists in adjacency:
            for other in lists.get(node_id, ()):
                concept = graph.node(other).concept
                if concept in seen:
                    continue
                nodes.append(other)
                if concept == "AttackTarget":
                    paths.append(tuple(nodes))
                else:
                    seen.add(concept)
                    walk(other)
                    seen.remove(concept)
                nodes.pop()

    for attacker in graph.nodes_by_concept("Attacker"):
        nodes.append(attacker.id)
        walk(attacker.id)
        nodes.pop()
    paths.sort()
    return paths


def evaluate_pattern(
    outputs: set[tuple], labels: set[tuple]
) -> EvalMetrics:
    """Score pattern outputs against oracle labels.

    TP is the intersection, FP the outputs outside the labels, omitted the
    labels never produced. Precision defaults to 1.0 when nothing was
    claimed; recall to 1.0 when nothing was labeled.
    """
    arities = {len(t) for t in outputs} | {len(t) for t in labels}
    if len(arities) > 1:
        raise ValueError(f"tuple schema mismatch: arities {sorted(arities)}")
    tp = len(outputs & labels)
    fp = len(outputs - labels)
    omitted = len(labels - outputs)
    precision = 1.0 if tp + fp == 0 else tp / (tp + fp)
    recall = 1.0 if tp + omitted == 0 else tp / (tp + omitted)
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return EvalMetrics(tp, fp, omitted, precision, recall, f1)


def evaluation_report(graph: KnowledgeGraph) -> dict:
    """Score the chain patterns against the path oracle.

    The labels are the :func:`enumerate_oracle_paths` paths' (attacker,
    method, victim) triples, their (attacker, victim) pairs and the 4-node
    paths, which cross a vulnerability. One :func:`vulnerability_chains`
    join gives the outputs: cross-scenario triples plus the asserted apply_to
    ones, cross-scenario pairs plus the attack edges, and the chains.
    Returns the oracle's path counts, the label counts and one
    EvalMetrics per pattern.
    """
    oracle = enumerate_oracle_paths(graph)
    triples = {(path[0], path[1], path[-1]) for path in oracle}
    pairs = {(path[0], path[-1]) for path in oracle}
    quads = {path for path in oracle if len(path) == 4}

    chains = vulnerability_chains(graph)
    scenario = {node.id: node.scenario_id for node in graph.nodes()}
    threat_out = {(a, m, v) for a, m, _, v in chains if scenario[m] != scenario[v]}
    # in-scenario triples come from the asserted apply_to chain
    for edge in graph.edges("apply_to"):
        for attacker in graph.neighbors(edge.src, "craft_and_perform", Direction.IN):
            threat_out.add((attacker, edge.src, edge.dst))
    target_out = {(a, v) for a, _, _, v in chains if scenario[a] != scenario[v]}
    target_out |= {(edge.src, edge.dst) for edge in graph.edges("attack")}

    return {
        "oracle": {
            "total": len(oracle),
            "with_vulnerability_hop": len(quads),
            "direct_apply_to": len(oracle) - len(quads),
        },
        "labels": {
            "threat_triples": len(triples),
            "victim_pairs": len(pairs),
            "path_quads": len(quads),
        },
        "patterns": {
            "threat_triples": evaluate_pattern(threat_out, triples),
            "victim_pairs": evaluate_pattern(target_out, pairs),
            "path_quads": evaluate_pattern(set(chains), quads),
        },
    }


def same_origin_report(graph: KnowledgeGraph) -> dict:
    """Evidence view of the same-origin relations R5, R6 and R7 derive.

    The three relations are symmetric, so each unordered pair is listed
    once, endpoints in id order. A same_origin_attack pair's
    ``shared_motivation`` is every motivation that an attacker of each
    method is motivated_by. R6's witnesses may be fewer: R6 also needs the
    two attackers to attack victims of the same affiliation. An
    in_the_same_organization pair's ``via_methods`` is R7's matches for
    it: the (first's method, second's method) pairs in same_origin_attack.
    """

    def pairs(relation: str) -> list[tuple[str, str, str]]:
        seen = set()
        out = []
        for e in graph.edges(relation):
            key = tuple(sorted((e.src, e.dst)))
            if key in seen:
                continue
            seen.add(key)
            out.append((key[0], key[1], e.provenance))
        out.sort()
        return out

    report: dict = {
        "same_affiliation": [],
        "same_origin_attack": [],
        "in_the_same_organization": [],
    }
    for a, b, provenance in pairs("same_affiliation"):
        report["same_affiliation"].append(
            {
                "nodes": [a, b],
                "provenance": provenance,
                "affiliation": graph.node(a).property("affiliation") or "",
            }
        )
    for a, b, provenance in pairs("same_origin_attack"):
        attackers_a = graph.neighbors(a, "craft_and_perform", Direction.IN)
        attackers_b = graph.neighbors(b, "craft_and_perform", Direction.IN)
        shared_motivation = sorted(
            set(
                m
                for attacker in attackers_a
                for m in graph.neighbors(attacker, "motivated_by")
            )
            & set(
                m
                for attacker in attackers_b
                for m in graph.neighbors(attacker, "motivated_by")
            )
        )
        report["same_origin_attack"].append(
            {
                "nodes": [a, b],
                "provenance": provenance,
                "encoded_domain": graph.node(a).property("encoded_domain") or "",
                "shared_motivation": shared_motivation,
            }
        )
    for a, b, provenance in pairs("in_the_same_organization"):
        via = sorted(
            (m1, m2)
            for m1 in graph.neighbors(a, "craft_and_perform")
            for m2 in graph.neighbors(b, "craft_and_perform")
            if graph.has_edge(m1, "same_origin_attack", m2)
        )
        report["in_the_same_organization"].append(
            {
                "nodes": [a, b],
                "provenance": provenance,
                "via_methods": [list(pair) for pair in via],
            }
        )
    return report
