"""Analysis patterns, the path oracle, and the evaluation harness.

All operations are read-only and deterministic: identical graphs produce
identical (and identically ordered) results.
"""

from __future__ import annotations

from collections import defaultdict
from enum import Enum
from itertools import chain
from operator import itemgetter
from typing import NamedTuple

from .errors import GraphError
from .graph import RED_RELATIONS, Direction, Edge, KnowledgeGraph

#: Builds a record from a tuple of its fields, with no arity check.
_new = tuple.__new__
_first = itemgetter(0)


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
        out.append(_new(RankedCount, (node_id, count, rank)))
    return out


def _chain_groups(
    graph: KnowledgeGraph,
    attacker_id: str | None = None,
    victim_id: str | None = None,
) -> dict[str, list[str]]:
    """Each method on a chain attacker -craft_and_perform-> method
    -to_exploit-> vulnerability <-have_vul- victim through the pinned ends,
    with the vulnerabilities of its chains, built in one walk, in no set
    order. A (method, vulnerability) pair stands for its method's attackers
    (or the pinned one) times its vulnerability's victims (or the pinned
    one). A pinned id that is unknown or of the wrong concept raises
    GraphError.
    """
    for node_id, concept in ((attacker_id, "Attacker"), (victim_id, "AttackTarget")):
        if node_id is not None:
            actual = graph.node(node_id).concept
            if actual != concept:
                raise GraphError(f"expected an {concept}, got {node_id!r} ({actual})")
    methods = graph.adjacency("craft_and_perform", Direction.IN)
    flawed = graph.adjacency("have_vul", Direction.IN)
    groups: dict[str, list[str]] = {}
    if victim_id is not None:
        flawed = graph.adjacency("have_vul").get(victim_id, ())
        if attacker_id is None:  # from the victim's few flaws, not from every method
            exploited_by = graph.adjacency("to_exploit", Direction.IN)
            for h in flawed:
                for m in exploited_by.get(h, ()):
                    if m in methods:
                        groups.setdefault(m, []).append(h)
            return groups
    if attacker_id is not None:
        methods = graph.adjacency("craft_and_perform").get(attacker_id, ())
    exploits = graph.adjacency("to_exploit")
    for m in methods:
        if hs := [h for h in exploits.get(m, ()) if h in flawed]:
            groups[m] = hs
    return groups


class _Evidence(dict):
    """Flaw tuple -> its frozenset, made on first use, so that the rows of
    one call with the same flaws share one set. The flaws of one chain op
    come in adjacency order, id order, so equal sets have equal tuples."""

    def __missing__(self, flaws: tuple[str, ...]) -> frozenset[str]:
        self[flaws] = evidence = frozenset(flaws)
        return evidence


def _scenario_nodes(graph: KnowledgeGraph, node_id: str) -> tuple[str, ...]:
    """Sorted ids of the nodes sharing ``node_id``'s scenario (or lack of one)."""
    return graph.nodes_with("scenario_id", graph.node(node_id).property("scenario_id"))


def potential_threats_for_victim(
    graph: KnowledgeGraph, victim_id: str
) -> list[ThreatPair]:
    """Out-of-scenario (attacker, method) pairs exploiting the victim's flaws.

    One ThreatPair per distinct pair, carrying every vulnerability of the
    victim that the method exploits. Methods of the victim's own scenario
    are excluded.
    """
    shared = _chain_groups(graph, victim_id=victim_id)
    own = set(_scenario_nodes(graph, victim_id))
    attackers = graph.adjacency("craft_and_perform", Direction.IN)
    nodes = graph.node_map()
    origin = nodes[victim_id].scenario_id or 0
    evidences = _Evidence()
    out = []
    for method in sorted(shared):
        if method in own:
            continue
        evidence = evidences[tuple(shared[method])]
        for a in attackers[method]:
            origins = (nodes[a].scenario_id or 0, origin)
            out.append(_new(ThreatPair, (a, method, victim_id, evidence, origins)))
    out.sort(key=_first)  # stable: each attacker's rows stay in method order
    return out


def potential_targets_for_attacker(
    graph: KnowledgeGraph, attacker_id: str
) -> list[ThreatPair]:
    """Out-of-scenario victims vulnerable to any of the attacker's methods.

    Deduplicated by victim: each pair reports the attacker's own method
    sharing the most vulnerabilities with that victim (ties resolved by
    method id). Alternate same-scenario methods of the victim are provided
    separately by :func:`alternate_methods_for_target`.
    """
    own = set(_scenario_nodes(graph, attacker_id))
    reach = _chain_groups(graph, attacker_id=attacker_id)  # the flaws each method reaches
    victims = graph.adjacency("have_vul", Direction.IN)
    chosen: dict[str, tuple[str, list[str]]] = {}  # victim -> (method, shared flaws)
    for method in sorted(reach):  # in id order: a tie keeps the first
        shared: dict[str, list[str]] = defaultdict(list)
        for hv in reach[method]:
            for victim in victims[hv]:
                shared[victim].append(hv)
        for victim, hvs in shared.items():
            if victim not in chosen or len(hvs) > len(chosen[victim][1]):
                chosen[victim] = (method, hvs)
    nodes = graph.node_map()
    origin = nodes[attacker_id].scenario_id or 0
    evidences = _Evidence()
    out = []
    for v, (m, hvs) in sorted(chosen.items()):
        if v not in own:
            origins = (origin, nodes[v].scenario_id or 0)
            out.append(_new(ThreatPair, (attacker_id, m, v, evidences[tuple(hvs)], origins)))
    return out


def alternate_methods_for_target(
    graph: KnowledgeGraph, attacker_id: str, victim_id: str
) -> tuple[str, ...]:
    """Victim-scenario methods exploiting flaws the attacker can also reach."""
    groups = _chain_groups(graph, attacker_id, victim_id)
    exploited_by = graph.adjacency("to_exploit", Direction.IN)
    exploiters = {m for hvs in groups.values() for hv in hvs for m in exploited_by[hv]}
    return tuple(m for m in _scenario_nodes(graph, victim_id) if m in exploiters)


def attack_paths_between(
    graph: KnowledgeGraph, attacker_id: str, victim_id: str
) -> tuple[list[AttackPath], list[str]]:
    """Vulnerability-hop paths between one attacker and one victim.

    Returns the paths (attacker -craft_and_perform-> method -to_exploit->
    vulnerability <-have_vul- victim) plus the auxiliary methods: methods
    from other scenarios than the victim's that exploit the victim's
    vulnerabilities but sit on none of the returned paths.
    """
    groups = _chain_groups(graph, attacker_id, victim_id)
    exploited_by = graph.adjacency("to_exploit", Direction.IN)
    flaws = graph.adjacency("have_vul").get(victim_id, ())
    auxiliary = {method for hv in flaws for method in exploited_by.get(hv, ())}
    auxiliary.difference_update(groups, _scenario_nodes(graph, victim_id))
    steps = (("craft_and_perform", True), ("to_exploit", True), ("have_vul", False))
    paths = [
        _new(AttackPath, ((attacker_id, m, hv, victim_id), steps))
        for m in sorted(groups)
        for hv in sorted(groups[m])
    ]
    return paths, sorted(auxiliary)


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
    concepts = graph.property_values("concept")
    paths: list[tuple[str, ...]] = []
    nodes: list[str] = []
    seen = {"Attacker"}

    def walk(node_id: str) -> None:
        for lists in adjacency:
            for other in lists.get(node_id, ()):
                concept = concepts[other]
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
    sizes = map(len, chain(outputs, labels))
    arity = next(sizes, None)
    if any(size != arity for size in sizes):  # stops at the first mismatch
        arities = {len(t) for t in outputs} | {len(t) for t in labels}
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
    paths, which cross a vulnerability. The outputs come from the chains
    attacker -craft_and_perform-> method -to_exploit-> vulnerability
    <-have_vul- victim, each method of :func:`_chain_groups` with each of
    its vulnerabilities, times their attackers and victims: cross-scenario
    triples plus the asserted apply_to ones, cross-scenario pairs plus the
    attack edges, and the chains themselves. Returns the oracle's path
    counts, the label counts and one EvalMetrics per pattern.
    """
    oracle = enumerate_oracle_paths(graph)
    triples = {(path[0], path[1], path[-1]) for path in oracle}
    pairs = {(path[0], path[-1]) for path in oracle}
    quads = {path for path in oracle if len(path) == 4}

    attackers = graph.adjacency("craft_and_perform", Direction.IN)
    victims = graph.adjacency("have_vul", Direction.IN)
    chains = [  # a list: iterating it twice is faster than iterating a set
        (a, m, h, v)
        for m, hs in _chain_groups(graph).items()
        for h in hs
        for a in attackers[m]
        for v in victims[h]
    ]
    scenario = graph.property_values("scenario_id")
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

    has_edge, rule_of = graph.has_edge, graph.rule_map().get
    labels: dict[str | None, str] = {}  # the provenance of each rule, made once

    def pairs(relation: str) -> list[tuple[tuple[str, str], str]]:
        """Each unordered pair once, endpoints in id order, with the
        provenance of its first edge in (src, dst) order: the pair's own
        edge unless only the reverse one is stored."""
        into = graph.adjacency(relation, Direction.IN)
        listed = []
        for src, dsts in graph.adjacency(relation).items():
            both_ways = dsts == into.get(src)  # each edge of src is stored reversed too
            for dst in dsts:
                if src < dst:
                    pair = (src, dst)
                elif both_ways or has_edge(dst, relation, src):
                    continue
                else:
                    pair = (dst, src)
                rule = rule_of((src, relation, dst))
                label = labels.get(rule)
                if label is None:
                    label = labels[rule] = Edge(src, relation, dst, rule).provenance
                listed.append((pair, label))
        listed.sort()
        return listed

    report: dict = {
        "same_affiliation": [],
        "same_origin_attack": [],
        "in_the_same_organization": [],
    }
    affiliations = graph.property_values("affiliation")
    for (a, b), provenance in pairs("same_affiliation"):
        report["same_affiliation"].append(
            {"nodes": [a, b], "provenance": provenance, "affiliation": affiliations[a] or ""}
        )
    origin_pairs = pairs("same_origin_attack")
    performed = graph.adjacency("craft_and_perform", Direction.IN)
    motives = graph.adjacency("motivated_by")
    motivations = {  # of each method's attackers, once per method
        method: {m for attacker in performed.get(method, ()) for m in motives.get(attacker, ())}
        for method in {method for pair, _ in origin_pairs for method in pair}
    }
    domains = graph.property_values("encoded_domain")
    for (a, b), provenance in origin_pairs:
        report["same_origin_attack"].append(
            {
                "nodes": [a, b],
                "provenance": provenance,
                "encoded_domain": domains[a] or "",
                "shared_motivation": sorted(motivations[a] & motivations[b]),
            }
        )
    performs = graph.adjacency("craft_and_perform")
    for (a, b), provenance in pairs("in_the_same_organization"):
        report["in_the_same_organization"].append(
            {
                "nodes": [a, b],
                "provenance": provenance,
                "via_methods": [
                    [m1, m2]
                    for m1 in performs.get(a, ())
                    for m2 in performs.get(b, ())
                    if has_edge(m1, "same_origin_attack", m2)
                ],
            }
        )
    return report
