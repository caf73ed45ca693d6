"""Release gate: every shipping criterion, one test each.

Each test ends with a single printed PASS line carrying the figures it
checked, so ``pytest -v -s tests/test_acceptance.py`` reads as a checklist.
Tolerances live here and nowhere else; the unit suites pin exact values.
"""

import json
import random
import time

import pytest
from conftest import random_conformant_graph, reference_eval

from sekg import (
    End,
    KnowledgeGraph,
    Node,
    attack_paths_between,
    canonical_graph,
    canonical_text,
    enumerate_oracle_paths,
    evaluate_pattern,
    evaluation_report,
    evaluate_query,
    load_canonical,
    load_dataset,
    parse_query,
    potential_targets_for_attacker,
    potential_threats_for_victim,
    ranked_usage,
    run_inference,
    serialize_dataset,
    validate_scenario_completeness,
)
from sekg.cli import main
from sekg.schema import CONCEPTS, RELATIONS, RelationKind

# ontology contract: name, domain, range, inverse
RELATION_TABLE = [
    ("motivate", "AttackMotivation", "Attacker", "motivated_by"),
    ("motivated_by", "Attacker", "AttackMotivation", "motivate"),
    ("gather_and_use", "Attacker", "SocialEngineeringInformation", None),
    ("craft_and_perform", "Attacker", "AttackMethod", None),
    ("formulate", "Attacker", "AttackStrategy", None),
    ("to_achieve", "AttackMethod", "AttackGoal", None),
    ("guided_by", "AttackMethod", "AttackStrategy", None),
    ("apply_to", "AttackMethod", "AttackTarget", "suffer"),
    ("performed_through", "AttackMethod", "AttackMedium", None),
    ("to_exploit", "AttackMethod", "HumanVulnerability", None),
    ("based_on", "AttackStrategy", "SocialEngineeringInformation", None),
    ("suffer", "AttackTarget", "AttackMethod", "apply_to"),
    ("have_vul", "AttackTarget", "HumanVulnerability", None),
    ("interacted_through", "AttackTarget", "AttackMedium", None),
    ("bring_out", "AttackTarget", "AttackConsequence", None),
    ("take_effected_by", "HumanVulnerability", "EffectMechanism", None),
    ("explain", "EffectMechanism", "AttackConsequence", None),
    ("feed_back_to", "AttackConsequence", "AttackGoal", None),
    ("to_satisfy", "AttackGoal", "AttackMotivation", None),
    ("subgoal_of", "SubGoal", "AttackGoal", None),
    ("with_skill", "AttackMethod", "CommonSkill", None),
    ("with_trick", "AttackMethod", "AuxiliaryTrick", None),
]

CORE_CONCEPTS = {
    "Attacker",
    "AttackMotivation",
    "AttackGoal",
    "SocialEngineeringInformation",
    "AttackStrategy",
    "AttackMethod",
    "AttackTarget",
    "AttackMedium",
    "HumanVulnerability",
    "EffectMechanism",
    "AttackConsequence",
}
AUXILIARY_CONCEPTS = {"SubGoal", "CommonSkill", "AuxiliaryTrick"}

SUBPROPERTY_AXIOMS = [
    ("incent", "motivate"),
    ("drive", "motivate"),
    ("incented_by", "motivated_by"),
    ("driven_by", "motivated_by"),
]
INVERSE_AXIOMS = [
    ("motivate", "motivated_by"),
    ("apply_to", "suffer"),
    ("incent", "incented_by"),
    ("drive", "driven_by"),
]
EQUIVALENCE_AXIOMS = [
    ("conduct", "craft_and_perform", False),
    ("exploited_by", "to_exploit", True),
]


def test_criterion_1_ontology_tables_complete():
    started = time.perf_counter()
    core = {c.name for c in CONCEPTS.values() if not c.auxiliary}
    aux = {c.name for c in CONCEPTS.values() if c.auxiliary}
    assert core == CORE_CONCEPTS and len(core) == 11
    assert aux == AUXILIARY_CONCEPTS and len(aux) == 3

    asserted = {rel for _, _, rel in RELATIONS.values() if rel.kind is RelationKind.ASSERTED}
    assert len(asserted) == 22
    for name, domain, range_, inverse in RELATION_TABLE:
        stored, swapped, rel = RELATIONS[name]
        assert (stored, swapped) == (name, False), name
        assert rel.kind is RelationKind.ASSERTED, name
        assert rel.domain == domain, name
        assert rel.range == range_, name
        assert rel.inverse_of == inverse, name

    for name, parent in SUBPROPERTY_AXIOMS:
        assert RELATIONS[name][2].subproperty_of == parent
        assert RELATIONS[parent][2].subproperty_of is None
    for name, inverse in INVERSE_AXIOMS:
        assert RELATIONS[name][2].inverse_of == inverse
        assert RELATIONS[inverse][2].inverse_of == name
    for alias, canonical, swapped in EQUIVALENCE_AXIOMS:
        assert RELATIONS[alias][:2] == (canonical, swapped)

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(
        f"criterion 1 PASS: 11 core + 3 auxiliary concepts, 22 asserted "
        f"relations, {len(SUBPROPERTY_AXIOMS) + len(INVERSE_AXIOMS)} "
        f"sub/inverse axioms + {len(EQUIVALENCE_AXIOMS)} equivalences "
        f"({elapsed:.3f}s)"
    )


def test_criterion_2_bundled_dataset_loads_clean():
    result = load_canonical()  # raises on any error
    graph = result.graph
    assert result.warnings == []

    findings = validate_scenario_completeness(graph)
    mandatory = [f for f in findings if f.severity == "mandatory"]
    assert mandatory == []

    assert len(graph.scenario_ids()) == 15
    types = graph.attack_types()
    assert len(types) == 14

    # pinned regression constant, kept inside +-10% of the 224 design target
    assert graph.node_count == 245
    assert 224 * 0.9 <= graph.node_count <= 224 * 1.1

    print(
        f"criterion 2 PASS: 15 scenarios, {len(types)} attack types, "
        f"{graph.node_count} nodes (target 224 +-10%), 0 warnings, "
        f"0 mandatory findings"
    )


def test_criterion_3_medium_usage_ranking(graph):
    ranked = ranked_usage(graph, "performed_through", End.DST, 3)
    assert {r.id for r in ranked} == {"email", "website", "telephone"}
    # website leads; email and telephone tie at rank 2, so rank 3 is empty
    assert [(r.id, r.count, r.rank) for r in ranked] == [
        ("website", 5, 1),
        ("email", 4, 2),
        ("telephone", 4, 2),
    ]
    print(
        "criterion 3 PASS: top media {website: 5, email: 4, telephone: 4}, "
        "tie at rank 2 kept whole"
    )


def test_criterion_4_vulnerability_paths_attacker10_victim13(graph):
    paths, auxiliary = attack_paths_between(graph, "attacker10", "victim13")
    assert len(paths) == 4
    assert {p.nodes[1] for p in paths} == {"phishing10"}
    assert graph.node("phishing10").property("kind") == "phishing"
    shared = {p.nodes[2] for p in paths}
    assert shared == {"greed", "excitement", "impulsion", "intuitive_judgement"}
    assert len(auxiliary) == 5
    print(
        f"criterion 4 PASS: 4 phishing paths attacker10->victim13 over "
        f"{sorted(shared)}, {len(auxiliary)} auxiliary methods"
    )


def test_criterion_5_same_origin_chain_provenance(graph):
    chain = [
        ("victim10", "same_affiliation", "victim15", "R5"),
        ("phishing10", "same_origin_attack", "whaling15", "R6"),
        ("attacker10", "in_the_same_organization", "attacker15", "R7"),
    ]
    for src, relation, dst, rule in chain:
        for a, b in ((src, dst), (dst, src)):
            edge = next(
                e for e in graph.edges(relation) if e.src == a and e.dst == b
            )
            assert edge.is_inferred
            assert edge.rule == rule
            assert edge.provenance == f"inferred:{rule}"
    print(
        "criterion 5 PASS: victim10~victim15 (R5), phishing10~whaling15 (R6), "
        "attacker10~attacker15 (R7), all bidirectional with rule provenance"
    )


def test_criterion_6_patterns_score_against_oracle(graph):
    started = time.perf_counter()
    report = evaluation_report(graph)
    path_count = report["oracle"]["total"]
    triple_count = report["labels"]["threat_triples"]

    assert abs(path_count - 345) <= 345 * 0.15
    assert abs(triple_count - 177) <= 177 * 0.15

    threat_out: set[tuple] = set()
    for victim in graph.nodes_by_concept("AttackTarget"):
        for p in potential_threats_for_victim(graph, victim.id):
            threat_out.add((p.attacker, p.method, p.victim))
    for edge in graph.edges("apply_to"):
        for attacker in graph.nodes_by_concept("Attacker"):
            if graph.has_edge(attacker.id, "craft_and_perform", edge.src):
                threat_out.add((attacker.id, edge.src, edge.dst))

    target_out: set[tuple] = set()
    for attacker in graph.nodes_by_concept("Attacker"):
        for p in potential_targets_for_attacker(graph, attacker.id):
            target_out.add((p.attacker, p.victim))
    for edge in graph.edges("attack"):
        target_out.add((edge.src, edge.dst))

    quad_out: set[tuple] = set()
    for attacker in graph.nodes_by_concept("Attacker"):
        for victim in graph.nodes_by_concept("AttackTarget"):
            paths, _ = attack_paths_between(graph, attacker.id, victim.id)
            quad_out.update(tuple(p.nodes) for p in paths)

    oracle = enumerate_oracle_paths(graph)
    triples = {(p[0], p[1], p[-1]) for p in oracle}
    pair_labels = {(p[0], p[-1]) for p in oracle}
    quads = {p for p in oracle if len(p) == 4}
    reference = {
        "threat_triples": evaluate_pattern(threat_out, triples),
        "victim_pairs": evaluate_pattern(target_out, pair_labels),
        "path_quads": evaluate_pattern(quad_out, quads),
    }
    assert report["patterns"] == reference
    scores = {
        name.replace("_", " "): m for name, m in report["patterns"].items()
    }
    for name, m in scores.items():
        assert m.precision == 1.0, name
        assert m.recall >= 0.99, name

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    summary = ", ".join(
        f"{name} P={m.precision:.2f} R={m.recall:.2f}"
        for name, m in scores.items()
    )
    print(
        f"criterion 6 PASS: oracle {path_count} paths / {triple_count} "
        f"triples (within 15% of 345 / 177); {summary} ({elapsed:.2f}s)"
    )


def test_criterion_7_inference_is_idempotent_and_terminating():
    started = time.perf_counter()
    symmetric = (
        "same_attack_organization",
        "same_affiliation",
        "same_origin_attack",
        "in_the_same_organization",
    )
    for seed in range(100):
        g = random_conformant_graph(seed)
        assert g.node_count <= 200
        first = run_inference(g)
        assert first.iterations < 1000, f"seed {seed}"
        second = run_inference(g)
        assert second.added == [], f"seed {seed}"
        for rel in symmetric:
            for e in g.edges(rel):
                assert g.has_edge(e.dst, rel, e.src), f"seed {seed}: {e}"
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(
        f"criterion 7 PASS: 100 random graphs (<=200 nodes) idempotent, "
        f"terminating, symmetric relations bidirectional ({elapsed:.1f}s)"
    )


def _rows(text: str, graph) -> list[tuple[str, ...]]:
    return [r.values for r in evaluate_query(parse_query(text), graph)]


def test_criterion_8_query_language_matches_analytics(graph):
    # 1. scenario membership
    assert _rows('MATCH (n {scenario_id="9"}) RETURN n', graph) == [
        (n.id,) for n in graph.nodes() if n.scenario_id == 9
    ]

    # 2. plain edge scan
    assert _rows("MATCH (m)-[:to_exploit]->(h) RETURN m, h", graph) == sorted(
        (e.src, e.dst) for e in graph.edges("to_exploit")
    )

    # 3. medium usage recount
    rows = _rows("MATCH (m:AttackMethod)-[:performed_through]->(d) RETURN d", graph)
    counts: dict[str, int] = {}
    for (d,) in rows:
        counts[d] = counts.get(d, 0) + 1
    for r in ranked_usage(graph, "performed_through", End.DST, 3):
        assert counts[r.id] == r.count

    # 4. cross-scenario threats against one victim
    threats = _rows(
        'MATCH (v:Victim {id="victim7"})-[:have_vul]->(hv)'
        "<-[:to_exploit]-(am:AttackMethod)<-[:craft_and_perform]-(a:Attacker) "
        "WHERE a.scenario_id <> v.scenario_id RETURN DISTINCT a, am",
        graph,
    )
    assert threats == [
        (p.attacker, p.method)
        for p in potential_threats_for_victim(graph, "victim7")
    ]
    assert len(threats) == 12

    # 5. cross-scenario victims of one attacker
    victims = _rows(
        'MATCH (a:Attacker {id="attacker10"})-[:craft_and_perform]->(m)'
        "-[:to_exploit]->(h)<-[:have_vul]-(v:AttackTarget) "
        "WHERE a.scenario_id <> v.scenario_id RETURN DISTINCT v",
        graph,
    )
    assert victims == [
        (p.victim,)
        for p in potential_targets_for_attacker(graph, "attacker10")
    ]

    # 6. vulnerability-hop paths as 4-tuples
    quads = _rows(
        'MATCH (a {id="attacker10"})-[:craft_and_perform]->(m)'
        '-[:to_exploit]->(h)<-[:have_vul]-(v {id="victim13"}) '
        "RETURN a, m, h, v",
        graph,
    )
    paths, _ = attack_paths_between(graph, "attacker10", "victim13")
    assert quads == [p.nodes for p in paths]

    # evaluator equals exhaustive enumeration on small graphs
    checked = 0
    for seed in (11, 23, 47):
        g = _small_graph(seed)
        assert g.node_count <= 30
        for text in SMALL_GRAPH_QUERIES:
            query = parse_query(text)
            got = [r.values for r in evaluate_query(query, g)]
            assert got == reference_eval(query, g), f"seed {seed}: {text}"
            checked += 1
    print(
        f"criterion 8 PASS: 6 analytics patterns reproduced in the query "
        f"language; evaluator == brute force on {checked} query/graph pairs"
    )


SMALL_GRAPH_QUERIES = [
    "MATCH (a:Attacker)-[:craft_and_perform]->(m) RETURN a, m",
    "MATCH (a)-[:craft_and_perform]->(m)-[:to_exploit]->(h)"
    "<-[:have_vul]-(v) RETURN a, m, h, v",
    "MATCH (v)<-[:apply_to]-(m) RETURN DISTINCT v",
    "MATCH (a)-[:attack]->(v) RETURN a, v",
    'MATCH (m {kind="phishing"})-[:to_exploit]->(h) RETURN m, h',
    "MATCH (x), (y) WHERE x.scenario_id = y.scenario_id AND x <> y "
    "RETURN DISTINCT x, y",
    "MATCH (h)<-[:exploited_by]-(m) RETURN m, h",
]


def _small_graph(seed: int) -> KnowledgeGraph:
    rng = random.Random(seed)
    g = KnowledgeGraph()
    g.register_scenario(1, "t1")
    g.register_scenario(2, "t2")
    groups = {
        "Attacker": [f"a{i}" for i in range(rng.randint(1, 3))],
        "AttackMethod": [f"m{i}" for i in range(rng.randint(1, 4))],
        "AttackTarget": [f"v{i}" for i in range(rng.randint(1, 3))],
        "HumanVulnerability": [f"h{i}" for i in range(rng.randint(1, 4))],
    }
    for concept, ids in groups.items():
        for node_id in ids:
            props = {}
            if concept == "AttackMethod" and rng.random() < 0.6:
                props["kind"] = rng.choice(["phishing", "baiting"])
            scenario = None
            if concept != "HumanVulnerability":
                scenario = rng.randint(1, 2)
            g.add_node(Node(node_id, concept, scenario, properties=props))
    wiring = [
        ("Attacker", "craft_and_perform", "AttackMethod", 0.5),
        ("AttackMethod", "apply_to", "AttackTarget", 0.4),
        ("AttackMethod", "to_exploit", "HumanVulnerability", 0.4),
        ("AttackTarget", "have_vul", "HumanVulnerability", 0.4),
    ]
    for dom, relation, rng_c, p in wiring:
        for src in groups[dom]:
            for dst in groups[rng_c]:
                if rng.random() < p:
                    g.add_edge(src, relation, dst)
    run_inference(g)
    g.freeze()
    return g


CLI_INVOCATIONS = [
    ["load"],
    ["validate"],
    ["infer", "--trace"],
    ["stats", "--relation", "performed_through"],
    ["threats", "--victim", "victim7"],
    ["targets", "--attacker", "attacker10"],
    ["paths", "--from", "attacker10", "--to", "victim13"],
    ["same-origin"],
    ["query", 'MATCH (a)-[:attack]->(v) RETURN a, v'],
    ["export", "--format", "dot"],
    ["export", "--format", "sekg"],
    ["eval"],
]


def test_criterion_9_deterministic_output_and_roundtrip(capsys):
    for argv in CLI_INVOCATIONS:
        runs = []
        for _ in range(2):
            code = main(argv)
            captured = capsys.readouterr()
            assert captured.err == "", argv
            runs.append((code, captured.out))
        assert runs[0] == runs[1], argv
        assert runs[0][0] == 0, argv

    # parse -> serialize -> parse reaches a fixpoint on the bundled data
    first = serialize_dataset(load_dataset(canonical_text()).graph)
    second = serialize_dataset(load_dataset(first).graph)
    assert first == second

    inferred = canonical_graph()
    with_marks = serialize_dataset(inferred, include_inferred=True)
    reparsed = load_dataset(with_marks).graph
    assert serialize_dataset(reparsed, include_inferred=True) == with_marks

    print(
        f"criterion 9 PASS: {len(CLI_INVOCATIONS)} subcommands byte-identical "
        f"across two runs; serialize/parse round-trip is a fixpoint"
    )
