import random
import re

import pytest

from conftest import (
    random_conformant_graph,
    reference_chains,
    reference_oracle_paths,
    replicated_graph,
)
import sekg
from sekg import analytics
from sekg.analytics import (
    End,
    EvalMetrics,
    RankedCount,
    ThreatPair,
    alternate_methods_for_target,
    attack_paths_between,
    enumerate_oracle_paths,
    evaluate_pattern,
    evaluation_report,
    potential_targets_for_attacker,
    potential_threats_for_victim,
    ranked_usage,
    same_origin_report,
)
from sekg.errors import GraphError
from sekg.graph import Direction, KnowledgeGraph, Node
from sekg.inference import run_inference


def hand_graph() -> KnowledgeGraph:
    """Three tiny scenarios with hand-countable overlaps."""
    g = KnowledgeGraph()
    for sid in (1, 2, 3):
        g.register_scenario(sid, f"type{sid}")
    for sid in (1, 2, 3):
        g.add_node(Node(f"attacker{sid}", "Attacker", sid))
        g.add_node(Node(f"method{sid}", "AttackMethod", sid))
        g.add_node(Node(f"victim{sid}", "AttackTarget", sid))
        g.add_edge(f"attacker{sid}", "craft_and_perform", f"method{sid}")
        g.add_edge(f"method{sid}", "apply_to", f"victim{sid}")
    for hv in ("greed", "fear", "pride"):
        g.add_node(Node(hv, "HumanVulnerability"))
    g.add_edge("method1", "to_exploit", "greed")
    g.add_edge("method1", "to_exploit", "fear")
    g.add_edge("method2", "to_exploit", "greed")
    g.add_edge("method3", "to_exploit", "pride")
    g.add_edge("victim1", "have_vul", "greed")
    g.add_edge("victim2", "have_vul", "greed")
    g.add_edge("victim2", "have_vul", "fear")
    g.add_edge("victim3", "have_vul", "fear")
    return g.freeze()


# -- ranked usage ---------------------------------------------------------------


def media_graph() -> KnowledgeGraph:
    g = KnowledgeGraph()
    g.register_scenario(1, "t")
    for i in range(6):
        g.add_node(Node(f"m{i}", "AttackMethod", 1))
    for medium in ("email", "website", "telephone"):
        g.add_node(Node(medium, "AttackMedium"))
    for i in range(3):
        g.add_edge(f"m{i}", "performed_through", "email")
    for i in range(3, 5):
        g.add_edge(f"m{i}", "performed_through", "website")
    g.add_edge("m5", "performed_through", "telephone")
    g.add_edge("m0", "performed_through", "website")
    return g.freeze()


def test_ranked_usage_competition_ranking():
    g = media_graph()
    assert ranked_usage(g, "performed_through", End.DST, 2) == [
        RankedCount("email", 3, 1),
        RankedCount("website", 3, 1),
    ]
    # rank 3 item appears only when k allows it
    assert ranked_usage(g, "performed_through", End.DST, 3) == [
        RankedCount("email", 3, 1),
        RankedCount("website", 3, 1),
        RankedCount("telephone", 1, 3),
    ]


def test_ranked_usage_keeps_whole_tie_group():
    g = hand_graph()
    ranked = ranked_usage(g, "have_vul", End.DST, 1)
    # greed and fear both carry two edges: the tie straddles k=1 whole
    assert ranked == [RankedCount("fear", 2, 1), RankedCount("greed", 2, 1)]


def test_ranked_usage_src_end():
    g = hand_graph()
    assert ranked_usage(g, "to_exploit", End.SRC, 1) == [
        RankedCount("method1", 2, 1)
    ]


def test_ranked_usage_swapped_alias_flips_end():
    g = hand_graph()
    assert ranked_usage(g, "exploited_by", End.SRC, 3) == ranked_usage(
        g, "to_exploit", End.DST, 3
    )


@pytest.mark.parametrize("k", [0, -3])
def test_ranked_usage_refuses_k_below_one(k):
    with pytest.raises(ValueError, match=f"k must be at least 1, got {k}"):
        ranked_usage(media_graph(), "performed_through", End.DST, k)


@pytest.mark.parametrize("count_end", ["src", None])
def test_ranked_usage_refuses_a_non_end(count_end):
    with pytest.raises(TypeError, match=f"count_end must be an End, got {count_end!r}"):
        ranked_usage(media_graph(), "performed_through", count_end, 1)


def test_ranked_usage_canonical(graph):
    ranked = ranked_usage(graph, "performed_through", End.DST, 3)
    assert ranked == [
        RankedCount("website", 5, 1),
        RankedCount("email", 4, 2),
        RankedCount("telephone", 4, 2),
    ]
    assert {r.id for r in ranked} == {"email", "website", "telephone"}


def test_ranked_usage_canonical_brute_recount(graph):
    counts: dict[str, int] = {}
    for e in graph.edges("performed_through"):
        counts[e.dst] = counts.get(e.dst, 0) + 1
    full = ranked_usage(graph, "performed_through", End.DST, len(counts))
    assert {r.id: r.count for r in full} == counts
    for r in full:
        assert r.rank == 1 + sum(1 for c in counts.values() if c > r.count)
    assert counts["website"] == 5
    assert counts["telephone"] == 4
    assert counts["email"] == 4
    assert counts["face_to_face_visit"] == 3
    assert counts["secured_door"] == 3


# -- threats / targets ------------------------------------------------------------


def test_threats_hand_counts():
    g = hand_graph()
    threats = potential_threats_for_victim(g, "victim2")
    assert len(threats) == 1
    pair = threats[0]
    assert (pair.attacker, pair.method, pair.victim) == ("attacker1", "method1", "victim2")
    assert pair.shared_vulnerabilities == frozenset({"greed", "fear"})
    assert pair.origin_scenarios == (1, 2)

    assert [
        (p.attacker, p.method) for p in potential_threats_for_victim(g, "victim1")
    ] == [("attacker2", "method2")]
    assert [
        (p.attacker, p.method) for p in potential_threats_for_victim(g, "victim3")
    ] == [("attacker1", "method1")]


def test_targets_hand_counts():
    g = hand_graph()
    targets = potential_targets_for_attacker(g, "attacker1")
    assert [(p.victim, p.method) for p in targets] == [
        ("victim2", "method1"),
        ("victim3", "method1"),
    ]
    assert targets[0].shared_vulnerabilities == frozenset({"greed", "fear"})
    assert targets[1].shared_vulnerabilities == frozenset({"fear"})
    assert potential_targets_for_attacker(g, "attacker3") == []


def test_threats_targets_symmetry(graph):
    """Every cross-scenario threat seen from the victim side appears as a
    target seen from the attacker side, and vice versa."""
    threat_pairs = set()
    for victim in graph.nodes_by_concept("AttackTarget"):
        for p in potential_threats_for_victim(graph, victim.id):
            threat_pairs.add((p.attacker, p.victim))
    target_pairs = set()
    for attacker in graph.nodes_by_concept("Attacker"):
        for p in potential_targets_for_attacker(graph, attacker.id):
            target_pairs.add((p.attacker, p.victim))
    assert threat_pairs == target_pairs


def test_alternate_methods_hand():
    g = hand_graph()
    assert alternate_methods_for_target(g, "attacker1", "victim2") == ("method2",)
    assert alternate_methods_for_target(g, "attacker3", "victim1") == ()


def test_victim7_threat_count(graph):
    threats = potential_threats_for_victim(graph, "victim7")
    assert len(threats) == 12


def test_attacker10_targets(graph):
    targets = potential_targets_for_attacker(graph, "attacker10")
    assert [p.victim for p in targets] == [
        "victim12",
        "victim13",
        "victim15",
        "victim4",
        "victim5",
        "victim6",
        "victim7",
        "victim8",
        "victim9",
    ]
    assert all(p.attacker == "attacker10" for p in targets)


def test_alternate_methods_canonical(graph):
    assert alternate_methods_for_target(graph, "attacker10", "victim13") == (
        "honey_trap13",
        "trojan13",
    )


# -- attack paths -----------------------------------------------------------------


def test_attack_paths_hand():
    g = hand_graph()
    paths, auxiliary = attack_paths_between(g, "attacker1", "victim2")
    assert [p.nodes for p in paths] == [
        ("attacker1", "method1", "fear", "victim2"),
        ("attacker1", "method1", "greed", "victim2"),
    ]
    assert auxiliary == []
    assert len(paths[0].steps) == 3
    assert paths[0].describe() == (
        "attacker1 -craft_and_perform-> method1 -to_exploit-> fear "
        "<-have_vul- victim2"
    )


def test_attack_paths_canonical(graph):
    paths, auxiliary = attack_paths_between(graph, "attacker10", "victim13")
    assert len(paths) == 4
    assert {p.nodes[1] for p in paths} == {"phishing10"}
    assert {p.nodes[2] for p in paths} == {
        "excitement",
        "greed",
        "impulsion",
        "intuitive_judgement",
    }
    assert auxiliary == [
        "baiting8",
        "piggybacking6",
        "reverse_se9",
        "trailing7",
        "whaling15",
    ]


def expand_pairs(graph, attacker_id=None, victim_id=None):
    """Sorted (attacker, method, vulnerability, victim) chains of
    ``analytics._chain_groups``: each method with each of its
    vulnerabilities, a (method, vulnerability) pair, times the method's
    attackers (or the pinned one) and the vulnerability's victims (or the
    pinned one). A method without vulnerabilities would be a group that
    stands for no chain."""
    attackers = graph.adjacency("craft_and_perform", Direction.IN)
    victims = graph.adjacency("have_vul", Direction.IN)
    groups = analytics._chain_groups(graph, attacker_id, victim_id)
    assert all(groups.values())
    return sorted(
        (a, m, h, v)
        for m, hs in groups.items()
        for h in hs
        for a in (attackers[m] if attacker_id is None else (attacker_id,))
        for v in (victims[h] if victim_id is None else (victim_id,))
    )


@pytest.mark.parametrize("seed", ["replicated", None, *range(100)])
def test_chain_ops_match_reference(graph, seed):
    """The (method, vulnerability) pairs under every pinning, expanded into
    chains, and the four chain ops equal their definitions over
    ``reference_chains``, for every attacker, every victim and every
    (attacker, victim) pair. Runs on the bundled graph (seed None), on four
    copies of it sharing their vulnerabilities, and on random graphs."""
    if seed == "replicated":
        graph = replicated_graph(graph, 4)
    elif seed is not None:
        graph = random_conformant_graph(seed)
    chains = reference_chains(graph)
    assert expand_pairs(graph) == chains
    scenario = {n.id: n.scenario_id for n in graph.nodes()}
    attackers = [n.id for n in graph.nodes() if n.concept == "Attacker"]
    victims = [n.id for n in graph.nodes() if n.concept == "AttackTarget"]
    for a in attackers:
        assert expand_pairs(graph, attacker_id=a) == [c for c in chains if c[0] == a]
        for v in victims:
            assert expand_pairs(graph, a, v) == [
                c for c in chains if c[0] == a and c[3] == v
            ]
    for v in victims:
        assert expand_pairs(graph, victim_id=v) == [c for c in chains if c[3] == v]
    exploiters: dict[str, set[str]] = {}
    for e in graph.edges("to_exploit"):
        exploiters.setdefault(e.dst, set()).add(e.src)
    flaws: dict[str, set[str]] = {}
    for e in graph.edges("have_vul"):
        flaws.setdefault(e.src, set()).add(e.dst)

    def origins(a, v):
        return (scenario[a] or 0, scenario[v] or 0)

    for v in victims:
        shared: dict[tuple[str, str], set[str]] = {}
        for a, m, h, w in chains:
            if w == v and scenario[m] != scenario[v]:
                shared.setdefault((a, m), set()).add(h)
        assert potential_threats_for_victim(graph, v) == [
            ThreatPair(a, m, v, frozenset(hs), origins(a, v))
            for (a, m), hs in sorted(shared.items())
        ]
    for a in attackers:
        by_victim: dict[str, dict[str, set[str]]] = {}
        for b, m, h, v in chains:
            if b == a and scenario[v] != scenario[a]:
                by_victim.setdefault(v, {}).setdefault(m, set()).add(h)
        expected = []
        for v, methods in sorted(by_victim.items()):
            best = sorted(methods, key=lambda m: (-len(methods[m]), m))[0]
            expected.append(
                ThreatPair(a, best, v, frozenset(methods[best]), origins(a, v))
            )
        assert potential_targets_for_attacker(graph, a) == expected
        for v in victims:
            pair = [c for c in chains if c[0] == a and c[3] == v]
            paths, auxiliary = attack_paths_between(graph, a, v)
            assert [p.nodes for p in paths] == pair
            on_path = {m for _, m, _, _ in pair}
            assert auxiliary == sorted(
                {
                    m
                    for h in flaws.get(v, ())
                    for m in exploiters.get(h, ())
                    if m not in on_path and scenario[m] != scenario[v]
                }
            )
            assert alternate_methods_for_target(graph, a, v) == tuple(
                sorted(
                    {
                        m
                        for _, _, h, _ in pair
                        for m in exploiters[h]
                        if scenario[m] == scenario[v]
                    }
                )
            )


@pytest.mark.parametrize(
    "op, args, wrong",
    [
        (potential_threats_for_victim, ("attacker10",), "'attacker10' (Attacker)"),
        (potential_targets_for_attacker, ("victim7",), "'victim7' (AttackTarget)"),
        (attack_paths_between, ("victim7", "victim13"), "'victim7' (AttackTarget)"),
        (alternate_methods_for_target, ("attacker10", "phishing10"), "'phishing10'"),
    ],
)
def test_chain_ops_reject_wrong_concept(graph, op, args, wrong):
    with pytest.raises(GraphError, match=re.escape(wrong)):
        op(graph, *args)


def test_chain_ops_unknown_id_raises(graph):
    with pytest.raises(GraphError, match="unknown node"):
        attack_paths_between(graph, "attacker10", "ghost")
    with pytest.raises(GraphError, match="unknown node"):
        potential_targets_for_attacker(graph, "ghost")



def test_chain_ops_plan_once(graph, monkeypatch):
    """No chain op plans a join when it is called: they read the graph's
    adjacency maps."""
    ops = [
        (attack_paths_between, ("attacker10", "victim13")),
        (potential_threats_for_victim, ("victim7",)),
        (potential_targets_for_attacker, ("attacker10",)),
        (alternate_methods_for_target, ("attacker10", "victim13")),
        (evaluation_report, ()),
    ]
    before = [op(graph, *args) for op, args in ops]

    def refuse(*args, **kwargs):
        raise AssertionError("a chain op planned a join")

    monkeypatch.setattr(sekg.query.Conjunction, "plan", refuse)
    assert all(before)
    assert [op(graph, *args) for op, args in ops] == before

# -- oracle -----------------------------------------------------------------------


def test_oracle_hand_counts():
    g = hand_graph()
    assert set(enumerate_oracle_paths(g)) == {
        ("attacker1", "method1", "victim1"),
        ("attacker2", "method2", "victim2"),
        ("attacker3", "method3", "victim3"),
        ("attacker1", "method1", "greed", "victim1"),
        ("attacker1", "method1", "greed", "victim2"),
        ("attacker1", "method1", "fear", "victim2"),
        ("attacker1", "method1", "fear", "victim3"),
        ("attacker2", "method2", "greed", "victim1"),
        ("attacker2", "method2", "greed", "victim2"),
    }
    report = evaluation_report(g)
    assert report["oracle"] == {
        "total": 9,
        "with_vulnerability_hop": 6,
        "direct_apply_to": 3,
    }
    assert report["labels"] == {
        "threat_triples": 6,
        "victim_pairs": 6,
        "path_quads": 6,
    }


def test_oracle_paths_are_simple_and_concept_distinct():
    g = hand_graph()
    for p in enumerate_oracle_paths(g):
        assert len(set(p)) == len(p)
        concepts = [g.node(n).concept for n in p]
        assert len(set(concepts)) == len(concepts)
        assert concepts[0] == "Attacker"
        assert concepts[-1] == "AttackTarget"


def test_oracle_canonical_counts(graph):
    report = evaluation_report(graph)
    assert report["oracle"] == {
        "total": 330,
        "with_vulnerability_hop": 309,
        "direct_apply_to": 21,
    }
    assert report["labels"] == {
        "threat_triples": 174,
        "victim_pairs": 145,
        "path_quads": 309,
    }


@pytest.mark.parametrize("seed", ["replicated", None, *range(100)])
def test_oracle_matches_reference(graph, seed):
    """The oracle equals ``reference_oracle_paths``, order included, on the
    bundled graph (seed None), on four copies of it and on random graphs.
    Every path has 3 or 4 nodes, so the walk needs no length bound."""
    if seed == "replicated":
        graph = replicated_graph(graph, 4)
    elif seed is not None:
        graph = random_conformant_graph(seed)
    paths = enumerate_oracle_paths(graph)
    assert paths == reference_oracle_paths(graph)
    assert {len(p) for p in paths} <= {3, 4}


def test_oracle_calls_no_pattern_code(graph, monkeypatch):
    """The oracle is ground truth for the chain patterns, so it must not
    reach them through ``_chain_groups``."""

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle called pattern code")

    monkeypatch.setattr(analytics, "_chain_groups", refuse)
    assert len(enumerate_oracle_paths(graph)) == 330


def test_oracle_union_matches_analytics(graph):
    """Cross-scenario threats plus the asserted in-scenario chains cover the
    oracle triples exactly."""
    produced = set()
    for victim in graph.nodes_by_concept("AttackTarget"):
        for p in potential_threats_for_victim(graph, victim.id):
            produced.add((p.attacker, p.method, p.victim))
    for edge in graph.edges("apply_to"):
        for attacker in graph.nodes_by_concept("Attacker"):
            if graph.has_edge(attacker.id, "craft_and_perform", edge.src):
                produced.add((attacker.id, edge.src, edge.dst))
    oracle = enumerate_oracle_paths(graph)
    assert produced == {(p[0], p[1], p[-1]) for p in oracle}


@pytest.mark.parametrize("seed", ["replicated", None, *range(100)])
def test_evaluation_report_matches_reference(graph, seed):
    """``evaluation_report`` equals a report built from the per-entity ops,
    ``reference_oracle_paths`` and ``reference_chains`` on the bundled graph
    (seed None), on four copies of it and on random graphs."""
    if seed == "replicated":
        graph = replicated_graph(graph, 4)
    elif seed is not None:
        graph = random_conformant_graph(seed)
    oracle = reference_oracle_paths(graph)
    triples = {(p[0], p[1], p[-1]) for p in oracle}
    pairs = {(p[0], p[-1]) for p in oracle}
    quads = {p for p in oracle if len(p) == 4}
    with_hop = sum(1 for p in oracle if len(p) == 4)

    threats = {
        (p.attacker, p.method, p.victim)
        for victim in graph.nodes_by_concept("AttackTarget")
        for p in potential_threats_for_victim(graph, victim.id)
    }
    threats |= {
        (perform.src, apply.src, apply.dst)
        for apply in graph.edges("apply_to")
        for perform in graph.edges("craft_and_perform")
        if perform.dst == apply.src
    }
    targets = {
        (p.attacker, p.victim)
        for attacker in graph.nodes_by_concept("Attacker")
        for p in potential_targets_for_attacker(graph, attacker.id)
    }
    targets |= {(e.src, e.dst) for e in graph.edges("attack")}

    assert evaluation_report(graph) == {
        "oracle": {
            "total": len(oracle),
            "with_vulnerability_hop": with_hop,
            "direct_apply_to": len(oracle) - with_hop,
        },
        "labels": {
            "threat_triples": len(triples),
            "victim_pairs": len(pairs),
            "path_quads": len(quads),
        },
        "patterns": {
            "threat_triples": evaluate_pattern(threats, triples),
            "victim_pairs": evaluate_pattern(targets, pairs),
            "path_quads": evaluate_pattern(set(reference_chains(graph)), quads),
        },
    }


def test_public_exports_resolve():
    assert len(set(sekg.__all__)) == len(sekg.__all__)
    assert sorted(sekg.__all__) == [
        "AttackPath",
        "BindingRow",
        "DatasetError",
        "Direction",
        "Edge",
        "End",
        "EvalMetrics",
        "Finding",
        "GraphError",
        "InferenceResult",
        "KnowledgeGraph",
        "LoadResult",
        "Node",
        "PatternQuery",
        "QueryParseError",
        "RED_RELATIONS",
        "RankedCount",
        "Rule",
        "RuleError",
        "SchemaError",
        "SekgError",
        "ThreatPair",
        "__version__",
        "alternate_methods_for_target",
        "attack_paths_between",
        "axiom_closure",
        "builtin_ruleset",
        "canonical_graph",
        "canonical_text",
        "enumerate_oracle_paths",
        "evaluate_pattern",
        "evaluate_query",
        "evaluation_report",
        "load_canonical",
        "load_dataset",
        "parse_query",
        "potential_targets_for_attacker",
        "potential_threats_for_victim",
        "ranked_usage",
        "run_inference",
        "run_query",
        "run_rules",
        "same_origin_report",
        "serialize_dataset",
        "validate_scenario_completeness",
    ]
    for name in sekg.__all__:
        assert hasattr(sekg, name), name


# -- evaluation metrics -------------------------------------------------------------


def test_evaluate_pattern_exact():
    labels = {("a", "b"), ("c", "d"), ("e", "f")}
    outputs = {("a", "b"), ("c", "d"), ("x", "y")}
    m = evaluate_pattern(outputs, labels)
    assert m == EvalMetrics(2, 1, 1, 2 / 3, 2 / 3, 2 / 3)


def test_evaluate_pattern_perfect_and_empty():
    labels = {("a",), ("b",)}
    assert evaluate_pattern(set(labels), labels) == EvalMetrics(2, 0, 0, 1.0, 1.0, 1.0)
    empty = evaluate_pattern(set(), set())
    assert (empty.precision, empty.recall) == (1.0, 1.0)
    none_claimed = evaluate_pattern(set(), labels)
    assert none_claimed.precision == 1.0
    assert none_claimed.recall == 0.0
    assert none_claimed.f1 == 0.0


def test_evaluate_pattern_near_miss_rounding():
    labels = {("x", str(i)) for i in range(177)}
    outputs = set(list(labels)[:-1])
    m = evaluate_pattern(outputs, labels)
    assert m.omitted == 1
    assert round(m.precision, 4) == 1.0
    assert round(m.recall, 4) == 0.9944
    assert round(m.f1, 4) == 0.9972

    labels = {(str(i),) for i in range(345)}
    outputs = set(list(labels)[:-1])
    m = evaluate_pattern(outputs, labels)
    assert round(m.recall, 4) == 0.9971
    assert round(m.f1, 4) == 0.9985


def test_evaluate_pattern_arity_mismatch():
    with pytest.raises(ValueError, match="arities"):
        evaluate_pattern({("a", "b")}, {("a", "b", "c")})


def test_evaluate_pattern_names_every_arity():
    # The check stops at the first mismatch, but the message still lists
    # every arity on either side, sorted.
    outputs = {("a", "b"), ("a",), ("b",)}
    labels = {("a", "b", "c"), ("a", "b")}
    with pytest.raises(ValueError) as err:
        evaluate_pattern(outputs, labels)
    assert str(err.value) == "tuple schema mismatch: arities [1, 2, 3]"


# -- reports ----------------------------------------------------------------------


def test_same_origin_report_canonical(graph):
    report = same_origin_report(graph)
    assert report["same_affiliation"] == [
        {
            "nodes": ["victim10", "victim15"],
            "affiliation": "Company A",
            "provenance": "inferred:R5",
        }
    ]
    assert report["same_origin_attack"] == [
        {
            "nodes": ["phishing10", "whaling15"],
            "encoded_domain": "att.eg.net",
            "shared_motivation": ["financial_gain"],
            "provenance": "inferred:R6",
        }
    ]
    assert report["in_the_same_organization"] == [
        {
            "nodes": ["attacker10", "attacker15"],
            "via_methods": [["phishing10", "whaling15"]],
            "provenance": "inferred:R7",
        }
    ]


SAME_ORIGIN = ("same_affiliation", "same_origin_attack", "in_the_same_organization")


def one_way(graph: KnowledgeGraph, seed: int) -> KnowledgeGraph:
    """A copy of ``graph`` that drops about half of its same-origin edges,
    so many pairs keep one direction only, and asserts some of the rest,
    so a pair's two edges can differ in provenance."""
    rng = random.Random(seed)
    g = KnowledgeGraph()
    for sid, attack_type in graph.scenarios.items():
        g.register_scenario(sid, attack_type)
    for node in graph.nodes():
        g.add_node(node)
    for e in graph.edges():
        rule = e.rule
        if e.relation in SAME_ORIGIN:
            if rng.random() < 0.5:
                continue
            if rng.random() < 0.3:
                rule = None
        g.add_edge(e.src, e.relation, e.dst, rule)
    return g.freeze()


@pytest.mark.parametrize(
    "seed", ["replicated", None, *range(100), *(f"one-way {n}" for n in range(30))]
)
def test_same_origin_report_matches_reference(graph, seed):
    """``same_origin_report`` equals a report built by brute force from
    ``graph.edges()``, with no adjacency index and no analytics code, on the
    bundled graph (seed None), on four copies of it and on random graphs,
    each closed under the rules, and on random graphs whose same-origin
    edges are thinned out after the rules ran ("one-way")."""
    if seed == "replicated":
        graph = replicated_graph(graph, 4)
    elif isinstance(seed, str):
        n = int(seed.split()[-1])
        graph = random_conformant_graph(n)
        run_inference(graph)
        graph = one_way(graph, n)
    elif seed is not None:
        graph = random_conformant_graph(seed)
    if isinstance(seed, int) or seed == "replicated":
        run_inference(graph)
    edges = graph.edges()

    def heads(relation, tail):
        return {e.dst for e in edges if e.relation == relation and e.src == tail}

    def tails(relation, head):
        return {e.src for e in edges if e.relation == relation and e.dst == head}

    def pairs(relation):
        first: dict[tuple[str, str], str] = {}
        for e in edges:
            if e.relation == relation:
                first.setdefault((min(e.src, e.dst), max(e.src, e.dst)), e.provenance)
        return sorted(first.items())

    def motivations(method):
        return {m for a in tails("craft_and_perform", method) for m in heads("motivated_by", a)}

    expected = {
        "same_affiliation": [
            {
                "nodes": [a, b],
                "provenance": provenance,
                "affiliation": graph.node(a).properties.get("affiliation", ""),
            }
            for (a, b), provenance in pairs("same_affiliation")
        ],
        "same_origin_attack": [
            {
                "nodes": [a, b],
                "provenance": provenance,
                "encoded_domain": graph.node(a).properties.get("encoded_domain", ""),
                "shared_motivation": sorted(motivations(a) & motivations(b)),
            }
            for (a, b), provenance in pairs("same_origin_attack")
        ],
        "in_the_same_organization": [
            {
                "nodes": [a, b],
                "provenance": provenance,
                "via_methods": [
                    [m1, m2]
                    for m1 in sorted(heads("craft_and_perform", a))
                    for m2 in sorted(heads("craft_and_perform", b))
                    if m2 in heads("same_origin_attack", m1)
                ],
            }
            for (a, b), provenance in pairs("in_the_same_organization")
        ],
    }
    assert same_origin_report(graph) == expected


@pytest.mark.parametrize("copies", [1, 4])
def test_read_ops_return_whole_records(graph, copies):
    """Every record a read op returns is of its class and as wide as it,
    on the bundled graph and on four copies of it: the ops build their
    records with ``tuple.__new__``, which skips the NamedTuple arity check."""
    from sekg.query import BindingRow, Token, evaluate_query, parse_query, tokenize

    if copies > 1:
        graph = replicated_graph(graph, copies)
    attackers = [n.id for n in graph.nodes_by_concept("Attacker")]
    victims = [n.id for n in graph.nodes_by_concept("AttackTarget")]
    records = []
    for v in victims:
        records += potential_threats_for_victim(graph, v)
    for a in attackers:
        records += potential_targets_for_attacker(graph, a)
        for v in victims:
            records += attack_paths_between(graph, a, v)[0]
    for relation in ("craft_and_perform", "to_exploit", "have_vul", "same_origin_attack"):
        for end in End:
            records += ranked_usage(graph, relation, end, 3)
    for text in (
        "MATCH (a:Attacker)-[:craft_and_perform]->(m) RETURN a, m, m.kind",
        'MATCH (n {scenario_id="1"}) RETURN n',
        "MATCH (a)-[:in_the_same_organization]->(b) RETURN DISTINCT b",
    ):
        records += tokenize(text)
        records += evaluate_query(parse_query(text), graph)
    kinds = {type(r) for r in records}
    assert kinds == {ThreatPair, RankedCount, analytics.AttackPath, BindingRow, Token}
    for record in records:
        assert len(record) == len(type(record)._fields), record
