import pytest
import random
from collections import Counter

from conftest import (
    AFFILIATIONS,
    check_edge_conformance,
    crosslinked_graph,
    find_edge,
    has_node,
    random_conformant_graph,
    reference_closure,
    reference_fixpoint,
    replicated_graph,
    thaw,
)

from sekg import inference
from sekg.errors import GraphError, QueryParseError, RuleError, SchemaError
from sekg.graph import Direction, Edge, KnowledgeGraph, Node
from sekg.inference import (
    Rule,
    axiom_closure,
    builtin_ruleset,
    run_inference,
    run_rules,
)
from sekg.query import Plan, evaluate_query, match, parse_query, run_query
from sekg.schema import DERIVABLE, RELATION_ROWS, RELATIONS

SYMMETRIC_DERIVED = (
    "same_attack_organization",
    "same_affiliation",
    "same_origin_attack",
    "in_the_same_organization",
)


def chain_fixture() -> KnowledgeGraph:
    g = KnowledgeGraph()
    g.register_scenario(1, "t")
    g.add_node(Node("a", "Attacker", 1))
    g.add_node(Node("m", "AttackMethod", 1))
    g.add_node(Node("v", "AttackTarget", 1))
    g.add_node(Node("mot", "AttackMotivation"))
    g.add_edge("a", "craft_and_perform", "m")
    g.add_edge("m", "apply_to", "v")
    return g


def test_closure_inverse_pairs():
    g = chain_fixture()
    result = axiom_closure(g)
    assert g.has_edge("v", "suffer", "m")
    assert find_edge(g, "v", "suffer", "m").provenance == "inferred:R2"
    assert all(e.rule == "R2" for e in result.added)


def test_frozen_graph_refused_even_when_closure_adds_nothing():
    # Closure has nothing to add here (apply_to and suffer are both present),
    # so only R1's head write would meet the frozen graph.
    g = chain_fixture()
    g.add_edge("v", "suffer", "m")
    before = g.edges()
    g.freeze()
    with pytest.raises(GraphError, match="^graph is frozen$"):
        run_inference(g)
    assert g.edges() == before


def test_closure_refuses_frozen_graph_with_nothing_to_add(graph):
    # the bundled graph is frozen and already closed, so closure would add
    # nothing; a frozen graph is refused all the same
    before = graph.edge_count
    with pytest.raises(GraphError, match="^graph is frozen$"):
        axiom_closure(graph)
    assert graph.edge_count == before


def test_closure_subproperty_chain():
    g = chain_fixture()
    g.add_edge("a", "incented_by", "mot")
    axiom_closure(g)
    # incented_by lifts to motivated_by (R3) and inverts to incent (R2),
    # whose own lift and inverse complete the square
    assert find_edge(g, "a", "motivated_by", "mot").rule == "R3"
    assert find_edge(g, "mot", "incent", "a").rule == "R2"
    assert g.has_edge("mot", "motivate", "a")


def test_closure_idempotent():
    g = chain_fixture()
    axiom_closure(g)
    assert axiom_closure(g).added == []


def test_r1_attack():
    g = chain_fixture()
    run_inference(g)
    attack = find_edge(g, "a", "attack", "v")
    assert attack.provenance == "inferred:R1"


def test_r4_same_attack_organization():
    g = chain_fixture()
    g.add_node(Node("b", "Attacker", 1))
    g.add_node(Node("mb", "AttackMethod", 1))
    g.add_edge("b", "craft_and_perform", "mb")
    g.add_edge("mb", "apply_to", "v")
    g.add_edge("mot", "motivate", "a")
    g.add_edge("mot", "motivate", "b")
    result = run_inference(g)
    assert g.has_edge("a", "same_attack_organization", "b")
    assert g.has_edge("b", "same_attack_organization", "a")
    assert result.fired["R4"] >= 1


def test_r5_same_affiliation():
    g = KnowledgeGraph()
    g.register_scenario(1, "t")
    g.add_node(Node("v1", "AttackTarget", 1, properties={"affiliation": "Acme"}))
    g.add_node(Node("v2", "AttackTarget", 1, properties={"affiliation": "Acme"}))
    g.add_node(Node("v3", "AttackTarget", 1, properties={"affiliation": "Other"}))
    g.add_node(Node("v4", "AttackTarget", 1))
    run_inference(g)
    assert g.has_edge("v1", "same_affiliation", "v2")
    assert g.has_edge("v2", "same_affiliation", "v1")
    assert g.edges("same_affiliation") == (
        find_edge(g, "v1", "same_affiliation", "v2"),
        find_edge(g, "v2", "same_affiliation", "v1"),
    )


def same_origin_fixture(affiliations=("Acme", "Acme"), motivations=("gain", "gain")):
    """Two scenarios whose methods share an encoded domain."""
    g = KnowledgeGraph()
    for sid, aff, motivation in zip((1, 2), affiliations, motivations):
        g.register_scenario(sid, f"t{sid}")
        g.add_node(Node(f"a{sid}", "Attacker", sid))
        g.add_node(
            Node(f"m{sid}", "AttackMethod", sid, properties={"encoded_domain": "evil.test"})
        )
        g.add_node(Node(f"v{sid}", "AttackTarget", sid, properties={"affiliation": aff}))
        g.add_edge(f"a{sid}", "craft_and_perform", f"m{sid}")
        g.add_edge(f"m{sid}", "apply_to", f"v{sid}")
        if not has_node(g, motivation):
            g.add_node(Node(motivation, "AttackMotivation"))
        g.add_edge(f"a{sid}", "motivated_by", motivation)
    return g


def test_r6_r7_same_origin_chain():
    g = same_origin_fixture()
    run_inference(g)
    assert find_edge(g, "m1", "same_origin_attack", "m2").rule == "R6"
    assert g.has_edge("m2", "same_origin_attack", "m1")
    assert find_edge(g, "a1", "in_the_same_organization", "a2").rule == "R7"
    assert g.has_edge("a2", "in_the_same_organization", "a1")


def test_r6_needs_all_three_signals():
    # same domain and motivation, different affiliations: no firing
    g = same_origin_fixture(affiliations=("Acme", "Initech"))
    run_inference(g)
    assert g.edges("same_origin_attack") == ()
    assert g.edges("in_the_same_organization") == ()
    # same domain and affiliation, different motivations: no firing
    g = same_origin_fixture(motivations=("gain", "fame"))
    run_inference(g)
    assert g.has_edge("v1", "same_affiliation", "v2")
    assert g.edges("same_origin_attack") == ()
    assert g.edges("in_the_same_organization") == ()


def test_head_contradicted_by_body_raises():
    # A body that gives a head variable another concept than the head
    # relation's, or a RETURN naming one variable twice, could only yield
    # heads add_edge refuses: each is a RuleError before anything is written.
    g = chain_fixture()
    g.add_edge("m", "to_exploit", g.add_node(Node("greed", "HumanVulnerability")).id)
    before = g.edges()
    for relation, body, message in (
        # an atom types m and h, as (AttackMethod, HumanVulnerability)
        (
            "attack",
            "MATCH (m)-[:to_exploit]->(h) RETURN m, h",
            "m is AttackMethod, attack needs Attacker",
        ),
        # a label types v; the swapped alias's head is to_exploit(m, v)
        (
            "exploited_by",
            "MATCH (v:Victim), (m) RETURN v, m",
            "v is AttackTarget, to_exploit needs HumanVulnerability",
        ),
        (
            "attack",
            'MATCH (a:Attacker), (v {concept="AttackMethod"}) RETURN a, v',
            "v is AttackMethod, attack needs AttackTarget",
        ),
        (
            "attack",
            "MATCH (a)-[:craft_and_perform]->(am) RETURN a, a",
            "RETURN a, a yields only self-loops",
        ),
    ):
        with pytest.raises(RuleError, match=f"^rule X1: {message}$"):
            run_rules(g, [Rule("X1", relation, body)])
    assert g.edges() == before


def test_irreflexive_head_dropped():
    g = KnowledgeGraph()
    g.register_scenario(1, "t")
    g.add_node(Node("v1", "AttackTarget", 1, properties={"affiliation": "Acme"}))
    # v1 pairs with itself on the property join; the self-loop must not land
    loopy = Rule(
        "X2",
        "same_affiliation",
        "MATCH (x), (y) WHERE x.affiliation = y.affiliation RETURN x, y",
    )
    result = run_rules(g, [loopy])
    assert result.added == []


def test_unsafe_rule_rejected():
    g = chain_fixture()
    before = g.edges()
    for body in (
        "MATCH (m)-[:apply_to]->(v) RETURN a, v",  # unbound head variable
        "MATCH (m)-[:apply_to]->(v) WHERE v <> w RETURN v, m",  # WHERE-only
        "MATCH (m)-[:fly_to]->(v) RETURN m, v",  # unknown body relation
    ):
        with pytest.raises(QueryParseError):
            run_rules(g, [Rule("X4", "attack", body)])
    for items in ("m", "m, v, m", "m.id, v", "DISTINCT m, v"):
        rule = Rule("X5", "apply_to", f"MATCH (m)-[:apply_to]->(v) RETURN {items}")
        with pytest.raises(RuleError, match="RETURN must be two variables"):
            run_rules(g, [rule])
    unknown_head = Rule("X6", "fly_to", "MATCH (m)-[:apply_to]->(v) RETURN m, v")
    with pytest.raises(SchemaError, match="unknown relation"):
        run_rules(g, [unknown_head])
    # a rule is checked before anything is written, the closure included
    assert g.edges() == before


def test_malformed_rule_raises_on_every_call():
    # _compile is cached, but a failed compile is not: each call re-raises
    g = chain_fixture()
    rule = Rule("X", "attack", "MATCH (a)-[:craft_and_perform]->(am) RETURN a")
    for _ in range(3):
        with pytest.raises(RuleError):
            run_rules(g, [rule])


def test_rule_equality_never_matches_absent_property():
    # The same text as a MATCH and as a rule body: neither pairs two nodes
    # without an affiliation, and both pair the two that share one.
    g = KnowledgeGraph()
    g.register_scenario(1, "t")
    g.add_node(Node("v1", "AttackTarget", 1))
    g.add_node(Node("v2", "AttackTarget", 1))
    g.add_node(Node("v3", "AttackTarget", 1, properties={"affiliation": "Acme"}))
    g.add_node(Node("v4", "AttackTarget", 1, properties={"affiliation": "Acme"}))
    text = "MATCH (x), (y) WHERE x.affiliation = y.affiliation AND x <> y RETURN x, y"
    assert [row.values for row in run_query(text, g)] == [("v3", "v4"), ("v4", "v3")]
    run_rules(g, [Rule("X", "same_affiliation", text)])
    assert [(e.src, e.dst) for e in g.edges("same_affiliation")] == [("v3", "v4"), ("v4", "v3")]


def with_affiliations(graph: KnowledgeGraph, seed: int) -> KnowledgeGraph:
    """An unfrozen copy of ``graph`` with an affiliation on about half its
    attackers and methods, which R5's unlabelled body can pair but its
    head refuses."""
    rng = random.Random(seed)
    g = KnowledgeGraph()
    for sid, attack_type in graph.scenarios.items():
        g.register_scenario(sid, attack_type)
    for node in graph.nodes():
        if node.concept in ("Attacker", "AttackMethod") and rng.random() < 0.5:
            affiliation = rng.choice(AFFILIATIONS)
            node = node._replace(properties={**node.properties, "affiliation": affiliation})
        g.add_node(node)
    for e in graph.edges():
        g.add_edge(e.src, e.relation, e.dst, rule=e.rule)
    return g


def assert_rules_mean_their_match(graph: KnowledgeGraph) -> None:
    """Each builtin rule's body, run as a MATCH, pairs what its compiled
    plan derives, once the pairs the head's types or a self-loop refuse go."""
    concept = {node.id: node.concept for node in graph.nodes()}
    for rule in builtin_ruleset():
        head = RELATIONS[rule.relation][2]
        matched = {
            (x, y)
            for x, y in (row.values for row in evaluate_query(parse_query(rule.body), graph))
            if x != y and concept[x] == head.domain and concept[y] == head.range
        }
        _, (a, _, b), plan, _ = inference._compile(rule)
        assert matched == {(row[a], row[b]) for row in match(graph, plan)}, rule.name


def test_rule_bodies_mean_their_match_on_the_bundled_graph(graph):
    assert_rules_mean_their_match(graph)
    assert_rules_mean_their_match(replicated_graph(graph, 4))


@pytest.mark.parametrize("seed", range(100))
def test_rule_bodies_mean_their_match_on_random_graphs(seed):
    g = random_conformant_graph(seed)
    run_inference(g)
    assert_rules_mean_their_match(g)
    g = with_affiliations(g, seed)
    run_inference(g)
    assert_rules_mean_their_match(g)


def test_rules_parsed_once(monkeypatch):
    run_inference(chain_fixture())
    calls = []

    def counted(text):
        calls.append(text)
        return parse_query(text)

    monkeypatch.setattr(inference, "parse_query", counted)
    run_inference(chain_fixture())
    assert calls == []


def r1_with(relation: str, extra: str = "") -> Rule:
    return Rule(
        "X",
        "attack",
        f"MATCH (a)-[:{relation}]->(am)-[:apply_to]->(v){extra} RETURN a, v",
    )


def test_rule_body_synonyms(load_result):
    # conduct is an alias of craft_and_perform
    for relation in ("craft_and_perform", "conduct"):
        g = thaw(load_result.graph)
        axiom_closure(g)
        assert run_rules(g, [r1_with(relation)]).fired.get("X") == 15, relation


def test_rule_body_swapped_alias():
    # exploited_by(h, m) is stored as to_exploit(m, h)
    g = chain_fixture()
    g.add_node(Node("greed", "HumanVulnerability"))
    g.add_edge("m", "to_exploit", "greed")
    extra = ', (h)-[:exploited_by]->(am) WHERE h = "greed"'
    rule = r1_with("craft_and_perform", extra)
    assert run_rules(g, [rule]).fired == {"X": 1, "R2": 1}
    assert find_edge(g, "a", "attack", "v").rule == "X"


def test_swapped_alias_head():
    # a head named by a swapped alias is written as its stored relation
    g = chain_fixture()
    g.add_node(Node("greed", "HumanVulnerability"))
    g.add_edge("v", "have_vul", "greed")
    text = "MATCH (am)-[:apply_to]->(v)-[:have_vul]->(h) RETURN h, am"
    rule = Rule("X", "exploited_by", text)
    assert run_rules(g, [rule]).fired.get("X") == 1
    assert find_edge(g, "m", "to_exploit", "greed").rule == "X"


OUT, IN = Direction.OUT, Direction.IN

#: The compiled head, body plan and per-atom (relation, plan) entries of
#: each builtin rule. The planner breaks ties in written order, so
#: reordering a body's atoms fails this pin. R5 alone gets head concept
#: tests: its body types neither variable.
BUILTIN_PLANS = {
    "R1": (
        (0, "attack", 2),
        Plan((
            ("nodes", 0, "craft_and_perform"),
            ("adjacent", 1, "craft_and_perform", OUT, 0),
            ("adjacent", 2, "apply_to", OUT, 1),
        ), 3, ()),
        [
            ("craft_and_perform", Plan((
                ("adjacent", 2, "apply_to", OUT, 1),
            ), 3, (0, 1))),
            ("apply_to", Plan((
                ("adjacent", 0, "craft_and_perform", IN, 1),
            ), 3, (1, 2))),
        ],
    ),
    "R4": (
        (1, "same_attack_organization", 3),
        Plan((
            ("nodes", 0, "motivate"),
            ("adjacent", 1, "motivate", OUT, 0),
            ("adjacent", 2, "attack", OUT, 1),
            ("adjacent", 3, "attack", IN, 2),
            ("has_edge", 0, "motivate", 3),
            ("test", (1, None, None), (3, None, None), True),
        ), 4, ()),
        [
            ("motivate", Plan((
                ("adjacent", 2, "attack", OUT, 1),
                ("adjacent", 3, "attack", IN, 2),
                ("has_edge", 0, "motivate", 3),
                ("test", (1, None, None), (3, None, None), True),
            ), 4, (0, 1))),
            ("attack", Plan((
                ("adjacent", 0, "motivate", IN, 1),
                ("adjacent", 3, "attack", IN, 2),
                ("has_edge", 0, "motivate", 3),
                ("test", (1, None, None), (3, None, None), True),
            ), 4, (1, 2))),
            ("attack", Plan((
                ("adjacent", 1, "attack", IN, 2),
                ("test", (1, None, None), (3, None, None), True),
                ("adjacent", 0, "motivate", IN, 1),
                ("has_edge", 0, "motivate", 3),
            ), 4, (3, 2))),
            ("motivate", Plan((
                ("adjacent", 1, "motivate", OUT, 0),
                ("test", (1, None, None), (3, None, None), True),
                ("adjacent", 2, "attack", OUT, 1),
                ("has_edge", 3, "attack", 2),
            ), 4, (0, 3))),
        ],
    ),
    "R5": (
        (0, "same_affiliation", 1),
        Plan((
            ("lookup", 0, "concept", (None, None, "AttackTarget")),
            ("lookup", 1, "affiliation", (0, "affiliation", None)),
            ("test", (0, None, None), (1, None, None), True),
            ("test", (1, "concept", None), (None, None, "AttackTarget"), False),
        ), 2, ()),
        [
        ],
    ),
    "R6": (
        (1, "same_origin_attack", 3),
        Plan((
            ("nodes", 0, "craft_and_perform"),
            ("adjacent", 1, "craft_and_perform", OUT, 0),
            ("lookup", 3, "encoded_domain", (1, "encoded_domain", None)),
            ("test", (1, None, None), (3, None, None), True),
            ("adjacent", 2, "craft_and_perform", IN, 3),
            ("adjacent", 4, "motivated_by", OUT, 0),
            ("has_edge", 2, "motivated_by", 4),
            ("adjacent", 5, "attack", OUT, 0),
            ("adjacent", 6, "attack", OUT, 2),
            ("has_edge", 5, "same_affiliation", 6),
        ), 7, ()),
        [
            ("craft_and_perform", Plan((
                ("lookup", 3, "encoded_domain", (1, "encoded_domain", None)),
                ("test", (1, None, None), (3, None, None), True),
                ("adjacent", 2, "craft_and_perform", IN, 3),
                ("adjacent", 4, "motivated_by", OUT, 0),
                ("has_edge", 2, "motivated_by", 4),
                ("adjacent", 5, "attack", OUT, 0),
                ("adjacent", 6, "attack", OUT, 2),
                ("has_edge", 5, "same_affiliation", 6),
            ), 7, (0, 1))),
            ("craft_and_perform", Plan((
                ("lookup", 1, "encoded_domain", (3, "encoded_domain", None)),
                ("test", (1, None, None), (3, None, None), True),
                ("adjacent", 0, "craft_and_perform", IN, 1),
                ("adjacent", 4, "motivated_by", OUT, 0),
                ("has_edge", 2, "motivated_by", 4),
                ("adjacent", 5, "attack", OUT, 0),
                ("adjacent", 6, "attack", OUT, 2),
                ("has_edge", 5, "same_affiliation", 6),
            ), 7, (2, 3))),
            ("motivated_by", Plan((
                ("adjacent", 1, "craft_and_perform", OUT, 0),
                ("lookup", 3, "encoded_domain", (1, "encoded_domain", None)),
                ("test", (1, None, None), (3, None, None), True),
                ("adjacent", 2, "craft_and_perform", IN, 3),
                ("has_edge", 2, "motivated_by", 4),
                ("adjacent", 5, "attack", OUT, 0),
                ("adjacent", 6, "attack", OUT, 2),
                ("has_edge", 5, "same_affiliation", 6),
            ), 7, (0, 4))),
            ("motivated_by", Plan((
                ("adjacent", 3, "craft_and_perform", OUT, 2),
                ("lookup", 1, "encoded_domain", (3, "encoded_domain", None)),
                ("test", (1, None, None), (3, None, None), True),
                ("adjacent", 0, "craft_and_perform", IN, 1),
                ("has_edge", 0, "motivated_by", 4),
                ("adjacent", 5, "attack", OUT, 0),
                ("adjacent", 6, "attack", OUT, 2),
                ("has_edge", 5, "same_affiliation", 6),
            ), 7, (2, 4))),
            ("attack", Plan((
                ("adjacent", 1, "craft_and_perform", OUT, 0),
                ("lookup", 3, "encoded_domain", (1, "encoded_domain", None)),
                ("test", (1, None, None), (3, None, None), True),
                ("adjacent", 2, "craft_and_perform", IN, 3),
                ("adjacent", 4, "motivated_by", OUT, 0),
                ("has_edge", 2, "motivated_by", 4),
                ("adjacent", 6, "attack", OUT, 2),
                ("has_edge", 5, "same_affiliation", 6),
            ), 7, (0, 5))),
            ("attack", Plan((
                ("adjacent", 3, "craft_and_perform", OUT, 2),
                ("lookup", 1, "encoded_domain", (3, "encoded_domain", None)),
                ("test", (1, None, None), (3, None, None), True),
                ("adjacent", 0, "craft_and_perform", IN, 1),
                ("adjacent", 4, "motivated_by", OUT, 0),
                ("has_edge", 2, "motivated_by", 4),
                ("adjacent", 5, "attack", OUT, 0),
                ("has_edge", 5, "same_affiliation", 6),
            ), 7, (2, 6))),
            ("same_affiliation", Plan((
                ("adjacent", 0, "attack", IN, 5),
                ("adjacent", 1, "craft_and_perform", OUT, 0),
                ("lookup", 3, "encoded_domain", (1, "encoded_domain", None)),
                ("test", (1, None, None), (3, None, None), True),
                ("adjacent", 2, "craft_and_perform", IN, 3),
                ("has_edge", 2, "attack", 6),
                ("adjacent", 4, "motivated_by", OUT, 0),
                ("has_edge", 2, "motivated_by", 4),
            ), 7, (5, 6))),
        ],
    ),
    "R7": (
        (2, "in_the_same_organization", 3),
        Plan((
            ("nodes", 0, "same_origin_attack"),
            ("adjacent", 1, "same_origin_attack", OUT, 0),
            ("adjacent", 2, "craft_and_perform", IN, 0),
            ("adjacent", 3, "craft_and_perform", IN, 1),
            ("test", (2, None, None), (3, None, None), True),
        ), 4, ()),
        [
            ("same_origin_attack", Plan((
                ("adjacent", 2, "craft_and_perform", IN, 0),
                ("adjacent", 3, "craft_and_perform", IN, 1),
                ("test", (2, None, None), (3, None, None), True),
            ), 4, (0, 1))),
            ("craft_and_perform", Plan((
                ("adjacent", 1, "same_origin_attack", OUT, 0),
                ("adjacent", 3, "craft_and_perform", IN, 1),
                ("test", (2, None, None), (3, None, None), True),
            ), 4, (2, 0))),
            ("craft_and_perform", Plan((
                ("adjacent", 0, "same_origin_attack", IN, 1),
                ("adjacent", 2, "craft_and_perform", IN, 0),
                ("test", (2, None, None), (3, None, None), True),
            ), 4, (3, 1))),
        ],
    ),
}


def test_builtin_plans_pinned():
    compile_rule = inference._compile
    compiled = {name: rest for name, *rest in map(compile_rule, builtin_ruleset())}
    assert compiled == {name: list(plans) for name, plans in BUILTIN_PLANS.items()}
    labels = Counter(name for name, *_ in inference._AXIOMS)
    assert labels == {"R3": 4, "R2": 12}
    # One R3 per row with a subproperty axiom, then one R2 per row with an
    # inverse, in the schema table's row order.
    heads = [(name, relation) for name, (_, relation, _), *_ in inference._AXIOMS]
    assert heads == [
        *(("R3", r.subproperty_of) for r in RELATION_ROWS if r.subproperty_of),
        *(("R2", r.inverse_of) for r in RELATION_ROWS if r.inverse_of),
    ]


def concept_steps(plan: Plan) -> list[tuple]:
    """The steps of ``plan`` that look up or test a node's concept."""
    return [
        step
        for step in plan.steps
        if step[0] == "lookup" and step[2] == "concept"
        or step[0] == "test" and "concept" in (step[1][1], step[2][1])
    ]


def test_head_tests_only_where_the_body_leaves_a_type_open():
    # Per-atom rows are edges the schema typed, and an axiom's atom types
    # both head variables, so no delta plan and no axiom plan checks a
    # concept; R5's body types neither variable and alone gets the tests.
    compiled = [*map(inference._compile, builtin_ruleset()), *inference._AXIOMS]
    for name, _, plan, per_atom in compiled:
        assert (concept_steps(plan) != []) == (name == "R5"), name
        assert all(concept_steps(rest) == [] for _, rest in per_atom), name
    # Labels that agree with the head type it as well: no test is added,
    # so the plan runs R5's steps, the label tests first.
    r5 = inference._compile(builtin_ruleset()[2])
    labelled = Rule(
        "X",
        "same_affiliation",
        "MATCH (v1:Victim), (v2:AttackTarget)"
        " WHERE v1.affiliation = v2.affiliation AND v1 <> v2 RETURN v1, v2",
    )
    assert Counter(inference._compile(labelled)[2].steps) == Counter(r5[2].steps)
    # A synonym in a constraint or a WHERE literal types its variable as a
    # label does, so it agrees with the head instead of contradicting it.
    synonyms = Rule(
        "X",
        "same_affiliation",
        'MATCH (v1 {concept="Victim"}), (v2) WHERE v2.concept = "Victim"'
        " AND v1.affiliation = v2.affiliation AND v1 <> v2 RETURN v1, v2",
    )
    assert inference._compile(synonyms)[2] == inference._compile(labelled)[2]
    # Without the body's <>, the head's same concept on both ends adds it.
    loopy = Rule(
        "X", "same_affiliation", "MATCH (x), (y) WHERE x.affiliation = y.affiliation RETURN x, y"
    )
    apart = ("test", (0, None, None), (1, None, None), True)
    assert apart in inference._compile(loopy)[2].steps


# -- canonical dataset ------------------------------------------------------


def test_canonical_inference_counts(load_result):
    g = thaw(load_result.graph)
    result = run_inference(g)
    assert len(result.added) == 66
    assert result.iterations == 2
    assert result.fired == {"R1": 15, "R2": 43, "R3": 2, "R5": 2, "R6": 2, "R7": 2}
    assert g.edge_count == 602 + 66


def test_canonical_attack_edges(graph):
    attacks = graph.edges("attack")
    assert len(attacks) == 15
    assert all(e.provenance == "inferred:R1" for e in attacks)
    assert graph.edges("same_attack_organization") == ()


def test_canonical_same_origin_edges(graph):
    for src, rel, dst, rule in (
        ("victim10", "same_affiliation", "victim15", "R5"),
        ("phishing10", "same_origin_attack", "whaling15", "R6"),
        ("attacker10", "in_the_same_organization", "attacker15", "R7"),
    ):
        assert find_edge(graph, src, rel, dst).provenance == f"inferred:{rule}"
        assert find_edge(graph, dst, rel, src).provenance == f"inferred:{rule}"


def test_canonical_idempotent(load_result):
    g = thaw(load_result.graph)
    run_inference(g)
    again = run_inference(g)
    assert again.added == []


# -- random property suite ----------------------------------------------------


def test_random_graphs_properties():
    for seed in range(100):
        g = random_conformant_graph(seed)
        before = set(e.key() for e in g.edges())
        first = run_inference(g)
        after_first = set(e.key() for e in g.edges())

        # monotone: nothing asserted was lost
        assert before <= after_first, f"seed {seed}"
        # idempotent: a second run adds nothing
        second = run_inference(g)
        assert second.added == [], f"seed {seed}"
        assert set(e.key() for e in g.edges()) == after_first, f"seed {seed}"
        # symmetric derived relations are always bidirectional
        for rel in SYMMETRIC_DERIVED:
            for e in g.edges(rel):
                assert g.has_edge(e.dst, rel, e.src), f"seed {seed}: {e}"
        # every inferred edge is schema-conformant and loop-free
        for e in g.edges():
            if e.is_inferred:
                assert e.src != e.dst, f"seed {seed}: {e}"
                assert check_edge_conformance(
                    g.node(e.src).concept, e.relation, g.node(e.dst).concept
                ) is None, f"seed {seed}: {e}"
        assert first.iterations < 1000


def test_matches_naive_fixpoint_reference(load_result):
    rules = builtin_ruleset()
    graphs = [load_result.graph] + [random_conformant_graph(s) for s in range(100)]
    graphs += [stray_affiliations(s) for s in range(100)]
    for i, source in enumerate(graphs):
        expected = reference_fixpoint(source, rules)
        g = thaw(source)
        run_rules(g, rules)
        assert {e.key() for e in g.edges()} == expected, f"graph {i}"


@pytest.mark.parametrize("k", [2, 3, 4])
def test_crosslinked_copies_match_naive_fixpoint_reference(asserted_graph, k):
    # On k plain copies R4 never fires; each cross-copy link makes it fire
    # twice, so the engine's R4 joins run on a corpus of the benchmark's kind.
    g = crosslinked_graph(asserted_graph, k)
    expected = reference_fixpoint(g, builtin_ruleset())
    result = run_inference(g)
    assert {e.key() for e in g.edges()} == expected
    assert result.fired["R4"] == 2 * (k - 1)


def test_needed_relation_gets_exactly_a_full_runs_edges(asserted_graph):
    # run_inference(g, {r}) runs only the rules and axioms that can write r;
    # r must end with the edges of a full run, each labelled with the same
    # rule, and with the naive fixpoint's edge keys.
    graphs = [
        asserted_graph,
        replicated_graph(asserted_graph, 4),
        crosslinked_graph(asserted_graph, 3),
    ]
    graphs += [random_conformant_graph(seed) for seed in range(100)]
    for i, source in enumerate(graphs):
        full = thaw(source)
        run_inference(full)
        expected = reference_fixpoint(source, builtin_ruleset())
        for rel in RELATION_ROWS:
            g = thaw(source)
            run_inference(g, {rel.name})
            assert g.edges(rel.name) == full.edges(rel.name), f"graph {i}: {rel.name}"
            keys = {key for key in expected if key[1] == rel.name}
            assert {e.key() for e in g.edges(rel.name)} == keys, f"graph {i}: {rel.name}"


def test_needs_names_resolve_through_the_relation_table(asserted_graph):
    # An alias reads its stored relation; an unknown name fails loudly;
    # needing nothing derivable adds nothing.
    g, h = thaw(asserted_graph), thaw(asserted_graph)
    assert run_inference(g, ["exploited_by", "conduct"]).added == []
    assert run_inference(h, ["suffer"]).fired == {"R2": 21}
    with pytest.raises(SchemaError, match="unknown relation: 'no_such'"):
        run_inference(thaw(asserted_graph), ["no_such"])


def test_derivable_is_what_the_rules_and_axioms_write():
    heads = {head[1] for _, head, _, _ in inference._AXIOMS}
    heads |= {inference._compile(rule)[1][1] for rule in builtin_ruleset()}
    assert DERIVABLE == heads
    assert {"attack", "motivated_by", "suffer"} <= DERIVABLE
    assert not {"craft_and_perform", "to_exploit", "have_vul"} & DERIVABLE


def test_closure_matches_reference_with_provenance(asserted_graph):
    graphs = [asserted_graph, replicated_graph(asserted_graph, 4)]
    graphs += [random_conformant_graph(seed) for seed in range(100)]
    for i, g in enumerate(graphs):
        got, want = thaw(g), thaw(g)
        added = sorted(axiom_closure(got).added, key=Edge.key)
        assert added == sorted(reference_closure(want), key=Edge.key), f"graph {i}"
        assert got.edges() == want.edges(), f"graph {i}"


def test_provenance_independent_of_node_ids(load_result):
    # Relabel every node so that ids sort in reverse; each edge must still
    # get the same rule label, whatever order the engine visits nodes in.
    graphs = [load_result.graph] + [random_conformant_graph(s) for s in range(100)]
    for i, source in enumerate(graphs):
        ids = sorted(source.node_ids())
        rename = {old: f"n{len(ids) - k:04d}" for k, old in enumerate(ids)}
        back = {new: old for old, new in rename.items()}
        g, h = thaw(source), thaw(source, rename)
        run_inference(g)
        run_inference(h)
        want = {(e.src, e.relation, e.dst, e.rule) for e in g.edges()}
        got = {(back[e.src], e.relation, back[e.dst], e.rule) for e in h.edges()}
        assert got == want, f"graph {i}"


def test_later_rule_feeds_earlier_rule(load_result):
    # Reversed, R7 reads R6's head and R6 reads R1's and R5's, so each rule
    # must pick up what later rules emitted in the round before.
    # L has a self-loop body atom, whose per-atom plan takes one input. No
    # relation admits a self-loop, so L never fires, but it must compile.
    loop = Rule(
        "L",
        "in_the_same_organization",
        "MATCH (a)-[:same_attack_organization]->(a)-[:same_attack_organization]->(b)"
        " RETURN a, b",
    )
    rules = tuple(reversed(builtin_ruleset())) + (loop,)
    graphs = [load_result.graph] + [random_conformant_graph(s) for s in range(100)]
    for i, source in enumerate(graphs):
        expected = reference_fixpoint(source, rules)
        g = thaw(source)
        result = run_rules(g, rules)
        assert "L" not in result.fired, f"graph {i}"
        assert {e.key() for e in g.edges()} == expected, f"graph {i}"
        if i == 0:
            # R1 and R5 in round 1, R6 in round 2, R7 in round 3
            assert result.iterations == 4
            assert result.fired["R7"] == 2


def spreading_chain(n: int) -> tuple[KnowledgeGraph, Rule]:
    """``n`` attackers in a same_attack_organization chain, the first with
    a method applied to ``v``, and a rule that spreads attack on ``v`` one
    hop along the chain per round."""
    g = KnowledgeGraph()
    g.register_scenario(1, "t")
    g.add_node(Node("v", "AttackTarget", 1))
    for i in range(n):
        g.add_node(Node(f"x{i}", "Attacker", 1))
        if i:
            g.add_edge(f"x{i - 1}", "same_attack_organization", f"x{i}")
    g.add_edge("x0", "craft_and_perform", g.add_node(Node("m", "AttackMethod", 1)).id)
    g.add_edge("m", "apply_to", "v")
    spread = Rule(
        "S",
        "attack",
        "MATCH (a)-[:attack]->(v), (a)-[:same_attack_organization]->(b) RETURN b, v",
    )
    return g, spread


def test_rule_feeds_itself():
    # attack spreads along same_attack_organization one hop per round, so
    # the rule must join its own emissions of the round before
    g, spread = spreading_chain(6)
    rules = (spread,) + builtin_ruleset()
    expected = reference_fixpoint(g, rules)
    result = run_rules(g, rules)
    assert {e.key() for e in g.edges()} == expected
    assert {e.src for e in g.edges("attack")} == {f"x{i}" for i in range(6)}
    # R1 in round 1, then one hop per round, then an empty round
    assert result.fired["S"] == 5
    assert result.iterations == 7


def test_run_inference_closes_once(monkeypatch):
    # The closure is a traced layer of its own: run_inference must reach it
    # through inference.axiom_closure, once.
    # With needs, it gets the relations the kept rules read.
    calls = []

    def counted(graph, needs=None):
        calls.append((graph, needs))
        return axiom_closure(graph, needs)

    monkeypatch.setattr(inference, "axiom_closure", counted)
    g = chain_fixture()
    run_inference(g)
    assert calls == [(g, None)]
    calls.clear()
    g = chain_fixture()
    run_inference(g, ["attack"])
    assert calls == [(g, {"attack", "craft_and_perform", "apply_to", "suffer"})]


def test_run_rules_closes_unclosed_graph_first():
    # suffer is only the closure of apply_to, so a body reading it matches
    # in round 1 only if run_rules closes the graph before the first join
    g = chain_fixture()
    rule = Rule(
        "X", "attack", "MATCH (a)-[:craft_and_perform]->(am)<-[:suffer]-(v) RETURN a, v"
    )
    result = run_rules(g, [rule])
    assert result.fired == {"R2": 1, "X": 1}
    assert result.added[0] == find_edge(g, "v", "suffer", "m")
    assert result.iterations == 2
    # no rules at all: one round that closes the asserted edges
    g = chain_fixture()
    assert run_rules(g, []).iterations == 1
    assert find_edge(g, "v", "suffer", "m").rule == "R2"


def method_calls(monkeypatch, cls, names, fn) -> int:
    """Calls to the methods ``names`` of ``cls`` made by ``fn()``."""
    calls: Counter = Counter()
    for name in names:

        def counted(self, *args, _name=name, _fn=getattr(cls, name), **kw):
            calls[_name] += 1
            return _fn(self, *args, **kw)

        monkeypatch.setattr(cls, name, counted)
    fn()
    monkeypatch.undo()
    return sum(calls.values())


def graph_reads(monkeypatch, fn) -> int:
    """``KnowledgeGraph.adjacency`` plus ``has_edge`` calls made by ``fn()``:
    the join's adjacency reads and its edge-membership checks."""
    return method_calls(monkeypatch, KnowledgeGraph, ("adjacency", "has_edge"), fn)


def transitive_chain() -> tuple[KnowledgeGraph, Rule]:
    """24 attackers in a same_attack_organization chain, and a rule closing
    it transitively (6 rounds to fixpoint)."""
    chain = KnowledgeGraph()
    chain.register_scenario(1, "t")
    for i in range(24):
        chain.add_node(Node(f"x{i}", "Attacker", 1))
        if i:
            chain.add_edge(f"x{i - 1}", "same_attack_organization", f"x{i}")
    transitive = Rule(
        "T",
        "same_attack_organization",
        "MATCH (a)-[:same_attack_organization]->(b)-[:same_attack_organization]->(c)"
        " WHERE a <> c RETURN a, c",
    )
    return chain, transitive


def test_semi_naive_graph_read_counts(load_result, monkeypatch):
    # Counted, not timed. On the bundled corpus the engine makes 240 reads
    # (93 adjacency, 147 has_edge): its second round joins only each rule's
    # own delta. The 16 extra adjacency reads are the axiom rules' full
    # joins in the closure, which a separate closure pass made as 224 reads.
    # Counted as neighbors plus has_edge calls, before the join read
    # adjacency directly, that was 220; seeding that round from all of the
    # first round's edges made 454, re-running every join 344, and the
    # earlier engine, which re-enumerated every body each round, 975.
    g = thaw(load_result.graph)
    assert graph_reads(monkeypatch, lambda: run_inference(g)) < 245
    # A transitive rule over a chain of 24 attackers takes 6 rounds: seeding
    # each join from the edges added since that rule last ran makes 16235
    # reads (16219 with a separate closure pass, 16218 as neighbors plus
    # has_edge), re-running every join over the whole graph would make 29608.
    chain, transitive = transitive_chain()
    assert graph_reads(monkeypatch, lambda: run_rules(chain, [transitive])) < 22000
    assert chain.edge_count == 24 * 23


def test_long_chain_reaches_its_fixpoint():
    # One hop per round over 1100 attackers: R1 in round 1, 1099 hops, then
    # an empty round. Every round but the last adds an edge, so the run ends
    # on any finite graph without a cap on its rounds.
    g, spread = spreading_chain(1100)
    result = run_rules(g, (spread,) + builtin_ruleset())
    assert result.fired["S"] == 1099
    assert result.iterations == 1101
    assert {e.src for e in g.edges("attack")} == {f"x{i}" for i in range(1100)}


def stray_affiliations(seed: int) -> KnowledgeGraph:
    """``random_conformant_graph(seed)`` with an affiliation on about half of
    its attackers and methods too. R5's body, untyped, then pairs nodes
    that same_affiliation does not admit."""
    rng = random.Random(seed)
    source = random_conformant_graph(seed)
    g = KnowledgeGraph()
    for sid, attack_type in source.scenarios.items():
        g.register_scenario(sid, attack_type)
    for node in source.nodes():
        if node.concept in ("Attacker", "AttackMethod") and rng.random() < 0.5:
            stray = {**node.properties, "affiliation": rng.choice(AFFILIATIONS)}
            node = node._replace(properties=stray)
        g.add_node(node)
    for e in source.edges():
        g.add_edge(e.src, e.relation, e.dst)
    return g


def refusals(monkeypatch, graph: KnowledgeGraph) -> int:
    """``GraphError``s that ``KnowledgeGraph.add_edge`` raises while
    ``run_inference(graph)`` runs."""
    raised = []
    add_edge = KnowledgeGraph.add_edge

    def spy(self, *args, **kw):
        try:
            return add_edge(self, *args, **kw)
        except GraphError as error:
            raised.append(error)
            raise

    monkeypatch.setattr(KnowledgeGraph, "add_edge", spy)
    run_inference(graph)
    monkeypatch.undo()
    return len(raised)


def test_no_rule_head_is_refused(load_result, asserted_graph, monkeypatch):
    # An attacker with a target's affiliation: R5's untyped body pairs it
    # with both targets, 4 rows that add_edge would refuse.
    stray = KnowledgeGraph()
    stray.register_scenario(1, "t")
    for node_id, concept in (("a", "Attacker"), ("v1", "AttackTarget"), ("v2", "AttackTarget")):
        stray.add_node(Node(node_id, concept, 1, properties={"affiliation": "Acme"}))
    graphs = [stray, thaw(load_result.graph), replicated_graph(asserted_graph, 4)]
    graphs += [random_conformant_graph(seed) for seed in range(100)]
    graphs += [stray_affiliations(seed) for seed in range(100)]
    for i, g in enumerate(graphs):
        assert refusals(monkeypatch, g) == 0, f"graph {i}"
    assert stray.edges("same_affiliation") == (
        find_edge(stray, "v1", "same_affiliation", "v2"),
        find_edge(stray, "v2", "same_affiliation", "v1"),
    )

