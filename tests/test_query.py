import gc
import random
import re

import pytest
from conftest import random_conformant_graph, reference_eval, thaw
from hypothesis import given, settings
from hypothesis import strategies as st

from sekg.errors import QueryParseError, SekgError
from sekg.graph import Direction, KnowledgeGraph, Node
from sekg.inference import run_inference
from sekg.query import (
    _TOKEN_RE,
    KEYWORDS,
    Condition,
    Conjunction,
    Operand,
    Plan,
    ReturnItem,
    evaluate_query,
    match,
    parse_query,
    run_query,
    tokenize,
)


def fixture_graph() -> KnowledgeGraph:
    g = KnowledgeGraph()
    g.register_scenario(1, "t1")
    g.register_scenario(2, "t2")
    g.add_node(Node("a1", "Attacker", 1))
    g.add_node(Node("a2", "Attacker", 2))
    g.add_node(Node("m1", "AttackMethod", 1, properties={"kind": "phishing"}))
    g.add_node(Node("m2", "AttackMethod", 2, properties={"kind": "baiting"}))
    g.add_node(Node("v1", "AttackTarget", 1, properties={"affiliation": "Acme"}))
    g.add_node(Node("v2", "AttackTarget", 2, properties={"affiliation": "Acme"}))
    g.add_node(Node("greed", "HumanVulnerability"))
    g.add_node(Node("fear", "HumanVulnerability"))
    g.add_edge("a1", "craft_and_perform", "m1")
    g.add_edge("a2", "craft_and_perform", "m2")
    g.add_edge("m1", "apply_to", "v1")
    g.add_edge("m2", "apply_to", "v2")
    g.add_edge("m1", "to_exploit", "greed")
    g.add_edge("m2", "to_exploit", "greed")
    g.add_edge("m2", "to_exploit", "fear")
    g.add_edge("v1", "have_vul", "greed")
    g.add_edge("v2", "have_vul", "fear")
    run_inference(g)
    return g.freeze()


# -- parsing ------------------------------------------------------------------


def test_tokenizer_composites():
    kinds = [t.kind for t in tokenize('(a)-[:r]->(b)<-[:s]-(c) <> "x"')]
    assert kinds == [
        "(", "IDENT", ")", "-[", ":", "IDENT", "]->",
        "(", "IDENT", ")", "<-[", ":", "IDENT", "]-",
        "(", "IDENT", ")", "<>", "STRING", "EOF",
    ]


def test_tokenizer_string_escapes():
    tok = tokenize('"a\\"b\\\\c"')[0]
    assert tok.kind == "STRING"
    assert tok.text == 'a"b\\c'


def has(variable, key, value):
    """The test a node pattern's concept or ``{key="value"}`` becomes."""
    return Condition(Operand(variable, key, None), "=", Operand(None, None, value))


def test_parse_full_query():
    q = parse_query(
        'MATCH (a:Attacker)-[:craft_and_perform]->(m {kind="phishing"}), '
        "(m)-[:apply_to]->(v) "
        'WHERE a.scenario_id <> v.scenario_id AND v.affiliation = "Acme" '
        "RETURN DISTINCT a, m.kind"
    )
    # m is repeated across the paths: one variable, atoms in edge order,
    # node tests (concept first) before the WHERE conditions
    assert q.body.variables == ("a", "m", "v")
    assert q.body.atoms == (("a", "craft_and_perform", "m"), ("m", "apply_to", "v"))
    assert q.body.tests == (
        has("a", "concept", "Attacker"),
        has("m", "kind", "phishing"),
        Condition(Operand("a", "scenario_id", None), "<>", Operand("v", "scenario_id", None)),
        has("v", "affiliation", "Acme"),
    )
    assert q.distinct
    assert q.returns == (ReturnItem("a"), ReturnItem("m", "kind"))
    assert [item.label for item in q.returns] == ["a", "m.kind"]


def test_parse_resolves_synonyms_and_aliases():
    q = parse_query('MATCH (v:Victim {id="v1"})<-[:attack]-(a) RETURN v')
    assert q.body == Conjunction(
        (("a", "attack", "v"),),
        (has("v", "concept", "AttackTarget"), has("v", "id", "v1")),
        ("v", "a"),
    )
    alias = parse_query("MATCH (a)-[:conduct]->(m) RETURN m")
    assert alias.body == Conjunction((("a", "craft_and_perform", "m"),), (), ("a", "m"))
    assert not alias.distinct


def test_exploited_by_swaps_direction():
    # exploited_by(h, m) is stored as to_exploit(m, h): the relation is
    # rewritten and the atom runs against the arrow
    swapped = parse_query("MATCH (h)-[:exploited_by]->(m) RETURN m, h")
    assert swapped.body == Conjunction((("m", "to_exploit", "h"),), (), ("h", "m"))
    double = parse_query("MATCH (m)<-[:exploited_by]-(h) RETURN m, h")
    assert double.body == Conjunction((("m", "to_exploit", "h"),), (), ("m", "h"))


def test_anonymous_nodes_get_unspellable_names():
    q = parse_query(
        "MATCH (m)-[:apply_to]->(v), "
        '()<-[:have_vul]-(w:Victim {affiliation="Acme", kind="x"}), (m)-[:to_exploit]->() '
        "RETURN DISTINCT v"
    )
    assert q.body.variables == ("m", "v", " anon2", "w", " anon4")
    assert q.body.atoms == (
        ("m", "apply_to", "v"),
        ("w", "have_vul", " anon2"),
        ("m", "to_exploit", " anon4"),
    )
    assert q.body.tests == (
        has("w", "concept", "AttackTarget"),
        has("w", "affiliation", "Acme"),
        has("w", "kind", "x"),
    )


OUT, IN = Direction.OUT, Direction.IN


@pytest.mark.parametrize(
    "text, steps",
    [
        (  # read-8x q_victims
            'MATCH (a:Attacker {id="attacker10"})-[:craft_and_perform]->(m)-[:to_exploit]->(h)'
            "<-[:have_vul]-(v:AttackTarget) WHERE a.scenario_id <> v.scenario_id RETURN DISTINCT v",
            (
                # craft_and_perform's domain types a, have_vul's domain v
                ("lookup", 0, "id", (None, None, "attacker10"), False),
                ("adjacent", 1, "craft_and_perform", OUT, 0),
                ("adjacent", 2, "to_exploit", OUT, 1),
                ("adjacent", 3, "have_vul", IN, 2),
                ("test", (0, "scenario_id", None), (3, "scenario_id", None), True, False),
            ),
        ),
        (  # read-8x q_quads
            'MATCH (a {id="attacker10"})-[:craft_and_perform]->(m)-[:to_exploit]->(h)'
            '<-[:have_vul]-(v {id="victim13"}) RETURN a, m, h, v',
            (
                ("lookup", 0, "id", (None, None, "attacker10"), False),
                ("lookup", 3, "id", (None, None, "victim13"), False),
                ("adjacent", 1, "craft_and_perform", OUT, 0),
                ("adjacent", 2, "to_exploit", OUT, 1),
                ("has_edge", 3, "have_vul", 2),
            ),
        ),
        (  # read-8x q_scenario
            'MATCH (n {scenario_id="10"}) RETURN n',
            (("lookup", 0, "scenario_id", (None, None, "10"), False),),
        ),
        (  # read-8x q_organization
            'MATCH (a {id="attacker10"})-[:in_the_same_organization]->(b)'
            "-[:craft_and_perform]->(m) RETURN DISTINCT b, m",
            (
                ("lookup", 0, "id", (None, None, "attacker10"), False),
                ("adjacent", 1, "in_the_same_organization", OUT, 0),
                ("adjacent", 2, "craft_and_perform", OUT, 1),
            ),
        ),
    ],
)
def test_read_benchmark_query_plans(text, steps):
    """The plans of the benchmark's read queries, step for step, so that a
    parser or planner change cannot reorder them unnoticed."""
    body = parse_query(text).body
    assert body.plan() == Plan(steps, len(body.variables), ())


def _concepts_checked(plan: Plan) -> list[str]:
    """The concepts a plan checks, by a test or a lookup step, in order."""
    out = []
    for step in plan.steps:
        if step[0] == "test" and step[1][1] == "concept":
            out.append(step[2][2])
        elif step[0] == "lookup" and step[2] == "concept":
            out.append(step[3][2])
    return out


@pytest.mark.parametrize(
    "text, kept, empty",
    [
        # have_vul's domain and range type both ends: both tests go
        ("MATCH (v:AttackTarget)-[:have_vul]->(h:HumanVulnerability) RETURN v, h", [], False),
        # no atom types v, so its test stays
        ("MATCH (v:AttackTarget) RETURN v", ["AttackTarget"], False),
        # the relation contradicts the concept: the test stays and fails
        ("MATCH (x:Attacker)-[:have_vul]->(h) RETURN x, h", ["Attacker"], True),
        ("MATCH (m)-[:apply_to]->(m2:AttackMethod) RETURN m", ["AttackMethod"], True),
        ("MATCH (v:Victim)<-[:apply_to]-(m:Attacker) RETURN v, m", ["Attacker"], True),
        # a swapped alias types its ends as its stored relation does
        ("MATCH (h:HumanVulnerability)-[:exploited_by]->(m:AttackMethod) RETURN m, h", [], False),
        # a WHERE concept test is the same test; a synonym literal is not
        ('MATCH (v)-[:have_vul]->(h) WHERE v.concept = "AttackTarget" RETURN v', [], False),
        ('MATCH (v)-[:have_vul]->(h) WHERE v.concept = "Victim" RETURN v', ["Victim"], True),
    ],
)
def test_planner_drops_only_implied_concept_tests(text, kept, empty):
    """A concept test goes from the plan only when an atom's relation
    implies it (its domain at the source, its range at the target); the
    rows stay those of the brute-force evaluator, which runs every test."""
    query = parse_query(text)
    for inputs in ((), query.body.variables[:1]):
        assert _concepts_checked(query.body.plan(inputs)) == kept
    for g in (fixture_graph(), random_conformant_graph(3)):
        got = [r.values for r in evaluate_query(query, g)]
        assert got == reference_eval(query, g)
        assert (got == []) == empty


@pytest.mark.parametrize(
    "text, offset, expected",
    [
        ("", 0, {"MATCH"}),
        ("match (a) RETURN a", 0, {"MATCH"}),
        ("MATCH a", 6, {"("}),
        ("MATCH (a RETURN a", 9, {")", ":", "{"}),
        ("MATCH (a:Bogus) RETURN a", 9, set()),
        ("MATCH (a)-[:fly_to]->(b) RETURN a", 12, set()),
        ("MATCH (a)-[:apply_to]->(b) RETURN c", 34, set()),
        ("MATCH (a) WHERE b = a RETURN a", 16, set()),
        ("MATCH (a) RETURN DISTINCT", 25, {"IDENT"}),
        ("MATCH (a) WHERE a.x RETURN a", 20, {"=", "<>"}),
        ('MATCH (a {k="v}) RETURN a', 12, {'"'}),
        ("MATCH (a)-(b) RETURN a", 9, set()),
        ("MATCH (a) RETURN a,", 19, {"IDENT"}),
        ("MATCH (a) RETURN a b", 19, {",", "EOF"}),
        ("MATCH (a)<-[:apply_to]->(b) RETURN a", 21, {"]-"}),
    ],
)
def test_parse_errors(text, offset, expected):
    with pytest.raises(QueryParseError) as err:
        parse_query(text)
    assert err.value.offset == offset
    assert err.value.expected == frozenset(expected)
    assert f"at offset {offset}" in str(err.value)


def test_error_message_lists_expected():
    with pytest.raises(QueryParseError, match=r"\(expected: \), :, \{\)"):
        parse_query("MATCH (a RETURN a")


# -- evaluation ---------------------------------------------------------------


def test_node_only_query():
    g = fixture_graph()
    rows = run_query("MATCH (a:Attacker) RETURN a", g)
    assert [r.values for r in rows] == [("a1",), ("a2",)]


def test_constraint_filtering():
    g = fixture_graph()
    rows = run_query('MATCH (m {kind="phishing"}) RETURN m', g)
    assert [r.as_dict() for r in rows] == [{"m": "m1"}]


def test_chain_and_reverse_edges():
    g = fixture_graph()
    forward = run_query(
        "MATCH (a:Attacker)-[:craft_and_perform]->(m)-[:apply_to]->(v) RETURN a, v", g
    )
    reverse = run_query(
        "MATCH (v)<-[:apply_to]-(m)<-[:craft_and_perform]-(a:Attacker) RETURN a, v", g
    )
    assert forward == reverse
    assert [r.values for r in forward] == [("a1", "v1"), ("a2", "v2")]


def test_homomorphism_and_inequality():
    g = fixture_graph()
    free = run_query("MATCH (x:Attacker), (y:Attacker) RETURN x, y", g)
    assert len(free) == 4  # x and y may bind the same node
    distinct = run_query(
        "MATCH (x:Attacker), (y:Attacker) WHERE x <> y RETURN x, y", g
    )
    assert [r.values for r in distinct] == [("a1", "a2"), ("a2", "a1")]


def test_self_loop_pattern_matches_nothing():
    g = fixture_graph()
    assert run_query("MATCH (x)-[:to_exploit]->(x) RETURN x", g) == []


def test_where_property_and_literal():
    g = fixture_graph()
    rows = run_query(
        'MATCH (v:AttackTarget) WHERE v.affiliation = "Acme" RETURN v', g
    )
    assert [r.values[0] for r in rows] == ["v1", "v2"]
    rows = run_query(
        "MATCH (v:AttackTarget), (w:AttackTarget) "
        "WHERE v.affiliation = w.affiliation AND v <> w RETURN v, w",
        g,
    )
    assert [r.values for r in rows] == [("v1", "v2"), ("v2", "v1")]


def test_missing_property_projects_empty():
    g = fixture_graph()
    rows = run_query("MATCH (h:HumanVulnerability) RETURN h, h.affiliation", g)
    assert [r.values for r in rows] == [("fear", ""), ("greed", "")]


def test_missing_property_equality():
    g = fixture_graph()
    # absent = absent holds; absent = "" does not (no value vs empty value)
    rows = run_query(
        "MATCH (g:HumanVulnerability), (h:HumanVulnerability) "
        "WHERE g.affiliation = h.affiliation RETURN g, h",
        g,
    )
    assert len(rows) == 4
    rows = run_query(
        'MATCH (h:HumanVulnerability) WHERE h.affiliation = "" RETURN h', g
    )
    assert rows == []


def test_distinct_dedups_sorted_rows():
    g = fixture_graph()
    dup = run_query("MATCH (m:AttackMethod)-[:to_exploit]->(h) RETURN h", g)
    assert [r.values[0] for r in dup] == ["fear", "greed", "greed"]
    ded = run_query("MATCH (m:AttackMethod)-[:to_exploit]->(h) RETURN DISTINCT h", g)
    assert [r.values[0] for r in ded] == ["fear", "greed"]


def test_derived_relation_queryable():
    g = fixture_graph()
    rows = run_query("MATCH (a)-[:attack]->(v) RETURN a, v", g)
    assert [r.values for r in rows] == [("a1", "v1"), ("a2", "v2")]


def test_anonymous_nodes_are_independent():
    g = fixture_graph()
    rows = run_query("MATCH ()-[:to_exploit]->(h) RETURN DISTINCT h", g)
    assert [r.values[0] for r in rows] == ["fear", "greed"]


def test_row_accessors():
    g = fixture_graph()
    row = run_query("MATCH (v {id=\"v1\"}) RETURN v, v.affiliation", g)[0]
    assert row.as_dict() == {"v": "v1", "v.affiliation": "Acme"}
    assert row.values == ("v1", "Acme")


# -- canonical dataset --------------------------------------------------------


def test_company_a_lookup(graph):
    rows = run_query(
        'MATCH (v:Victim {affiliation="Company A"}) RETURN v', graph
    )
    assert [r.values[0] for r in rows] == ["victim10", "victim15"]


def test_canonical_triple_chain(graph):
    rows = run_query(
        "MATCH (a:Attacker)-[:craft_and_perform]->(m)-[:to_exploit]->(h)"
        "<-[:have_vul]-(v:AttackTarget) RETURN DISTINCT a, m, v",
        graph,
    )
    assert len(rows) == 174  # every labeled triple has a vulnerability witness
    direct = run_query(
        "MATCH (a:Attacker)-[:craft_and_perform]->(m)-[:apply_to]->(v) "
        "RETURN DISTINCT a, m, v",
        graph,
    )
    assert len(direct) == 21


def test_exploited_by_equivalence_canonical(graph):
    forward = run_query(
        "MATCH (m:AttackMethod)-[:to_exploit]->(h) RETURN m, h", graph
    )
    swapped = run_query(
        "MATCH (h)-[:exploited_by]->(m:AttackMethod) RETURN m, h", graph
    )
    assert forward == swapped
    assert len(forward) == 89


def test_joins_leave_no_reference_cycles(load_result):
    g = thaw(load_result.graph)
    query = parse_query(
        "MATCH (a:Attacker)-[:craft_and_perform]->(m)-[:to_exploit]->(h)"
        '<-[:have_vul]-(v:AttackTarget {affiliation="Company A"}) '
        "WHERE a.scenario_id <> v.scenario_id RETURN DISTINCT a, v"
    )
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        run_inference(g)
        assert gc.collect() == 0
        assert evaluate_query(query, g)
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()



def test_match_refuses_a_row_of_the_wrong_width():
    g = fixture_graph()
    body = Conjunction((("a", "craft_and_perform", "m"),), (), ("a", "m"))
    pinned = body.plan(inputs=("a",))
    with pytest.raises(ValueError, match="inputs"):
        match(g, pinned)
    with pytest.raises(ValueError, match="inputs"):
        match(g, pinned, [("a1", "m1")])
    with pytest.raises(ValueError, match="inputs"):
        match(g, body.plan(), [("a1",)])
    assert match(g, pinned, []) == []
    assert match(g, body.plan(), []) == []
    assert match(g, pinned, [("a1",)]) == [("a1", "m1")]
    both = body.plan(inputs=("a", "m"))
    assert match(g, both, [("a2", "m2"), ("a1", "m2")]) == [("a2", "m2")]
    with pytest.raises(ValueError, match="variables"):
        body.plan(inputs=("x",))


def test_strict_test_step_never_matches_an_absent_property():
    # Both sides come in as inputs, so the = runs as a test step, not a
    # lookup; strict (as in a rule body) refuses absent = absent.
    g = KnowledgeGraph()
    g.register_scenario(1, "t")
    for v in ("v1", "v2"):
        g.add_node(Node(v, "AttackTarget", 1))
    for v in ("v3", "v4"):
        g.add_node(Node(v, "AttackTarget", 1, properties={"affiliation": "Acme"}))
    body = parse_query("MATCH (x), (y) WHERE x.affiliation = y.affiliation RETURN x").body
    rows = [("v1", "v2"), ("v1", "v3"), ("v3", "v4")]
    cases = ((False, [("v1", "v2"), ("v3", "v4")]), (True, [("v3", "v4")]))
    for strict, expected in cases:
        tests = tuple(t._replace(strict=strict) for t in body.tests)
        plan = body._replace(tests=tests).plan(inputs=("x", "y"))
        assert [step[0] for step in plan.steps] == ["test"]
        assert match(g, plan, rows) == expected


CHAIN = Conjunction(
    (("a", "craft_and_perform", "m"), ("m", "to_exploit", "h"), ("v", "have_vul", "h")),
    (),
    ("a", "m", "h", "v"),
)


@pytest.mark.parametrize("seed", [None, *range(100)])
def test_pinned_plan_runs_once_per_row(graph, seed):
    """A plan pinned on the attacker, run over several rows, returns the
    single-row runs one after another; run over every attacker, it returns
    the unpinned plan's rows. Runs on the bundled graph (seed None) and on
    random graphs."""
    if seed is not None:
        graph = random_conformant_graph(seed)
    pinned = CHAIN.plan(inputs=("a",))
    attackers = [n.id for n in graph.nodes_by_concept("Attacker")]
    rows = [(a,) for a in reversed(attackers)] + [(a,) for a in attackers[:1]]
    assert match(graph, pinned, rows) == [
        chain for row in rows for chain in match(graph, pinned, [row])
    ]
    everyone = match(graph, pinned, [(a,) for a in attackers])
    assert sorted(everyone) == sorted(match(graph, CHAIN.plan()))


def test_property_lookups_follow_node_writes():
    """The graph's property index never serves a stale group: not after
    ``add_node``, and not to a copy or a scenario subgraph."""
    g = KnowledgeGraph()
    g.register_scenario(1, "t1")
    g.register_scenario(2, "t2")
    g.add_node(Node("v1", "AttackTarget", 1, properties={"affiliation": "Acme"}))
    query = parse_query('MATCH (v {affiliation="Acme"}) RETURN v')

    def rows(graph):
        got = [r.values for r in evaluate_query(query, graph)]
        assert got == reference_eval(query, graph)
        return got

    assert rows(g) == [("v1",)]
    g.add_node(Node("v2", "AttackTarget", 2, properties={"affiliation": "Acme"}))
    assert rows(g) == [("v1",), ("v2",)]
    dup = thaw(g)
    dup.add_node(Node("v3", "AttackTarget", 1, properties={"affiliation": "Acme"}))
    assert rows(dup) == [("v1",), ("v2",), ("v3",)]
    assert rows(g) == [("v1",), ("v2",)]
    assert rows(g.scenario_subgraph(2)) == [("v2",)]


def test_property_tests_follow_node_writes():
    """A WHERE test reads the graph's property values, which are dropped
    when a node is added, like the property index."""
    g = KnowledgeGraph()
    g.register_scenario(1, "t1")
    g.add_node(Node("v1", "AttackTarget", 1, properties={"affiliation": "Acme"}))
    query = parse_query('MATCH (v) WHERE v.affiliation <> "Other" RETURN v.affiliation')
    assert [step[0] for step in query.body.plan().steps] == ["nodes", "test"]
    assert [r.values for r in evaluate_query(query, g)] == [("Acme",)]
    g.add_node(Node("v2", "AttackTarget", 1, properties={"affiliation": "Other"}))
    g.add_node(Node("v3", "AttackTarget", 1))
    got = [r.values for r in evaluate_query(query, g)]
    assert got == reference_eval(query, g) == [("",), ("Acme",)]


def test_property_columns_follow_node_writes():
    """A RETURN ``v.key`` column reads the graph's property values, which
    are dropped when a node is added: a new node's value shows, and a node
    without the property projects ``""``."""
    g = KnowledgeGraph()
    g.register_scenario(1, "t1")
    g.add_node(Node("m1", "AttackMethod", 1))
    g.add_node(Node("v1", "AttackTarget", 1, properties={"affiliation": "Acme"}))
    g.add_edge("m1", "apply_to", "v1")
    query = parse_query("MATCH (m)-[:apply_to]->(v) RETURN v, v.affiliation")

    def rows():
        got = [r.values for r in evaluate_query(query, g)]
        assert got == reference_eval(query, g)
        return got

    assert rows() == [("v1", "Acme")]
    g.add_node(Node("v2", "AttackTarget", 1, properties={"affiliation": "Beta"}))
    g.add_edge("m1", "apply_to", "v2")
    assert rows() == [("v1", "Acme"), ("v2", "Beta")]
    g.add_node(Node("v3", "AttackTarget", 1))
    g.add_edge("m1", "apply_to", "v3")
    assert rows() == [("v1", "Acme"), ("v2", "Beta"), ("v3", "")]


# -- brute-force equivalence ----------------------------------------------------


#: RETURN lists of pseudo-keys (a vocabulary node has no scenario_id) and of
#: a repeated variable, with and without DISTINCT.
RETURN_QUERIES = [
    "MATCH (n) RETURN n.id, n.concept, n.scenario_id",
    "MATCH (n) RETURN DISTINCT n.concept, n.scenario_id",
    "MATCH (a) RETURN a, a.id, a",
    "MATCH (a) RETURN DISTINCT a, a.id, a",
    "MATCH (m)-[:apply_to]->(v) RETURN v.affiliation, m.scenario_id, v",
    "MATCH (m)-[:apply_to]->(v) RETURN DISTINCT v.affiliation, m.scenario_id",
]

BRUTE_QUERIES = [*RETURN_QUERIES,
    "MATCH (a) RETURN a",
    "MATCH (a:Attacker) RETURN a",
    'MATCH (m {kind="phishing"}) RETURN m',
    "MATCH (a)-[:craft_and_perform]->(m) RETURN a, m",
    "MATCH (a)-[:craft_and_perform]->(m)-[:to_exploit]->(h) RETURN a, h",
    "MATCH (v)<-[:apply_to]-(m)-[:to_exploit]->(h)<-[:have_vul]-(w) "
    "WHERE v <> w RETURN DISTINCT m, w",
    "MATCH (x), (y) WHERE x.scenario_id = y.scenario_id AND x <> y RETURN x, y",
    "MATCH (a:Attacker)-[:attack]->(v) RETURN a, v.affiliation",
    "MATCH (m)-[:to_exploit]->(h), (v)-[:have_vul]->(h) RETURN DISTINCT m, v",
    "MATCH (x)-[:to_exploit]->(x) RETURN x",
    "MATCH ()-[:apply_to]->(v) RETURN DISTINCT v",
    'MATCH (v) WHERE v.affiliation = "Acme" RETURN v',
    'MATCH (v), (w) WHERE v.affiliation = w.affiliation RETURN v, w',
    "MATCH (h)<-[:exploited_by]-(m) RETURN m, h",
    "MATCH (a)-[:conduct]->(m) RETURN a, m",
    "MATCH (v:Victim) RETURN v, v.scenario_id",
    "MATCH (a)-[:craft_and_perform]->(m), (v)-[:have_vul]->(h) RETURN a, m, v, h",
    "MATCH (a)-[:craft_and_perform]->(m), (x) WHERE x.scenario_id = a.scenario_id "
    "RETURN DISTINCT m, x",
    'MATCH (a) WHERE "x" = "x" RETURN a',
    'MATCH (a) WHERE "x" <> "x" RETURN a',
    'MATCH (a {id="no-such-node"}) RETURN a',
    "MATCH (m)-[:to_exploit]->(h), (v)-[:have_vul]->(h), (m)-[:apply_to]->(v) "
    "RETURN m, h, v",
]


@pytest.mark.parametrize("text", BRUTE_QUERIES)
def test_evaluator_matches_brute_force(text):
    g = fixture_graph()
    assert g.node_count <= 30
    query = parse_query(text)
    got = [r.values for r in evaluate_query(query, g)]
    assert got == reference_eval(query, g)


@pytest.mark.parametrize("seed", range(100))
def test_return_items_match_brute_force_on_random_graphs(seed):
    g = random_conformant_graph(seed)
    for text in RETURN_QUERIES:
        query = parse_query(text)
        got = [r.values for r in evaluate_query(query, g)]
        assert got == reference_eval(query, g), text


def test_evaluator_matches_brute_force_on_random_graphs():
    # a second, randomly wired family of small graphs
    for seed in range(8):
        rng = random.Random(seed)
        g = KnowledgeGraph()
        g.register_scenario(1, "t")
        attackers = [f"a{i}" for i in range(rng.randint(1, 3))]
        methods = [f"m{i}" for i in range(rng.randint(1, 4))]
        victims = [f"v{i}" for i in range(rng.randint(1, 3))]
        vuls = [f"h{i}" for i in range(rng.randint(1, 4))]
        for a in attackers:
            g.add_node(Node(a, "Attacker", 1))
        for m in methods:
            props = {"kind": rng.choice(["phishing", "baiting"])}
            g.add_node(Node(m, "AttackMethod", 1, properties=props))
        for v in victims:
            g.add_node(Node(v, "AttackTarget", 1))
        for h in vuls:
            g.add_node(Node(h, "HumanVulnerability"))
        for a in attackers:
            for m in methods:
                if rng.random() < 0.5:
                    g.add_edge(a, "craft_and_perform", m)
        for m in methods:
            for v in victims:
                if rng.random() < 0.4:
                    g.add_edge(m, "apply_to", v)
            for h in vuls:
                if rng.random() < 0.4:
                    g.add_edge(m, "to_exploit", h)
        for v in victims:
            for h in vuls:
                if rng.random() < 0.4:
                    g.add_edge(v, "have_vul", h)
        run_inference(g)
        g.freeze()
        assert g.node_count <= 30
        for text in BRUTE_QUERIES:
            query = parse_query(text)
            got = [r.values for r in evaluate_query(query, g)]
            assert got == reference_eval(query, g), f"seed {seed}: {text}"


# -- fuzzing ------------------------------------------------------------------

FRAGMENTS = [
    "MATCH", "WHERE", "AND", "RETURN", "DISTINCT", "(", ")", "{", "}",
    "-[", "]->", "<-[", "]-", ":", ",", ".", "=", "<>", '"x"', '"', "\\",
    "a", "v", "Attacker", "apply_to", "attack", "kind", " ", "  ",
]


def test_fuzzed_inputs_parse_or_raise_cleanly():
    rng = random.Random(20240816)
    for _ in range(400):
        text = "".join(rng.choice(FRAGMENTS) for _ in range(rng.randint(1, 25)))
        try:
            parse_query(text)
        except QueryParseError:
            pass  # the only acceptable failure mode


def test_fuzzed_character_soup():
    rng = random.Random(99)
    alphabet = 'MATCHRETURN(){}[]<>-:,."\\= abz_09'
    for _ in range(400):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 60)))
        try:
            parse_query(text)
        except QueryParseError:
            pass


def _scan_stepwise(text: str) -> list[tuple[str, str, int]]:
    """The tokens one anchored match at a time, as (kind, text, offset);
    an error is returned as ("error", message, offset)."""
    tokens, end = [], 0
    while True:
        m = _TOKEN_RE.match(text, end)
        group, end = m.lastindex, m.end()
        word, offset = m.group(group), m.start(group)
        if group == 1:
            tokens.append((word, word, offset))
        elif group == 2:
            tokens.append(("STRING", re.sub(r"\\(.)", r"\1", word[1:-1], flags=re.S), offset))
        elif group == 3:
            tokens.append((word if word in KEYWORDS else "IDENT", word, offset))
        elif group == 4:
            return tokens + [("EOF", "", offset)]
        else:
            message = "unterminated string literal" if word == '"' else "unexpected character"
            return tokens + [("error", message, offset)]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.text(alphabet=list('MATCH(){}[]<>-:,."\\= az_9\t\n\u00e9#'), max_size=40))
def test_tokenize_matches_a_stepwise_scan(text):
    expected = _scan_stepwise(text)
    if expected[-1][0] != "error":
        assert [tuple(t) for t in tokenize(text)] == expected
        return
    with pytest.raises(QueryParseError) as err:
        tokenize(text)
    assert err.value.offset == expected[-1][2]
    assert expected[-1][1] in str(err.value)


FUZZ_GRAPH = fixture_graph()
IDENT_RE = re.compile(r"\b(?!MATCH\b|WHERE\b|AND\b|RETURN\b|DISTINCT\b)[A-Za-z_]\w*")
IDENTS = [
    "a", "m", "v", "x", "Attacker", "Victim", "Bogus", "apply_to",
    "exploited_by", "attack", "bogus_rel", "kind", "scenario_id", "id", "concept",
]


@st.composite
def mutated_query(draw) -> str:
    """One of ``BRUTE_QUERIES`` with one or two mutations.

    Positions and operations come from a seeded ``Random``. Inserted text is
    a query fragment or a short string drawn by Hypothesis; an ``ident``
    mutation swaps a name that is not a keyword for another, which often
    still parses, so evaluation runs too.
    """
    rng = draw(st.randoms(use_true_random=False))
    text = rng.choice(BRUTE_QUERIES)
    for _ in range(rng.choice((1, 1, 2))):
        op = rng.choice(("ident",) * 5 + ("insert", "cut", "word", "drop", "swap"))
        piece = rng.choice(FRAGMENTS) if rng.random() < 0.7 else draw(st.text(max_size=8))
        if op == "ident":
            found = rng.choice(list(IDENT_RE.finditer(text)))
            text = text[: found.start()] + rng.choice(IDENTS) + text[found.end():]
        elif op == "insert":
            col = rng.randint(0, len(text))
            text = text[:col] + piece + text[col:]
        elif op == "cut":
            a = rng.randint(0, len(text))
            text = text[:a] + text[rng.randint(a, len(text)):]
        else:
            words = text.split(" ")
            j, k = rng.randrange(len(words)), rng.randrange(len(words))
            if op == "word":
                words[j] = piece
            elif op == "drop":
                del words[j]
            else:
                words[j], words[k] = words[k], words[j]
            text = " ".join(words)
    return text


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(mutated_query())
def test_mutated_query_raises_only_package_errors(text):
    try:
        evaluate_query(parse_query(text), FUZZ_GRAPH)
    except SekgError:
        pass
