import gc
import io
import random
import re
from tokenize import STRING, generate_tokens

import pytest
from conftest import (
    random_conformant_graph,
    random_match_texts,
    reference_eval,
    reference_match,
    reference_plan,
    reference_project,
    replicated_graph,
    thaw,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from sekg.errors import QueryParseError, SekgError
from sekg.graph import Direction, KnowledgeGraph, Node
from sekg import inference, query
from sekg.inference import run_inference
from sekg.query import (
    _TOKEN_RE,
    KEYWORDS,
    BindingRow,
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
from sekg.schema import AXIOMS


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
                ("lookup", 0, "id", (None, None, "attacker10")),
                ("adjacent", 1, "craft_and_perform", OUT, 0),
                ("adjacent", 2, "to_exploit", OUT, 1),
                ("adjacent", 3, "have_vul", IN, 2),
                ("test", (0, "scenario_id", None), (3, "scenario_id", None), True),
            ),
        ),
        (  # read-8x q_quads
            'MATCH (a {id="attacker10"})-[:craft_and_perform]->(m)-[:to_exploit]->(h)'
            '<-[:have_vul]-(v {id="victim13"}) RETURN a, m, h, v',
            (
                ("lookup", 0, "id", (None, None, "attacker10")),
                ("lookup", 3, "id", (None, None, "victim13")),
                ("adjacent", 1, "craft_and_perform", OUT, 0),
                ("adjacent", 2, "to_exploit", OUT, 1),
                ("has_edge", 3, "have_vul", 2),
            ),
        ),
        (  # read-8x q_scenario
            'MATCH (n {scenario_id="10"}) RETURN n',
            (("lookup", 0, "scenario_id", (None, None, "10")),),
        ),
        (  # read-8x q_organization
            'MATCH (a {id="attacker10"})-[:in_the_same_organization]->(b)'
            "-[:craft_and_perform]->(m) RETURN DISTINCT b, m",
            (
                ("lookup", 0, "id", (None, None, "attacker10")),
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
    "text, kept, offset",
    [
        # have_vul's domain and range type both ends: both tests go
        ("MATCH (v:AttackTarget)-[:have_vul]->(h:HumanVulnerability) RETURN v, h", [], None),
        # no atom types v, so its test stays
        ("MATCH (v:AttackTarget) RETURN v", ["AttackTarget"], None),
        # the relation contradicts the concept: the parse fails at the
        # relation, which types both its ends once both are read
        ("MATCH (x:Attacker)-[:have_vul]->(h) RETURN x, h", None, 21),
        ("MATCH (m)-[:apply_to]->(m2:AttackMethod) RETURN m", None, 12),
        ("MATCH (v:Victim)<-[:apply_to]-(m:Attacker) RETURN v, m", None, 20),
        # a swapped alias types its ends as its stored relation does
        ("MATCH (h:HumanVulnerability)-[:exploited_by]->(m:AttackMethod) RETURN m, h", [], None),
        # a WHERE concept test is the same test, a synonym literal resolved
        ('MATCH (v)-[:have_vul]->(h) WHERE v.concept = "AttackTarget" RETURN v', [], None),
        ('MATCH (v)-[:have_vul]->(h) WHERE v.concept = "Victim" RETURN v', [], None),
    ],
)
def test_planner_drops_only_implied_concept_tests(text, kept, offset):
    """A concept test goes from the plan only when an atom's relation
    implies it (its domain at the source, its range at the target); the
    rows stay those of the brute-force evaluator, which runs every test.
    A concept the relation contradicts is a parse error."""
    if offset is not None:
        with pytest.raises(QueryParseError) as err:
            parse_query(text)
        assert (err.value.offset, err.value.expected) == (offset, frozenset())
        return
    query = parse_query(text)
    for inputs in ((), query.body.variables[:1]):
        assert _concepts_checked(query.body.plan(inputs)) == kept
    for g in (fixture_graph(), random_conformant_graph(3)):
        got = [r.values for r in evaluate_query(query, g)]
        assert got == reference_eval(query, g)
        assert got != []


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
        ("MATCH (a:Bogus ETURN a", 9, set()),  # an unknown name wins over a later syntax error
        ("MATCH (a) WHERE b = a ETURN a", 22, {"AND", "RETURN"}),  # a syntax error wins over b
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


@pytest.mark.parametrize(
    "text",
    [
        "MATCH (v:Victim) RETURN v",
        'MATCH (v {concept="Victim"}) RETURN v',
        'MATCH (v) WHERE v.concept = "Victim" RETURN v',
        'MATCH (v) WHERE "Victim" = v.concept RETURN v',
    ],
)
def test_concept_synonym_resolves_in_label_constraint_and_where(text):
    """A synonym names its concept wherever a concept literal is read."""
    canonical = parse_query("MATCH (v:AttackTarget) RETURN v")
    query = parse_query(text)
    assert query.body.plan() == canonical.body.plan()
    for g in (fixture_graph(), random_conformant_graph(3)):
        assert evaluate_query(query, g) == evaluate_query(canonical, g)
    assert [r.values for r in evaluate_query(query, fixture_graph())] == [("v1",), ("v2",)]


def test_concept_synonym_resolves_in_an_inequality():
    g = fixture_graph()
    rows = run_query('MATCH (v) WHERE v.concept <> "Victim" RETURN v', g)
    assert rows == run_query('MATCH (v) WHERE v.concept <> "AttackTarget" RETURN v', g)
    assert ("v1",) not in [r.values for r in rows]


@pytest.mark.parametrize(
    "text, offset",
    [
        ('MATCH (v {concept="Bogus"}) RETURN v', 18),
        ('MATCH (v) WHERE v.concept = "Bogus" RETURN v', 28),
        ('MATCH (v) WHERE "Bogus" <> v.concept RETURN v', 16),
    ],
)
def test_unknown_concept_literal_raises(text, offset):
    with pytest.raises(QueryParseError, match="unknown concept: 'Bogus'") as err:
        parse_query(text)
    assert (err.value.offset, err.value.expected) == (offset, frozenset())


def test_concept_literal_against_no_concept_key_stays_as_written():
    # Only a test against a concept key reads its literal as a concept.
    query = parse_query('MATCH (v {kind="Bogus"}) WHERE v.id = "Victim" RETURN v')
    assert [t.right.literal for t in query.body.tests] == ["Bogus", "Victim"]


def test_offsets_count_characters_not_bytes():
    # Each "é" is one character of the string and two bytes of its UTF-8.
    text = 'MATCH (a {name="éé"}) RETURN b'
    with pytest.raises(QueryParseError, match="^at offset 29: unbound variable: 'b'$"):
        parse_query(text)
    assert text[29] == "b" and len(text[:29].encode()) == 31


#: Texts that can never match, with the offset and message of their parse
#: error: a variable given a second concept, by a label, a ``concept``
#: test or an atom's relation, or a self-loop atom. An atom types its ends
#: once both are read, at its relation's offset.
REJECTED_QUERIES = [
    ("MATCH (x)-[:to_exploit]->(x) RETURN x", 12, "self-loop on x: no relation admits one"),
    (
        "MATCH (a)-[:same_attack_organization]->(a) RETURN a",
        12,
        "self-loop on a: no relation admits one",
    ),
    (
        "MATCH (v:AttackTarget)-[:craft_and_perform]->(m) RETURN v, m",
        25,
        "v is AttackTarget, not Attacker",
    ),
    (
        "MATCH (a)-[:apply_to]->(b)-[:craft_and_perform]->(c) RETURN a",
        29,
        "b is AttackTarget, not Attacker",
    ),
    (
        'MATCH (m {concept="Attacker"})-[:apply_to]->(v) RETURN m',
        33,
        "m is Attacker, not AttackMethod",
    ),
    (
        'MATCH (m)-[:apply_to]->(v) WHERE v.concept = "Attacker" RETURN v',
        45,
        "v is AttackTarget, not Attacker",
    ),
    (
        'MATCH (m)-[:apply_to]->(v) WHERE "SocialEngineer" = v.concept RETURN v',
        33,
        "v is AttackTarget, not Attacker",
    ),
    ("MATCH (a:Attacker), (a:Victim) RETURN a", 23, "a is Attacker, not AttackTarget"),
    (
        'MATCH (a) WHERE a.concept = "Attacker" AND a.concept = "Victim" RETURN a',
        55,
        "a is Attacker, not AttackTarget",
    ),
    ("MATCH (h)-[:exploited_by]->(m:Attacker) RETURN m", 12, "m is Attacker, not AttackMethod"),
    # the first conflict wins
    (
        "MATCH (x:Attacker)-[:have_vul]->(h), (v:Victim)-[:craft_and_perform]->(m) RETURN x",
        21,
        "x is Attacker, not AttackTarget",
    ),
]


@pytest.mark.parametrize("text, offset, message", REJECTED_QUERIES)
def test_pattern_that_can_never_match_raises(text, offset, message):
    with pytest.raises(QueryParseError) as err:
        parse_query(text)
    assert str(err.value) == f"at offset {offset}: {message}"
    assert err.value.expected == frozenset()


@pytest.mark.parametrize(
    "text, offset, message",
    [
        ("MATCH (x)-[:to_exploit]->(x) RETRN x", 29, "unexpected 'RETRN'"),
        ("MATCH (x:Attacker)-[:have_vul]->(h) RETURN y", 43, "unbound variable: 'y'"),
    ],
)
def test_syntax_and_unbound_errors_win_over_a_conflict(text, offset, message):
    with pytest.raises(QueryParseError, match=f"^at offset {offset}: {re.escape(message)}"):
        parse_query(text)


def test_concepts_map_each_typed_variable():
    # <> types nothing; an atom types both ends, a label its variable
    text = 'MATCH (m)-[:apply_to]->(v), (a:SocialEngineer), (x) WHERE v.concept <> "Attacker"'
    query = parse_query(f"{text} RETURN v")
    assert query.concepts == {"m": "AttackMethod", "v": "AttackTarget", "a": "Attacker"}
    with pytest.raises(TypeError):
        query.concepts["x"] = "Attacker"


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
    # No relation admits a self-loop, so the pattern is a parse error.
    g = fixture_graph()
    with pytest.raises(QueryParseError, match="at offset 12: self-loop on x") as err:
        run_query("MATCH (x)-[:to_exploit]->(x) RETURN x", g)
    assert err.value.expected == frozenset()


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
    # An absent property equals nothing: not another absent one, not "".
    rows = run_query(
        "MATCH (g:HumanVulnerability), (h:HumanVulnerability) "
        "WHERE g.affiliation = h.affiliation RETURN g, h",
        g,
    )
    assert rows == []
    rows = run_query(
        'MATCH (h:HumanVulnerability) WHERE h.affiliation = "" RETURN h', g
    )
    assert rows == []
    # Nor does it differ from anything: <> never holds against an absent
    # property, on either side, as in Cypher.
    rows = run_query(
        'MATCH (h:HumanVulnerability) WHERE h.affiliation <> "Acme" RETURN h', g
    )
    assert rows == []
    rows = run_query(
        "MATCH (g:HumanVulnerability), (h:HumanVulnerability) "
        "WHERE g.affiliation <> h.affiliation RETURN g, h",
        g,
    )
    assert rows == []
    rows = run_query('MATCH (m:AttackMethod) WHERE "x" <> m.affiliation RETURN m', g)
    assert rows == []
    # Between two present values, <> is value inequality.
    rows = run_query('MATCH (m:AttackMethod) WHERE m.kind <> "phishing" RETURN m', g)
    assert [r.values for r in rows] == [("m2",)]


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
    # lookup; it refuses absent = absent, as a lookup finds no node for an
    # absent value. Unpinned, the plan looks y up by x's affiliation.
    g = KnowledgeGraph()
    g.register_scenario(1, "t")
    for v in ("v1", "v2"):
        g.add_node(Node(v, "AttackTarget", 1))
    for v in ("v3", "v4"):
        g.add_node(Node(v, "AttackTarget", 1, properties={"affiliation": "Acme"}))
    body = parse_query("MATCH (x), (y) WHERE x.affiliation = y.affiliation RETURN x").body
    rows = [("v1", "v2"), ("v1", "v1"), ("v1", "v3"), ("v3", "v4")]
    plan = body.plan(inputs=("x", "y"))
    assert [step[0] for step in plan.steps] == ["test"]
    assert match(g, plan, rows) == [("v3", "v4")]
    plan = body.plan()
    assert [step[0] for step in plan.steps] == ["nodes", "lookup"]
    assert match(g, plan) == [(x, y) for x in ("v3", "v4") for y in ("v3", "v4")]


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


def test_id_lookups_follow_node_writes():
    """An id lookup reads the node map: a node added after the first lookup
    is found, and an absent id or a missing value finds nothing."""
    g = KnowledgeGraph()
    g.register_scenario(1, "t1")
    g.add_node(Node("v1", "AttackTarget", 1))
    queries = [parse_query(f'MATCH (v {{id="{i}"}}) RETURN v') for i in ("v1", "v2", "v3")]

    def rows():
        got = [[r.values for r in evaluate_query(q, g)] for q in queries]
        assert got == [reference_eval(q, g) for q in queries]
        return got

    assert rows() == [[("v1",)], [], []]
    g.add_node(Node("v2", "AttackTarget", 1))
    assert rows() == [[("v1",)], [("v2",)], []]
    g.add_node(Node("m1", "AttackMethod", 1, properties={"kind": "v2"}))
    g.add_node(Node("m2", "AttackMethod", 1))  # no kind: its lookup value is None
    plan = parse_query("MATCH (m:AttackMethod), (x) WHERE x.id = m.kind RETURN m, x").body.plan()
    assert [step[0] for step in plan.steps] == ["lookup", "lookup"]
    assert match(g, plan) == reference_match(g, plan) == [("m1", "v2")]


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
    g.add_node(Node("v3", "AttackTarget", 1))  # absent: <> does not hold
    g.add_node(Node("v4", "AttackTarget", 1, properties={"affiliation": "Beta"}))
    got = [r.values for r in evaluate_query(query, g)]
    assert got == reference_eval(query, g) == [("Acme",), ("Beta",)]


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
    "MATCH (m), (x) WHERE x.id = m.kind RETURN m, x",
    "MATCH (a)-[:craft_and_perform]->(m), (x) WHERE x.id = a.id RETURN x, m",
    "MATCH (a)-[:craft_and_perform]->(m), (x) WHERE x = a RETURN x, m",
    "MATCH (m), (x) WHERE x = m.kind RETURN m, x",
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


#: BRUTE_QUERIES plus one-item ``v.key`` columns whose values are often
#: absent, with and without DISTINCT.
LABEL_QUERIES = [
    *BRUTE_QUERIES,
    "MATCH (v) RETURN v.affiliation",
    "MATCH (v) RETURN DISTINCT v.affiliation",
    "MATCH (m)-[:to_exploit]->(h) RETURN DISTINCT m.encoded_domain, h",
]


@pytest.mark.parametrize("seed", ["replicated", *range(100)])
def test_rows_pair_each_value_with_its_label(graph, seed):
    """Each row is a ``BindingRow`` whose items pair the RETURN labels, in
    order, with the values of a reference row: the closure engine's rows
    of the reference planner's plan, projected one binding at a time. Runs
    on random graphs and on four copies of the bundled graph."""
    g = replicated_graph(graph, 4) if seed == "replicated" else random_conformant_graph(seed)
    for text in LABEL_QUERIES:
        query = parse_query(text)
        body = query.body
        found = reference_match(g, reference_plan(body))
        expected = reference_project(query, g, (dict(zip(body.variables, r)) for r in found))
        labels = [item.label for item in query.returns]
        rows = evaluate_query(query, g)
        assert all(type(row) is BindingRow for row in rows), text
        assert [row.items for row in rows] == [tuple(zip(labels, r)) for r in expected], text


# -- compiled joins against the closure engine --------------------------------


def diffed_plans() -> list[tuple[str, Plan, str | None]]:
    """(label, plan, relation of its input rows or None) for every builtin
    rule plan, each of its per-atom plans, every axiom plan, each rule body
    with all its variables as inputs, and every ``BRUTE_QUERIES`` plan,
    unpinned and pinned on its first variable."""
    plans = []
    compiled = map(inference._compile, (*inference.builtin_ruleset(), *AXIOMS))
    for name, _, plan, per_atom in compiled:
        plans.append((name, plan, None))
        plans += [(f"{name} {rel}", rest, rel) for rel, rest in per_atom]
    for rule in inference.builtin_ruleset():  # every check a step, as rules run it
        body = parse_query(rule.body).body
        plans.append((f"{rule.name} pinned", body.plan(inputs=body.variables), None))
    for text in BRUTE_QUERIES:
        body = parse_query(text).body
        plans.append((text, body.plan(), None))
        plans.append((text, body.plan(inputs=body.variables[:1]), None))
    return plans


def random_rows(rng, graph, plan, relation) -> list[tuple[str, ...]]:
    """Up to 12 input rows for ``plan``: random node ids and, for a per-atom
    plan, endpoints of its relation's edges, some of them repeated."""
    ids = graph.node_ids()
    width = len(plan.inputs)
    rows = [tuple(rng.choice(ids) for _ in range(width)) for _ in range(rng.randint(0, 6))]
    if relation is not None:
        pairs = [(e.src, e.dst)[:width] for e in graph.edges(relation)]
        rows += rng.choices(pairs, k=min(len(pairs), 6))
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("seed", range(100))
def test_compiled_joins_match_the_closure_engine(seed):
    """Every rule, axiom and BRUTE_QUERIES plan gives the closure engine's
    rows, order included, on an inferred random graph: without inputs, or
    over random input rows. A row of the wrong width raises ``ValueError``
    in both."""
    rng = random.Random(seed)
    g = random_conformant_graph(seed)
    run_inference(g)
    g.freeze()
    for label, plan, relation in diffed_plans():
        if plan.inputs:
            batches = [[], *(random_rows(rng, g, plan, relation) for _ in range(3))]
        else:
            batches = [((),), [], [(), ()]]
        for rows in batches:
            assert match(g, plan, rows) == reference_match(g, plan, rows), label
        bad = [*random_rows(rng, g, plan, relation), ("x",) * (len(plan.inputs) + 1)]
        for engine in (match, reference_match):
            with pytest.raises(ValueError, match="inputs"):
                engine(g, plan, bad)


def test_deep_plans_match_the_closure_engine():
    # More nested loops than one Python function can hold, so the join
    # goes on in two nested functions: a chain of 33 atoms with 60
    # conditions on it, and 40 id lookups.
    g = KnowledgeGraph()
    g.register_scenario(1, "t")
    for i in range(40):
        g.add_node(Node(f"x{i}", "Attacker", 1))
        if i:
            g.add_edge(f"x{i - 1}", "same_attack_organization", f"x{i}")
    g.freeze()
    chain = "-[:same_attack_organization]->".join(f"(n{i})" for i in range(34))
    where = " AND ".join(f'n{i % 34} <> "y{i}"' for i in range(60))
    ids = ", ".join(f'(n{i} {{id="x{i}"}})' for i in range(40))
    rows = [("x0",), ("x5",), ("x9",), ("x0",)]
    cases = ((f"MATCH {chain} WHERE {where} RETURN n0", 7, 3), (f"MATCH {ids} RETURN n0", 1, 2))
    for text, unpinned, pinned in cases:
        body = parse_query(text).body
        for plan, rows, count in ((body.plan(), ((),), unpinned), (body.plan(("n0",)), rows, pinned)):
            got = match(g, plan, rows)
            assert got == reference_match(g, plan, rows)
            assert len(got) == count


def test_plans_differing_only_in_strings_share_one_compiled_join(graph):
    assert query._loop_nest.cache_info().maxsize is not None
    texts = [
        'MATCH (a {id="attacker1"})-[:craft_and_perform]->(m) RETURN m',
        'MATCH (a {id="attacker10"})-[:craft_and_perform]->(m) RETURN m',
        'MATCH (a {kind="x"})-[:attack]->(m) RETURN m',
    ]
    assert run_query(texts[0], graph)
    misses = query._loop_nest.cache_info().misses
    for text in texts[1:]:
        run_query(text, graph)
    assert query._loop_nest.cache_info().misses == misses


#: Strings that would run as code, or break the source, if formatted into
#: it: quotes, backslashes, escaped and real newlines, braces.
HOSTILE = [
    '"); __import__("os").system("exit 7") #',
    "'''; raise SystemExit(7); '''",
    '\\\\ \\n \\" \\',
    "line\nbreak",
    "{a0}{s0}}",
]
HOSTILE_KEYS = ("__import__", "__class__", "exec")


def hostile_graph() -> KnowledgeGraph:
    """Per HOSTILE value, a method with it under one to three HOSTILE_KEYS
    and a target whose id and ``exec`` it is, the method applied to it."""
    g = KnowledgeGraph()
    g.register_scenario(1, "t")
    for i, value in enumerate(HOSTILE):
        props = {key: value for key in HOSTILE_KEYS[: 1 + i % 3]}
        g.add_node(Node(f"m{i}", "AttackMethod", 1, properties=props))
        g.add_node(Node(value, "AttackTarget", 1, properties={"exec": value}))
        g.add_edge(f"m{i}", "apply_to", value)
    g.add_node(Node("plain", "AttackMethod", 1))
    return g.freeze()


def quoted(value: str) -> str:
    """``value`` as a query string literal."""
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


@pytest.mark.parametrize("value", HOSTILE)
def test_strings_holding_python_never_reach_the_compiled_source(value):
    g = hostile_graph()
    lit = quoted(value)
    texts = [
        f"MATCH (m {{__import__={lit}}}) RETURN m",
        f"MATCH (v {{id={lit}}}) RETURN v, v.exec",
        f"MATCH (m)-[:apply_to]->(v) WHERE m.__class__ = {lit} RETURN m, v",
        f"MATCH (m)-[:apply_to]->(v) WHERE v.exec <> {lit} RETURN v, m.__import__",
        f"MATCH (m), (v) WHERE m.__import__ = v.exec AND v <> {lit} RETURN m, v",
    ]
    for text in texts:
        q = parse_query(text)
        got = [r.values for r in evaluate_query(q, g)]
        assert got == reference_eval(q, g), text
        plan, args = q.body.plan(), []
        shape = query._split(plan.steps, args)
        source = query._source(plan.inputs, plan.width, shape)
        for string in (value, "apply_to", *HOSTILE_KEYS):
            assert string not in source, text
    assert [r.values for r in run_query(texts[0], g)] == [(f"m{HOSTILE.index(value)}",)]
    assert [r.values for r in run_query(texts[1], g)] == [(value, value)]
    for label, plan, _ in diffed_plans():
        if label in BRUTE_QUERIES:
            continue  # every rule and axiom plan
        source = query._source(plan.inputs, plan.width, query._split(plan.steps, []))
        tokens = list(generate_tokens(io.StringIO(source).readline))
        assert not [t for t in tokens if t.type == STRING], label
        assert not {t.string for t in tokens} & plan_strings(plan), label


def plan_strings(plan: Plan) -> set[str]:
    """Every relation, key and literal in ``plan``'s steps and operands."""
    strings = set()
    for step in plan.steps:
        for field in step[1:]:
            values = field if isinstance(field, tuple) else (field,)
            strings.update(v for v in values if isinstance(v, str))
    return strings


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
            names = list(IDENT_RE.finditer(text))
            if not names:  # an earlier cut can leave no name to swap
                continue
            found = rng.choice(names)
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


#: A text of each token kind that is not its own text.
SAMPLE_TOKENS = {"IDENT": "x", "STRING": '"s"'}


def _parse_error(text: str) -> QueryParseError | None:
    try:
        parse_query(text)
    except QueryParseError as err:
        return err
    return None


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(mutated_query())
def test_every_expected_kind_is_accepted(text):
    """A token of any kind an error lists as expected, spliced in at the
    error's offset, is taken: the parse then succeeds, fails at a later
    token, or fails on that token's name (an unknown concept or relation,
    an unbound variable), with nothing expected. ``EOF`` is spliced in by
    cutting the text there. The tokenizer's ``"`` is left out: it asks for
    a closing quote after the opening one at the offset, not a token."""
    err = _parse_error(text)
    if err is None:
        return
    at = err.offset
    for kind in err.expected - {'"'}:
        if kind == "EOF":
            spliced, start = text[:at], at
        else:
            spliced, start = f"{text[:at]} {SAMPLE_TOKENS.get(kind, kind)} {text[at:]}", at + 1
        again = _parse_error(spliced)
        assert again is None or again.offset != start or not again.expected, (kind, spliced)


# -- soundness of the parser's typing -----------------------------------------

#: Seeded 2-4-atom MATCH texts, each with the body it means, built without
#: the parser.
GENERATED = random_match_texts(20241022, 200)
#: The generated texts the parser rejects, with their bodies.
GENERATED_REJECTED = [(text, body) for text, body in GENERATED if _parse_error(text)]


def test_generated_patterns_parse_to_their_bodies():
    """A generated text the parser accepts parses to the body built with
    it; one it rejects fails with nothing expected. At least a tenth of
    the texts land on each side."""
    for text, body in GENERATED:
        err = _parse_error(text)
        if err is None:
            assert parse_query(text).body == body, text
        else:
            assert err.expected == frozenset(), text
    tenth = len(GENERATED) // 10
    assert tenth <= len(GENERATED_REJECTED) <= len(GENERATED) - tenth


@pytest.mark.parametrize("seed", ["replicated", *range(100)])
def test_rejected_patterns_match_nothing(graph, seed):
    """Each body the parser rejects has no rows: planned by the reference
    planner, which keeps every concept test its atoms do not imply, and run
    by the closure engine, on an inferred random graph or on four copies
    of the bundled graph."""
    if seed == "replicated":
        g = replicated_graph(graph, 4)
    else:
        g = random_conformant_graph(seed)
        run_inference(g)
    for text, body in GENERATED_REJECTED:
        assert reference_match(g, reference_plan(body)) == [], text


# -- the planner against the reference planner ---------------------------------


#: The MATCH texts of the read benchmark, one per shape.
READ_QUERIES = [
    'MATCH (a:Attacker {id="attacker10"})-[:craft_and_perform]->(m)-[:to_exploit]->(h)'
    "<-[:have_vul]-(v:AttackTarget) WHERE a.scenario_id <> v.scenario_id RETURN DISTINCT v",
    'MATCH (a {id="attacker10"})-[:craft_and_perform]->(m)-[:to_exploit]->(h)'
    '<-[:have_vul]-(v {id="victim13"}) RETURN a, m, h, v',
    'MATCH (n {scenario_id="10"}) RETURN n',
    'MATCH (a {id="attacker10"})-[:in_the_same_organization]->(b)'
    "-[:craft_and_perform]->(m) RETURN DISTINCT b, m",
]


def assert_plans_match_the_reference(body: Conjunction) -> None:
    """``body``'s plans equal ``reference_plan``'s: unpinned, pinned on
    each variable, on all of them, and on all of them in reverse."""
    names = body.variables
    for inputs in ((), *((v,) for v in names), names, names[::-1]):
        assert body.plan(inputs) == reference_plan(body, inputs), inputs


@pytest.mark.parametrize("text", BRUTE_QUERIES + READ_QUERIES)
def test_planner_matches_the_reference_planner(text):
    assert_plans_match_the_reference(parse_query(text).body)


def test_rule_plans_match_the_reference_planner(monkeypatch):
    """Every plan a builtin rule is compiled to, its whole body's and each
    per-atom one, equals the reference planner's for the same body and
    inputs."""
    calls = []
    plan = Conjunction.plan

    def recording(body, inputs=()):
        calls.append((body, inputs))
        return plan(body, inputs)

    monkeypatch.setattr(Conjunction, "plan", recording)
    compiled = [inference._compile.__wrapped__(rule) for rule in inference.builtin_ruleset()]
    monkeypatch.undo()
    assert len(calls) == sum(1 + len(per_atom) for *_, per_atom in compiled)
    for body, inputs in calls:
        assert body.plan(inputs) == reference_plan(body, inputs), (body, inputs)
        assert_plans_match_the_reference(body)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(mutated_query())
def test_mutated_plans_match_the_reference_planner(text):
    try:
        body = parse_query(text).body
    except SekgError:
        return
    assert_plans_match_the_reference(body)
