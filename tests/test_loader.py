import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ASSERTED_ATTACK,
    find_edge,
    random_conformant_graph,
    reference_parse_document,
    reference_scenario_members,
    reference_split,
    replicated_graph,
)
from sekg.catalog import VOCABULARIES, lookup
from sekg.datasets import canonical_text
from sekg.errors import DatasetError, GraphError, SekgError
from sekg.graph import KnowledgeGraph, Node, scenario_members
from sekg.inference import run_inference
from sekg.loader import (
    EdgeRecord,
    NodeRecord,
    ScenarioRecord,
    _split_fields,
    load_dataset,
    parse_document,
    serialize_dataset,
    validate_scenario_completeness,
)

MINI = """\
# one-scenario fixture
SCENARIO 1 type="phone_pretexting"
NODE attacker1 Attacker scenario=1 labels=individual
NODE pretexting1 AttackMethod scenario=1 kind=pretexting
NODE victim1 Victim scenario=1
NODE greed HumanVulnerability
EDGE attacker1 craft_and_perform pretexting1
EDGE pretexting1 apply_to victim1
EDGE pretexting1 to_exploit greed
EDGE victim1 have_vul greed
"""


def test_minimal_dataset_loads():
    result = load_dataset(MINI)
    g = result.graph
    assert result.warnings == []
    assert g.scenarios == {1: "phone_pretexting"}
    assert g.node_count == 4
    assert g.edge_count == 4
    assert g.node("victim1").concept == "AttackTarget"


def test_blank_lines_and_comments_skipped():
    records = parse_document("\n# note\n\nSCENARIO 1 type=t\n")
    assert len(records) == 1


@pytest.mark.parametrize(
    "text, lineno, fragment",
    [
        ("BOGUS x", 1, "unknown record tag"),
        ("SCENARIO", 1, "integer id"),
        ("SCENARIO x type=t", 1, "bad scenario id"),
        ("SCENARIO 1", 1, "type="),
        ("SCENARIO 1 type=t color=red", 1, "unknown SCENARIO keys"),
        ("NODE a", 1, "id and a concept"),
        ("# pad\nNODE a Attacker scenario=x", 2, "must be an integer"),
        ("NODE a Attacker junk", 1, "expected key=value"),
        ("NODE a Attacker x=1 x=2", 1, "duplicate key"),
        ('NODE a Attacker note="unterminated', 1, "unterminated quoted value"),
        ('NODE a Attacker note="bad \\x escape"', 1, "bad escape"),
        ("EDGE a b", 1, "src, relation and dst"),
        ("EDGE a apply_to b inferred=R2 extra=1", 1, "unknown EDGE keys"),
    ],
)
def test_parse_errors_carry_line_numbers(text, lineno, fragment):
    with pytest.raises(DatasetError) as err:
        parse_document(text)
    assert err.value.line == lineno
    assert fragment in str(err.value)
    assert str(err.value).startswith(f"line {lineno}:")


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("SCENARIO 1 type=t\nSCENARIO 1 type=t", "duplicate scenario id"),
        ("NODE v Wildcard", "unknown concept"),
        ("NODE greed HumanVulnerability scenario=1", "must not carry scenario="),
        ("SCENARIO 1 type=t\nNODE a Attacker", "needs scenario="),
        (MINI + "EDGE attacker1 apply_to victim1", "mismatch"),
        (MINI + "EDGE ghost apply_to victim1", "unknown node"),
        (MINI + "EDGE attacker1 fly_to victim1", "unknown relation"),
    ],
)
def test_build_errors(text, fragment):
    with pytest.raises(DatasetError, match=fragment):
        load_dataset(text)


def test_parse_error_wins_over_an_earlier_graph_error():
    """The whole text is parsed before the graph is built, so a bad record
    on a later line is reported before an edge to an unknown node."""
    text = MINI + "EDGE ghost apply_to victim1\n# pad\nBOGUS x\n"
    with pytest.raises(DatasetError, match="unknown record tag 'BOGUS'") as err:
        load_dataset(text)
    assert err.value.line == MINI.count("\n") + 3


@pytest.mark.parametrize("key", ["id", "concept", "scenario_id"])
def test_property_named_like_a_node_field_rejected_with_line(key):
    text = f"SCENARIO 1 type=t\n# pad\nNODE a1 Attacker scenario=1 {key}=Spy\n"
    with pytest.raises(DatasetError, match=f"property '{key}' is a node field") as err:
        load_dataset(text)
    assert err.value.line == 3


def test_quoted_values_and_escapes():
    text = (
        'SCENARIO 1 type="spear phishing"\n'
        'NODE v Victim scenario=1 affiliation="Company \\"A\\"" note="a\\\\b"\n'
    )
    g = load_dataset(text).graph
    node = g.node("v")
    assert node.property("affiliation") == 'Company "A"'
    assert node.property("note") == "a\\b"
    assert g.scenarios[1] == "spear phishing"


def test_empty_quoted_value_survives():
    text = 'SCENARIO 1 type=t\nNODE v Victim scenario=1 affiliation=""\n'
    assert load_dataset(text).graph.node("v").property("affiliation") == ""


def test_vocabulary_enrichment():
    g = load_dataset(MINI).graph
    greed = g.node("greed")
    assert "human_nature" in greed.taxonomy_labels
    method = g.node("pretexting1")
    assert method.property("kind") == "pretexting"
    assert "human_based" in method.taxonomy_labels


def test_unknown_vocabulary_term_warns_or_raises():
    text = "NODE wizardry HumanVulnerability\n"
    result = load_dataset(text)
    assert len(result.warnings) == 1
    assert "not a catalog term" in result.warnings[0]
    with pytest.raises(DatasetError, match="not a catalog term"):
        load_dataset(text, strict_vocab=True)


def test_unknown_kind_warns():
    text = "SCENARIO 1 type=t\nNODE m1 AttackMethod scenario=1 kind=levitation\n"
    result = load_dataset(text)
    assert any("levitation" in w for w in result.warnings)


def test_catalog_sizes():
    sizes = {name: len(entries) for name, entries in VOCABULARIES.items()}
    assert sizes == {
        "vulnerabilities": 43,
        "mechanisms": 38,
        "motivations": 19,
        "mediums": 22,
        "method_kinds": 20,
        "target_kinds": 15,
        "information_kinds": 36,
    }


def test_catalog_synonym_lookup():
    entry = lookup("mediums", "phone")
    assert entry is not None
    assert entry.ident == "telephone"
    assert lookup("mediums", "carrier_pigeon") is None


def test_serialize_roundtrip_fixpoint():
    first = serialize_dataset(load_dataset(MINI).graph)
    second = serialize_dataset(load_dataset(first).graph)
    assert first == second


def test_serialize_includes_inferred_marker():
    g = load_dataset(MINI).graph
    g.add_edge("attacker1", "attack", "victim1", rule="R1")
    assert "inferred=R1" not in serialize_dataset(g)
    text = serialize_dataset(g, include_inferred=True)
    assert "EDGE attacker1 attack victim1 inferred=R1" in text
    reloaded = load_dataset(text).graph
    assert find_edge(reloaded, "attacker1", "attack", "victim1").provenance == "inferred:R1"


@pytest.mark.parametrize(
    "line, record",
    [
        ('NODE "x" Attacker scenario=1', NodeRecord(1, "x", "Attacker", 1, (), {}, "")),
        ('SCENARIO "1" type=t', ScenarioRecord(1, 1, "t")),
        ('"EDGE" a b c', EdgeRecord(1, "a", "b", "c", None)),
    ],
)
def test_quoted_positional_field_parses_like_bare(line, record):
    assert parse_document(line) == (record,)
    assert parse_document(line.replace('"', "")) == (record,)


def test_serialize_quotes_ids():
    g = load_dataset(MINI).graph
    g.add_node(Node("a b", "Attacker", 1))
    g.add_edge("a b", "craft_and_perform", "pretexting1")
    text = serialize_dataset(g)
    assert 'NODE "a b" Attacker scenario=1\n' in text
    assert 'EDGE "a b" craft_and_perform pretexting1\n' in text
    reloaded = load_dataset(text).graph
    assert (reloaded.nodes(), reloaded.edges()) == (g.nodes(), g.edges())


def test_completeness_findings():
    findings = validate_scenario_completeness(load_dataset(MINI).graph)
    severities = {(f.severity, f.role) for f in findings}
    assert ("mandatory", "AttackMotivation") in severities
    assert ("mandatory", "AttackGoal") in severities
    assert ("advisory", "AttackStrategy") in severities
    assert not any(f.role in ("Attacker", "AttackMethod", "AttackTarget") for f in findings)
    assert all(f.scenario_id == 1 for f in findings)


def test_canonical_loads_clean(load_result):
    g = load_result.graph
    assert load_result.warnings == []
    assert len(g.scenarios) == 15
    assert len(g.attack_types()) == 14
    assert g.node_count == 245
    assert g.edge_count == 602
    assert sum(1 for n in g.nodes() if n.scenario_id is not None) == 111


def test_canonical_strict_vocab_clean():
    from sekg.datasets import load_canonical

    assert load_canonical().warnings == []


def test_canonical_edge_census(load_result):
    census = {}
    for e in load_result.graph.edges():
        census[e.relation] = census.get(e.relation, 0) + 1
    assert census == {
        "apply_to": 21,
        "based_on": 12,
        "bring_out": 15,
        "craft_and_perform": 21,
        "driven_by": 1,
        "explain": 87,
        "feed_back_to": 15,
        "formulate": 15,
        "gather_and_use": 12,
        "guided_by": 19,
        "have_vul": 89,
        "incented_by": 1,
        "interacted_through": 15,
        "motivated_by": 18,
        "performed_through": 24,
        "subgoal_of": 3,
        "take_effected_by": 95,
        "to_achieve": 21,
        "to_exploit": 89,
        "to_satisfy": 15,
        "with_skill": 6,
        "with_trick": 8,
    }


def test_canonical_completeness(load_result):
    findings = validate_scenario_completeness(load_result.graph)
    assert [f for f in findings if f.severity == "mandatory"] == []
    assert len(findings) == 8


def with_mechanisms(g, seed: int):
    """``g`` plus a few EffectMechanism nodes, some scenario-tagged, that
    random vulnerabilities take_effected_by."""
    rng = random.Random(seed)
    vulnerabilities = [n.id for n in g.nodes_by_concept("HumanVulnerability")]
    for i in range(rng.randint(0, 5)):
        sid = rng.choice((None, *g.scenario_ids()))
        mechanism = g.add_node(Node(f"mechanism{i}", "EffectMechanism", sid)).id
        count = rng.randint(1, min(len(vulnerabilities), 3))
        for vul in rng.sample(vulnerabilities, count):
            g.add_edge(vul, "take_effected_by", mechanism)
    return g


def test_scenario_roles_match_reference(load_result, graph):
    graphs = [load_result.graph, graph, replicated_graph(load_result.graph, 4)]
    graphs += [with_mechanisms(random_conformant_graph(s), s) for s in range(100)]
    for i, g in enumerate(graphs):
        members = scenario_members(g)
        assert members == reference_scenario_members(g), f"graph {i}"
        assert list(members) == list(g.scenario_ids()), f"graph {i}"
        for sid in g.scenario_ids():
            assert set(g.scenario_subgraph(sid).node_ids()) == members[sid], f"graph {i}"


def test_findings_follow_scenario_ids_not_declaration_order(load_result):
    lines = canonical_text().splitlines()
    declared = [line for line in lines if line.startswith("SCENARIO")]
    rest = [line for line in lines if not line.startswith("SCENARIO")]
    reordered = load_dataset("\n".join([*reversed(declared), *rest])).graph
    findings = validate_scenario_completeness(reordered)
    assert len(findings) == 8
    assert findings == validate_scenario_completeness(load_result.graph)
    assert list(scenario_members(reordered)) == list(reordered.scenario_ids())


def test_canonical_roundtrip_fixpoint(load_result):
    once = serialize_dataset(load_result.graph)
    again = serialize_dataset(load_dataset(once).graph)
    assert once == again


# -- derived relations ----------------------------------------------------------

DERIVED_BASE = """\
SCENARIO 1 type=t
NODE a Attacker scenario=1
NODE b Attacker scenario=1
NODE m AttackMethod scenario=1
NODE n AttackMethod scenario=1
NODE v Victim scenario=1
NODE w Victim scenario=1
"""


def test_dataset_cannot_assert_a_derived_relation():
    with pytest.raises(DatasetError) as err:
        load_dataset(ASSERTED_ATTACK)
    assert err.value.line == 8
    assert str(err.value) == "line 8: attack is derived by R1, so its EDGE needs inferred=<rule>"


@pytest.mark.parametrize(
    "src, relation, dst, rule",
    [
        ("a", "attack", "v", "R1"),
        ("a", "same_attack_organization", "b", "R4"),
        ("v", "same_affiliation", "w", "R5"),
        ("m", "same_origin_attack", "n", "R6"),
        ("a", "in_the_same_organization", "b", "R7"),
    ],
)
def test_derived_edge_needs_its_rule(src, relation, dst, rule):
    edge = f"EDGE {src} {relation} {dst}"
    g = load_dataset(f"{DERIVED_BASE}{edge} inferred={rule}\n").graph
    assert find_edge(g, src, relation, dst).rule == rule
    with pytest.raises(DatasetError) as err:
        load_dataset(f"{DERIVED_BASE}{edge}\n")
    needs = f"{relation} is derived by {rule}, so its EDGE needs inferred=<rule>"
    assert str(err.value) == f"line 8: {needs}"


def test_serialize_refuses_a_derived_edge_without_rule():
    g = load_dataset(MINI).graph
    g.add_edge("attacker1", "attack", "victim1")
    for include_inferred in (False, True):
        with pytest.raises(DatasetError, match="attack is derived by R1"):
            serialize_dataset(g, include_inferred=include_inferred)


def test_inferred_replica_roundtrips(graph):
    g = replicated_graph(graph, 4)
    text = serialize_dataset(g, include_inferred=True)
    reloaded = load_dataset(text).graph
    assert (reloaded.nodes(), reloaded.edges()) == (g.nodes(), g.edges())
    assert [e.rule for e in reloaded.edges()] == [e.rule for e in g.edges()]
    assert serialize_dataset(reloaded, include_inferred=True) == text


# -- fuzzing --------------------------------------------------------------------

# Characters the splitter treats specially; whitespace that ``str.split`` and
# ``str.isspace`` both break on (ASCII, C1 and Unicode, some of which also end
# a line for ``str.splitlines``); and non-ASCII characters that are not
# whitespace, the zero-width space among them.
TRICKY_CHARS = list(
    '"\\\x00 =ab_,.\t\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2003\u2028\u3000'
    "\u200b\u00e9"
)
FUZZ_TEXT = st.text(
    alphabet=st.one_of(st.sampled_from(TRICKY_CHARS), st.characters()), max_size=40
)
FUZZ_SETTINGS = settings(derandomize=True, database=None, deadline=None)


@settings(FUZZ_SETTINGS, max_examples=300)
@given(FUZZ_TEXT)
def test_split_fields_matches_reference(line):
    try:
        expected = reference_split(line, 7)
    except DatasetError as exc:
        with pytest.raises(DatasetError) as err:
            _split_fields(line, 7)
        assert (str(err.value), err.value.line) == (str(exc), exc.line)
    else:
        assert _split_fields(line, 7) == expected


# Whitespace between fields: ASCII, C1 and Unicode characters that
# ``str.isspace`` holds and ``str.splitlines`` does not break at.
FIELD_GAPS = st.sampled_from([" ", "  ", "\t", " \t", "\x1f", "\xa0", "\u2003", "\u3000"])
#: An id or a value: bare, or quoted with escapes and whitespace inside.
RECORD_VALUES = st.one_of(
    st.text(alphabet="ab1_.,#", min_size=1, max_size=3),
    st.text(alphabet='a \t\xa0\\"=,#', max_size=4).map(
        lambda s: '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'
    ),
)
#: A field that is often wrong: a quote left open or holding a bad
#: escape, a stray word or a key=value pair with an unknown or bad key.
RECORD_STRAYS = st.one_of(
    st.text(alphabet='a \t\\"', max_size=4).map(lambda s: f'"{s}'),
    st.sampled_from(("x", "=v", "9x=1", "note=", "scenario=x", "labels=a,,b", '"\\q"')),
)
#: A NODE field's key: a record key, a property key, or a word of letters
#: and digits, some of them non-ASCII, that is a key only when all ASCII and
#: not led by a digit.
RECORD_KEYS = st.one_of(
    st.sampled_from(("labels", "comment", "kind", "note")),
    st.text(alphabet="ak_9\u00e9\u00df\u0663\uff58", min_size=1, max_size=3),
)
RECORD_SHAPES = ("EDGE",) * 4 + ("EDGE3", "EDGE5", "NODE", "NODE", "SCENARIO", "blank", "bad")


@st.composite
def record_text(draw) -> str:
    """Dataset text of blank, whitespace-only and comment lines, EDGE lines
    of three to five fields (``inferred=`` the fifth), NODE and SCENARIO
    lines with key=value fields, bad tags, and now and then a stray field."""
    lines = []
    value = RECORD_VALUES
    for _ in range(draw(st.integers(0, 8))):
        shape = draw(st.sampled_from(RECORD_SHAPES))
        if shape == "blank":
            lines.append(draw(st.sampled_from(("", " ", "\t\xa0", "# note", ' # "open'))))
            continue
        if shape.startswith("EDGE"):
            fields = ["EDGE", *(draw(value) for _ in range(2 if shape == "EDGE3" else 3))]
            if shape == "EDGE5":
                fields.append("inferred=" + draw(value))
        elif shape == "NODE":
            fields = ["NODE", draw(value), draw(st.sampled_from(("Attacker", '"Victim"')))]
            keys = draw(st.lists(RECORD_KEYS, max_size=3))
            fields += [f"{key}={draw(value)}" for key in keys]
            if draw(st.booleans()):
                fields.append(f"scenario={draw(st.integers(-2, 2))}")
        elif shape == "SCENARIO":
            fields = ["SCENARIO", str(draw(st.integers(-2, 99))), "type=" + draw(value)]
        else:
            fields = [draw(st.sampled_from(("BOGUS", "#x", '"EDGE"', '"#"', '""')))]
        if draw(st.integers(0, 9)) == 0:
            fields.insert(draw(st.integers(1, len(fields))), draw(RECORD_STRAYS))
        gaps = draw(st.lists(FIELD_GAPS, min_size=len(fields) + 1, max_size=len(fields) + 1))
        if draw(st.booleans()):
            gaps[0] = gaps[-1] = ""
        lines.append("".join(gap + field for gap, field in zip(gaps, fields)) + gaps[-1])
    return "\n".join(lines)


def assert_parses_like_reference(text):
    try:
        expected = reference_parse_document(text)
    except DatasetError as exc:
        with pytest.raises(DatasetError) as err:
            parse_document(text)
        assert (str(err.value), err.value.line) == (str(exc), exc.line)
    else:
        got = parse_document(text)
        assert got == expected
        assert [type(r) for r in got] == [type(r) for r in expected]


@settings(FUZZ_SETTINGS, max_examples=300)
@given(record_text())
def test_parse_document_matches_reference(text):
    assert_parses_like_reference(text)


def test_parse_document_matches_reference_on_corpora(asserted_graph):
    four = replicated_graph(asserted_graph, 4)
    run_inference(four)
    for text in (canonical_text(), serialize_dataset(four, include_inferred=True)):
        assert_parses_like_reference(text)


# Characters an id or value must be quoted or escaped for, and non-ASCII
# ones (whitespace among them); none ends a line for ``str.splitlines``,
# since a record is one line.
QUOTED_TEXT = st.text(
    alphabet=list(' "\\=#\x00a\xa0\u00e9\u200b\u3000\u4e2d\U0001f600'), max_size=6
)


@st.composite
def quoted_graph(draw) -> KnowledgeGraph:
    """A scenario of attackers, methods and targets whose ids, property
    values, comments and scenario type come from ``QUOTED_TEXT``."""
    g = KnowledgeGraph()
    g.register_scenario(1, draw(QUOTED_TEXT.filter(bool)))
    ids = draw(st.lists(QUOTED_TEXT, min_size=3, max_size=9, unique=True))
    concepts = ("Attacker", "AttackMethod", "AttackTarget")
    for i, node_id in enumerate(ids):
        properties = draw(st.dictionaries(st.sampled_from(("alias", "note")), QUOTED_TEXT))
        g.add_node(Node(node_id, concepts[i % 3], 1, (), properties, draw(QUOTED_TEXT)))
    for relation, offset in (("craft_and_perform", 0), ("apply_to", 1)):
        for src in ids[offset::3]:
            for dst in ids[offset + 1 :: 3]:
                if draw(st.booleans()):
                    g.add_edge(src, relation, dst)
    return g


@settings(FUZZ_SETTINGS, max_examples=100)
@given(quoted_graph())
def test_serialize_roundtrips_quoted_text(g):
    reloaded = load_dataset(serialize_dataset(g)).graph
    assert reloaded.scenarios == g.scenarios
    assert (reloaded.nodes(), reloaded.edges()) == (g.nodes(), g.edges())


@settings(FUZZ_SETTINGS, max_examples=200)
@given(
    st.dictionaries(
        st.one_of(
            st.text(alphabet=list("ak_9 =-\u00e9\u00df\u0663\uff58\n"), max_size=4),
            st.sampled_from(("scenario", "labels", "comment", "kind", "inferred")),
        ),
        QUOTED_TEXT,
        max_size=3,
    )
)
def test_every_accepted_property_key_roundtrips(properties):
    """A key ``add_node`` accepts is one ``serialize_dataset`` can write
    back: it reloads as the same key with the same value."""
    g = KnowledgeGraph()
    g.register_scenario(1, "t")
    try:
        g.add_node(Node("a", "Attacker", 1, properties=properties))
    except GraphError as exc:
        assert "cannot be written to a dataset" in str(exc)
        return
    reloaded = load_dataset(serialize_dataset(g)).graph
    assert reloaded.nodes() == g.nodes()


# Every character ``str.splitlines`` ends a line at.
LINE_BREAKS = list("\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")


@settings(FUZZ_SETTINGS, max_examples=100)
@given(
    quoted_graph(),
    QUOTED_TEXT,
    st.sampled_from(LINE_BREAKS),
    QUOTED_TEXT,
    st.sampled_from(("id", "note", "comment", "type")),
)
def test_serialize_refuses_line_breaks(g, head, line_break, tail, field):
    """A record is one line, so an id or value holding a line break is
    refused with an error naming it, not written to reload as other text."""
    text = head + line_break + tail
    assert len((text + "x").splitlines()) == 2
    if field == "type":
        g.register_scenario(2, text)
    elif field == "id":
        g.add_node(Node(text, "Attacker", 1))
    elif field == "note":
        g.add_node(Node("broken", "Attacker", 1, (), {"note": text}))
    else:
        g.add_node(Node("broken", "Attacker", 1, comment=text))
    with pytest.raises(DatasetError, match=re.escape(f"cannot write {field} {text!r}")):
        serialize_dataset(g)


CANONICAL_LINES = canonical_text().splitlines()
RECORD_LINES = [
    i for i, line in enumerate(CANONICAL_LINES) if line and not line.startswith("#")
]


@st.composite
def mutated_canonical(draw) -> str:
    """The bundled dataset with one or two record lines mutated.

    Lines, positions and operations come from a seeded ``Random`` so they
    spread evenly over the file; inserted text comes from ``FUZZ_TEXT``.
    """
    rng = draw(st.randoms(use_true_random=False))
    lines = list(CANONICAL_LINES)
    for _ in range(rng.randint(1, 2)):
        i = rng.choice(RECORD_LINES)
        line = lines[i]
        op = rng.choice(("drop", "move", "insert", "cut", "field", "value"))
        if op == "drop":
            lines[i] = ""
        elif op == "move":
            del lines[i]
            lines.insert(rng.randint(0, len(lines)), line)
        elif op == "insert":
            col = rng.randint(0, len(line))
            lines[i] = line[:col] + draw(FUZZ_TEXT) + line[col:]
        elif op == "cut":
            a = rng.randint(0, len(line))
            lines[i] = line[:a] + line[rng.randint(a, len(line)):]
        else:
            fields = line.split(" ")
            j = rng.randrange(len(fields))
            if op == "value":
                j = rng.choice([k for k, f in enumerate(fields) if "=" in f] or [j])
                fields[j] = fields[j].partition("=")[0] + "=" + draw(FUZZ_TEXT)
            else:
                fields[j] = draw(FUZZ_TEXT)
            lines[i] = " ".join(fields)
    return "\n".join(lines) + "\n"


@settings(FUZZ_SETTINGS, max_examples=100)
@given(mutated_canonical(), st.booleans())
def test_mutated_dataset_raises_only_package_errors(text, strict):
    try:
        load_dataset(text, strict_vocab=strict)
    except SekgError:
        pass
