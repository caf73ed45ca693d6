import functools
import gc
import random
import re

import pytest

from conftest import (
    CONCEPT_ROWS,
    RELATION_ROWS,
    check_edge_conformance,
    find_edge,
    has_node,
    random_conformant_graph,
    record_edge_writes,
    reference_store,
    replicated_graph,
    stored_name,
    stored_relation,
    thaw,
)
from sekg.datasets import canonical_graph
from sekg.errors import DatasetError, GraphError, SchemaError
from sekg.graph import Direction, Edge, KnowledgeGraph, Node
from sekg.inference import run_inference
from sekg.loader import load_dataset, serialize_dataset
from sekg.schema import RELATION_ALIASES, RELATIONS, SWAPPED_ALIASES

#: Every stored relation name, asserted then derived, from the schema's rows.
STORED = [r.name for r in RELATION_ROWS]


def small_graph() -> KnowledgeGraph:
    g = KnowledgeGraph()
    g.register_scenario(1, "phone_pretexting")
    g.add_node(Node("attacker1", "Attacker", 1))
    g.add_node(Node("pretexting1", "AttackMethod", 1))
    g.add_node(Node("victim1", "AttackTarget", 1))
    g.add_node(Node("greed", "HumanVulnerability"))
    g.add_edge("attacker1", "craft_and_perform", "pretexting1")
    g.add_edge("pretexting1", "apply_to", "victim1")
    g.add_edge("pretexting1", "to_exploit", "greed")
    g.add_edge("victim1", "have_vul", "greed")
    return g


def test_node_roundtrip():
    g = small_graph()
    assert g.node_count == 4
    assert has_node(g, "attacker1")
    assert not has_node(g, "nobody")
    assert g.node("attacker1").concept == "Attacker"
    assert g.node_ids() == ("attacker1", "greed", "pretexting1", "victim1")
    with pytest.raises(GraphError):
        g.node("nobody")


def test_add_node_resolves_concept_synonym():
    g = KnowledgeGraph()
    node = g.add_node(Node("v", "Victim"))
    assert node.concept == "AttackTarget"
    assert g.nodes_by_concept("Victim") == (node,)


def test_readd_identical_node_is_noop():
    g = KnowledgeGraph()
    first = g.add_node(Node("v", "AttackTarget"))
    second = g.add_node(Node("v", "AttackTarget"))
    assert first is second
    assert g.node_count == 1


def test_conflicting_node_rejected():
    g = KnowledgeGraph()
    g.add_node(Node("v", "AttackTarget"))
    with pytest.raises(GraphError, match="different content"):
        g.add_node(Node("v", "Attacker"))


def test_unknown_taxonomy_label_rejected():
    g = KnowledgeGraph()
    with pytest.raises(GraphError, match="label"):
        g.add_node(Node("a", "Attacker", taxonomy_labels=("quantum",)))


def test_undeclared_scenario_rejected():
    g = KnowledgeGraph()
    with pytest.raises(GraphError, match="scenario"):
        g.add_node(Node("a", "Attacker", scenario_id=3))


@pytest.mark.parametrize("key", ["id", "concept", "scenario_id"])
def test_property_named_like_a_node_field_rejected(key):
    # Node.property answers these keys from the node's own fields, so a
    # property of that name could never be matched or read back.
    g = KnowledgeGraph()
    g.register_scenario(1, "t")
    with pytest.raises(GraphError, match=f"property '{key}' is a node field"):
        g.add_node(Node("a1", "Attacker", 1, properties={key: "Spy"}))
    assert not has_node(g, "a1")


@pytest.mark.parametrize(
    "key", ["my key", "k=x", "", "9lives", "k-x", "k\n", "caf\u00e9", "scenario", "labels", "comment"]
)
def test_property_key_a_dataset_cannot_hold_rejected(key):
    # serialize_dataset writes ``key=value`` raw: such a key would fail to
    # reload, reload as another key, or load into a node field.
    g = KnowledgeGraph()
    g.register_scenario(1, "t")
    message = f"node 'a1': property key {key!r} cannot be written to a dataset"
    with pytest.raises(GraphError, match=re.escape(message)):
        g.add_node(Node("a1", "Attacker", 1, properties={"note": "x", key: "Spy"}))
    assert not has_node(g, "a1")


def test_scenario_registry():
    g = KnowledgeGraph()
    g.register_scenario(1, "phishing_campaign")
    g.register_scenario(2, "phishing_campaign")
    g.register_scenario(1, "phishing_campaign")
    with pytest.raises(GraphError):
        g.register_scenario(1, "whaling_campaign")
    assert g.scenario_ids() == (1, 2)
    assert g.attack_types() == frozenset({"phishing_campaign"})


def test_node_property_pseudo_fields():
    node = Node("v", "AttackTarget", 3, properties={"affiliation": "Company A"})
    assert node.property("id") == "v"
    assert node.property("concept") == "AttackTarget"
    assert node.property("scenario_id") == "3"
    assert node.property("affiliation") == "Company A"
    assert node.property("missing") is None
    assert Node("w", "AttackTarget").property("scenario_id") is None


def test_duplicate_edge_returns_existing():
    g = small_graph()
    first = find_edge(g, "attacker1", "craft_and_perform", "pretexting1")
    again = g.add_edge("attacker1", "craft_and_perform", "pretexting1")
    assert again == first  # an equal value: the store keeps no Edge objects
    assert g.edge_count == 4
    # first insertion wins, provenance included
    kept = g.add_edge("attacker1", "craft_and_perform", "pretexting1", rule="R9")
    assert kept.rule is None


def test_edge_alias_normalization():
    g = small_graph()
    g.add_node(Node("attacker2", "Attacker", 1))
    g.add_node(Node("m2", "AttackMethod", 1))
    g.add_node(Node("fear", "HumanVulnerability"))
    g.add_edge("attacker2", "conduct", "m2")
    assert g.has_edge("attacker2", "craft_and_perform", "m2")
    g.add_edge("fear", "exploited_by", "m2")
    assert g.has_edge("m2", "to_exploit", "fear")


def test_nonconformant_edge_rejected():
    g = small_graph()
    with pytest.raises(GraphError, match="mismatch"):
        g.add_edge("victim1", "craft_and_perform", "pretexting1")
    with pytest.raises(GraphError, match="unknown node"):
        g.add_edge("attacker1", "craft_and_perform", "ghost")
    with pytest.raises(SchemaError, match="unknown relation"):
        g.add_edge("attacker1", "bogus_rel", "pretexting1")


def test_irreflexive_self_loop_rejected():
    g = KnowledgeGraph()
    g.add_node(Node("a", "Attacker"))
    g.add_node(Node("b", "Attacker"))
    g.add_edge("a", "in_the_same_organization", "b", rule="R7")
    with pytest.raises(GraphError, match="irreflexive"):
        g.add_edge("a", "in_the_same_organization", "a", rule="R7")


def refusal_graph() -> KnowledgeGraph:
    g = KnowledgeGraph()
    g.register_scenario(1, "t")
    g.add_node(Node("a", "Attacker", 1))
    g.add_node(Node("m", "AttackMethod", 1))
    g.add_node(Node("v", "AttackTarget", 1))
    g.add_node(Node("h", "HumanVulnerability"))
    return g


# Every refusal ``add_edge`` can give, with its exact text. ``conduct`` is a
# plain alias of craft_and_perform; ``exploited_by`` is stored as to_exploit
# with its endpoints swapped, so its messages name the stored direction.
REFUSALS = [
    ("ghost", "craft_and_perform", "m", GraphError, "unknown node: 'ghost'"),
    ("a", "craft_and_perform", "ghost", GraphError, "unknown node: 'ghost'"),
    ("ghost1", "craft_and_perform", "ghost2", GraphError, "unknown node: 'ghost1'"),
    ("a", "bogus_rel", "m", SchemaError, "unknown relation: 'bogus_rel'"),
    ("ghost1", "bogus_rel", "ghost2", SchemaError, "unknown relation: 'bogus_rel'"),
    ("a", "craft_and_perform", "a", GraphError,
     "craft_and_perform is irreflexive; got self-loop on 'a'"),
    ("m", "craft_and_perform", "m", GraphError,
     "craft_and_perform is irreflexive; got self-loop on 'm'"),
    ("v", "craft_and_perform", "m", GraphError,
     "edge (v, craft_and_perform, m): domain mismatch: "
     "craft_and_perform expects Attacker, got AttackTarget"),
    ("m", "craft_and_perform", "v", GraphError,
     "edge (m, craft_and_perform, v): domain mismatch: "
     "craft_and_perform expects Attacker, got AttackMethod"),
    ("a", "craft_and_perform", "v", GraphError,
     "edge (a, craft_and_perform, v): range mismatch: "
     "craft_and_perform expects AttackMethod, got AttackTarget"),
    ("ghost", "conduct", "m", GraphError, "unknown node: 'ghost'"),
    ("a", "conduct", "ghost", GraphError, "unknown node: 'ghost'"),
    ("a", "conduct", "a", GraphError,
     "craft_and_perform is irreflexive; got self-loop on 'a'"),
    ("v", "conduct", "m", GraphError,
     "edge (v, craft_and_perform, m): domain mismatch: "
     "craft_and_perform expects Attacker, got AttackTarget"),
    ("a", "conduct", "v", GraphError,
     "edge (a, craft_and_perform, v): range mismatch: "
     "craft_and_perform expects AttackMethod, got AttackTarget"),
    ("ghost", "exploited_by", "m", GraphError, "unknown node: 'ghost'"),
    ("h", "exploited_by", "ghost", GraphError, "unknown node: 'ghost'"),
    ("ghost1", "exploited_by", "ghost2", GraphError, "unknown node: 'ghost2'"),
    ("h", "exploited_by", "h", GraphError,
     "to_exploit is irreflexive; got self-loop on 'h'"),
    ("h", "exploited_by", "v", GraphError,
     "edge (v, to_exploit, h): domain mismatch: "
     "to_exploit expects AttackMethod, got AttackTarget"),
    ("v", "exploited_by", "m", GraphError,
     "edge (m, to_exploit, v): range mismatch: "
     "to_exploit expects HumanVulnerability, got AttackTarget"),
    ("a", "same_attack_organization", "a", GraphError,
     "same_attack_organization is irreflexive; got self-loop on 'a'"),
    ("a", "same_attack_organization", "m", GraphError,
     "edge (a, same_attack_organization, m): range mismatch: "
     "same_attack_organization expects Attacker, got AttackMethod"),
]


@pytest.mark.parametrize("src, relation, dst, error, message", REFUSALS)
def test_refusal_messages(src, relation, dst, error, message):
    g = refusal_graph()
    with pytest.raises(error) as err:
        g.add_edge(src, relation, dst)
    assert type(err.value) is error
    assert str(err.value) == message
    assert g.edge_count == 0


@pytest.mark.parametrize("src, relation, dst, error, message", REFUSALS)
def test_refusal_messages_through_loader(src, relation, dst, error, message):
    lines = [
        "SCENARIO 1 type=t",
        "NODE a Attacker scenario=1",
        "NODE m AttackMethod scenario=1",
        "NODE v Victim scenario=1",
        "NODE h HumanVulnerability",
        "EDGE a craft_and_perform m",
        f"EDGE {src} {relation} {dst}",
    ]
    with pytest.raises(DatasetError) as err:
        load_dataset("\n".join(lines))
    assert err.value.line == 7
    assert str(err.value) == f"line 7: {message}"


def test_frozen_refusal_comes_first():
    g = refusal_graph().freeze()
    for src, relation, dst, _, _ in [*REFUSALS, ("a", "craft_and_perform", "m", None, None)]:
        with pytest.raises(GraphError) as err:
            g.add_edge(src, relation, dst)
        assert str(err.value) == "graph is frozen"


def written_names() -> list[str]:
    """Every relation name the schema accepts on input, plus an unknown one."""
    return sorted({*STORED, *RELATION_ALIASES, *SWAPPED_ALIASES, "bogus_rel"})


def expected_write(concepts, src, relation, dst):
    """What ``add_edge(src, relation, dst)`` must do, by the reference lookups
    (the alias dicts, then a scan of the schema's rows, not ``RELATIONS``):
    ``("ok", key)``, or ``(error type, message)``."""
    stored, swapped = stored_name(relation)
    rel = stored_relation(stored)
    if rel is None:
        return SchemaError, f"unknown relation: {relation!r}"
    if swapped:
        src, dst = dst, src
    if src == dst:
        return GraphError, f"{stored} is irreflexive; got self-loop on {src!r}"
    reason = check_edge_conformance(concepts[src], stored, concepts[dst])
    if reason is not None:
        return GraphError, f"edge ({src}, {stored}, {dst}): {reason}"
    return "ok", (src, stored, dst)


def test_write_table_matches_reference_lookups():
    names = written_names()
    assert sorted(RELATIONS) == [n for n in names if n != "bogus_rel"]
    concept_names = sorted(c.name for c in CONCEPT_ROWS)
    for c1 in concept_names:
        for c2 in concept_names:
            g = KnowledgeGraph()
            g.add_node(Node("x", c1))
            g.add_node(Node("y", c2))
            concepts = {"x": c1, "y": c2}
            for relation in names:
                for dst in ("y", "x"):
                    want = expected_write(concepts, "x", relation, dst)
                    if want[0] == "ok":
                        edge = g.add_edge("x", relation, dst, rule="T")
                        assert edge.key() == want[1] and g.has_edge(*want[1])
                        continue
                    with pytest.raises(want[0]) as err:
                        g.add_edge("x", relation, dst)
                    assert type(err.value) is want[0]
                    assert str(err.value) == want[1]


def test_edge_provenance():
    g = small_graph()
    asserted = find_edge(g, "attacker1", "craft_and_perform", "pretexting1")
    assert not asserted.is_inferred
    assert asserted.provenance == "asserted"
    derived = g.add_edge("attacker1", "attack", "victim1", rule="R1")
    assert derived.is_inferred
    assert derived.provenance == "inferred:R1"


def test_edge_reads_one_stored_edge(graph):
    g = small_graph()
    stored = g.edge("attacker1", "craft_and_perform", "pretexting1")
    assert stored == find_edge(g, "attacker1", "craft_and_perform", "pretexting1")
    assert stored.provenance == "asserted"
    g.add_edge("attacker1", "attack", "victim1", rule="R1")
    inferred = g.edge("attacker1", "attack", "victim1")
    assert inferred.provenance == "inferred:R1"
    assert inferred == find_edge(g, "attacker1", "attack", "victim1")
    for src, relation, dst in [
        ("victim1", "attack", "attacker1"),  # the reverse of a stored edge
        ("attacker1", "conduct", "pretexting1"),  # an alias: the stored name only
        ("ghost", "attack", "victim1"),
    ]:
        with pytest.raises(GraphError) as err:
            g.edge(src, relation, dst)
        assert str(err.value) == f"unknown edge: ({src}, {relation}, {dst})"
    for edge in graph.edges():
        assert graph.edge(*edge.key()) == edge


def test_node_map_holds_every_node(graph):
    nodes = graph.node_map()
    assert sorted(nodes) == list(graph.node_ids())
    assert all(nodes[node_id] is graph.node(node_id) for node_id in graph.node_ids())


def test_nodes_with_id_reads_the_node_map():
    g = small_graph()
    assert g.nodes_with("id", "victim1") == ("victim1",)
    assert g.nodes_with("id", "victim2") == ()
    assert g.nodes_with("id", None) == ()  # every node has an id
    g.add_node(Node("victim2", "AttackTarget", 1))  # after the first lookup
    assert g.nodes_with("id", "victim2") == ("victim2",)
    for node_id in g.node_ids():
        assert g.nodes_with("id", node_id) == (node_id,)
        assert has_node(g, node_id)


def assert_property_indexes(g, keys):
    """``property_values`` and ``nodes_with`` of each key equal their
    definitions by ``Node.property``, for every value some node holds and
    for ``None``."""
    nodes = g.nodes()
    for key in keys:
        values = {n.id: n.property(key) for n in nodes}
        assert g.property_values(key) == values
        assert list(g.property_values(key)) == list(g.node_map())  # insertion order
        for value in {*values.values(), None}:
            ids = tuple(sorted(i for i, held in values.items() if held == value))
            assert g.nodes_with(key, value) == ids, (key, value)


@pytest.mark.parametrize("seed", ["replicated", None, *range(100)])
def test_property_indexes_match_reference(graph, seed):
    """On the bundled graph (seed None), four copies of it and random graphs:
    every key some node holds, the node fields and a key no node holds. Each
    node added after the lookups shows up in the next ones: one without
    properties under ``None``, one holding an empty value under ``""``."""
    if seed == "replicated":
        g = replicated_graph(graph, 4)
    elif seed is not None:
        g = random_conformant_graph(seed)
    else:
        g = thaw(graph)
    held = {key for n in g.nodes() for key in n.properties}
    keys = sorted(held | {"id", "concept", "scenario_id", "blank"})
    assert "blank" not in held
    assert_property_indexes(g, keys)
    for new in (
        Node("zz_bare", "HumanVulnerability"),
        Node("zz_blank", "HumanVulnerability", properties={"blank": ""}),
    ):
        g.add_node(new)
        for key in keys:
            assert new.id in g.nodes_with(key, new.property(key)), key
    assert_property_indexes(g, keys)


def test_edges_sorted_and_filtered():
    g = small_graph()
    keys = [e.key() for e in g.edges()]
    assert keys == sorted(keys)
    assert {e.relation for e in g.edges("apply_to")} == {"apply_to"}
    assert sorted({e.relation for e in g.edges()}) == [
        "apply_to",
        "craft_and_perform",
        "have_vul",
        "to_exploit",
    ]


def test_neighbors_directions():
    g = small_graph()
    assert g.neighbors("pretexting1", "apply_to") == ("victim1",)
    assert g.neighbors("victim1", "apply_to", Direction.IN) == ("pretexting1",)
    assert g.neighbors("victim1", "apply_to") == ()
    with pytest.raises(GraphError):
        g.neighbors("ghost", "apply_to")


@pytest.mark.parametrize("direction", ["out", "in", None, 0, True])
def test_a_direction_that_is_not_a_direction_raises(direction):
    # A string such as "out" must not read as a direction, not even as IN.
    g = small_graph()
    message = f"direction must be a Direction, got {direction!r}"
    with pytest.raises(TypeError, match=re.escape(message)):
        g.adjacency("apply_to", direction)
    with pytest.raises(TypeError, match=re.escape(message)):
        g.neighbors("pretexting1", "apply_to", direction)
    with pytest.raises(TypeError, match=re.escape(message)):
        g.adjacency("exploited_by", direction)  # a swapped alias


def test_freeze_blocks_mutation():
    g = small_graph()
    g.freeze()
    assert g.frozen
    with pytest.raises(GraphError, match="frozen"):
        g.add_node(Node("x", "Attacker"))
    with pytest.raises(GraphError, match="frozen"):
        g.add_edge("victim1", "have_vul", "greed")


ALIASES = [
    *((alias, stored, False) for alias, stored in RELATION_ALIASES.items()),
    *((alias, stored, True) for alias, stored in SWAPPED_ALIASES.items()),
]
FLIPPED = {Direction.OUT: Direction.IN, Direction.IN: Direction.OUT}


def assert_reads_match_edges(g: KnowledgeGraph) -> None:
    """``edges(r)`` and ``neighbors`` in every direction equal what a filter
    of ``edges()`` gives, for every node and every schema relation. An alias
    reads like its stored relation, a swapped alias with ``OUT`` and ``IN``
    exchanged, and an unknown name raises."""
    every = g.edges()
    out: dict[tuple[str, str], set[str]] = {}
    inc: dict[tuple[str, str], set[str]] = {}
    for e in every:
        out.setdefault((e.src, e.relation), set()).add(e.dst)
        inc.setdefault((e.dst, e.relation), set()).add(e.src)
    for relation in STORED:
        assert g.edges(relation) == tuple(
            sorted((e for e in every if e.relation == relation), key=Edge.key)
        ), relation
    for alias, stored, _ in ALIASES:
        assert g.edges(alias) == g.edges(stored), alias
    with pytest.raises(SchemaError, match="unknown relation: 'bogus_rel'"):
        g.edges("bogus_rel")
    for node_id in g.node_ids():
        for relation in STORED:
            o = out.get((node_id, relation), set())
            i = inc.get((node_id, relation), set())
            assert g.neighbors(node_id, relation) == tuple(sorted(o))
            assert g.neighbors(node_id, relation, Direction.IN) == tuple(sorted(i))
        for alias, stored, swapped in ALIASES:
            for direction in Direction:
                read = FLIPPED[direction] if swapped else direction
                assert g.neighbors(node_id, alias, direction) == g.neighbors(
                    node_id, stored, read
                ), (node_id, alias, direction)
        with pytest.raises(SchemaError, match="unknown relation: 'bogus_rel'"):
            g.neighbors(node_id, "bogus_rel")


def test_alias_reads_on_bundled_graph(graph):
    assert graph.neighbors("attacker1", "conduct") == ("pretexting1",)
    assert graph.neighbors("attacker1", "conduct") == graph.neighbors(
        "attacker1", "craft_and_perform"
    )
    methods = graph.neighbors("greed", "exploited_by")
    assert methods and methods == graph.neighbors("greed", "to_exploit", Direction.IN)
    assert graph.neighbors("pretexting1", "exploited_by", Direction.IN) == (
        graph.neighbors("pretexting1", "to_exploit")
    )
    consequences = graph.neighbors("victim1", "bring_about")
    assert consequences and consequences == graph.neighbors("victim1", "bring_out")
    assert graph.edges("conduct") == graph.edges("craft_and_perform")
    assert graph.edges("exploited_by") == graph.edges("to_exploit")


def test_index_consistency_after_mutations():
    g = small_graph()
    g.add_node(Node("victim2", "AttackTarget", 1))
    g.add_edge("pretexting1", "apply_to", "victim2")
    g.add_edge("victim2", "have_vul", "greed")
    assert_reads_match_edges(g)


@functools.cache
def inferred_random_graph(seed: int) -> KnowledgeGraph:
    g = random_conformant_graph(seed)
    run_inference(g)
    return g.freeze()


@pytest.mark.parametrize("seed", [None, *range(100)])
def test_reads_match_edges(graph, seed):
    """On the bundled graph (seed None) and on inferred random graphs."""
    assert_reads_match_edges(graph if seed is None else inferred_random_graph(seed))


def test_stored_lists_do_not_depend_on_edge_line_order(asserted_graph, monkeypatch):
    """The inferred 4x graph, reloaded from its text as written (every list
    grows by appends) and with its EDGE lines shuffled (most grow by ordered
    inserts), reads the same edges and the same sorted lists."""
    writes = record_edge_writes(monkeypatch)
    g = replicated_graph(asserted_graph, 4)
    run_inference(g)
    lines = serialize_dataset(g, include_inferred=True).splitlines()
    head = [line for line in lines if not line.startswith("EDGE ")]
    edge_lines = lines[len(head):]
    assert edge_lines and all(line.startswith("EDGE ") for line in edge_lines)
    random.Random(4).shuffle(edge_lines)
    as_written = load_dataset("\n".join(lines)).graph
    shuffled = load_dataset("\n".join(head + edge_lines)).graph
    assert shuffled.edges() == as_written.edges() == g.edges()
    for relation in STORED:
        for direction in Direction:
            lists = as_written.adjacency(relation, direction)
            assert shuffled.adjacency(relation, direction) == lists, (relation, direction)
            assert g.adjacency(relation, direction) == lists, (relation, direction)
    assert_reads_match_edges(shuffled)
    for read in (g, as_written, shuffled):
        assert_store_matches_reference(read, writes)


def assert_store_matches_reference(g: KnowledgeGraph, writes: list[tuple]) -> None:
    """Every edge read of ``g`` equals what ``reference_store`` makes of the
    ``add_edge`` calls on ``g`` among ``writes`` (see ``record_edge_writes``):
    ``edges()``, ``edges(r)``, ``edge``, ``has_edge`` (also on absent keys
    next to stored ones), ``edge_count``, ``rule_map``, both adjacency maps
    with their key order, and each call's returned edge, a duplicate's
    carrying the first call's rule."""
    calls = [(call, edge) for graph, call, edge in writes if graph is g]
    store = reference_store(call for call, _ in calls)
    for (src, relation, dst, _), returned in calls:
        name, swapped = stored_name(relation)
        key = (dst, name, src) if swapped else (src, name, dst)
        assert type(returned) is Edge and returned == (*key, store[key]), returned
    every = tuple(Edge(*key, rule) for key, rule in sorted(store.items()))
    assert g.edges() == every
    assert g.edge_count == len(store)
    assert g.rule_map() == {key: rule for key, rule in store.items() if rule is not None}
    for relation in STORED:
        assert g.edges(relation) == tuple(e for e in every if e.relation == relation)
        out: dict[str, list[str]] = {}
        inc: dict[str, list[str]] = {}
        for src, name, dst in store:  # first insertion order
            if name == relation:
                out.setdefault(src, []).append(dst)
                inc.setdefault(dst, []).append(src)
        for direction, lists in ((Direction.OUT, out), (Direction.IN, inc)):
            adjacency = g.adjacency(relation, direction)
            assert list(adjacency) == list(lists), (relation, direction)
            assert {i: list(ids) for i, ids in adjacency.items()} == {
                i: sorted(ids) for i, ids in lists.items()
            }, (relation, direction)
    for key, rule in store.items():
        src, relation, dst = key
        assert g.has_edge(*key) and g.edge(*key) == (*key, rule), key
        for probe in [
            (dst, relation, src),
            (src, relation, dst[:-1]),  # sorts just before dst
            (src, relation, dst + "~"),
            (src, relation, ""),
            (src, relation, "\U0010ffff"),
            (src + "~", relation, dst),
        ]:
            assert g.has_edge(*probe) == (probe in store), probe
            if probe not in store:
                with pytest.raises(GraphError, match="unknown edge"):
                    g.edge(*probe)
    for alias, stored, swapped in ALIASES:
        for src, _, dst in (key for key in store if key[1] == stored):
            assert not g.has_edge(src, alias, dst) and not g.has_edge(dst, alias, src)


def test_the_store_holds_no_edge_objects():
    # An Edge is a tuple subclass, which the garbage collector never
    # untracks: the store keeps plain strings, lists, dicts and key tuples.
    g = canonical_graph()
    seen: set[int] = set()
    stack: list = [vars(g)]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        assert type(obj) is not Edge, obj
        stack.extend(gc.get_referents(obj))
    assert len(seen) > g.edge_count


@pytest.mark.parametrize("seed", [None, *range(100)])
def test_store_matches_reference(seed, monkeypatch):
    """On the bundled graph (seed None) and on inferred random graphs, each
    built here so that every write to it is recorded. The 4x replica is
    checked in ``test_stored_lists_do_not_depend_on_edge_line_order``."""
    writes = record_edge_writes(monkeypatch)
    if seed is None:
        g = canonical_graph()
    else:
        g = random_conformant_graph(seed)
        run_inference(g)
    assert_store_matches_reference(g, writes)


#: Each stored relation's spellings: (name, endpoints swapped).
SPELLINGS = {
    name: [(name, False), *((alias, swapped) for alias, stored, swapped in ALIASES if stored == name)]
    for name in STORED
}


@pytest.mark.parametrize("seed", [None, *range(100)])
def test_store_matches_reference_through_aliases_and_duplicates(graph, seed, monkeypatch):
    """The edges of the bundled graph (seed None) or of an inferred random
    graph, written in a shuffled order through random spellings (aliases
    and the swapped alias included) with random rules, and a third of them
    written again later, each with a rule drawn again."""
    source = graph if seed is None else inferred_random_graph(seed)
    rng = random.Random(seed)
    edges = list(source.edges())
    rng.shuffle(edges)
    edges += rng.sample(edges, len(edges) // 3)
    writes = record_edge_writes(monkeypatch)
    g = KnowledgeGraph()
    for sid, attack_type in source.scenarios.items():
        g.register_scenario(sid, attack_type)
    for node in source.nodes():
        g.add_node(node)
    for e in edges:
        name, swapped = rng.choice(SPELLINGS[e.relation])
        src, dst = (e.dst, e.src) if swapped else (e.src, e.dst)
        g.add_edge(src, name, dst, rng.choice((None, "R1", "T")))
    assert g.edge_count == source.edge_count
    assert_store_matches_reference(g, writes)


def test_neighbors_result_is_a_snapshot():
    g = small_graph()
    g.add_node(Node("victim2", "AttackTarget", 1))
    out = g.neighbors("pretexting1", "apply_to")
    inc = g.neighbors("greed", "have_vul", Direction.IN)
    g.add_edge("pretexting1", "apply_to", "victim2")
    g.add_edge("victim2", "have_vul", "greed")
    assert (out, inc) == (("victim1",),) * 2
    assert g.neighbors("pretexting1", "apply_to") == ("victim1", "victim2")
    assert g.neighbors("greed", "have_vul", Direction.IN) == ("victim1", "victim2")


def test_scenario_subgraph_membership(graph):
    sub = graph.scenario_subgraph(9)
    assert sub.frozen
    assert sub.scenario_ids() == (9,)
    assert sub.node_count == 49
    # every edge endpoint is inside the subgraph
    for edge in sub.edges():
        assert has_node(sub, edge.src)
        assert has_node(sub, edge.dst)
    # mechanisms two hops out are pulled in
    assert any(n.concept == "EffectMechanism" for n in sub.nodes())
    with pytest.raises(GraphError):
        graph.scenario_subgraph(99)


def test_edge_key_ordering():
    e = Edge("a", "attack", "b", "R1")
    assert e.key() == ("a", "attack", "b")
