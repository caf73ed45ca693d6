"""Typed in-memory property graph with provenance tracking.

Nodes carry a concept, optional scenario membership, taxonomy labels and
string properties. Edges are unique per (src, relation, dst) and record
whether they were asserted by a dataset or produced by an inference rule.
The store holds each edge once: its dst in the sorted out-list of its src
and its src in the sorted in-list of its dst, one pair of maps per
relation, plus the rule of each inferred edge by (src, relation, dst).
``edge``, ``edges`` and a duplicate ``add_edge`` build each ``Edge`` from
them when read, so a read returns an equal value, not a stored object.
These reads come in id order: ``nodes``, ``node_ids``, ``nodes_with``,
``nodes_by_concept``, ``edges`` (one relation's by (src, dst), all of them
by (src, relation, dst)), ``neighbors`` and each list of an ``adjacency``
map. Three do not: the keys of an ``adjacency`` map follow the order in
which the nodes got their first such edge, and the keys of
``property_values`` and ``node_map`` follow node insertion. Sort those
where order matters.

``KnowledgeGraph.add_edge`` is the only checked way in for an edge: the
loader, axiom closure, the rules and ``scenario_subgraph`` all write
through it. It raises ``SchemaError`` for an unknown relation and
``GraphError`` for a frozen graph, an unknown endpoint, a self-loop or a
domain or range mismatch. The loader reports a refusal as a
``DatasetError``; inference types each rule head so that none is refused.

Writes and reads resolve a relation name by indexing ``RELATIONS``, and a
node's concept by indexing ``CONCEPTS`` (both in ``sekg.schema``): an alias
reads like its stored relation, a swapped alias with its direction flipped,
and an unknown name raises ``SchemaError``.
"""

from bisect import bisect_left, insort
from collections.abc import Mapping, Sequence
from enum import Enum
from types import MappingProxyType
from typing import NamedTuple

from .errors import GraphError
from .schema import CONCEPTS, RELATION_ROWS, RELATIONS

#: Relations rendered red in exports and traversed by the attack-path oracle.
RED_RELATIONS = frozenset(
    {"craft_and_perform", "apply_to", "to_exploit", "have_vul", "bring_out"}
)

ASSERTED = None


def is_property_key(key: str) -> bool:
    """Whether a dataset can hold ``key`` as the ``key`` of a ``key=value``
    field: an ASCII letter or ``_``, then ASCII letters, digits or ``_``.
    The loader reads fields by it, and ``add_node`` refuses any other key."""
    return key.isascii() and key.isidentifier()


#: Keys of a NODE record that load into the node's own fields, not into
#: its properties.
_RECORD_KEYS = frozenset({"scenario", "labels", "comment"})

#: Builds an edge from a tuple of its fields, with no checks.
_new = tuple.__new__

#: The out-lists of a name that is not a stored relation: none.
_NO_LISTS: Mapping[str, list[str]] = MappingProxyType({})


class Direction(Enum):
    OUT = "out"
    IN = "in"


#: ``Direction.OUT``, read as a global: an Enum class lookup costs more.
_OUT = Direction.OUT


class Node(NamedTuple):
    id: str
    concept: str
    scenario_id: int | None = None
    taxonomy_labels: tuple[str, ...] = ()
    #: Read-only when defaulted: the one empty mapping every such node shares.
    properties: Mapping[str, str] = MappingProxyType({})
    comment: str = ""

    def property(self, key: str) -> str | None:
        """Property lookup with pseudo-fields id, concept and scenario_id."""
        if key == "id":
            return self.id
        if key == "concept":
            return self.concept
        if key == "scenario_id":
            return None if self.scenario_id is None else str(self.scenario_id)
        return self.properties.get(key)


class Edge(NamedTuple):
    src: str
    relation: str
    dst: str
    rule: str | None = ASSERTED

    @property
    def is_inferred(self) -> bool:
        return self.rule is not None

    @property
    def provenance(self) -> str:
        return "asserted" if self.rule is None else f"inferred:{self.rule}"

    def key(self) -> tuple[str, str, str]:
        return self[:3]


class KnowledgeGraph:
    """Mutable-until-frozen store of nodes, edges and scenario declarations."""

    def __init__(self):
        self._nodes: dict[str, Node] = {}
        # One map per stored relation, made here so that add_edge indexes it.
        # The out-lists are the edge set; the in-lists mirror them.
        self._out: dict[str, dict[str, list[str]]] = {r.name: {} for r in RELATION_ROWS}
        self._in: dict[str, dict[str, list[str]]] = {r.name: {} for r in RELATION_ROWS}
        self._rules: dict[tuple[str, str, str], str] = {}  # inferred edges only
        self._edge_count = 0
        self._scenarios: dict[int, str] = {}
        self._by_property: dict[str, dict[str | None, tuple[str, ...]]] = {}
        self._property_values: dict[str, dict[str, str | None]] = {}
        self._frozen = False

    # -- scenario registry ------------------------------------------------

    def register_scenario(self, scenario_id: int, attack_type: str) -> None:
        self._check_mutable()
        existing = self._scenarios.get(scenario_id)
        if existing is not None and existing != attack_type:
            raise GraphError(
                f"scenario {scenario_id} already registered with type {existing!r}"
            )
        self._scenarios[scenario_id] = attack_type

    @property
    def scenarios(self) -> dict[int, str]:
        return dict(self._scenarios)

    def scenario_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self._scenarios))

    def attack_types(self) -> frozenset[str]:
        return frozenset(self._scenarios.values())

    # -- nodes -------------------------------------------------------------

    def add_node(self, node: Node) -> Node:
        """Insert a node. Re-adding an identical node is a no-op.

        A property key must be one a dataset can hold (``is_property_key``)
        and not name a node field or a NODE record's ``scenario``,
        ``labels`` or ``comment``; any other key raises ``GraphError``.
        """
        self._check_mutable()
        concept = CONCEPTS[node.concept]
        if concept.name != node.concept:
            node = node._replace(concept=concept.name)
        if not concept.taxonomy_labels.issuperset(node.taxonomy_labels):
            label = next(x for x in node.taxonomy_labels if x not in concept.taxonomy_labels)
            raise GraphError(f"node {node.id!r}: label {label!r} not allowed on {concept.name}")
        if node.properties:
            for key in ("id", "concept", "scenario_id"):
                if key in node.properties:
                    raise GraphError(
                        f"node {node.id!r}: property {key!r} is a node field, not a property"
                    )
            for key in node.properties:
                if key in _RECORD_KEYS or not is_property_key(key):
                    raise GraphError(
                        f"node {node.id!r}: property key {key!r} cannot be written to a dataset"
                    )
        if node.scenario_id is not None and node.scenario_id not in self._scenarios:
            raise GraphError(
                f"node {node.id!r}: scenario {node.scenario_id} not declared"
            )
        existing = self._nodes.get(node.id)
        if existing is not None:
            if existing == node:
                return existing
            raise GraphError(f"node {node.id!r} already exists with different content")
        self._nodes[node.id] = node
        self._by_property.clear()
        self._property_values.clear()
        return node

    def node(self, node_id: str) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise GraphError(f"unknown node: {node_id!r}") from None

    def node_map(self) -> Mapping[str, Node]:
        """Every node by id, in insertion order: the graph's own map, read only."""
        return self._nodes

    def nodes(self) -> tuple[Node, ...]:
        return tuple(self._nodes[i] for i in sorted(self._nodes))

    def node_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self._nodes))

    def nodes_by_concept(self, concept: str) -> tuple[Node, ...]:
        name = CONCEPTS[concept].name
        return tuple(self._nodes[i] for i in self.nodes_with("concept", name))

    def nodes_with(self, key: str, value: str | None) -> tuple[str, ...]:
        """Sorted ids of the nodes whose ``Node.property(key)`` is ``value``.

        ``None`` selects the nodes without the property. A key's first lookup
        groups the ids of the nodes that hold it by value, from
        ``property_values``; the group of ``None`` is built on the first
        lookup of ``None``. Both are dropped when a node is added. The key
        ``"id"`` has no groups: it is answered from the node map.
        """
        if key == "id":
            return (value,) if value in self._nodes else ()
        groups = self._by_property.get(key)
        if groups is None:
            lists: dict[str | None, list[str]] = {}
            for node_id, held in self.property_values(key).items():
                if held is not None:
                    lists.setdefault(held, []).append(node_id)
            groups = self._by_property[key] = {v: tuple(sorted(ids)) for v, ids in lists.items()}
        if value is None and None not in groups:
            values = self.property_values(key)
            groups[None] = tuple(sorted(i for i, held in values.items() if held is None))
        return groups.get(value, ())

    def property_values(self, key: str) -> Mapping[str, str | None]:
        """``Node.property(key)`` of every node, keyed by node id.

        Built on a key's first use, in one pass over the node map that reads
        ``concept`` from the node and any key but ``id`` and ``scenario_id``
        from its properties, and dropped when a node is added, like the
        groups of ``nodes_with``. The mapping is the graph's own: read it,
        never change it.
        """
        values = self._property_values.get(key)
        if values is None:
            nodes = self._nodes.items()
            if key == "concept":
                values = {i: node.concept for i, node in nodes}
            elif key in ("id", "scenario_id"):
                values = {i: node.property(key) for i, node in nodes}
            else:
                values = {i: node.properties.get(key) for i, node in nodes}
            self._property_values[key] = values
        return values

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    # -- edges -------------------------------------------------------------

    def add_edge(
        self, src: str, relation: str, dst: str, rule: str | None = ASSERTED
    ) -> Edge:
        """Insert an edge after normalizing aliases and checking conformance.

        This is the graph's only insertion path, and it checks. It raises
        ``GraphError`` on a frozen graph, ``SchemaError`` on an unknown
        relation, then ``GraphError`` on an unknown endpoint, a self-loop,
        or a domain or range mismatch, in that order. Node concepts are canonical (``add_node`` resolves synonyms),
        so they compare directly with the relation's domain and range.
        Duplicate insertion is a no-op that returns the stored edge (first
        insertion wins, including its provenance); a duplicate is found by
        bisecting the source's out-list. A new edge's id joins each of its
        adjacency lists in order: appended when it sorts after the list's
        last id, inserted otherwise. The ``Edge`` returned is built for the
        call, equal to what ``edge`` reads back.
        """
        if self._frozen:
            raise GraphError("graph is frozen")
        relation, swapped, rel = RELATIONS[relation]
        if swapped:
            src, dst = dst, src
        src_node = self._nodes.get(src)
        if src_node is None:
            raise GraphError(f"unknown node: {src!r}")
        dst_node = self._nodes.get(dst)
        if dst_node is None:
            raise GraphError(f"unknown node: {dst!r}")
        if src == dst:
            raise GraphError(f"{relation} is irreflexive; got self-loop on {src!r}")
        if src_node.concept != rel.domain:
            raise GraphError(
                f"edge ({src}, {relation}, {dst}): domain mismatch: "
                f"{relation} expects {rel.domain}, got {src_node.concept}"
            )
        if dst_node.concept != rel.range:
            raise GraphError(
                f"edge ({src}, {relation}, {dst}): range mismatch: "
                f"{relation} expects {rel.range}, got {dst_node.concept}"
            )
        lists = self._out[relation]
        ids = lists.get(src)
        if ids is None:
            lists[src] = [dst]
        elif ids[-1] < dst:
            ids.append(dst)
        else:  # dst sorts at or before the last id, so ids[at] exists
            at = bisect_left(ids, dst)
            if ids[at] == dst:
                return _new(Edge, (src, relation, dst, self._rules.get((src, relation, dst))))
            ids.insert(at, dst)
        lists = self._in[relation]
        ids = lists.get(dst)
        if ids is None:
            lists[dst] = [src]
        elif ids[-1] < src:
            ids.append(src)
        else:
            insort(ids, src)
        self._edge_count += 1
        if rule is not None:
            self._rules[(src, relation, dst)] = rule
        return _new(Edge, (src, relation, dst, rule))

    def has_edge(self, src: str, relation: str, dst: str) -> bool:
        """Whether the edge is stored, named by its stored relation (no
        alias); a bisection of ``src``'s out-list."""
        ids = self._out.get(relation, _NO_LISTS).get(src)
        if ids is None:
            return False
        at = bisect_left(ids, dst)
        return at < len(ids) and ids[at] == dst

    def edge(self, src: str, relation: str, dst: str) -> Edge:
        """The stored edge, named like ``has_edge`` names it (no alias), as
        an ``Edge`` value built for the call; a missing one raises
        ``GraphError``."""
        if not self.has_edge(src, relation, dst):
            raise GraphError(f"unknown edge: ({src}, {relation}, {dst})")
        return _new(Edge, (src, relation, dst, self._rules.get((src, relation, dst))))

    def edges(self, relation: str | None = None) -> tuple[Edge, ...]:
        """All edges by (src, relation, dst), or one relation's edges.

        An alias gives its stored relation's edges, as stored; an unknown
        name raises ``SchemaError``. Each ``Edge`` is built for the call.
        """
        rules = self._rules.get
        if relation is None:
            keys = sorted(
                (src, name, dst)
                for name, lists in self._out.items()
                for src, ids in lists.items()
                for dst in ids
            )
            return tuple(_new(Edge, (*key, rules(key))) for key in keys)
        name = RELATIONS[relation][0]
        adjacency = self._out[name]
        return tuple(
            _new(Edge, (src, name, dst, rules((src, name, dst))))
            for src in sorted(adjacency)
            for dst in adjacency[src]
        )

    def rule_map(self) -> Mapping[tuple[str, str, str], str]:
        """The rule of every inferred edge by (src, relation, dst); an
        asserted edge has no entry. The graph's own map, read only."""
        return self._rules

    @property
    def edge_count(self) -> int:
        return self._edge_count

    # -- traversal ---------------------------------------------------------

    def neighbors(
        self, node_id: str, relation: str, direction: Direction = Direction.OUT
    ) -> tuple[str, ...]:
        """Adjacent node ids over one relation, sorted.

        A swapped alias reads its stored relation with ``OUT`` and ``IN``
        exchanged. Each list is already sorted and unique (``add_edge``
        keeps it so).
        """
        self.node(node_id)
        return tuple(self.adjacency(relation, direction).get(node_id, ()))

    def adjacency(
        self, relation: str, direction: Direction = Direction.OUT
    ) -> Mapping[str, Sequence[str]]:
        """One relation's adjacency lists, keyed by node id, as stored.

        Names resolve as in ``neighbors``. Only nodes with at least one such
        edge have a list; each is sorted and unique. The mapping and its
        lists are the graph's own: read them, never change them. A
        ``direction`` that is not a ``Direction`` raises ``TypeError``.
        """
        name, swapped, _ = RELATIONS[relation]
        if type(direction) is not Direction:
            raise TypeError(f"direction must be a Direction, got {direction!r}")
        index = self._out if (direction is _OUT) != swapped else self._in
        return index[name]

    # -- scenario views ------------------------------------------------------

    def scenario_subgraph(self, scenario_id: int) -> "KnowledgeGraph":
        """Frozen induced subgraph over ``scenario_members(self)[scenario_id]``."""
        if scenario_id not in self._scenarios:
            raise GraphError(f"scenario {scenario_id} not declared")
        keep = scenario_members(self)[scenario_id]
        sub = KnowledgeGraph()
        sub._scenarios = {scenario_id: self._scenarios[scenario_id]}
        for node_id in sorted(keep):
            sub._nodes[node_id] = self._nodes[node_id]
        rules = self._rules.get
        for relation, lists in self._out.items():
            for src, ids in lists.items():
                if src in keep:
                    for dst in ids:
                        if dst in keep:
                            sub.add_edge(src, relation, dst, rules((src, relation, dst)))
        return sub.freeze()

    # -- lifecycle -----------------------------------------------------------

    def freeze(self) -> "KnowledgeGraph":
        self._frozen = True
        return self

    @property
    def frozen(self) -> bool:
        return self._frozen

    def _check_mutable(self) -> None:
        if self._frozen:
            raise GraphError("graph is frozen")


def scenario_members(graph: KnowledgeGraph) -> dict[int, set[str]]:
    """Node ids of every declared scenario, by id, in one pass over the edges.

    A scenario holds its tagged nodes, the untagged (vocabulary) nodes one
    hop from them, and the take_effected_by targets of those vulnerabilities
    (mechanisms sit two hops from any tagged node). ``scenario_subgraph``
    and scenario validation both take membership from here.
    """
    nodes = graph._nodes
    members: dict[int, set[str]] = {sid: set() for sid in graph.scenario_ids()}
    for node in nodes.values():
        if node.scenario_id is not None:
            members[node.scenario_id].add(node.id)
    hops: dict[int, set[str]] = {sid: set() for sid in members}
    for lists in graph._out.values():
        for src, ids in lists.items():
            src_sid = nodes[src].scenario_id
            for dst in ids:
                dst_sid = nodes[dst].scenario_id
                if src_sid is not None and dst_sid is None:
                    hops[src_sid].add(dst)
                elif dst_sid is not None and src_sid is None:
                    hops[dst_sid].add(src)
    # take_effected_by's domain is HumanVulnerability, so only
    # vulnerabilities among the hops have an entry here.
    effects = graph._out["take_effected_by"]
    for sid, hop in hops.items():
        members[sid] |= hop
        for node_id in hop:
            members[sid].update(effects.get(node_id, ()))
    return members
