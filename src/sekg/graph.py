"""Typed in-memory property graph with provenance tracking.

Nodes carry a concept, optional scenario membership, taxonomy labels and
string properties. Edges are unique per (src, relation, dst) and record
whether they were asserted by a dataset or produced by an inference rule.
These reads come in id order: ``nodes``, ``node_ids``, ``nodes_with``,
``nodes_by_concept``, ``edges`` (one relation's by (src, dst), all of them
by (src, relation, dst)), ``neighbors`` and each list of an ``adjacency``
map. Two do not: the keys of an ``adjacency`` map follow the order in
which the nodes got their first such edge, and the keys of
``property_values`` follow node insertion. Sort those where order matters.

``KnowledgeGraph.add_edge`` is the only checked way in for an edge: the
loader, axiom closure, the rules and ``scenario_subgraph`` all write
through it. It raises ``SchemaError`` for an unknown relation and
``GraphError`` for a frozen graph, an unknown endpoint, a self-loop or a
domain or range mismatch. The loader reports a refusal as a
``DatasetError``; inference drops a refused rule head silently.

Writes and reads resolve a relation name by indexing ``RELATIONS``, and a
node's concept by indexing ``CONCEPTS`` (both in ``sekg.schema``): an alias
reads like its stored relation, a swapped alias with its direction flipped,
and an unknown name raises ``SchemaError``.
"""

import bisect
import re
from collections.abc import Mapping, Sequence
from enum import Enum
from types import MappingProxyType
from typing import NamedTuple

from .errors import GraphError
from .schema import CONCEPTS, RELATIONS

#: Relations rendered red in exports and traversed by the attack-path oracle.
RED_RELATIONS = frozenset(
    {"craft_and_perform", "apply_to", "to_exploit", "have_vul", "bring_out"}
)

ASSERTED = None

#: A property key a dataset can hold: the ``key`` of a ``key=value`` field.
#: The loader reads fields by it, and ``add_node`` refuses any other key.
PROPERTY_KEY_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: Keys of a NODE record that load into the node's own fields, not into
#: its properties.
_RECORD_KEYS = frozenset({"scenario", "labels", "comment"})

#: Builds an edge from a tuple of its fields, with no checks.
_new = tuple.__new__


class Direction(Enum):
    OUT = "out"
    IN = "in"


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
        self._edges: dict[tuple[str, str, str], Edge] = {}
        self._out: dict[str, dict[str, list[str]]] = {}
        self._in: dict[str, dict[str, list[str]]] = {}
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

        A property key must be one a dataset can hold (``PROPERTY_KEY_RE``)
        and not name a node field or a NODE record's ``scenario``,
        ``labels`` or ``comment``; any other key raises ``GraphError``.
        """
        self._check_mutable()
        concept = CONCEPTS[node.concept]
        if concept.name != node.concept:
            node = node._replace(concept=concept.name)
        for label in node.taxonomy_labels:
            if label not in concept.taxonomy_labels:
                raise GraphError(
                    f"node {node.id!r}: label {label!r} not allowed on {concept.name}"
                )
        for key in ("id", "concept", "scenario_id"):
            if key in node.properties:
                raise GraphError(
                    f"node {node.id!r}: property {key!r} is a node field, not a property"
                )
        for key in node.properties:
            if key in _RECORD_KEYS or not PROPERTY_KEY_RE.fullmatch(key):
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

    def nodes(self) -> tuple[Node, ...]:
        return tuple(self._nodes[i] for i in sorted(self._nodes))

    def node_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self._nodes))

    def nodes_by_concept(self, concept: str) -> tuple[Node, ...]:
        name = CONCEPTS[concept].name
        return tuple(self._nodes[i] for i in self.nodes_with("concept", name))

    def nodes_with(self, key: str, value: str | None) -> tuple[str, ...]:
        """Sorted ids of the nodes whose ``Node.property(key)`` is ``value``.

        ``None`` selects the nodes without the property. The groups of a key
        are built on its first lookup and dropped when a node is added.
        """
        groups = self._by_property.get(key)
        if groups is None:
            values = self.property_values(key)
            lists: dict[str | None, list[str]] = {}
            for node_id in sorted(values):
                lists.setdefault(values[node_id], []).append(node_id)
            groups = self._by_property[key] = {v: tuple(ids) for v, ids in lists.items()}
        return groups.get(value, ())

    def property_values(self, key: str) -> Mapping[str, str | None]:
        """``Node.property(key)`` of every node, keyed by node id.

        Built on a key's first use and dropped when a node is added, like
        the groups of ``nodes_with``. The mapping is the graph's own: read
        it, never change it.
        """
        values = self._property_values.get(key)
        if values is None:
            nodes = self._nodes
            values = self._property_values[key] = {i: nodes[i].property(key) for i in nodes}
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
        Duplicate insertion is a no-op returning the existing edge (first
        insertion wins, including its provenance). A new edge's id joins
        each of its adjacency lists in order: appended when it sorts after
        the list's last id, inserted otherwise.
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
        key = (src, relation, dst)
        edge = self._edges.get(key)
        if edge is not None:
            return edge
        edge = self._edges[key] = _new(Edge, (src, relation, dst, rule))
        lists = self._out.get(relation)
        if lists is None:
            lists = self._out[relation] = {}
        ids = lists.get(src)
        if ids is None:
            lists[src] = [dst]
        elif ids[-1] < dst:
            ids.append(dst)
        else:
            bisect.insort(ids, dst)
        lists = self._in.get(relation)
        if lists is None:
            lists = self._in[relation] = {}
        ids = lists.get(dst)
        if ids is None:
            lists[dst] = [src]
        elif ids[-1] < src:
            ids.append(src)
        else:
            bisect.insort(ids, src)
        return edge

    def has_edge(self, src: str, relation: str, dst: str) -> bool:
        return (src, relation, dst) in self._edges

    def edges(self, relation: str | None = None) -> tuple[Edge, ...]:
        """All edges by (src, relation, dst), or one relation's edges.

        An alias gives its stored relation's edges, as stored; an unknown
        name raises ``SchemaError``.
        """
        if relation is None:
            return tuple(sorted(self._edges.values(), key=Edge.key))
        name = RELATIONS[relation][0]
        adjacency = self._out.get(name, {})
        return tuple(
            self._edges[(src, name, dst)]
            for src in sorted(adjacency)
            for dst in adjacency[src]
        )

    @property
    def edge_count(self) -> int:
        return len(self._edges)

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
        index = self._out if (direction is Direction.OUT) != swapped else self._in
        return index.get(name, {})

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
        for src, relation, dst, rule in self._edges.values():
            if src in keep and dst in keep:
                sub.add_edge(src, relation, dst, rule)
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
    for src, _, dst in graph._edges:
        src_sid, dst_sid = nodes[src].scenario_id, nodes[dst].scenario_id
        if src_sid is not None and dst_sid is None:
            hops[src_sid].add(dst)
        elif dst_sid is not None and src_sid is None:
            hops[dst_sid].add(src)
    # take_effected_by's domain is HumanVulnerability, so only
    # vulnerabilities among the hops have an entry here.
    effects = graph._out.get("take_effected_by", {})
    for sid, hop in hops.items():
        members[sid] |= hop
        for node_id in hop:
            members[sid].update(effects.get(node_id, ()))
    return members
