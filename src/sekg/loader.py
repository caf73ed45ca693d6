"""Line-oriented dataset format: parse, validate, serialize.

A dataset is a sequence of records, one per line:

    # comment (ignored; blank lines too)
    SCENARIO <int> type="<attack-type-tag>"
    NODE <id> <Concept> [key=value]...
    EDGE <src> <relation> <dst> [inferred=<rule>]

Values containing whitespace are double-quoted; ``\\"`` and ``\\\\`` escape a
quote and a backslash inside quoted values. Reserved node keys: ``scenario``
(membership, integer), ``labels`` (comma-separated taxonomy labels) and
``comment``; every other key lands in the node's property map, except
``id``, ``concept`` and ``scenario_id``, which name node fields. Every NODE
must precede the first EDGE that references it, and an EDGE of a relation
the rules derive must name its rule with ``inferred=``.

Known vocabulary nodes are enriched on load: category labels and synonyms
come from the catalog, and a ``kind`` property ties specialized nodes (for
example per-scenario methods, or concrete real-world mediums) back to a
catalog term. Unresolved vocabulary references are warnings by default and
errors in strict mode.
"""

import re
from typing import NamedTuple

from .catalog import ID_VOCABULARY, KIND_VOCABULARY, lookup
from .errors import DatasetError, GraphError, SchemaError
from .graph import KnowledgeGraph, Node, is_property_key, scenario_members
from .inference import builtin_ruleset
from .schema import CONCEPTS

_BARE_VALUE_RE = re.compile(r"[A-Za-z0-9_.@:/+-]+")
#: The inside of a quoted segment, where ``\"`` and ``\\`` escape a quote
#: and a backslash. It is unrolled (no run can split two ways), so a
#: segment that does not close fails in linear time.
_ESCAPED = r'[^"\\]*(?:\\["\\][^"\\]*)*'
_ESCAPED_RE = re.compile(_ESCAPED)
_SEGMENT_RE = re.compile(rf'"({_ESCAPED})"')
_ESCAPE_RE = re.compile(r"\\(.)")
#: The longest prefix of a line whose quoted segments all close.
_CLOSED_RE = re.compile(rf'[^"]*(?:"{_ESCAPED}"[^"]*)*')
#: A field of a line whose segments close: bare runs and quoted segments.
_FIELD_RE = re.compile(rf'(?:[^\s"]+|"{_ESCAPED}")+')
#: Builds a record or node from a tuple of its fields, with no checks.
_new = tuple.__new__
#: The characters ``str.splitlines`` ends a line at; a record is one line.
_LINE_BREAK_RE = re.compile("[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")

#: Relation a builtin rule derives -> why an edge of it needs that rule.
_NEEDS_RULE = {
    r.relation: f"{r.relation} is derived by {r.name}, so its EDGE needs inferred=<rule>"
    for r in builtin_ruleset()
}

#: Concepts whose instances belong to exactly one scenario.
SCENARIO_CONCEPTS = frozenset(
    {
        "Attacker",
        "AttackMethod",
        "AttackTarget",
        "AttackGoal",
        "SubGoal",
        "AttackConsequence",
        "AttackStrategy",
        "SocialEngineeringInformation",
    }
)

#: Shared vocabulary concepts; instances never carry a scenario.
VOCABULARY_CONCEPTS = frozenset(
    {
        "HumanVulnerability",
        "EffectMechanism",
        "AttackMotivation",
        "AttackMedium",
        "CommonSkill",
        "AuxiliaryTrick",
    }
)

MANDATORY_ROLES = (
    "Attacker",
    "AttackMotivation",
    "AttackMethod",
    "AttackTarget",
    "AttackGoal",
    "AttackMedium",
    "HumanVulnerability",
    "EffectMechanism",
    "AttackConsequence",
)

ADVISORY_ROLES = ("AttackStrategy", "SocialEngineeringInformation")


class ScenarioRecord(NamedTuple):
    line: int
    scenario_id: int
    attack_type: str


class NodeRecord(NamedTuple):
    line: int
    node_id: str
    concept: str
    scenario: int | None
    labels: tuple[str, ...]
    properties: dict[str, str]
    comment: str


class EdgeRecord(NamedTuple):
    line: int
    src: str
    relation: str
    dst: str
    rule: str | None


Record = ScenarioRecord | NodeRecord | EdgeRecord


class Finding(NamedTuple):
    scenario_id: int
    severity: str  # "mandatory" | "advisory"
    role: str
    message: str


class LoadResult(NamedTuple):
    graph: KnowledgeGraph
    warnings: list[str]


def _split_fields(line: str, lineno: int) -> list[str]:
    """Split a record line into whitespace-separated fields, honoring quotes.

    ``str.split()`` and the regexes' ``\\s`` break on the same characters
    as ``str.isspace()``. A field is a run of bare characters and quoted
    segments; a quoted field is kept even when it is empty.
    """
    end = _CLOSED_RE.match(line).end()
    if end < len(line):
        # line[end] opens a segment that runs to the end of the line, or
        # up to a backslash escaping neither a quote nor a backslash.
        if _ESCAPED_RE.match(line, end + 1).end() < len(line):
            raise DatasetError("bad escape in quoted value", lineno)
        raise DatasetError("unterminated quoted value", lineno)
    return [_unquote(f) if '"' in f else f for f in _FIELD_RE.findall(line)]


def _unquote(field: str) -> str:
    """``field`` without the quotes and escapes of its quoted segments."""
    if "\\" not in field:
        return field.replace('"', "")
    return _SEGMENT_RE.sub(lambda m: _ESCAPE_RE.sub(r"\1", m[1]), field)


def _parse_kv(fields: list[str], lineno: int) -> dict[str, str]:
    out: dict[str, str] = {}
    for f in fields:
        key, sep, value = f.partition("=")
        if not sep or not is_property_key(key):
            raise DatasetError(f"expected key=value, got {f!r}", lineno)
        if key in out:
            raise DatasetError(f"duplicate key {key!r}", lineno)
        out[key] = value
    return out


def parse_document(text: str) -> tuple[Record, ...]:
    """Parse dataset text into records without building a graph."""
    records: list[Record] = []
    append = records.append
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if '"' in raw:
            if raw.lstrip()[0] == "#":
                continue
            fields = _split_fields(raw, lineno)
        else:
            fields = raw.split()
            if not fields or fields[0][0] == "#":
                continue
        tag = fields[0]
        if tag == "EDGE":  # most lines: test it first and slice nothing
            if len(fields) < 4:
                raise DatasetError("EDGE needs src, relation and dst", lineno)
            rule = None
            if len(fields) > 4:
                kv = _parse_kv(fields[4:], lineno)
                rule = kv.pop("inferred", None)
                if kv:
                    raise DatasetError(f"unknown EDGE keys: {sorted(kv)}", lineno)
            append(_new(EdgeRecord, (lineno, fields[1], fields[2], fields[3], rule)))
        elif tag == "SCENARIO":
            if len(fields) < 2:
                raise DatasetError("SCENARIO needs an integer id", lineno)
            try:
                sid = int(fields[1])
            except ValueError:
                raise DatasetError(f"bad scenario id {fields[1]!r}", lineno) from None
            kv = _parse_kv(fields[2:], lineno)
            attack_type = kv.pop("type", "")
            if not attack_type:
                raise DatasetError("SCENARIO needs a type=\"...\" tag", lineno)
            if kv:
                raise DatasetError(f"unknown SCENARIO keys: {sorted(kv)}", lineno)
            append(ScenarioRecord(lineno, sid, attack_type))
        elif tag == "NODE":
            if len(fields) < 3:
                raise DatasetError("NODE needs an id and a concept", lineno)
            kv = _parse_kv(fields[3:], lineno) if len(fields) > 3 else {}
            scenario = kv.pop("scenario", None)
            if scenario is not None:
                try:
                    scenario = int(scenario)
                except ValueError:
                    raise DatasetError("scenario= must be an integer", lineno) from None
            labels = kv.pop("labels", None)
            labels = tuple(filter(None, map(str.strip, labels.split(",")))) if labels else ()
            comment = kv.pop("comment", "")
            record = (lineno, fields[1], fields[2], scenario, labels, kv, comment)
            append(_new(NodeRecord, record))
        else:
            raise DatasetError(f"unknown record tag {tag!r}", lineno)
    return tuple(records)


def _unresolved(what: str, line: int, strict: bool, warnings: list[str]) -> None:
    """Report a vocabulary reference the catalog lacks: a ``DatasetError``
    in strict mode, else a warning naming its line."""
    if strict:
        raise DatasetError(what, line)
    warnings.append(f"line {line}: {what}")


def _enrich_node(
    rec: NodeRecord,
    concept: str,
    strict: bool,
    warnings: list[str],
) -> tuple[tuple[str, ...], dict[str, str]]:
    """Resolve a node against the catalog; return merged labels/properties.

    A node with neither a vocabulary concept nor a ``kind`` keeps its
    record's properties, and its labels are only sorted and deduplicated.
    """
    props = rec.properties
    kind = props.get("kind")
    vocab = ID_VOCABULARY.get(concept)
    if vocab is None and kind is None:
        return tuple(sorted(set(rec.labels))), props
    labels = set(rec.labels)
    entry = None
    if vocab is not None:
        entry = lookup(vocab, rec.node_id)
        if entry is None and kind is not None:
            entry = lookup(vocab, kind)
        if entry is None:
            what = f"{concept} node {rec.node_id!r} is not a catalog term"
            _unresolved(what, rec.line, strict, warnings)
    kind_vocab = KIND_VOCABULARY.get(concept)
    if kind_vocab is not None and kind is not None:
        kind_entry = lookup(kind_vocab, kind)
        if kind_entry is None:
            what = f"kind {kind!r} on {rec.node_id!r} is not a catalog term"
            _unresolved(what, rec.line, strict, warnings)
        elif concept == "AttackMethod":
            labels.update(kind_entry.labels)
    if entry is not None:
        if entry.category is not None:
            labels.add(entry.category)
        labels.update(entry.labels)
        if entry.synonyms and entry.ident == rec.node_id and "synonyms" not in props:
            props = {**props, "synonyms": ",".join(entry.synonyms)}
    return tuple(sorted(labels)), props


def load_dataset(text: str, strict_vocab: bool = False) -> LoadResult:
    """Parse dataset text and build a validated knowledge graph."""
    graph = KnowledgeGraph()
    warnings: list[str] = []

    seen_scenarios: set[int] = set()
    add_edge = graph.add_edge
    for rec in parse_document(text):
        if type(rec) is EdgeRecord:
            line, src, relation, dst, rule = rec
            try:
                add_edge(src, relation, dst, rule)
            except (GraphError, SchemaError) as exc:
                raise DatasetError(str(exc), line) from None
            if relation in _NEEDS_RULE and rule is None:  # after add_edge: its refusals win
                raise DatasetError(_NEEDS_RULE[relation], line)
        elif type(rec) is ScenarioRecord:
            if rec.scenario_id in seen_scenarios:
                raise DatasetError(
                    f"duplicate scenario id {rec.scenario_id}", rec.line
                )
            seen_scenarios.add(rec.scenario_id)
            graph.register_scenario(rec.scenario_id, rec.attack_type)
        else:
            try:
                concept = CONCEPTS[rec.concept].name
            except SchemaError as exc:
                raise DatasetError(str(exc), rec.line) from None
            if concept in VOCABULARY_CONCEPTS and rec.scenario is not None:
                raise DatasetError(
                    f"vocabulary node {rec.node_id!r} must not carry scenario=",
                    rec.line,
                )
            if concept in SCENARIO_CONCEPTS and rec.scenario is None:
                raise DatasetError(
                    f"{concept} node {rec.node_id!r} needs scenario=", rec.line
                )
            labels, props = _enrich_node(rec, concept, strict_vocab, warnings)
            node = (rec.node_id, concept, rec.scenario, labels, props, rec.comment)
            try:
                graph.add_node(_new(Node, node))
            except GraphError as exc:
                raise DatasetError(str(exc), rec.line) from None
    return LoadResult(graph, warnings)


def _format_value(value: str, owner: str, field: str) -> str:
    """``value`` as one field, bare when it can be, else quoted.

    Text holding a line break cannot be written, since a record is one line:
    it raises DatasetError naming ``field`` of ``owner``.
    """
    if _BARE_VALUE_RE.fullmatch(value):
        return value
    if _LINE_BREAK_RE.search(value):
        raise DatasetError(f"{owner}: cannot write {field} {value!r}: it holds a line break")
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def serialize_dataset(graph: KnowledgeGraph, include_inferred: bool = False) -> str:
    """Render a graph back to dataset text.

    Scenario records come first (by id), then nodes (by id), then edges by
    (src, relation, dst); output is deterministic and reparses to an equal
    graph. Inferred edges are skipped unless ``include_inferred`` is set, in
    which case they carry an ``inferred=<rule>`` marker. An id or value
    holding a character that ``str.splitlines`` breaks at, or an edge of a
    derived relation without a rule, raises DatasetError.
    """
    lines: list[str] = []
    for sid, attack_type in sorted(graph.scenarios.items()):
        scenario_type = _format_value(attack_type, f"scenario {sid}", "type")
        lines.append(f"SCENARIO {sid} type={scenario_type}")
    for node in graph.nodes():
        owner = f"node {node.id!r}"
        parts = [f"NODE {_format_value(node.id, owner, 'id')} {node.concept}"]
        if node.scenario_id is not None:
            parts.append(f"scenario={node.scenario_id}")
        if node.taxonomy_labels:
            labels = ",".join(sorted(node.taxonomy_labels))
            parts.append(f"labels={_format_value(labels, owner, 'labels')}")
        for key in sorted(node.properties):
            parts.append(f"{key}={_format_value(node.properties[key], owner, key)}")
        if node.comment:
            parts.append(f"comment={_format_value(node.comment, owner, 'comment')}")
        lines.append(" ".join(parts))
    for edge in graph.edges():
        if edge.is_inferred and not include_inferred:
            continue
        if edge.relation in _NEEDS_RULE and not edge.is_inferred:
            raise DatasetError(f"edge {edge.src!r} -> {edge.dst!r}: {_NEEDS_RULE[edge.relation]}")
        src, dst = _format_value(edge.src, "edge", "src"), _format_value(edge.dst, "edge", "dst")
        line = f"EDGE {src} {edge.relation} {dst}"
        if edge.is_inferred:
            line += f" inferred={_format_value(edge.rule, 'edge', 'rule')}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def validate_scenario_completeness(graph: KnowledgeGraph) -> list[Finding]:
    """Check each declared scenario for required participant roles.

    A scenario's roles are the concepts of its ``scenario_members`` (the
    nodes of its ``scenario_subgraph``). Mandatory roles missing from them
    produce mandatory findings; missing strategy or gathered-information
    nodes are advisory.
    """
    findings: list[Finding] = []
    for sid, members in scenario_members(graph).items():
        present = {graph.node(node_id).concept for node_id in members}
        for role in MANDATORY_ROLES:
            if role not in present:
                findings.append(
                    Finding(sid, "mandatory", role, f"scenario {sid} has no {role}")
                )
        for role in ADVISORY_ROLES:
            if role not in present:
                findings.append(
                    Finding(sid, "advisory", role, f"scenario {sid} has no {role}")
                )
    return findings
