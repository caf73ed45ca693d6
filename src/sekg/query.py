"""Declarative pattern queries over a knowledge graph.

Grammar::

    query := "MATCH" path ("," path)* ("WHERE" cond ("AND" cond)*)?
             "RETURN" "DISTINCT"? item ("," item)*
    path  := node (edge node)*
    node  := "(" IDENT? (":" IDENT)? ("{" IDENT "=" STRING ("," IDENT "=" STRING)* "}")? ")"
    edge  := "-[" ":" IDENT "]->" | "<-[" ":" IDENT "]-"
    cond  := operand ("=" | "<>") operand
    operand := IDENT ("." IDENT)? | STRING
    item  := IDENT ("." IDENT)?

Keywords are case-sensitive uppercase. Matching uses homomorphism semantics:
distinct variables may bind the same node unless a ``<>`` condition forbids
it. Property comparisons use plain value equality; a property absent on a
node compares equal only to another absent property. Projected rows are
sorted by their values and, under DISTINCT, deduplicated.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import QueryParseError, SchemaError
from .graph import Direction, KnowledgeGraph
from .schema import DEFAULT_SCHEMA

KEYWORDS = ("MATCH", "WHERE", "AND", "RETURN", "DISTINCT")

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    offset: int


def tokenize(text: str) -> list[Token]:
    """Scan ``text`` into tokens; offsets index into the source string."""
    tokens: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if text.startswith("<-[", i):
            tokens.append(Token("<-[", "<-[", i))
            i += 3
            continue
        if text.startswith("-[", i):
            tokens.append(Token("-[", "-[", i))
            i += 2
            continue
        if text.startswith("]->", i):
            tokens.append(Token("]->", "]->", i))
            i += 3
            continue
        if text.startswith("]-", i):
            tokens.append(Token("]-", "]-", i))
            i += 2
            continue
        if text.startswith("<>", i):
            tokens.append(Token("<>", "<>", i))
            i += 2
            continue
        if ch in "(){}:,.=":
            tokens.append(Token(ch, ch, i))
            i += 1
            continue
        if ch == '"':
            start = i
            value, i = _scan_string(text, i)
            tokens.append(Token("STRING", value, start))
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            word = m.group(0)
            kind = word if word in KEYWORDS else "IDENT"
            tokens.append(Token(kind, word, i))
            i = m.end()
            continue
        raise QueryParseError(f"unexpected character {ch!r}", i, frozenset())
    tokens.append(Token("EOF", "", n))
    return tokens


def _scan_string(text: str, start: int) -> tuple[str, int]:
    """Read a double-quoted string starting at ``start``; returns (value, end)."""
    out: list[str] = []
    i = start + 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == '"':
            return "".join(out), i + 1
        if ch == "\\":
            if i + 1 >= n:
                break
            out.append(text[i + 1])
            i += 2
            continue
        out.append(ch)
        i += 1
    raise QueryParseError("unterminated string literal", start, frozenset({'"'}))


@dataclass(frozen=True)
class NodePattern:
    variable: str | None
    concept: str | None
    constraints: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class EdgePattern:
    relation: str
    reversed: bool


@dataclass(frozen=True)
class PathPattern:
    nodes: tuple[NodePattern, ...]
    edges: tuple[EdgePattern, ...]


@dataclass(frozen=True)
class Operand:
    """Variable, property access or string literal in a condition."""

    variable: str | None
    key: str | None
    literal: str | None
    offset: int = field(default=0, compare=False)

    @property
    def is_literal(self) -> bool:
        return self.literal is not None

    def value(self, graph: KnowledgeGraph, env: dict[str, str]) -> str | None:
        if self.variable is None:
            return self.literal
        node_id = env[self.variable]
        return node_id if self.key is None else graph.node(node_id).property(self.key)


@dataclass(frozen=True)
class Condition:
    """``left op right``; also a test in a join plan.

    ``strict`` is off for MATCH conditions, where two absent properties
    compare equal, and on for rule property equality, where an absent
    property never matches.
    """

    left: Operand
    op: str
    right: Operand
    strict: bool = False

    def variables(self) -> frozenset[str]:
        return frozenset(
            o.variable for o in (self.left, self.right) if o.variable is not None
        )

    def holds(self, graph: KnowledgeGraph, env: dict[str, str]) -> bool:
        left, right = self.left.value(graph, env), self.right.value(graph, env)
        if self.op == "<>":
            return left != right
        return left == right and not (self.strict and left is None)


@dataclass(frozen=True)
class ReturnItem:
    variable: str
    key: str | None = None
    offset: int = field(default=0, compare=False)

    @property
    def label(self) -> str:
        return self.variable if self.key is None else f"{self.variable}.{self.key}"


@dataclass(frozen=True)
class PatternQuery:
    patterns: tuple[PathPattern, ...]
    where: tuple[Condition, ...]
    returns: tuple[ReturnItem, ...]
    distinct: bool


@dataclass(frozen=True)
class BindingRow:
    """One result row: projection labels paired with their values."""

    items: tuple[tuple[str, str], ...]

    def as_dict(self) -> dict[str, str]:
        return dict(self.items)

    @property
    def values(self) -> tuple[str, ...]:
        return tuple(v for _, v in self.items)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, *kinds: str) -> Token:
        tok = self.peek()
        if tok.kind not in kinds:
            raise QueryParseError(
                f"unexpected {_found(tok)}", tok.offset, frozenset(kinds)
            )
        return self.advance()

    def _require(self, kind: str, *also: str) -> None:
        """Check the next token is ``kind``; report the wider legal set."""
        tok = self.peek()
        if tok.kind != kind:
            raise QueryParseError(
                f"unexpected {_found(tok)}", tok.offset, frozenset((kind, *also))
            )

    def parse(self) -> PatternQuery:
        self.expect("MATCH")
        paths = [self.parse_path()]
        while self.peek().kind == ",":
            self.advance()
            paths.append(self.parse_path())
        conditions: list[Condition] = []
        if self.peek().kind == "WHERE":
            self.advance()
            conditions.append(self.parse_condition())
            while self.peek().kind == "AND":
                self.advance()
                conditions.append(self.parse_condition())
            self._require("RETURN", "AND")
        else:
            self._require("RETURN", ",", "WHERE", "-[", "<-[")
        self.advance()
        distinct = False
        if self.peek().kind == "DISTINCT":
            self.advance()
            distinct = True
        items = [self.parse_item()]
        while self.peek().kind == ",":
            self.advance()
            items.append(self.parse_item())
        self.expect("EOF", ",")
        query = PatternQuery(tuple(paths), tuple(conditions), tuple(items), distinct)
        self._check_bound(query)
        return query

    def parse_path(self) -> PathPattern:
        nodes = [self.parse_node()]
        edges: list[EdgePattern] = []
        while self.peek().kind in ("-[", "<-["):
            edges.append(self.parse_edge())
            nodes.append(self.parse_node())
        return PathPattern(tuple(nodes), tuple(edges))

    def parse_node(self) -> NodePattern:
        self.expect("(")
        allowed = {"IDENT", ":", "{", ")"}
        variable = None
        if self.peek().kind == "IDENT":
            variable = self.advance().text
            allowed = {":", "{", ")"}
        concept = None
        if self.peek().kind == ":":
            self.advance()
            tok = self.expect("IDENT")
            try:
                concept = DEFAULT_SCHEMA.concept(tok.text).name
            except SchemaError:
                raise QueryParseError(
                    f"unknown concept: {tok.text!r}", tok.offset, frozenset()
                ) from None
            allowed = {"{", ")"}
        constraints: list[tuple[str, str]] = []
        if self.peek().kind == "{":
            self.advance()
            constraints.append(self.parse_constraint())
            while self.peek().kind == ",":
                self.advance()
                constraints.append(self.parse_constraint())
            self.expect("}", ",")
            allowed = {")"}
        self._require(")", *(allowed - {")"}))
        self.advance()
        return NodePattern(variable, concept, tuple(constraints))

    def parse_constraint(self) -> tuple[str, str]:
        key = self.expect("IDENT")
        self.expect("=")
        value = self.expect("STRING")
        return (key.text, value.text)

    def parse_edge(self) -> EdgePattern:
        head = self.expect("-[", "<-[")
        self.expect(":")
        tok = self.expect("IDENT")
        try:
            relation, swapped = DEFAULT_SCHEMA.normalize_relation(tok.text)
        except SchemaError:
            raise QueryParseError(
                f"unknown relation: {tok.text!r}", tok.offset, frozenset()
            ) from None
        if head.kind == "-[":
            self.expect("]->")
            reverse = False
        else:
            self.expect("]-")
            reverse = True
        return EdgePattern(relation, reverse ^ swapped)

    def parse_condition(self) -> Condition:
        left = self.parse_operand()
        op = self.expect("=", "<>")
        right = self.parse_operand()
        return Condition(left, op.kind, right)

    def parse_operand(self) -> Operand:
        tok = self.expect("IDENT", "STRING")
        if tok.kind == "STRING":
            return Operand(None, None, tok.text, tok.offset)
        key = None
        if self.peek().kind == ".":
            self.advance()
            key = self.expect("IDENT").text
        return Operand(tok.text, key, None, tok.offset)

    def parse_item(self) -> ReturnItem:
        tok = self.expect("IDENT")
        key = None
        if self.peek().kind == ".":
            self.advance()
            key = self.expect("IDENT").text
        return ReturnItem(tok.text, key, tok.offset)

    def _check_bound(self, query: PatternQuery) -> None:
        bound = {
            node.variable
            for path in query.patterns
            for node in path.nodes
            if node.variable is not None
        }
        for cond in query.where:
            for operand in (cond.left, cond.right):
                if not operand.is_literal and operand.variable not in bound:
                    raise QueryParseError(
                        f"unbound variable: {operand.variable!r}",
                        operand.offset,
                        frozenset(),
                    )
        for item in query.returns:
            if item.variable not in bound:
                raise QueryParseError(
                    f"unbound variable: {item.variable!r}", item.offset, frozenset()
                )


def _found(tok: Token) -> str:
    return "end of input" if tok.kind == "EOF" else repr(tok.text)


def parse_query(text: str) -> PatternQuery:
    """Parse ``text`` into a schema-checked query AST."""
    return _Parser(text).parse()


def format_query(query: PatternQuery) -> str:
    """Render a query AST back to canonical source text."""
    parts = ["MATCH "]
    parts.append(", ".join(_format_path(p) for p in query.patterns))
    if query.where:
        parts.append(" WHERE ")
        parts.append(" AND ".join(_format_condition(c) for c in query.where))
    parts.append(" RETURN ")
    if query.distinct:
        parts.append("DISTINCT ")
    parts.append(", ".join(item.label for item in query.returns))
    return "".join(parts)


def _format_path(path: PathPattern) -> str:
    out = [_format_node(path.nodes[0])]
    for edge, node in zip(path.edges, path.nodes[1:]):
        if edge.reversed:
            out.append(f"<-[:{edge.relation}]-")
        else:
            out.append(f"-[:{edge.relation}]->")
        out.append(_format_node(node))
    return "".join(out)


def _format_node(node: NodePattern) -> str:
    inner = node.variable or ""
    if node.concept is not None:
        inner += f":{node.concept}"
    if node.constraints:
        body = ", ".join(f'{k}={_quote(v)}' for k, v in node.constraints)
        inner += " {" + body + "}" if inner else "{" + body + "}"
    return f"({inner})"


def _format_condition(cond: Condition) -> str:
    return f"{_format_operand(cond.left)} {cond.op} {_format_operand(cond.right)}"


def _format_operand(op: Operand) -> str:
    if op.is_literal:
        return _quote(op.literal or "")
    return op.variable if op.key is None else f"{op.variable}.{op.key}"


def _quote(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


@dataclass(frozen=True)
class Step:
    """One step of a join plan; ``kind`` says which fields it reads.

    ``test``: check ``test``. ``has_edge``: check ``(var, relation, other)``.
    ``seed`` / ``edges``: bind ``var`` and ``other`` to the endpoints of the
    seed pairs / of every ``relation`` edge. ``out`` / ``in``: bind ``var``
    to the ``relation`` neighbors of ``other``. ``lookup``: bind ``var``,
    the left side of ``test``, to the nodes satisfying ``test``, whose right
    side is bound. ``nodes``: bind ``var`` to every node.
    """

    kind: str
    var: str = ""
    other: str = ""
    relation: str = ""
    test: Condition | None = None


@dataclass(frozen=True)
class Conjunction:
    """Relation atoms ``(src, relation, dst)`` and tests over variables.

    Relations are stored names (see ``OntologySchema.normalize_relation``).
    """

    atoms: tuple[tuple[str, str, str], ...]
    tests: tuple[Condition, ...]
    variables: tuple[str, ...]

    def plan(self, seed: int | None = None) -> tuple[Step, ...]:
        """Fix the step order once. Checks run as soon as their variables
        are bound; otherwise the next step is the first of, in this order:
        an id lookup, a property lookup against a bound variable, a bound
        endpoint's neighbors, a property lookup against a literal, a
        relation scan, a node scan. With ``seed``, that atom is bound first
        from pairs supplied at run time."""
        atoms, tests = list(self.atoms), list(self.tests)
        bound: set[str] = set()
        steps: list[Step] = []
        if seed is not None:
            src, rel, dst = atoms.pop(seed)
            steps.append(Step("seed", src, dst, rel))
            bound |= {src, dst}
        while True:
            for src, rel, dst in [a for a in atoms if {a[0], a[2]} <= bound]:
                atoms.remove((src, rel, dst))
                steps.append(Step("has_edge", src, dst, rel))
            for test in [t for t in tests if t.variables() <= bound]:
                tests.remove(test)
                steps.append(Step("test", test=test))
            free = [v for v in self.variables if v not in bound]
            if not free:
                return tuple(steps)
            options: list[tuple[int, Step, list, object]] = [
                (5, Step("nodes", free[0]), [], None)
            ]
            for test in tests:
                if oriented := _as_lookup(test, bound):
                    if oriented.left.key in (None, "id"):
                        rank = 0
                    else:
                        rank = 1 if oriented.right.variable is not None else 3
                    step = Step("lookup", oriented.left.variable or "", test=oriented)
                    options.append((rank, step, tests, test))
            for src, rel, dst in atoms:
                if src in bound:
                    step, rank = Step("out", dst, src, rel), 2
                elif dst in bound:
                    step, rank = Step("in", src, dst, rel), 2
                else:
                    step, rank = Step("edges", src, dst, rel), 4
                options.append((rank, step, atoms, (src, rel, dst)))
            _, step, pool, item = min(options, key=lambda o: o[0])
            if item is not None:
                pool.remove(item)
            steps.append(step)
            bound.update(v for v in (step.var, step.other) if v)


def _as_lookup(test: Condition, bound: set[str]) -> Condition | None:
    """``test`` oriented as ``unbound-var(.key) = bound side``, if it is one."""
    if test.op != "=":
        return None
    for mine, other in ((test.left, test.right), (test.right, test.left)):
        if mine.variable is not None and mine.variable not in bound:
            if other.variable is None or other.variable in bound:
                return Condition(mine, "=", other, test.strict)
    return None


class _Join:
    """One run of a plan: the current binding and the rows found so far."""

    def __init__(
        self,
        graph: KnowledgeGraph,
        steps: tuple[Step, ...],
        seed: list[tuple[str, str]],
    ):
        self.graph = graph
        self.steps = steps
        self.seed = seed
        self.env: dict[str, str] = {}
        self.rows: list[dict[str, str]] = []
        self.by_property: dict[str, dict[str | None, list[str]]] = {}

    def run(self, i: int) -> None:
        graph, env, steps = self.graph, self.env, self.steps
        while i < len(steps) and steps[i].kind in ("test", "has_edge"):
            step = steps[i]
            if step.kind == "test":
                if not step.test.holds(graph, env):
                    return
            elif not graph.has_edge(env[step.var], step.relation, env[step.other]):
                return
            i += 1
        if i == len(steps):
            self.rows.append(dict(env))
            return
        step = steps[i]
        if step.kind in ("seed", "edges"):
            pairs = (
                self.seed
                if step.kind == "seed"
                else [(e.src, e.dst) for e in graph.edges(step.relation)]
            )
            for src, dst in pairs:
                if step.var == step.other and src != dst:
                    continue
                env[step.var] = src
                env[step.other] = dst
                self.run(i + 1)
            return
        if step.kind == "out":
            values = graph.neighbors(env[step.other], step.relation)
        elif step.kind == "in":
            values = graph.neighbors(env[step.other], step.relation, Direction.IN)
        elif step.kind == "nodes":
            values = graph.node_ids()
        else:
            values = self._lookup(step.test)
        for value in values:
            env[step.var] = value
            self.run(i + 1)

    def _lookup(self, test: Condition) -> list[str] | tuple[str, ...]:
        value = test.right.value(self.graph, self.env)
        key = test.left.key
        if key is None or key == "id":
            return [value] if value is not None and self.graph.has_node(value) else []
        if value is None and test.strict:
            return []
        if key not in self.by_property:
            groups = self.by_property[key] = {}
            for node in self.graph.nodes():
                groups.setdefault(node.property(key), []).append(node.id)
        return self.by_property[key].get(value, ())


def match(
    graph: KnowledgeGraph,
    steps: tuple[Step, ...],
    seed: list[tuple[str, str]] | None = None,
) -> list[dict[str, str]]:
    """Every binding of a plan's variables that satisfies it on ``graph``.

    A plan made with ``seed`` binds its seeded atom from ``seed`` only.
    """
    join = _Join(graph, steps, seed or [])
    join.run(0)
    return join.rows


def _compile(query: PatternQuery) -> Conjunction:
    atoms: list[tuple[str, str, str]] = []
    tests: list[Condition] = []
    variables: dict[str, None] = {}
    for path in query.patterns:
        names = []
        for node in path.nodes:
            name = node.variable or f" anon{len(variables)}"
            names.append(name)
            variables[name] = None
            constraints = list(node.constraints)
            if node.concept is not None:
                constraints.insert(0, ("concept", node.concept))
            for key, value in constraints:
                left, right = Operand(name, key, None), Operand(None, None, value)
                tests.append(Condition(left, "=", right))
        for i, edge in enumerate(path.edges):
            src, dst = names[i], names[i + 1]
            if edge.reversed:
                src, dst = dst, src
            atoms.append((src, edge.relation, dst))
    tests.extend(query.where)
    return Conjunction(tuple(atoms), tuple(tests), tuple(variables))


def evaluate_query(
    query: PatternQuery, graph: KnowledgeGraph
) -> list[BindingRow]:
    """Evaluate ``query`` against ``graph`` and return sorted projection rows.

    Node concepts, ``{key="value"}`` constraints and WHERE conditions become
    tests of one conjunctive join (see :meth:`Conjunction.plan`). The step
    order never changes the result set, only the search order.
    """
    envs = match(graph, _compile(query).plan())
    operands = [Operand(item.variable, item.key, None) for item in query.returns]
    rows = [tuple(o.value(graph, env) or "" for o in operands) for env in envs]
    rows = sorted(set(rows) if query.distinct else rows)
    labels = tuple(item.label for item in query.returns)
    return [BindingRow(tuple(zip(labels, row))) for row in rows]


def run_query(text: str, graph: KnowledgeGraph) -> list[BindingRow]:
    """Parse and evaluate in one step."""
    return evaluate_query(parse_query(text), graph)
