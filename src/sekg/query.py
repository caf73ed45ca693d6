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

``parse_query`` returns the join body (a :class:`Conjunction`) with the
RETURN projection: each edge is a relation atom, and node concepts,
``{key="value"}`` constraints and WHERE conditions are its tests. The
planner drops a concept test that an atom's relation implies through its
domain or range, since ``add_edge`` stores no edge that breaks them.

Keywords are case-sensitive uppercase. Matching uses homomorphism semantics:
distinct variables may bind the same node unless a ``<>`` condition forbids
it. Property comparisons use plain value equality; a property absent on a
node compares equal only to another absent property. Projected rows are
sorted by their values and, under DISTINCT, deduplicated.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable, Sequence
from operator import itemgetter
from typing import NamedTuple

from .errors import QueryParseError, SchemaError
from .graph import Direction, KnowledgeGraph
from .schema import CONCEPTS, RELATIONS

KEYWORDS = ("MATCH", "WHERE", "AND", "RETURN", "DISTINCT")

#: One token after optional whitespace: a symbol, a double-quoted string
#: with ``\\`` escapes, a word, the end of input, or any other character.
#: An unterminated string ends in the last alternative at its quote.
_TOKEN_RE = re.compile(
    r"""\s*(?:(<-\[|-\[|\]->|\]-|<>|[(){}:,.=])|("[^"\\]*(?:\\.[^"\\]*)*")"""
    r"""|([A-Za-z_][A-Za-z0-9_]*)|(\Z)|(.))""",
    re.DOTALL,
)
_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)


class Token(NamedTuple):
    kind: str
    text: str
    offset: int


def tokenize(text: str) -> list[Token]:
    """Scan ``text`` into tokens; offsets index into the source string."""
    tokens: list[Token] = []
    append, make = tokens.append, Token._make
    # Each match starts where the last one ended; the first at the end is EOF.
    for m in _TOKEN_RE.finditer(text):
        group = m.lastindex
        word, offset = m[group], m.start(group)
        if group == 1:
            append(make((word, word, offset)))
        elif group == 3:
            append(make((word if word in KEYWORDS else "IDENT", word, offset)))
        elif group == 2:
            append(make(("STRING", _ESCAPE_RE.sub(r"\1", word[1:-1]), offset)))
        elif group == 4:
            append(make(("EOF", "", offset)))
            break
        elif word == '"':
            message = "unterminated string literal"
            raise QueryParseError(message, offset, frozenset({'"'}))
        else:
            raise QueryParseError(f"unexpected character {word!r}", offset, frozenset())
    return tokens


class Operand(NamedTuple):
    """Variable, property access or string literal in a condition."""

    variable: str | None
    key: str | None
    literal: str | None


class Condition(NamedTuple):
    """``left op right``; also a test in a join plan.

    ``strict`` is off for MATCH conditions, where two absent properties
    compare equal, and on for every ``=`` of a rule body, where an absent
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


class ReturnItem(NamedTuple):
    variable: str
    key: str | None = None

    @property
    def label(self) -> str:
        return self.variable if self.key is None else f"{self.variable}.{self.key}"


class PatternQuery(NamedTuple):
    """A parsed query: the join ``body`` it runs and the projection of its rows.

    Every node of the MATCH paths is a variable of the body, in order of
    first appearance; an anonymous node gets a name no query can spell.
    Every edge is an atom over stored relation names. Node concepts,
    ``{key="value"}`` constraints and then the WHERE conditions are its tests.
    """

    body: Conjunction
    returns: tuple[ReturnItem, ...]
    distinct: bool


class BindingRow(NamedTuple):
    """One result row: projection labels paired with their values."""

    items: tuple[tuple[str, str], ...]

    def as_dict(self) -> dict[str, str]:
        return dict(self.items)

    @property
    def values(self) -> tuple[str, ...]:
        return tuple(v for _, v in self.items)


class _Parser:
    """Builds the join body while it reads: each node adds its variable and
    tests, each edge its atom, each WHERE condition its test."""

    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0
        self.atoms: list[tuple[str, str, str]] = []
        self.tests: list[Condition] = []
        self.variables: dict[str, None] = {}
        self.uses: list[tuple[str, int]] = []  # WHERE and RETURN variables

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
        self.parse_path()
        while self.peek().kind == ",":
            self.advance()
            self.parse_path()
        if self.peek().kind == "WHERE":
            self.advance()
            self.tests.append(self.parse_condition())
            while self.peek().kind == "AND":
                self.advance()
                self.tests.append(self.parse_condition())
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
        # Checked only now, so that a syntax error anywhere wins.
        for name, offset in self.uses:
            if name not in self.variables:
                message = f"unbound variable: {name!r}"
                raise QueryParseError(message, offset, frozenset())
        body = Conjunction(tuple(self.atoms), tuple(self.tests), tuple(self.variables))
        return PatternQuery(body, tuple(items), distinct)

    def parse_path(self) -> None:
        name = self.parse_node()
        while self.peek().kind in ("-[", "<-["):
            relation, reverse = self.parse_edge()
            other = self.parse_node()
            atom = (other, relation, name) if reverse else (name, relation, other)
            self.atoms.append(atom)
            name = other

    def parse_node(self) -> str:
        """Read one node; returns its variable, made up if it has none."""
        self.expect("(")
        allowed = {"IDENT", ":", "{", ")"}
        name = f" anon{len(self.variables)}"
        if self.peek().kind == "IDENT":
            name = self.advance().text
            allowed = {":", "{", ")"}
        self.variables[name] = None
        if self.peek().kind == ":":
            self.advance()
            tok = self.expect("IDENT")
            try:
                concept = CONCEPTS[tok.text].name
            except SchemaError:
                raise QueryParseError(
                    f"unknown concept: {tok.text!r}", tok.offset, frozenset()
                ) from None
            self.tests.append(_equals(name, "concept", concept))
            allowed = {"{", ")"}
        if self.peek().kind == "{":
            self.advance()
            self.tests.append(self.parse_constraint(name))
            while self.peek().kind == ",":
                self.advance()
                self.tests.append(self.parse_constraint(name))
            self.expect("}", ",")
            allowed = {")"}
        self._require(")", *(allowed - {")"}))
        self.advance()
        return name

    def parse_constraint(self, name: str) -> Condition:
        key = self.expect("IDENT")
        self.expect("=")
        value = self.expect("STRING")
        return _equals(name, key.text, value.text)

    def parse_edge(self) -> tuple[str, bool]:
        """Read one edge; returns its stored relation and whether its atom
        runs against the arrow."""
        head = self.expect("-[", "<-[")
        self.expect(":")
        tok = self.expect("IDENT")
        try:
            relation, swapped, _ = RELATIONS[tok.text]
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
        return relation, reverse ^ swapped

    def parse_condition(self) -> Condition:
        left = self.parse_operand()
        op = self.expect("=", "<>")
        right = self.parse_operand()
        return Condition(left, op.kind, right)

    def parse_operand(self) -> Operand:
        tok = self.expect("IDENT", "STRING")
        if tok.kind == "STRING":
            return Operand(None, None, tok.text)
        self.uses.append((tok.text, tok.offset))
        key = None
        if self.peek().kind == ".":
            self.advance()
            key = self.expect("IDENT").text
        return Operand(tok.text, key, None)

    def parse_item(self) -> ReturnItem:
        tok = self.expect("IDENT")
        self.uses.append((tok.text, tok.offset))
        key = None
        if self.peek().kind == ".":
            self.advance()
            key = self.expect("IDENT").text
        return ReturnItem(tok.text, key)


def _equals(name: str, key: str, value: str) -> Condition:
    """The test that node ``name`` has ``value`` for ``key``."""
    return Condition(Operand(name, key, None), "=", Operand(None, None, value))


def _found(tok: Token) -> str:
    return "end of input" if tok.kind == "EOF" else repr(tok.text)


def parse_query(text: str) -> PatternQuery:
    """Parse ``text`` into its schema-checked join body and projection."""
    return _Parser(text).parse()


class Plan(NamedTuple):
    """A join plan over slots: ``Conjunction.variables[i]`` binds slot ``i``.

    Each step is a plain tuple whose first field names its kind:

    * ``("test", left, right, negate, strict)`` checks a condition whose
      operands are ``(slot or None, key or None, literal or None)``;
    * ``("has_edge", src, relation, dst)`` checks an edge between two slots;
    * ``("adjacent", var, relation, direction, other)`` binds ``var`` to the
      ``relation`` neighbors of slot ``other`` in ``direction``;
    * ``("lookup", var, key, operand, strict)`` binds ``var`` to the nodes
      whose property ``key`` (their id when ``None``) equals ``operand``;
    * ``("nodes", var)`` binds ``var`` to every node, and
      ``("nodes", var, relation)`` to the sources of ``relation``'s edges,
      both in id order.

    ``inputs`` are the slots bound before the first step, in order, from
    each input row given to :func:`match`.

    :func:`match` builds one function per step, last step first, each
    calling the next: a binding step once per value it binds, a check only
    when it passes, and after the last step a function appends the bound
    slots as a row. Maps and property values are resolved when a function
    is built, once per ``match`` call. Checks thus run as soon as their
    slots are bound, and rows come out in the order the steps bind them.
    """

    steps: tuple[tuple, ...]
    width: int
    inputs: tuple[int, ...]


class Conjunction(NamedTuple):
    """Relation atoms ``(src, relation, dst)`` and tests over variables.

    Relations are stored names, the first field of a ``RELATIONS`` entry.
    """

    atoms: tuple[tuple[str, str, str], ...]
    tests: tuple[Condition, ...]
    variables: tuple[str, ...]

    def plan(self, inputs: tuple[str, ...] = ()) -> Plan:
        """Fix the step order once. ``inputs`` are variables bound before the
        join starts, from the rows supplied at run time.

        A concept test on a variable that an atom's relation already types
        is dropped: the variable is the atom's source and the concept its
        relation's domain, or its target and the range. ``add_edge``
        enforces both, so such a test could never fail. Other checks run as
        soon as their variables are bound; otherwise the next step is the
        first of, in this order: an id lookup, a property lookup against a
        bound variable, a bound endpoint's neighbors, a property lookup
        against a literal, a scan of a relation's sources, a node scan. A
        source scan leaves its atom in the body, to be planned as the bound
        endpoint's neighbors, or as an edge check for a self-loop."""
        slot = {v: i for i, v in enumerate(self.variables)}
        if len(set(inputs)) != len(inputs) or not set(inputs) <= slot.keys():
            raise ValueError(f"inputs must be distinct variables of the body: {inputs}")
        atoms = list(self.atoms)
        typed: set[tuple[str, str]] = set()
        for src, rel, dst in atoms:
            relation = RELATIONS[rel][2]
            typed.update(((src, relation.domain), (dst, relation.range)))
        tests = [(t, t.variables()) for t in self.tests if _typed_by(t) not in typed]
        bound = set(inputs)
        steps: list[tuple] = []
        while True:
            for atom in [a for a in atoms if a[0] in bound and a[2] in bound]:
                atoms.remove(atom)
                src, rel, dst = atom
                steps.append(("has_edge", slot[src], rel, slot[dst]))
            for test, names in [t for t in tests if t[1] <= bound]:
                tests.remove((test, names))
                left, right = _operand(slot, test.left), _operand(slot, test.right)
                steps.append(("test", left, right, test.op == "<>", test.strict))
            free = next((v for v in self.variables if v not in bound), None)
            if free is None:
                pinned = tuple(slot[v] for v in inputs)
                return Plan(tuple(steps), len(slot), pinned)
            # The first option of the lowest rank wins; a node scan ranks 5.
            rank, lookup, atom = 5, None, None
            for test, names in tests:
                if oriented := _as_lookup(test, bound):
                    mine, other = oriented
                    if mine.key in (None, "id"):
                        option = 0
                    else:
                        option = 1 if other.variable is not None else 3
                    if option < rank:
                        rank, lookup = option, (test, names, mine, other)
            for candidate in atoms:
                option = 2 if candidate[0] in bound or candidate[2] in bound else 4
                if option < rank:
                    rank, atom = option, candidate
            if atom is not None:
                src, rel, dst = atom
                if src in bound:
                    steps.append(("adjacent", slot[dst], rel, Direction.OUT, slot[src]))
                elif dst in bound:
                    steps.append(("adjacent", slot[src], rel, Direction.IN, slot[dst]))
                else:  # the atom stays, to be planned once src is bound
                    steps.append(("nodes", slot[src], rel))
                    bound.add(src)
                    continue
                atoms.remove(atom)
                bound.update((src, dst))
            elif lookup is not None:
                test, names, mine, other = lookup
                tests.remove((test, names))
                value = _operand(slot, other)
                steps.append(("lookup", slot[mine.variable], mine.key, value, test.strict))
                bound.add(mine.variable)
            else:
                steps.append(("nodes", slot[free]))
                bound.add(free)


def _operand(
    slot: dict[str, int], operand: Operand
) -> tuple[int | None, str | None, str | None]:
    """``operand`` as a plan reads it: (slot or None, key, literal)."""
    index = None if operand.variable is None else slot[operand.variable]
    return (index, operand.key, operand.literal)


def _typed_by(test: Condition) -> tuple[str, str] | None:
    """(variable, concept) if ``test`` is the concept test ``(v:Concept)``
    makes, else None."""
    left, right = test.left, test.right
    if test.op == "=" and left.key == "concept" and right.variable is None:
        return left.variable, right.literal
    return None


def _as_lookup(test: Condition, bound: set[str]) -> tuple[Operand, Operand] | None:
    """``test`` as (unbound-var(.key), bound side), if it is an equality
    that can bind that variable."""
    if test.op != "=":
        return None
    for mine, other in ((test.left, test.right), (test.right, test.left)):
        if mine.variable is not None and mine.variable not in bound:
            if other.variable is None or other.variable in bound:
                return mine, other
    return None


def _reader(graph: KnowledgeGraph, slots: list[str], operand: tuple) -> Callable:
    """A function giving ``operand``'s value for the bound ``slots``."""
    index, key, literal = operand
    if index is None:
        return lambda: literal
    if key is None:
        return lambda: slots[index]
    values = graph.property_values(key)
    return lambda: values[slots[index]]


def _step(
    graph: KnowledgeGraph, slots: list[str], step: tuple, then: Callable
) -> Callable:
    """``step`` as a function of the bound ``slots`` that calls ``then``
    once per binding it makes, or once if its check passes."""
    kind = step[0]
    if kind == "test":
        _, left, right, negate, strict = step
        left, right = _reader(graph, slots, left), _reader(graph, slots, right)

        def check() -> None:
            a, b = left(), right()
            if (a != b) if negate else (a == b and (a is not None or not strict)):
                then()

        return check
    if kind == "has_edge":
        _, src, relation, dst = step
        has_edge = graph.has_edge

        def check() -> None:
            if has_edge(slots[src], relation, slots[dst]):
                then()

        return check
    if kind == "adjacent":
        get, other = graph.adjacency(step[2], step[3]).get, step[4]

        def values() -> Sequence[str]:
            return get(slots[other], ())

    elif kind == "lookup":
        _, _, key, operand, strict = step
        read, by_id = _reader(graph, slots, operand), key in (None, "id")

        def values() -> Sequence[str]:
            value = read()
            if by_id:
                return (value,) if graph.has_node(value) else ()
            return () if value is None and strict else graph.nodes_with(key, value)

    else:  # every node, or one relation's sources
        ids = sorted(graph.adjacency(step[2])) if len(step) == 3 else graph.node_ids()

        def values() -> Sequence[str]:
            return ids

    var = step[1]

    def bind() -> None:
        for value in values():
            slots[var] = value
            then()

    return bind


def match(
    graph: KnowledgeGraph, plan: Plan, rows: Iterable[Sequence[str]] = ((),)
) -> list[tuple[str, ...]]:
    """Every binding of a plan's variables that satisfies it on ``graph``,
    as one tuple of its slots per result row.

    The plan runs once per input row, which binds ``plan.inputs`` in order;
    the default is one empty row, for a plan without inputs. No rows give no
    results, and a row whose width is not ``len(plan.inputs)`` raises
    ``ValueError``.
    """
    slots = [""] * plan.width
    found: list[tuple[str, ...]] = []

    def run() -> None:  # every step has passed: a row
        found.append(tuple(slots))

    for step in reversed(plan.steps):
        run = _step(graph, slots, step, run)
    inputs = plan.inputs
    for row in rows:
        if len(row) != len(inputs):
            raise ValueError(f"the plan takes {len(inputs)} inputs, got {len(row)}")
        for index, value in zip(inputs, row):
            slots[index] = value
        run()
    return found


def evaluate_query(
    query: PatternQuery, graph: KnowledgeGraph
) -> list[BindingRow]:
    """Evaluate ``query`` against ``graph`` and return sorted projection rows.

    Runs ``query.body`` as one conjunctive join (see :meth:`Conjunction.plan`).
    The step order never changes the result set, only the search order.
    Each RETURN item is one column over the join's rows: a variable's ids,
    or a key's values from ``graph.property_values``, ``""`` when absent.
    """
    body = query.body
    found = match(graph, body.plan())
    columns = []
    for item in query.returns:
        column = map(itemgetter(body.variables.index(item.variable)), found)
        if item.key is not None:
            values = graph.property_values(item.key)
            column = [values[i] or "" for i in column]
        columns.append(column)
    rows = zip(*columns)
    rows = sorted(set(rows) if query.distinct else rows)
    labels = tuple(item.label for item in query.returns)
    return [BindingRow(tuple(zip(labels, row))) for row in rows]


def run_query(text: str, graph: KnowledgeGraph) -> list[BindingRow]:
    """Parse and evaluate in one step."""
    return evaluate_query(parse_query(text), graph)
