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
``{key="value"}`` constraints and WHERE conditions are its tests. A concept
name or synonym resolves alike as a label, a ``{concept="..."}`` value and a
WHERE literal tested against ``x.concept``.

Keywords are case-sensitive uppercase. Matching uses homomorphism semantics:
distinct variables may bind the same node unless a ``<>`` condition forbids
it. A comparison with an absent property never holds, ``=`` or ``<>``,
not even against another absent one. Rows are sorted by their values and,
under DISTINCT, deduplicated. A parse error's ``expected`` lists only the
token kinds the parser would take at its offset; an unterminated string's
lists ``"``, the quote that would close it. Names are checked as they are
read, so an unknown concept or relation wins over a syntax error after it;
an unbound variable is checked at the end, so any syntax error wins over it;
last, a variable given two concepts (by labels, ``concept`` tests or atoms'
domains and ranges), or a self-loop atom, can never match, and raises.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping, Sequence
from functools import lru_cache, partial
from itertools import repeat
from operator import itemgetter
from types import MappingProxyType
from typing import NamedTuple

from .errors import QueryParseError, SchemaError
from .graph import Direction, KnowledgeGraph
from .schema import CONCEPTS, RELATIONS, LookupTable

KEYWORDS = ("MATCH", "WHERE", "AND", "RETURN", "DISTINCT")
OUT, IN = Direction.OUT, Direction.IN

#: One token after optional whitespace: a symbol, a double-quoted string
#: with ``\\`` escapes, a word, the end of input, or any other character.
#: An unterminated string ends in the last alternative at its quote.
_TOKEN_RE = re.compile(
    r"""\s*(?:(<-\[|-\[|\]->|\]-|<>|[(){}:,.=])|("[^"\\]*(?:\\.[^"\\]*)*")"""
    r"""|([A-Za-z_][A-Za-z0-9_]*)|(\Z)|(.))""",
    re.DOTALL,
)
#: ``_TOKEN_RE`` with its whitespace as a first group, for one ``findall``.
_SCAN_RE = re.compile(r"(\s*)" + _TOKEN_RE.pattern.removeprefix(r"\s*"), re.DOTALL)
_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)

#: Builds a record from a tuple of its fields, with no arity check.
_new = tuple.__new__


class Token(NamedTuple):
    kind: str
    text: str
    offset: int


def tokenize(text: str) -> list[Token]:
    """Scan ``text`` into tokens; offsets index into the source string."""
    return list(map(partial(_new, Token), zip(*_scan(text))))


def _scan(text: str) -> tuple[list[str], list[str], list[int]]:
    """The kinds, texts and offsets of ``text``'s tokens through EOF, in one
    ``findall``; an offset counts the whitespace and tokens before it."""
    kinds, texts, offsets, end = [], [], [], 0
    for space, symbol, string, word, _, other in _SCAN_RE.findall(text):
        offset = end + len(space)
        end = offset + len(symbol or string or word)
        if word:
            kinds.append(word if word in KEYWORDS else "IDENT")
        elif symbol:
            kinds.append(symbol)
            word = symbol
        elif string:
            kinds.append("STRING")
            word = _ESCAPE_RE.sub(r"\1", string[1:-1])
        elif other == '"':
            raise QueryParseError("unterminated string literal", offset, frozenset({'"'}))
        elif other:
            raise QueryParseError(f"unexpected character {other!r}", offset, frozenset())
        else:
            kinds.append("EOF")
        texts.append(word)
        offsets.append(offset)
        if end == offset:  # EOF, the only token of no length
            break
    return kinds, texts, offsets


class Operand(NamedTuple):
    """Variable, property access or string literal in a condition."""

    variable: str | None
    key: str | None
    literal: str | None


class Condition(NamedTuple):
    """``left op right``; also a test in a join plan."""

    left: Operand
    op: str
    right: Operand

    def variables(self) -> frozenset[str]:
        return frozenset({self.left.variable, self.right.variable} - {None})


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
    ``concepts`` maps each variable that has one to its concept, read-only.
    """

    body: Conjunction
    returns: tuple[ReturnItem, ...]
    distinct: bool
    concepts: Mapping[str, str]


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
    tests, each edge its atom, each WHERE condition its test.

    One cursor, ``pos``, walks the tokens, read as lists of kinds, texts
    and offsets. ``accept`` takes a token of one kind or notes the kind as
    tried at ``pos``; ``expect`` takes a token of its kinds, returning its
    text, or raises, listing them and the kinds tried at ``pos``.
    """

    def __init__(self, text: str):
        self.kinds, self.texts, self.offsets = _scan(text)
        self.pos = 0
        self.tried: list[tuple[int, str]] = []  # (position, kind) per failed accept
        self.atoms: list[tuple[str, str, str]] = []
        self.tests: list[Condition] = []
        self.variables: dict[str, None] = {}
        self.uses: list[tuple[str, int]] = []  # WHERE and RETURN variables
        self.typed: list[tuple] = []  # (variable, concept, offset, other end of an atom or None)

    def accept(self, kind: str) -> bool:
        if self.kinds[self.pos] == kind:
            self.pos += 1
            return True
        self.tried.append((self.pos, kind))
        return False

    def expect(self, *kinds: str) -> str:
        pos = self.pos
        if self.kinds[pos] in kinds:
            self.pos += 1
            return self.texts[pos]
        tried = frozenset({kind for at, kind in self.tried if at == pos}.union(kinds))
        found = "end of input" if self.kinds[pos] == "EOF" else repr(self.texts[pos])
        raise QueryParseError(f"unexpected {found}", self.offsets[pos], tried)

    def resolve(self, table: LookupTable, pos: int):
        """``table``'s entry for the name at ``pos``; else a parse error at it."""
        try:
            return table[self.texts[pos]]
        except SchemaError as error:
            raise QueryParseError(str(error), self.offsets[pos]) from None

    def parse(self) -> PatternQuery:
        self.expect("MATCH")
        self.parse_path()
        while self.accept(","):
            self.parse_path()
        if self.accept("WHERE"):
            self.parse_condition()
            while self.accept("AND"):
                self.parse_condition()
        self.expect("RETURN")
        distinct = self.kinds[self.pos] == "DISTINCT"  # not listed as expected
        self.pos += distinct
        items = [_new(ReturnItem, self.parse_name())]
        while self.accept(","):
            items.append(_new(ReturnItem, self.parse_name()))
        self.expect("EOF")
        # Checked only now, so that a syntax error anywhere wins.
        for name, offset in self.uses:
            if name not in self.variables:
                raise QueryParseError(f"unbound variable: {name!r}", offset)
        concepts: dict[str, str] = {}
        for name, concept, offset, other in self.typed:
            if name == other:
                raise QueryParseError(f"self-loop on {name}: no relation admits one", offset)
            if concepts.setdefault(name, concept) != concept:
                raise QueryParseError(f"{name} is {concepts[name]}, not {concept}", offset)
        body = Conjunction(tuple(self.atoms), tuple(self.tests), tuple(self.variables))
        return PatternQuery(body, tuple(items), distinct, MappingProxyType(concepts))

    def parse_path(self) -> None:
        """Read nodes joined by edges; each edge adds its stored atom."""
        name = self.parse_node()
        while self.accept("-[") or self.accept("<-["):
            reverse = self.kinds[self.pos - 1] == "<-["
            self.expect(":")
            self.expect("IDENT")
            relation, swapped, rel = self.resolve(RELATIONS, self.pos - 1)
            offset = self.offsets[self.pos - 1]
            self.expect("]-" if reverse else "]->")
            other = self.parse_node()
            src, dst = (other, name) if reverse ^ swapped else (name, other)
            self.atoms.append((src, relation, dst))
            self.typed += ((src, rel.domain, offset, dst), (dst, rel.range, offset, src))
            name = other

    def parse_node(self) -> str:
        """Read one node; returns its variable, made up if it has none."""
        self.expect("(")
        name = self.texts[self.pos - 1] if self.accept("IDENT") else f" anon{len(self.variables)}"
        self.variables[name] = None
        if self.accept(":"):
            self.expect("IDENT")
            concept = self.resolve(CONCEPTS, self.pos - 1).name
            self.tests.append(has_property(name, "concept", concept))
            self.typed.append((name, concept, self.offsets[self.pos - 1], None))
        if self.accept("{"):
            while True:
                key = self.expect("IDENT")
                self.expect("=")
                value = self.expect("STRING")
                if key == "concept":
                    value = self.resolve(CONCEPTS, self.pos - 1).name
                    self.typed.append((name, value, self.offsets[self.pos - 1], None))
                self.tests.append(has_property(name, key, value))
                if not self.accept(","):
                    break
            self.expect("}")
        self.expect(")")
        return name

    def parse_condition(self) -> None:
        """Read one condition; a literal tested against a ``concept`` key
        resolves as a label does, and under ``=`` types the variable."""
        start = self.pos
        left = self.parse_operand()
        op = self.expect("=", "<>")
        right = self.parse_operand()
        if left.key == "concept" and right.variable is None:
            right = right._replace(literal=self.resolve(CONCEPTS, self.pos - 1).name)
            if op == "=":
                self.typed.append((left.variable, right.literal, self.offsets[self.pos - 1], None))
        elif right.key == "concept" and left.variable is None:
            left = left._replace(literal=self.resolve(CONCEPTS, start).name)
            if op == "=":
                self.typed.append((right.variable, left.literal, self.offsets[start], None))
        self.tests.append(_new(Condition, (left, op, right)))

    def parse_operand(self) -> Operand:
        if self.accept("STRING"):
            return _new(Operand, (None, None, self.texts[self.pos - 1]))
        return _new(Operand, (*self.parse_name(), None))

    def parse_name(self) -> tuple[str, str | None]:
        """Read ``IDENT ("." IDENT)?``, a variable's use and its key."""
        name = self.expect("IDENT")
        self.uses.append((name, self.offsets[self.pos - 1]))
        dot = self.kinds[self.pos] == "."  # not listed as expected
        self.pos += dot
        return name, self.expect("IDENT") if dot else None


def has_property(name: str, key: str, value: str) -> Condition:
    """The test that node ``name`` has ``value`` for ``key``."""
    left, right = _new(Operand, (name, key, None)), _new(Operand, (None, None, value))
    return _new(Condition, (left, "=", right))


def parse_query(text: str) -> PatternQuery:
    """Parse ``text`` into its schema-checked join body and projection."""
    return _Parser(text).parse()


class Plan(NamedTuple):
    """A join plan over slots: ``Conjunction.variables[i]`` binds slot ``i``.

    Each step is a plain tuple whose first field names its kind:

    * ``("test", left, right, negate)`` checks ``<>`` or ``=`` over operands
      ``(slot or None, key or None, literal or None)``;
    * ``("has_edge", src, relation, dst)`` checks an edge between two slots;
    * ``("adjacent", var, relation, direction, other)`` binds ``var`` to the
      ``relation`` neighbors of slot ``other`` in ``direction``;
    * ``("lookup", var, key, operand)`` binds ``var`` to the nodes whose
      property ``key`` equals ``operand``; ``key`` is never ``None``, and
      ``"id"`` finds the node of that id, as ``{id="x"}`` does;
    * ``("nodes", var)`` binds ``var`` to every node, and
      ``("nodes", var, relation)`` to the sources of ``relation``'s edges,
      both in id order.

    ``inputs`` are the slots bound before the first step, in order, from
    each input row given to :func:`match`, which runs the steps as one loop
    nest (see :func:`_source`): rows come out in the order they bind them.
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

        A concept test on an atom's end is dropped: the parser has checked it
        against the relation's domain or range, which ``add_edge`` enforces.
        Other checks run as soon as their variables are bound, edge
        checks first, each in written order. Otherwise the next step is the
        first written option of the lowest rank: an id lookup (``v = ...`` or
        ``v.id = ...``), a property lookup against a bound variable, a bound
        endpoint's neighbors, a property lookup against a literal, a scan of
        a relation's sources, a node scan. A source scan leaves its atom, to
        be planned once its source is bound. Each variable lists the atoms
        and tests over it, so binding it visits, and re-ranks, only those.
        """
        variables, width = self.variables, len(self.variables)
        slot = {v: i for i, v in enumerate(variables)}
        if len(set(inputs)) != len(inputs) or not set(inputs) <= slot.keys():
            raise ValueError(f"inputs must be distinct variables of the body: {inputs}")
        ends = {(v, "concept") for atom in self.atoms for v in atom[::2]}
        atoms = len(self.atoms)  # items[:atoms] are the atoms
        items = [*self.atoms, *(t for t in self.tests if not _implied(t, ends))]
        watch: dict[str, list[int]] = {v: [] for v in variables}  # the unplaced items over v
        unbound: list[int] = []  # per item, how many of its variables
        ready: list[int] = []  # items with every variable bound, to check next
        options: dict[int, tuple] = {}  # item -> (rank, item, lookup or None)
        for i, (left, _, right) in enumerate(items):
            names = {left, right} if i < atoms else {left.variable, right.variable} - {None}
            for var in names:
                watch[var].append(i)
            unbound.append(len(names))
            if i < atoms:
                options[i] = (4, i, None)
            elif not names:
                ready.append(i)
            elif len(names) == 1:
                _rank_lookup(options, i, items[i], ())
        steps, bound, free, binding = [], set(), 0, inputs  # variables[:free] are bound
        while True:
            for var in binding:
                bound.add(var)
                for i in watch[var]:
                    unbound[i] -= 1
                    if not unbound[i]:
                        ready.append(i)
                        options.pop(i, None)
                    elif i < atoms:
                        options[i] = (2, i, None)
                    else:
                        _rank_lookup(options, i, items[i], bound)
            ready.sort()
            for i in ready:
                if i < atoms:
                    src, rel, dst = items[i]
                    steps.append(("has_edge", slot[src], rel, slot[dst]))
                else:
                    left, op, right = items[i]
                    steps.append(("test", _operand(slot, left), _operand(slot, right), op == "<>"))
            ready.clear()
            while free < width and variables[free] in bound:
                free += 1
            if free == width:
                return Plan(tuple(steps), width, tuple(map(slot.__getitem__, inputs)))
            rank, i, lookup = min(options.values()) if options else (5, None, None)
            if rank == 5:
                var = variables[free]
                steps.append(("nodes", free))
            elif rank == 4:  # the atom stays, to be planned once src is bound
                var, rel, _ = items[i]
                steps.append(("nodes", slot[var], rel))
            else:
                del options[i]
                if lookup is not None:
                    mine, other = lookup
                    var = mine.variable
                    steps.append(("lookup", slot[var], mine.key or "id", _operand(slot, other)))
                else:
                    src, rel, dst = items[i]
                    var, way, end = (dst, OUT, src) if src in bound else (src, IN, dst)
                    steps.append(("adjacent", slot[var], rel, way, slot[end]))
                watch[var].remove(i)
            binding = (var,)


def _implied(test: Condition, ends: set[tuple[str, str]]) -> bool:
    """Whether ``test`` is ``v.concept = "..."`` with ``(v, "concept")`` in ``ends``."""
    return test.op == "=" and test.right.variable is None and test.left[:2] in ends


def _operand(slot: dict[str, int], operand: Operand) -> tuple[int | None, str | None, str | None]:
    """``operand`` as a plan reads it: (slot or None, key, literal)."""
    index = None if operand.variable is None else slot[operand.variable]
    return (index, operand.key, operand.literal)


def _rank_lookup(options: dict[int, tuple], i: int, test: Condition, bound: set[str]) -> None:
    """Rank test ``i`` as an option if it is an equality binding its one unbound variable."""
    if test.op != "=":
        return
    for mine, other in ((test.left, test.right), (test.right, test.left)):
        if mine.variable is not None and mine.variable not in bound:
            if other.variable is None or other.variable in bound:
                rank = 0 if mine.key in (None, "id") else 3 if other.variable is None else 1
                options[i] = (rank, i, (mine, other))
                return


#: ``for`` loops one generated function nests at most. CPython refuses a
#: function nesting more than 20 blocks, so a deeper plan goes on in a
#: nested function.
_MAX_LOOPS = 16


def _split(steps: tuple[tuple, ...], args: list) -> tuple[tuple, ...]:
    """The shape of ``steps``: each relation, direction, key and literal,
    in a step or in one of its operands, becomes ``...`` and is appended
    to ``args``, in order. Kinds, slots and flags stay."""
    append, shape = args.append, []
    for step in steps:
        fields = [step[0]]
        for field in step[1:]:
            cls = type(field)
            if cls is tuple:  # an operand: (slot or None, key, literal), one string at most
                index, key, literal = field
                if key is not None or literal is not None:
                    append(literal if key is None else key)
                    field = (index, None, ...) if key is None else (index, ..., None)
            elif cls is str or cls is Direction:
                append(field)
                field = ...
            fields.append(field)
        shape.append(tuple(fields))
    return tuple(shape)


def _source(inputs: tuple[int, ...], width: int, shape: tuple) -> str:
    """The source of ``join(rows, graph, a0, a1, ...)``, the loop nest of
    a plan shape over the arguments :func:`_split` gives, which returns the
    rows.

    Argument ``aN`` stands for the shape's ``...`` number ``N``, counting
    from 0 in step and field order. Each graph read the steps need (an
    adjacency map, a key's property values or nodes, the node ids, a
    relation's sources) is made once, into a local ``rN``, before the
    first row.

    Slot ``i`` is the local ``s{i}``. Each input row unpacks into the input
    slots; each binding step is a ``for``, consecutive checks are one
    ``if``, and the row append sits innermost. A lookup against a bound
    operand first assigns the operand's value to its own slot, then loops
    over the nodes that have it, if it is not absent.
    """
    names: list[str] = []
    reads: dict[str, str] = {}

    def arg() -> str:  # the next argument
        names.append(f"a{len(names)}")
        return names[-1]

    def read(text: str) -> str:  # a graph read, made once per call
        return reads.setdefault(text, f"r{len(reads)}")

    def value(operand: tuple) -> str:
        index, key, _ = operand
        if index is None:
            return arg()
        if key is None:
            return f"s{index}"
        return f"{read(f'graph.property_values({arg()})')}[s{index}]"

    def statements():  # ("if" | "for" | "line", slot or None, text) per step
        for step in shape:
            kind, var = step[0], step[1]
            if kind == "test":  # a keyed operand may be absent, None: then neither holds
                _, left, right, negate = step
                head = "None is not " if negate and left[1] is not None else ""
                check = f"{head}{value(left)} {'!=' if negate else '=='} {value(right)}"
                yield "if", None, check if negate and right[1] is None else f"{check} is not None"
            elif kind == "has_edge":
                yield "if", None, f"{read('graph.has_edge')}(s{var}, {arg()}, s{step[3]})"
            elif kind == "adjacent":
                get = read(f"graph.adjacency({arg()}, {arg()}).get")
                yield "for", var, f"{get}(s{step[4]}, ())"
            elif kind == "nodes":
                ids = f"sorted(graph.adjacency({arg()}))" if len(step) == 3 else "graph.node_ids()"
                yield "for", var, read(ids)
            else:  # a lookup
                _, _, _, operand = step
                key = arg()
                if operand[0] is None:
                    yield "for", var, read(f"graph.nodes_with({key}, {arg()})")
                    continue
                yield "line", var, f"s{var} = {value(operand)}"
                yield "if", None, f"s{var} is not None"
                yield "for", var, f"{read('graph.nodes_with')}({key}, s{var})"

    row = "".join(f"s{i}, " for i in range(width))
    parts = [[f"    for ({''.join(f's{i}, ' for i in inputs)}) in rows:"]]
    depth, loops, bound, checks = 2, 1, list(inputs), []
    for kind, var, text in (*statements(), ("line", None, f"append(({row}))")):
        if checks and kind != "if":
            parts[-1].append("    " * depth + f"if {' and '.join(checks)}:")
            depth += 1
            checks.clear()
        if kind == "if":
            checks.append(text)
            continue
        if kind == "for" and loops == _MAX_LOOPS:
            call = f"part{len(parts)}({', '.join(f's{i}' for i in bound)})"
            parts[-1].append("    " * depth + call)
            parts.append([f"    def {call}:"])
            depth, loops = 2, 0
        if kind == "for":
            parts[-1].append("    " * depth + f"for s{var} in {text}:")
            depth, loops = depth + 1, loops + 1
        else:
            parts[-1].append("    " * depth + text)
        if var is not None and var not in bound:
            bound.append(var)
    head = f"def join(rows, graph{''.join(', ' + n for n in names)}):"
    lines = [head, *(f"    {r} = {text}" for text, r in reads.items())]
    lines += ["    found = []", "    append = found.append"]
    lines += [line for part in parts[1:] + parts[:1] for line in part]
    return "\n".join([*lines, "    return found", ""])


@lru_cache(maxsize=128)
def _loop_nest(inputs: tuple[int, ...], width: int, shape: tuple):
    """The compiled ``join`` of :func:`_source`, once per plan shape, on
    first use. A shape holds no string from a query, rule or dataset, nor a
    direction, so no such text is ever compiled, and plans that differ only
    in those share one function.
    """
    namespace: dict = {}
    exec(compile(_source(inputs, width, shape), "<join>", "exec"), namespace)
    return namespace["join"]


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
    args: list = []
    join = _loop_nest(plan.inputs, plan.width, _split(plan.steps, args))
    try:
        return join(rows, graph, *args)
    except ValueError as error:  # a join raises it only to unpack a row
        raise ValueError(f"the plan takes {len(plan.inputs)} inputs: {error}") from None


def evaluate_query(query: PatternQuery, graph: KnowledgeGraph) -> list[BindingRow]:
    """Evaluate ``query`` against ``graph`` and return sorted projection rows.

    Runs ``query.body`` as one conjunctive join (see :meth:`Conjunction.plan`).
    The step order never changes the result set, only the search order.
    Each RETURN item is one column over the join's rows: a variable's ids,
    or a key's values from ``graph.property_values``, ``""`` when absent.
    One item's values, else tuples of them, are sorted and under DISTINCT
    deduped; each ``BindingRow`` is then built once from the sorted columns.
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
    one = len(columns) == 1
    rows = columns[0] if one else zip(*columns)
    rows = sorted(set(rows) if query.distinct else rows)
    columns = [rows] if one else zip(*rows)
    pairs = map(zip, map(repeat, [item.label for item in query.returns]), columns)
    return list(map(partial(_new, BindingRow), zip(zip(*pairs))))


def run_query(text: str, graph: KnowledgeGraph) -> list[BindingRow]:
    """Parse and evaluate in one step."""
    return evaluate_query(parse_query(text), graph)
