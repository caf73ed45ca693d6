"""Forward-chaining inference: axiom closure plus derivation rules.

Axiom closure completes inverse and subproperty edges declared by the
schema (a symmetric relation is its own inverse, so asserting one direction
yields the other). Derivation rules are small conjunctive bodies over
relation atoms, inequality constraints and property-equality constraints,
compiled into the conjunctive join that MATCH queries use, with relation
names resolved through the schema. They run semi-naive until fixpoint with
set semantics: after its first join, a rule joins only the edges added
since it last ran, given to the join as input rows. Inference is thus
idempotent and terminates on any finite graph.

Every inferred edge records the name of the rule that produced it; closure
edges use ``R2`` (inverse completion) and ``R3`` (subproperty completion).
Heads are written through ``KnowledgeGraph.add_edge``, which checks them
against the schema; a head it refuses (an unknown endpoint, wrong endpoint
concepts, or a self-loop on an irreflexive relation) is dropped rather than
raised: the body of a rule constrains structure, the schema constrains the
head.
"""

from dataclasses import dataclass, field, replace
from enum import Enum

from .errors import GraphError, RuleError
from .graph import Edge, KnowledgeGraph
from .query import Condition, Conjunction, Operand, match
from .schema import RELATIONS

INVERSE_RULE = "R2"
SUBPROPERTY_RULE = "R3"

#: Rounds after which ``run_rules`` gives up on reaching a fixpoint.
MAX_ROUNDS = 1000


class AtomKind(Enum):
    RELATION = "relation"
    DIFFERENT_FROM = "different_from"
    PROPERTY_EQUALS = "property_equals"


def _is_var(term: str) -> bool:
    return term.startswith("?")


@dataclass(frozen=True)
class Atom:
    """One body or head condition. Terms starting with ``?`` are variables."""

    kind: AtomKind
    terms: tuple[str, str]
    relation: str | None = None
    property_key: str | None = None

    @staticmethod
    def rel(relation: str, a: str, b: str) -> "Atom":
        return Atom(AtomKind.RELATION, (a, b), relation=relation)

    @staticmethod
    def different(a: str, b: str) -> "Atom":
        return Atom(AtomKind.DIFFERENT_FROM, (a, b))

    @staticmethod
    def prop_equals(key: str, a: str, b: str) -> "Atom":
        return Atom(AtomKind.PROPERTY_EQUALS, (a, b), property_key=key)

    def variables(self) -> frozenset[str]:
        return frozenset(t for t in self.terms if _is_var(t))


@dataclass(frozen=True)
class Rule:
    name: str
    body: tuple[Atom, ...]
    head: Atom

    def validate(self) -> None:
        if self.head.kind is not AtomKind.RELATION:
            raise RuleError(f"rule {self.name}: head must be a relation atom")
        bound = frozenset().union(
            *(a.variables() for a in self.body if a.kind is not AtomKind.DIFFERENT_FROM)
        )
        loose = frozenset().union(*(a.variables() for a in self.body)) - bound
        if loose:
            raise RuleError(
                f"rule {self.name}: variables only in inequality atoms: {sorted(loose)}"
            )
        unbound = self.head.variables() - bound
        if unbound:
            raise RuleError(
                f"rule {self.name}: head variables not bound in body: {sorted(unbound)}"
            )


@dataclass
class InferenceResult:
    added: list[Edge] = field(default_factory=list)
    iterations: int = 0
    fired: dict[str, int] = field(default_factory=dict)

    def _record(self, edge: Edge) -> None:
        self.added.append(edge)
        self.fired[edge.rule] = self.fired.get(edge.rule, 0) + 1

    def sorted_added(self) -> list[Edge]:
        return sorted(self.added, key=lambda e: (e.relation, e.src, e.dst))


def builtin_ruleset() -> tuple[Rule, ...]:
    """Derivation rules over the schema's relations.

    R1 derives attack edges from performed methods; R4 relates attackers
    sharing a motivation and a victim; R5 relates targets with equal
    affiliations; R6 relates methods that share an encoded source domain,
    a common motivation behind their attackers, and victims already known
    to share an affiliation; R7 lifts R6 to the attackers themselves.
    R2/R3 are the axiom-closure passes, not explicit rules.
    """
    return (
        Rule(
            "R1",
            body=(
                Atom.rel("craft_and_perform", "?a", "?am"),
                Atom.rel("apply_to", "?am", "?v"),
            ),
            head=Atom.rel("attack", "?a", "?v"),
        ),
        Rule(
            "R4",
            body=(
                Atom.rel("motivate", "?m", "?a"),
                Atom.rel("attack", "?a", "?v"),
                Atom.rel("attack", "?b", "?v"),
                Atom.rel("motivate", "?m", "?b"),
                Atom.different("?a", "?b"),
            ),
            head=Atom.rel("same_attack_organization", "?a", "?b"),
        ),
        Rule(
            "R5",
            body=(
                Atom.prop_equals("affiliation", "?v1", "?v2"),
                Atom.different("?v1", "?v2"),
            ),
            head=Atom.rel("same_affiliation", "?v1", "?v2"),
        ),
        Rule(
            "R6",
            body=(
                Atom.prop_equals("encoded_domain", "?am1", "?am2"),
                Atom.different("?am1", "?am2"),
                Atom.rel("craft_and_perform", "?a1", "?am1"),
                Atom.rel("craft_and_perform", "?a2", "?am2"),
                Atom.rel("motivated_by", "?a1", "?m"),
                Atom.rel("motivated_by", "?a2", "?m"),
                Atom.rel("attack", "?a1", "?v1"),
                Atom.rel("attack", "?a2", "?v2"),
                Atom.rel("same_affiliation", "?v1", "?v2"),
            ),
            head=Atom.rel("same_origin_attack", "?am1", "?am2"),
        ),
        Rule(
            "R7",
            body=(
                Atom.rel("same_origin_attack", "?am1", "?am2"),
                Atom.rel("craft_and_perform", "?a1", "?am1"),
                Atom.rel("craft_and_perform", "?a2", "?am2"),
                Atom.different("?a1", "?a2"),
            ),
            head=Atom.rel("in_the_same_organization", "?a1", "?a2"),
        ),
    )


def _closure_of_edge(edge: Edge) -> list[tuple[str, str, str, str]]:
    """Inverse and subproperty consequences of one edge: (src, rel, dst, rule)."""
    out = []
    rel = RELATIONS[edge.relation][2]
    if rel.inverse_of is not None:
        out.append((edge.dst, rel.inverse_of, edge.src, INVERSE_RULE))
    if rel.subproperty_of is not None:
        out.append((edge.src, rel.subproperty_of, edge.dst, SUBPROPERTY_RULE))
    return out


def axiom_closure(graph: KnowledgeGraph) -> InferenceResult:
    """Complete inverse and subproperty edges until nothing new appears.

    Only edges of relations with an axiom have consequences, so only they
    seed the closure, in ``Edge.key`` order as the whole edge list would.
    A frozen graph raises ``GraphError``, even when there is nothing to add.
    """
    if graph.frozen:
        raise GraphError("graph is frozen")
    seeds = [
        edge
        for name, (stored, _, rel) in RELATIONS.items()
        if name == stored and (rel.inverse_of or rel.subproperty_of)
        for edge in graph.edges(name)
    ]
    return _close(graph, sorted(seeds, key=Edge.key), InferenceResult())


def _close(
    graph: KnowledgeGraph, pending: list[Edge], result: InferenceResult
) -> InferenceResult:
    """Closure consequences of ``pending``, popped from the end, and theirs."""
    while pending:
        edge = pending.pop()
        for src, relation, dst, rule in _closure_of_edge(edge):
            if graph.has_edge(src, relation, dst):
                continue
            added = graph.add_edge(src, relation, dst, rule=rule)
            result._record(added)
            pending.append(added)
    return result


def _compile(rule: Rule) -> tuple[Conjunction, tuple[int | str, str, int | str]]:
    """The rule body as a join over stored relation names, and its head.

    A constant in a relation or property atom becomes a variable pinned by
    id; a constant in an inequality stays a literal. A head term is the
    slot of its variable in the body's rows, or a constant node id.
    """
    atoms: list[tuple[str, str, str]] = []
    tests: list[Condition] = []
    pins: dict[str, str] = {}
    for atom in rule.body:
        if atom.kind is AtomKind.DIFFERENT_FROM:
            left, right = (
                Operand(t, None, None) if _is_var(t) else Operand(None, None, t)
                for t in atom.terms
            )
            tests.append(Condition(left, "<>", right))
            continue
        a, b = (
            t if _is_var(t) else pins.setdefault(t, f" c{len(pins)}") for t in atom.terms
        )
        if atom.kind is AtomKind.RELATION:
            atoms.append(_oriented(atom.relation or "", a, b))
        else:
            key = atom.property_key
            left, right = Operand(a, key, None), Operand(b, key, None)
            tests.append(Condition(left, "=", right, strict=True))
    for constant, pinned in pins.items():
        left, right = Operand(pinned, None, None), Operand(None, None, constant)
        tests.append(Condition(left, "=", right))
    names = [v for src, _, dst in atoms for v in (src, dst)]
    names += [o.variable for t in tests for o in (t.left, t.right) if o.variable]
    body = Conjunction(tuple(atoms), tuple(tests), tuple(dict.fromkeys(names)))
    a, relation, b = _oriented(rule.head.relation or "", *rule.head.terms)
    slot = {v: i for i, v in enumerate(body.variables)}
    return body, (slot.get(a, a), relation, slot.get(b, b))


def _oriented(relation: str, a: str, b: str) -> tuple[str, str, str]:
    name, swapped, _ = RELATIONS[relation]
    return (b, name, a) if swapped else (a, name, b)


def _emit(
    graph: KnowledgeGraph,
    name: str,
    head: tuple[int | str, str, int | str],
    row: tuple[str, ...],
    result: InferenceResult,
) -> None:
    a, relation, b = head
    src = a if isinstance(a, str) else row[a]
    dst = b if isinstance(b, str) else row[b]
    if graph.has_edge(src, relation, dst):
        return
    try:
        edge = graph.add_edge(src, relation, dst, rule=name)
    except GraphError:
        return  # a head the schema refuses is dropped
    result._record(edge)


def run_rules(
    graph: KnowledgeGraph,
    rules: tuple[Rule, ...] | list[Rule],
) -> InferenceResult:
    """Close the graph under the axioms, then apply rules to fixpoint.

    The graph is closed once, up front, so a direct call on a graph that
    was never closed still starts from the closed graph (its closure edges
    count in ``result``). Each rule then keeps its own delta: the edges of
    ``result.added`` from where its previous join began. Its first join
    runs the body against the whole graph. Later ones run, per relation
    atom, the plan of the body without that atom, whose inputs are the
    atom's endpoints, with the delta's ``(src, dst)`` pairs of that relation
    as input rows; the other atoms are joined against the current graph.
    A self-loop atom ``(?x, r, ?x)`` takes the one input ``?x`` and only the
    pairs with ``src == dst``. A rule thus sees its own emissions and
    everything added since it last ran, and never gets the same edge as an
    input row twice. Bodies without relation atoms run only once.
    After every rule has run, closure completes that round's emissions.
    ``iterations`` counts these rounds, the last one adding nothing; more
    than ``MAX_ROUNDS`` of them raise ``GraphError``. So does a frozen
    graph, from the closure, before anything is joined or written.
    """
    compiled = []
    for rule in rules:
        rule.validate()
        body, head = _compile(rule)
        per_atom = []
        for i, (src, relation, dst) in enumerate(body.atoms):
            rest = replace(body, atoms=body.atoms[:i] + body.atoms[i + 1 :])
            inputs = tuple(dict.fromkeys((src, dst)))
            per_atom.append((relation, rest.plan(inputs=inputs), src == dst))
        compiled.append((rule.name, head, body.plan(), per_atom))
    result = axiom_closure(graph)
    marks: list[int | None] = [None] * len(compiled)
    while True:
        result.iterations += 1
        if result.iterations > MAX_ROUNDS:
            raise GraphError(f"no fixpoint after {MAX_ROUNDS} rounds")
        before = len(result.added)
        for i, (name, head, plan, per_atom) in enumerate(compiled):
            mark, marks[i] = marks[i], len(result.added)
            if mark is None:
                rows = match(graph, plan)
            else:
                delta: dict[str, list[tuple[str, ...]]] = {}
                for edge in result.added[mark:]:
                    delta.setdefault(edge.relation, []).append((edge.src, edge.dst))
                rows = []
                for relation, rest, loop in per_atom:
                    if relation in delta:
                        pairs = delta[relation]
                        if loop:
                            pairs = [(src,) for src, dst in pairs if src == dst]
                        rows += match(graph, rest, pairs)
            for row in rows:
                _emit(graph, name, head, row, result)
        _close(graph, sorted(result.added[before:], key=Edge.key), result)
        if len(result.added) == before:
            return result


def run_inference(graph: KnowledgeGraph) -> InferenceResult:
    """Axiom closure and the builtin rule set, to fixpoint."""
    return run_rules(graph, builtin_ruleset())
