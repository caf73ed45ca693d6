"""Forward-chaining inference: axiom closure plus derivation rules.

The schema's axioms are single-atom rules generated at import: ``R3``
lifts an edge to its superproperty and ``R2`` adds its inverse (a symmetric
relation is its own inverse, so asserting one direction yields the other).
Derivation rules are small conjunctive bodies over relation atoms,
inequality constraints and property-equality constraints. Both compile
into the conjunctive join that MATCH queries use, with relation names
resolved through the schema, and one engine runs them semi-naive until
fixpoint with set semantics: after its first join, a rule joins only the
edges added since it last ran, given to the join as input rows. Inference
is thus idempotent and terminates on any finite graph.

Every inferred edge records the name of the rule that produced it. R3 runs
before R2, so an edge derivable both ways is labelled ``R3``, whatever the
node ids. Heads are written through ``KnowledgeGraph.add_edge``, which
checks them against the schema; a head it refuses (an unknown endpoint,
wrong endpoint concepts, or a self-loop on an irreflexive relation) is
dropped rather than raised: the body of a rule constrains structure, the
schema constrains the head.
"""

from dataclasses import dataclass, field, replace
from enum import Enum

from .errors import GraphError, RuleError
from .graph import Edge, KnowledgeGraph
from .query import Condition, Conjunction, Operand, Plan, match
from .schema import RELATIONS

INVERSE_RULE = "R2"
SUBPROPERTY_RULE = "R3"

#: Rounds after which one fixpoint run gives up: the axiom closure and the
#: rule rounds of ``run_rules`` are each bounded by it.
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
    R2/R3 are not listed: they are generated from the schema's axioms and
    run by ``axiom_closure`` and after these rules in every round.
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


def _compile(rule: Rule) -> tuple[str, tuple[int | str, str, int | str], Plan, list]:
    """The rule, validated and planned: (name, head, body plan, per-atom plans).

    The body becomes a join over stored relation names. A constant in a
    relation or property atom becomes a variable pinned by id; a constant in
    an inequality stays a literal. A head term is the slot of its variable
    in the body's rows, or a constant node id. Per relation atom, the body
    without that atom is planned with the atom's endpoints as inputs, and
    kept as (relation, plan, is a self-loop).
    """
    rule.validate()
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
    head = (slot.get(a, a), relation, slot.get(b, b))
    per_atom = []
    for i, (src, relation, dst) in enumerate(body.atoms):
        rest = replace(body, atoms=body.atoms[:i] + body.atoms[i + 1 :])
        inputs = tuple(dict.fromkeys((src, dst)))
        per_atom.append((relation, rest.plan(inputs=inputs), src == dst))
    return rule.name, head, body.plan(), per_atom


def _oriented(relation: str, a: str, b: str) -> tuple[str, str, str]:
    name, swapped, _ = RELATIONS[relation]
    return (b, name, a) if swapped else (a, name, b)


_STORED = [rel for name, (stored, _, rel) in RELATIONS.items() if name == stored]

#: The schema's axioms as single-atom rules, planned once: an R3 rule
#: ``(?x r ?y) -> (?x sub ?y)`` per subproperty axiom, then an R2 rule
#: ``(?x r ?y) -> (?y inv ?x)`` per relation with an inverse.
_AXIOMS = tuple(
    _compile(Rule(label, (Atom.rel(rel.name, "?x", "?y"),), Atom.rel(target, *ends)))
    for label, ends, targets in (
        (SUBPROPERTY_RULE, ("?x", "?y"), [(r, r.subproperty_of) for r in _STORED]),
        (INVERSE_RULE, ("?y", "?x"), [(r, r.inverse_of) for r in _STORED]),
    )
    for rel, target in targets
    if target
)


def _fixpoint(
    graph: KnowledgeGraph, result: InferenceResult, fresh: tuple, joined: tuple = ()
) -> InferenceResult:
    """Run planned rules in rounds, in order, until a round adds nothing.

    A rule of ``fresh`` first joins its body against the whole graph; a rule
    of ``joined`` counts that join as done already. After it, a rule joins
    only its delta: per relation, the ``(src, dst)`` pairs of the edges
    added in this call since its previous join began. Per relation atom,
    the plan of the body without that atom runs with those pairs of the
    atom's relation as input rows; the other atoms are joined against the
    current graph. A self-loop atom ``(?x, r, ?x)`` takes only the pairs
    with ``src == dst``. A rule thus sees its own emissions and everything
    added since it last ran, and never gets the same edge as an input row
    twice. Bodies without relation atoms run only once.

    Emissions go into ``result``; ``result.iterations`` becomes this call's
    round count, the last round adding nothing. More than ``MAX_ROUNDS``
    rounds raise ``GraphError``.
    """
    rules = fresh + joined
    added: dict[str, list[tuple[str, ...]]] = {}
    seen: list[dict[str, int] | None] = [None] * len(fresh) + [{}] * len(joined)
    rounds = 0
    while True:
        rounds += 1
        if rounds > MAX_ROUNDS:
            raise GraphError(f"no fixpoint after {MAX_ROUNDS} rounds")
        before = len(result.added)
        for i, (name, (a, head_relation, b), plan, per_atom) in enumerate(rules):
            offsets, seen[i] = seen[i], {r: len(p) for r, p in added.items()}
            if offsets is None:
                rows = match(graph, plan)
            else:
                rows = []
                for relation, rest, loop in per_atom:
                    pairs = added.get(relation, [])[offsets.get(relation, 0) :]
                    if loop:
                        pairs = [(src,) for src, dst in pairs if src == dst]
                    if pairs:
                        rows += match(graph, rest, pairs)
            for row in rows:
                src = a if isinstance(a, str) else row[a]
                dst = b if isinstance(b, str) else row[b]
                if graph.has_edge(src, head_relation, dst):
                    continue
                try:
                    edge = graph.add_edge(src, head_relation, dst, rule=name)
                except GraphError:
                    continue  # a head the schema refuses is dropped
                result._record(edge)
                added.setdefault(head_relation, []).append((src, dst))
        if len(result.added) == before:
            result.iterations = rounds
            return result


def axiom_closure(graph: KnowledgeGraph) -> InferenceResult:
    """Complete inverse and subproperty edges until nothing new appears.

    Runs the axiom rules alone to fixpoint, R3 before R2 in every round, so
    an edge both lifted and inverted is labelled ``R3``. A frozen graph
    raises ``GraphError``, even when there is nothing to add.
    """
    if graph.frozen:
        raise GraphError("graph is frozen")
    return _fixpoint(graph, InferenceResult(), _AXIOMS)


def run_rules(
    graph: KnowledgeGraph,
    rules: tuple[Rule, ...] | list[Rule],
) -> InferenceResult:
    """Close the graph under the axioms, then apply rules to fixpoint.

    The graph is closed once, up front, so a direct call on a graph that
    was never closed still starts from the closed graph (its closure edges
    count in ``result``). Then ``rules`` run semi-naive (see ``_fixpoint``),
    each round followed by the axiom rules, R3 before R2. Their first join
    is that closure, so they join only the round's deltas; the next round
    completes what they miss of their own emissions. ``iterations`` counts
    the rounds after the closure. A rule is validated and planned before
    anything is joined or written, and a frozen graph raises ``GraphError``
    from the closure.
    """
    planned = tuple(_compile(rule) for rule in rules)
    return _fixpoint(graph, axiom_closure(graph), planned, _AXIOMS)


def run_inference(graph: KnowledgeGraph) -> InferenceResult:
    """Axiom closure and the builtin rule set, to fixpoint."""
    return run_rules(graph, builtin_ruleset())
