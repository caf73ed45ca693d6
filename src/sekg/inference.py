"""Forward-chaining inference: axiom closure plus derivation rules.

A rule (``schema.Rule``) is a name, a head relation and a body written as
MATCH text, whose ``RETURN`` names the head's two endpoints: R1 is ``MATCH
(a)-[:craft_and_perform]->(am)-[:apply_to]->(v) RETURN a, v`` with head
``attack``. The builtin rules are data in ``schema``; this module runs
them. The body parses into the conjunctive join that MATCH queries use,
and means what the same MATCH means. Each rule is parsed and planned once
per process.

The schema's axioms are single-atom rules generated at import: ``R3``
lifts an edge to its superproperty and ``R2`` adds its inverse (a symmetric
relation is its own inverse, so asserting one direction yields the other).
One engine runs every rule semi-naive until fixpoint with set semantics:
after its first join, a rule joins only the edges added since it last ran,
given to the join as input rows. Inference is thus idempotent and
terminates on any finite graph.

Every inferred edge records the name of the rule that produced it. R3 runs
before R2, so an edge derivable both ways is labelled ``R3``, whatever the
node ids. Each head is typed from the schema when its rule is compiled, so
``add_edge`` accepts every head a body yields; a body that contradicts its
head raises ``RuleError`` before anything is written.

A caller that reads only some relations names them as ``needs``. Then only
the rules and axioms that can write a needed relation run: those whose
head is needed, where a kept rule's body relations are needed in turn
(the relevance half of magic sets; Bancilhon, Maier, Sagiv and Ullman,
PODS 1986). Kept rules read only relations kept rules write, so each
needed relation gets the edges of a full run, each in the same round and
labelled with the same rule.
"""

from functools import cache

from .errors import GraphError, RuleError
from .graph import Edge, KnowledgeGraph
from .query import Condition, Operand, Plan, has_property, match, parse_query
from .schema import RELATION_ROWS, RELATIONS, Rule, builtin_ruleset

INVERSE_RULE = "R2"
SUBPROPERTY_RULE = "R3"


class InferenceResult:
    """Edges added in order, the round count, and edges added per rule."""

    def __init__(self) -> None:
        self.added: list[Edge] = []
        self.iterations = 0
        self.fired: dict[str, int] = {}

    def sorted_added(self) -> list[Edge]:
        return sorted(self.added, key=lambda e: (e.relation, e.src, e.dst))


@cache
def _compile(rule: Rule) -> tuple[str, tuple[int, str, int], Plan, list]:
    """The rule, typed and planned: (name, head, body plan, per-atom plans).

    The head ``(x, relation, y)`` gets concept tests, the relation's domain
    on x and range on y, where no atom or concept test of the body gives
    them, and ``x <> y`` where domain and range are one concept and no atom
    or ``<>`` test joins x and y: ``add_edge`` accepts every head. A body
    giving x or y another concept, or ``RETURN a, a``, raises ``RuleError``.
    A head endpoint is the slot of its variable in the body's rows. Per
    relation atom other than a self-loop, which no edge matches, the body
    without it is planned with its endpoints as inputs: (relation, plan).
    Cached: each rule is parsed and planned once per process.
    """
    query = parse_query(rule.body)
    if query.distinct or len(query.returns) != 2 or any(i.key for i in query.returns):
        raise RuleError(f"rule {rule.name}: RETURN must be two variables")
    relation, swapped, rel = RELATIONS[rule.relation]
    a, b = (item.variable for item in query.returns)
    x, y = (b, a) if swapped else (a, b)
    if x == y:
        raise RuleError(f"rule {rule.name}: RETURN {x}, {x} yields only self-loops")
    body, tests = query.body, list(query.body.tests)
    given = body.typed() | {t.typed() for t in tests} - {None}
    for var, concept in ((x, rel.domain), (y, rel.range)):
        if other := {c for v, c in given if v == var} - {concept}:
            raise RuleError(f"rule {rule.name}: {var} is {min(other)}, {relation} needs {concept}")
        if (var, concept) not in given:
            tests.append(has_property(var, "concept", concept))
    joined = [{src, dst} for src, _, dst in body.atoms]
    joined += [t.variables() for t in tests if t.op == "<>" and not (t.left.key or t.right.key)]
    if rel.domain == rel.range and {x, y} not in joined:
        tests.append(Condition(Operand(x, None, None), "<>", Operand(y, None, None)))
    body = body._replace(tests=tuple(tests))
    per_atom = []
    for i, (src, atom_relation, dst) in enumerate(body.atoms):
        if src != dst:
            rest = body._replace(atoms=body.atoms[:i] + body.atoms[i + 1 :])
            per_atom.append((atom_relation, rest.plan(inputs=(src, dst))))
    head = (body.variables.index(x), relation, body.variables.index(y))
    return rule.name, head, body.plan(), per_atom


#: The schema's axioms as single-atom rules, planned once: an R3 rule
#: ``(x r y) -> (x sub y)`` per row of ``RELATION_ROWS`` with a subproperty
#: axiom, then an R2 rule ``(x r y) -> (y inv x)`` per row with an inverse.
_AXIOMS = tuple(
    _compile(Rule(label, target, f"MATCH (x)-[:{rel.name}]->(y) RETURN {ends}"))
    for label, ends, targets in (
        (SUBPROPERTY_RULE, "x, y", [(r, r.subproperty_of) for r in RELATION_ROWS]),
        (INVERSE_RULE, "y, x", [(r, r.inverse_of) for r in RELATION_ROWS]),
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
    current graph. A rule thus sees its own emissions and everything added
    since it last ran, and never gets the same edge as an input row twice.
    Bodies without relation atoms run only once.

    Each new head goes to ``add_edge``, which accepts it (``_compile``
    typed it), and into ``result``. ``result.iterations`` becomes this
    call's round count, the last round adding nothing, so at most one more
    than the edges added.
    """
    rules = fresh + joined
    added: dict[str, list[tuple[str, ...]]] = {}
    seen: list[dict[str, int] | None] = [None] * len(fresh) + [{}] * len(joined)
    edges, fired = result.added, result.fired
    has_edge, add_edge = graph.has_edge, graph.add_edge
    rounds = 0
    while True:
        rounds += 1
        before = len(edges)
        for i, (name, (a, head_relation, b), plan, per_atom) in enumerate(rules):
            offsets, seen[i] = seen[i], {r: len(p) for r, p in added.items()}
            if offsets is None:
                rows = match(graph, plan)
            else:
                rows = []
                for relation, rest in per_atom:
                    pairs = added.get(relation, [])[offsets.get(relation, 0) :]
                    if pairs:
                        rows += match(graph, rest, pairs)
            emitted = added.setdefault(head_relation, [])
            start = len(emitted)
            for row in rows:
                src, dst = row[a], row[b]
                if not has_edge(src, head_relation, dst):
                    edges.append(add_edge(src, head_relation, dst, name))
                    emitted.append((src, dst))
            if len(emitted) > start:
                fired[name] = fired.get(name, 0) + len(emitted) - start
        if len(edges) == before:
            result.iterations = rounds
            return result


def _needed(rules: tuple, needs) -> set[str] | None:
    """The stored relations that deriving ``needs`` reads, or None for all.

    ``needs`` resolves through ``RELATIONS``, so an alias names its stored
    relation and an unknown name raises ``SchemaError``. Each planned rule
    of ``rules`` or axiom whose head relation is needed adds the relations
    of its body, until nothing new is added. (An atom left out of a rule's
    per-atom plans is a self-loop, which no edge matches, so that rule adds
    nothing whatever it reads.)
    """
    if needs is None:
        return None
    needed = {RELATIONS[name][0] for name in needs}
    while True:
        reads = {
            relation
            for _, (_, head, _), _, per_atom in rules + _AXIOMS
            if head in needed
            for relation, _ in per_atom
        }
        if reads <= needed:
            return needed
        needed |= reads


def _writing(rules: tuple, needed: set[str] | None) -> tuple:
    """The planned rules of ``rules`` whose head is in ``needed``, in order;
    every one for None."""
    return rules if needed is None else tuple(r for r in rules if r[1][1] in needed)


def axiom_closure(graph: KnowledgeGraph, needs=None) -> InferenceResult:
    """Complete inverse and subproperty edges until nothing new appears.

    Runs the axiom rules alone to fixpoint, R3 before R2 in every round, so
    an edge both lifted and inverted is labelled ``R3``. With ``needs``, a
    collection of relation names, only the axioms that can write one of
    them, transitively, run. A frozen graph raises ``GraphError``, even
    when there is nothing to add.
    """
    if graph.frozen:
        raise GraphError("graph is frozen")
    return _fixpoint(graph, InferenceResult(), _writing(_AXIOMS, _needed((), needs)))


def run_rules(
    graph: KnowledgeGraph,
    rules: tuple[Rule, ...] | list[Rule],
    needs=None,
) -> InferenceResult:
    """Close the graph under the axioms, then apply rules to fixpoint.

    The graph is closed once, up front, so a direct call on a graph that
    was never closed still starts from the closed graph (its closure edges
    count in ``result``). Then ``rules`` run semi-naive (see ``_fixpoint``),
    each round followed by the axiom rules, R3 before R2. Their first join
    is that closure, so they join only the round's deltas; the next round
    completes what they miss of their own emissions. ``iterations`` counts
    the rounds after the closure. Every rule is parsed and planned (once
    per process, see ``_compile``) before anything is joined or written, so
    a malformed rule raises ``QueryParseError``, ``RuleError`` or
    ``SchemaError`` on every call; a frozen graph raises ``GraphError`` from
    the closure.

    ``needs``, the relation names the caller reads, keeps only the rules
    and axioms that can write one of them: a kept rule's body relations
    are needed in turn (``_needed``). They run in their usual order and read
    only relations kept rules write, so each needed relation ends with the
    edges, each labelled with its rule, of a run with ``needs=None``, which
    runs everything. Other relations may lack edges a full run adds.
    """
    planned = tuple(_compile(rule) for rule in rules)
    needed = _needed(planned, needs)
    closed = axiom_closure(graph, needed)
    return _fixpoint(graph, closed, _writing(planned, needed), _writing(_AXIOMS, needed))


def run_inference(graph: KnowledgeGraph, needs=None) -> InferenceResult:
    """Axiom closure and the builtin rule set, to fixpoint; with ``needs``,
    only what can write those relations (see ``run_rules``)."""
    return run_rules(graph, builtin_ruleset(), needs)
