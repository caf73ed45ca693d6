import itertools
import random
import re
from collections.abc import Callable, Iterable, Sequence

import pytest

from sekg.datasets import canonical_graph, load_canonical
from sekg.errors import DatasetError, GraphError
from sekg.graph import RED_RELATIONS, Direction, Edge, KnowledgeGraph, Node
from sekg.loader import EdgeRecord, NodeRecord, ScenarioRecord
from sekg.query import Conjunction, Plan, has_property, parse_query
from sekg.schema import CONCEPT_ROWS, RELATION_ALIASES, RELATION_ROWS, SWAPPED_ALIASES


@pytest.fixture(scope="session")
def graph():
    """Canonical dataset with inference applied, frozen."""
    return canonical_graph()


@pytest.fixture(scope="session")
def asserted_graph():
    """Canonical dataset without inference, frozen."""
    return load_canonical().graph.freeze()


@pytest.fixture(scope="session")
def load_result():
    return load_canonical()


#: Two attackers asserted to attack one victim, with no method behind them:
#: were the attack edges taken, R4 would relate the attackers.
ASSERTED_ATTACK = """\
SCENARIO 1 type=t
NODE greed AttackMotivation
NODE a Attacker scenario=1
NODE b Attacker scenario=1
NODE v Victim scenario=1
EDGE greed motivate a
EDGE greed motivate b
EDGE a attack v
EDGE b attack v
"""

AFFILIATIONS = ("Acme", "Initech", "Globex")
DOMAINS = ("evil.test", "bad.example")


def random_conformant_graph(seed: int) -> KnowledgeGraph:
    """Seeded random graph (at most 200 nodes) for inference property tests."""
    rng = random.Random(seed)
    g = KnowledgeGraph()
    n_scen = rng.randint(1, 4)
    for sid in range(1, n_scen + 1):
        g.register_scenario(sid, f"type{rng.randint(1, 3)}")

    pools: dict[str, list[str]] = {}

    def make(concept: str, count: int, scenario: bool) -> None:
        ids = []
        for i in range(count):
            props = {}
            if concept == "AttackTarget" and rng.random() < 0.5:
                props["affiliation"] = rng.choice(AFFILIATIONS)
            if concept == "AttackMethod" and rng.random() < 0.4:
                props["encoded_domain"] = rng.choice(DOMAINS)
            node_id = f"{concept.lower()}{i}"
            g.add_node(
                Node(
                    node_id,
                    concept,
                    rng.randint(1, n_scen) if scenario else None,
                    properties=props,
                )
            )
            ids.append(node_id)
        pools[concept] = ids

    make("Attacker", rng.randint(1, 12), True)
    make("AttackMethod", rng.randint(1, 20), True)
    make("AttackTarget", rng.randint(1, 15), True)
    make("AttackMotivation", rng.randint(1, 6), False)
    make("HumanVulnerability", rng.randint(1, 30), False)
    make("AttackGoal", rng.randint(1, 8), True)
    make("AttackConsequence", rng.randint(1, 8), True)
    assert g.node_count <= 200

    def sprinkle(relation: str, dom: str, rng_c: str, count: int) -> None:
        for _ in range(count):
            src = rng.choice(pools[dom])
            dst = rng.choice(pools[rng_c])
            if src != dst:
                g.add_edge(src, relation, dst)

    sprinkle("craft_and_perform", "Attacker", "AttackMethod", rng.randint(0, 25))
    sprinkle("apply_to", "AttackMethod", "AttackTarget", rng.randint(0, 25))
    sprinkle("to_exploit", "AttackMethod", "HumanVulnerability", rng.randint(0, 30))
    sprinkle("have_vul", "AttackTarget", "HumanVulnerability", rng.randint(0, 30))
    sprinkle("motivate", "AttackMotivation", "Attacker", rng.randint(0, 10))
    sprinkle("motivated_by", "Attacker", "AttackMotivation", rng.randint(0, 10))
    sprinkle("incent", "AttackMotivation", "Attacker", rng.randint(0, 5))
    sprinkle("driven_by", "Attacker", "AttackMotivation", rng.randint(0, 5))
    sprinkle("to_achieve", "AttackMethod", "AttackGoal", rng.randint(0, 10))
    sprinkle("bring_out", "AttackTarget", "AttackConsequence", rng.randint(0, 10))
    return g


def reference_split(line: str, lineno: int) -> list[str]:
    """Split a record line into fields one character at a time, honoring
    quotes. ``loader._split_fields`` must return the same fields or raise
    the same ``DatasetError``.

    A quoted field is kept even when it is empty.
    """
    fields: list[str] = []
    buf: list[str] = []
    i = 0
    in_quotes = quoted = False
    while i < len(line):
        ch = line[i]
        if in_quotes:
            if ch == "\\":
                if i + 1 >= len(line) or line[i + 1] not in '"\\':
                    raise DatasetError("bad escape in quoted value", lineno)
                buf.append(line[i + 1])
                i += 2
                continue
            if ch == '"':
                in_quotes = False
                i += 1
                continue
            buf.append(ch)
        elif ch == '"':
            in_quotes = quoted = True
            i += 1
            continue
        elif ch.isspace():
            if buf or quoted:
                fields.append("".join(buf))
                buf = []
                quoted = False
        else:
            buf.append(ch)
        i += 1
    if in_quotes:
        raise DatasetError("unterminated quoted value", lineno)
    if buf or quoted:
        fields.append("".join(buf))
    return fields


#: The key of a ``key=value`` field, spelled out here so that the reference
#: does not follow the loader's own rule.
REFERENCE_KEY_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _reference_kv(fields: list[str], lineno: int) -> dict[str, str]:
    out: dict[str, str] = {}
    for f in fields:
        key, sep, value = f.partition("=")
        if not sep or not REFERENCE_KEY_RE.fullmatch(key):
            raise DatasetError(f"expected key=value, got {f!r}", lineno)
        if key in out:
            raise DatasetError(f"duplicate key {key!r}", lineno)
        out[key] = value
    return out


def reference_parse_document(text: str) -> tuple:
    """Parse dataset text into records one stripped line at a time, with
    ``reference_split`` for the fields. ``loader.parse_document`` must
    return equal records or raise the same ``DatasetError``."""
    records = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = reference_split(line, lineno)
        tag = fields[0]
        if tag == "EDGE":
            if len(fields) < 4:
                raise DatasetError("EDGE needs src, relation and dst", lineno)
            rule = None
            if len(fields) > 4:
                kv = _reference_kv(fields[4:], lineno)
                rule = kv.pop("inferred", None)
                if kv:
                    raise DatasetError(f"unknown EDGE keys: {sorted(kv)}", lineno)
            records.append(EdgeRecord(lineno, fields[1], fields[2], fields[3], rule))
        elif tag == "SCENARIO":
            if len(fields) < 2:
                raise DatasetError("SCENARIO needs an integer id", lineno)
            try:
                sid = int(fields[1])
            except ValueError:
                raise DatasetError(f"bad scenario id {fields[1]!r}", lineno) from None
            kv = _reference_kv(fields[2:], lineno)
            attack_type = kv.pop("type", "")
            if not attack_type:
                raise DatasetError("SCENARIO needs a type=\"...\" tag", lineno)
            if kv:
                raise DatasetError(f"unknown SCENARIO keys: {sorted(kv)}", lineno)
            records.append(ScenarioRecord(lineno, sid, attack_type))
        elif tag == "NODE":
            if len(fields) < 3:
                raise DatasetError("NODE needs an id and a concept", lineno)
            node_id, concept = fields[1], fields[2]
            kv = _reference_kv(fields[3:], lineno)
            scenario = None
            if "scenario" in kv:
                try:
                    scenario = int(kv.pop("scenario"))
                except ValueError:
                    raise DatasetError("scenario= must be an integer", lineno) from None
            labels = tuple(
                s for s in (x.strip() for x in kv.pop("labels", "").split(",")) if s
            )
            comment = kv.pop("comment", "")
            records.append(
                NodeRecord(lineno, node_id, concept, scenario, labels, kv, comment)
            )
        else:
            raise DatasetError(f"unknown record tag {tag!r}", lineno)
    return tuple(records)


def reference_chains(graph) -> list[tuple[str, str, str, str]]:
    """Every (attacker, method, vulnerability, victim) chain
    attacker -craft_and_perform-> method -to_exploit-> vulnerability
    <-have_vul- victim, by a nested loop over the three relations' edges.

    Uses no adjacency index and no analytics code.
    """
    performs = graph.edges("craft_and_perform")
    exploits = graph.edges("to_exploit")
    flaws = graph.edges("have_vul")
    return sorted(
        (p.src, p.dst, x.dst, f.src)
        for p in performs
        for x in exploits
        if x.src == p.dst
        for f in flaws
        if f.dst == x.dst
    )


def reference_oracle_paths(graph) -> list[tuple[str, ...]]:
    """Red-relation paths attacker -> victim with at most one node per
    concept and at most 8 edges, as sorted node-id tuples, by a recursive
    walk over an undirected red adjacency built from ``graph.edges()`` that
    copies its seen sets and path tuples at every step and checks node ids
    and concepts separately.

    ``enumerate_oracle_paths`` must equal it, order included.
    """
    neighbours: dict[str, list[str]] = {}
    for edge in graph.edges():
        if edge.relation in RED_RELATIONS:
            neighbours.setdefault(edge.src, []).append(edge.dst)
            neighbours.setdefault(edge.dst, []).append(edge.src)
    paths = []

    def walk(node_id, seen_nodes, seen_concepts, nodes):
        if graph.node(node_id).concept == "AttackTarget":
            paths.append(nodes)
            return
        if len(nodes) > 8:
            return
        for other in neighbours.get(node_id, ()):
            if other in seen_nodes:
                continue
            concept = graph.node(other).concept
            if concept in seen_concepts:
                continue
            walk(
                other,
                seen_nodes | {other},
                seen_concepts | {concept},
                nodes + (other,),
            )

    for attacker in graph.nodes_by_concept("Attacker"):
        walk(
            attacker.id,
            frozenset({attacker.id}),
            frozenset({"Attacker"}),
            (attacker.id,),
        )
    paths.sort()
    return paths


def reference_scenario_members(graph) -> dict[int, set[str]]:
    """Node ids of every declared scenario, by brute force over ``edges()``.

    A scenario holds its tagged nodes, the untagged nodes one edge away from
    them, and what those vulnerabilities take_effected_by. Rescans every
    edge per scenario and uses no adjacency index.
    """
    nodes = {n.id: n for n in graph.nodes()}
    edges = graph.edges()
    members = {}
    for sid in graph.scenario_ids():
        tagged = {i for i, n in nodes.items() if n.scenario_id == sid}
        untagged = {i for i, n in nodes.items() if n.scenario_id is None}
        hop = {e.dst for e in edges if e.src in tagged and e.dst in untagged}
        hop |= {e.src for e in edges if e.dst in tagged and e.src in untagged}
        effects = {
            e.dst
            for e in edges
            if e.relation == "take_effected_by"
            and e.src in hop
            and nodes[e.src].concept == "HumanVulnerability"
        }
        members[sid] = tagged | hop | effects
    return members


def replicated_graph(graph, k: int) -> KnowledgeGraph:
    """``k`` copies of ``graph``'s scenarios sharing its vocabulary nodes.

    Copy ``c`` suffixes scenario-tagged node ids with ``_<c>`` and adds
    ``1000 * c`` to their scenario ids, as the benchmark's k-times corpora do.
    """
    g = KnowledgeGraph()
    for c in range(k):
        for sid, attack_type in graph.scenarios.items():
            g.register_scenario(sid + 1000 * c, attack_type)

    def copy_id(node_id, c):
        return node_id if graph.node(node_id).scenario_id is None else f"{node_id}_{c}"

    for c in range(k):
        for n in graph.nodes():
            sid = None if n.scenario_id is None else n.scenario_id + 1000 * c
            labels, props = n.taxonomy_labels, n.properties
            g.add_node(Node(copy_id(n.id, c), n.concept, sid, labels, props, n.comment))
        for e in graph.edges():
            g.add_edge(copy_id(e.src, c), e.relation, copy_id(e.dst, c), e.rule)
    return g


def crosslinked_graph(graph, k: int) -> KnowledgeGraph:
    """``replicated_graph(graph, k)`` plus ``phishing10_<c> apply_to
    victim1_<c-1>`` for each copy ``c`` from 1 to ``k - 1``.

    Each link sends copy ``c``'s attacker10 against copy ``c-1``'s victim1,
    whose own attacker shares attacker10's motivation. So R4 fires, twice
    per link, where on ``k`` unlinked copies its plan yields no row.
    """
    g = replicated_graph(graph, k)
    for c in range(1, k):
        g.add_edge(f"phishing10_{c}", "apply_to", f"victim1_{c - 1}")
    return g


def reference_eval(query, graph) -> list[tuple[str, ...]]:
    """Exhaustive query evaluation: every assignment of ``query.body``'s
    variables is tried against its atoms (by ``has_edge``) and its tests:
    ``=`` holds when both sides have the same value and ``<>`` when the
    values differ, neither when a side is absent.

    Shares no planner or join code. Exponential, so only usable on small
    fixtures; the production evaluator must agree with it exactly.
    """
    body = query.body

    def operand(env, op):
        if op.variable is None:
            return op.literal
        if op.key is None:
            return env[op.variable]
        return graph.node(env[op.variable]).property(op.key)

    def holds(env, test):
        a, b = operand(env, test.left), operand(env, test.right)
        if a is None or b is None:
            return False
        return a != b if test.op == "<>" else a == b

    envs = []
    for combo in itertools.product(graph.node_ids(), repeat=len(body.variables)):
        env = dict(zip(body.variables, combo))
        if not all(graph.has_edge(env[s], r, env[d]) for s, r, d in body.atoms):
            continue
        if not all(holds(env, t) for t in body.tests):
            continue
        envs.append(env)
    return reference_project(query, graph, envs)


def reference_project(query, graph, envs: Iterable[dict]) -> list[tuple[str, ...]]:
    """``query``'s RETURN rows over the bindings ``envs`` (variable -> node
    id), one value per item, read with ``graph.node(...).property`` and
    ``""`` when absent; sorted, and under DISTINCT deduplicated."""
    rows = []
    for env in envs:
        row = []
        for item in query.returns:
            if item.key is None:
                row.append(env[item.variable])
            else:
                value = graph.node(env[item.variable]).property(item.key)
                row.append("" if value is None else value)
        rows.append(tuple(row))
    rows.sort()
    if query.distinct:
        rows = [r for i, r in enumerate(rows) if i == 0 or r != rows[i - 1]]
    return rows


def random_match_texts(seed: int, count: int) -> list[tuple[str, Conjunction]]:
    """``count`` seeded MATCH texts of 2-4 atoms over ``RELATION_ROWS``,
    each with the join body it means, built here without the parser.

    Each atom is a path of its own, written forward or backward. Its first
    end is a variable already used (after the first atom, unless one time
    in five), its other end a fresh variable or, one time in five, another
    used one; one atom in twelve is a self-loop. A node is labelled one
    time in four, with a concept's name or synonym from ``CONCEPT_ROWS``.
    So that texts land on both sides of the parser's check, choices favour
    the concept a variable got from its first atom: nine relations in ten
    and half the labels are picked to agree with it. The body holds the
    atoms and the label tests in reading order and the variables in order
    of first appearance; RETURN names the first variable.
    """
    rng = random.Random(seed)
    texts = []
    for _ in range(count):
        names: list[str] = []
        first_concept: dict[str, str] = {}
        atoms: list[tuple[str, str, str]] = []
        tests, paths = [], []

        def pick(reuse: float, other: str = "") -> str:
            used = [name for name in names if name != other]
            if used and rng.random() < reuse:
                return rng.choice(used)
            names.append(f"x{len(names)}")
            return names[-1]

        def node(name: str) -> str:
            if rng.random() >= 0.25:
                return f"({name})"
            concept = rng.choice(CONCEPT_ROWS)
            if rng.random() < 0.5:
                concept = next(c for c in CONCEPT_ROWS if c.name == first_concept[name])
            tests.append(has_property(name, "concept", concept.name))
            return f"({name}:{rng.choice((concept.name, *concept.synonyms))})"

        for _ in range(rng.randint(2, 4)):
            first, forward = pick(0.8), rng.random() < 0.5
            end = "domain" if forward else "range"  # the first end's
            fits = [r for r in RELATION_ROWS if getattr(r, end) == first_concept.get(first)]
            row = rng.choice(fits if fits and rng.random() < 0.9 else RELATION_ROWS)
            second = first if rng.random() < 1 / 12 else pick(0.2, first)
            src, dst = (first, second) if forward else (second, first)
            first_concept.setdefault(src, row.domain)
            first_concept.setdefault(dst, row.range)
            left, right = node(first), node(second)
            arrow = f"-[:{row.name}]->" if forward else f"<-[:{row.name}]-"
            paths.append(f"{left}{arrow}{right}")
            atoms.append((src, row.name, dst))
        text = f"MATCH {', '.join(paths)} RETURN {names[0]}"
        texts.append((text, Conjunction(tuple(atoms), tuple(tests), tuple(names))))
    return texts


def reference_plan(body: Conjunction, inputs: tuple[str, ...] = ()) -> Plan:
    """``body``'s plan as ``Conjunction.plan`` made it before it kept its
    atoms and tests indexed by variable: after every step it rescans both
    lists, first for the checks that have become ready, then for the
    option of the lowest rank. ``Conjunction.plan`` must return the same
    plan, step for step.

    A concept test goes when the schema types its variable alike: the
    domain of a relation it is the source of, or the range of one it is the
    target of. The parser refuses a body where they differ, so the planner
    drops every concept test on an atom's end without reading the schema."""
    slot = {v: i for i, v in enumerate(body.variables)}
    if len(set(inputs)) != len(inputs) or not set(inputs) <= slot.keys():
        raise ValueError(f"inputs must be distinct variables of the body: {inputs}")
    atoms = list(body.atoms)
    typed = set()
    for src, rel, dst in body.atoms:
        relation = stored_relation(rel)
        typed.update(((src, relation.domain), (dst, relation.range)))
    tests = []
    for t in body.tests:
        left, right = t.left, t.right
        concept = t.op == "=" and left.key == "concept" and right.variable is None
        if not (concept and (left.variable, right.literal) in typed):
            tests.append((t, t.variables()))
    bound = set(inputs)
    steps: list[tuple] = []
    while True:
        for atom in [a for a in atoms if a[0] in bound and a[2] in bound]:
            atoms.remove(atom)
            src, rel, dst = atom
            steps.append(("has_edge", slot[src], rel, slot[dst]))
        for test, names in [t for t in tests if t[1] <= bound]:
            tests.remove((test, names))
            left, right = _reference_operand(slot, test.left), _reference_operand(slot, test.right)
            steps.append(("test", left, right, test.op == "<>"))
        free = next((v for v in body.variables if v not in bound), None)
        if free is None:
            pinned = tuple(slot[v] for v in inputs)
            return Plan(tuple(steps), len(slot), pinned)
        # The first option of the lowest rank wins; a node scan ranks 5.
        rank, lookup, atom = 5, None, None
        for test, names in tests:
            if oriented := _reference_as_lookup(test, bound):
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
            value = _reference_operand(slot, other)
            key = mine.key or "id"
            steps.append(("lookup", slot[mine.variable], key, value))
            bound.add(mine.variable)
        else:
            steps.append(("nodes", slot[free]))
            bound.add(free)


def _reference_operand(slot: dict[str, int], operand) -> tuple:
    """``operand`` as a plan reads it: (slot or None, key, literal)."""
    index = None if operand.variable is None else slot[operand.variable]
    return (index, operand.key, operand.literal)


def _reference_as_lookup(test, bound: set[str]) -> tuple | None:
    """``test`` as (unbound-var(.key), bound side), if it is an equality
    that can bind that variable."""
    if test.op != "=":
        return None
    for mine, other in ((test.left, test.right), (test.right, test.left)):
        if mine.variable is not None and mine.variable not in bound:
            if other.variable is None or other.variable in bound:
                return mine, other
    return None


def has_node(graph: KnowledgeGraph, node_id: str | None) -> bool:
    """Whether ``graph`` holds a node ``node_id``, asked of ``graph.node``
    alone, so that it shares no index with the joins it checks."""
    try:
        graph.node(node_id)
    except GraphError:
        return False
    return True


def _reference_reader(
    graph: KnowledgeGraph, slots: list[str], operand: tuple
) -> Callable:
    """A function giving ``operand``'s value for the bound ``slots``."""
    index, key, literal = operand
    if index is None:
        return lambda: literal
    if key is None:
        return lambda: slots[index]
    values = graph.property_values(key)
    return lambda: values[slots[index]]


def _reference_step(
    graph: KnowledgeGraph, slots: list[str], step: tuple, then: Callable
) -> Callable:
    """``step`` as a function of the bound ``slots`` that calls ``then``
    once per binding it makes, or once if its check passes."""
    kind = step[0]
    if kind == "test":
        _, left, right, negate = step
        left = _reference_reader(graph, slots, left)
        right = _reference_reader(graph, slots, right)

        def check() -> None:  # an absent value neither equals nor differs
            a, b = left(), right()
            if a is not None and b is not None and ((a != b) if negate else (a == b)):
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
        _, _, key, operand = step
        read, by_id = _reference_reader(graph, slots, operand), key in (None, "id")

        def values() -> Sequence[str]:  # an absent value equals nothing
            value = read()
            if by_id:
                return (value,) if has_node(graph, value) else ()
            return () if value is None else graph.nodes_with(key, value)

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


def reference_match(
    graph: KnowledgeGraph, plan: Plan, rows: Iterable[Sequence[str]] = ((),)
) -> list[tuple[str, ...]]:
    """Every binding of a plan's variables that satisfies it on ``graph``,
    as one tuple of its slots per result row, by one closure per plan step.

    The join engine as it was before plans ran as generated loop nests:
    each step is a function of a shared slot list that calls the next step's
    function once per binding it makes, or once if its check passes.
    ``query.match`` must return the same rows in the same order, and raise
    the same ``ValueError`` for a row of the wrong width.

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
        run = _reference_step(graph, slots, step, run)
    inputs = plan.inputs
    for row in rows:
        if len(row) != len(inputs):
            raise ValueError(f"the plan takes {len(inputs)} inputs, got {len(row)}")
        for index, value in zip(inputs, row):
            slots[index] = value
        run()
    return found


def thaw(graph, rename=None) -> KnowledgeGraph:
    """An unfrozen copy of ``graph``, written through ``add_node`` and
    ``add_edge`` with each edge's rule. A node id in ``rename`` becomes the
    id it maps to."""
    new = (rename or {}).get
    g = KnowledgeGraph()
    for sid, attack_type in graph.scenarios.items():
        g.register_scenario(sid, attack_type)
    for node in graph.nodes():
        g.add_node(node._replace(id=new(node.id, node.id)))
    for e in graph.edges():
        g.add_edge(new(e.src, e.src), e.relation, new(e.dst, e.dst), rule=e.rule)
    return g


def find_edge(graph, src, relation, dst) -> Edge:
    """The stored edge (src, relation, dst), by a scan of ``edges(relation)``."""
    for edge in graph.edges(relation):
        if edge.key() == (src, relation, dst):
            return edge
    raise AssertionError(f"no edge ({src}, {relation}, {dst})")


def record_edge_writes(monkeypatch) -> list[tuple]:
    """Patch ``KnowledgeGraph.add_edge`` so that each call that returns
    appends ``(graph, (src, relation, dst, rule), returned edge)`` to the
    list given back. A refused call raises as before and is not recorded."""
    writes: list[tuple] = []
    add_edge = KnowledgeGraph.add_edge

    def recording(self, src, relation, dst, rule=None):
        edge = add_edge(self, src, relation, dst, rule)
        writes.append((self, (src, relation, dst, rule), edge))
        return edge

    monkeypatch.setattr(KnowledgeGraph, "add_edge", recording)
    return writes


def reference_store(calls: Iterable[tuple]) -> dict[tuple[str, str, str], str | None]:
    """The edges that the accepted ``add_edge`` calls ``calls`` leave, each a
    (src, relation, dst, rule), replayed in order into a plain dict: key
    (src, stored relation, dst), value the rule. The alias dicts resolve a
    relation name, a swapped alias exchanges src and dst, and a duplicate
    keeps its first call's rule. The dict's order is first insertion."""
    store: dict[tuple[str, str, str], str | None] = {}
    for src, relation, dst, rule in calls:
        name, swapped = stored_name(relation)
        key = (dst, name, src) if swapped else (src, name, dst)
        store.setdefault(key, rule)
    return store


def reference_closure(graph) -> list:
    """Axiom closure by naive passes over the whole graph; the edges it adds.

    Each pass scans every edge, sorted by key, twice. The first scan adds
    each missing subproperty edge (``R3``). The second, reading the graph as
    it now is, adds each missing inverse edge (``R2``). Passes repeat until
    one adds nothing, so an edge that is both a lift and an inverse is
    labelled ``R3``. ``axiom_closure`` must add the same edges with the same
    labels. Shares no code with the join. ``graph`` is modified.
    """
    added = []
    while True:
        before = len(added)
        for edge in sorted(graph.edges(), key=lambda e: e.key()):
            lift = stored_relation(edge.relation).subproperty_of
            if lift is not None and not graph.has_edge(edge.src, lift, edge.dst):
                added.append(graph.add_edge(edge.src, lift, edge.dst, rule="R3"))
        for edge in sorted(graph.edges(), key=lambda e: e.key()):
            inverse = stored_relation(edge.relation).inverse_of
            if inverse is not None and not graph.has_edge(edge.dst, inverse, edge.src):
                added.append(graph.add_edge(edge.dst, inverse, edge.src, rule="R2"))
        if len(added) == before:
            return added


def stored_relation(name):
    """The stored relation called ``name``, by a linear scan of the schema's
    rows (asserted, then derived), or None; an alias is not a stored name."""
    for rel in RELATION_ROWS:
        if rel.name == name:
            return rel
    return None


def stored_name(relation) -> tuple[str, bool]:
    """(stored name, endpoints swapped) of an input name, from the alias dicts."""
    if relation in SWAPPED_ALIASES:
        return SWAPPED_ALIASES[relation], True
    return RELATION_ALIASES.get(relation, relation), False


def canonical_concept(name) -> str:
    """The concept whose name or synonym is ``name``, by a scan of the rows."""
    for concept in CONCEPT_ROWS:
        if name == concept.name or name in concept.synonyms:
            return concept.name
    raise AssertionError(f"no concept {name!r}")


def check_edge_conformance(src_concept, relation, dst_concept) -> str | None:
    """Why a (domain, relation, range) combination breaks the schema, or None.

    Resolves concept synonyms; ``relation`` must be a stored name. The graph's
    relation table is diffed against this.
    """
    rel = stored_relation(relation)
    src = canonical_concept(src_concept)
    dst = canonical_concept(dst_concept)
    if src != rel.domain:
        return f"domain mismatch: {relation} expects {rel.domain}, got {src}"
    if dst != rel.range:
        return f"range mismatch: {relation} expects {rel.range}, got {dst}"
    return None


def reference_fixpoint(graph, rules) -> set[tuple[str, str, str]]:
    """Naive fixpoint of axiom closure plus ``rules``, as edge keys.

    Shares no code with the inference engine or the join, only the parser:
    each rule body is ``parse_query(rule.body).body``. Each round completes
    inverse and subproperty edges from the schema, then re-runs every rule
    over the whole edge set: a nested-loop join over the body's atoms in
    written order (a hash lookup stands in for the scan once an endpoint is
    bound), then each variable no atom binds ranges over every node (or,
    if an ``=`` test ties its property to a bound variable's, over the
    nodes with that value), then the tests, where ``=`` fails on an absent
    property. Rounds repeat until one adds nothing. ``graph`` is not
    modified.
    """
    nodes = {n.id: n for n in graph.nodes()}
    edges = {e.key() for e in graph.edges()}

    buckets: dict[str, dict[str, list[str]]] = {}

    def bucket(key):
        """Node ids carrying property ``key``, grouped by its value."""
        if key not in buckets:
            groups = buckets[key] = {}
            for node_id, node in nodes.items():
                p = node.property(key)
                if p is not None:
                    groups.setdefault(p, []).append(node_id)
        return buckets[key]

    def value(env, operand):
        if operand.variable is None:
            return operand.literal
        node_id = env[operand.variable]
        return node_id if operand.key is None else nodes[node_id].property(operand.key)

    def holds(env, test):
        a, b = value(env, test.left), value(env, test.right)
        if a is None or b is None:
            return False
        return a != b if test.op == "<>" else a == b

    def candidates(env, var, tests):
        """Nodes for the unbound ``var``: a property bucket when an ``=``
        test ties ``var.key`` to a bound variable's ``key``, else all."""
        for t in tests:
            for mine, other in ((t.left, t.right), (t.right, t.left)):
                if (
                    t.op == "="
                    and mine.variable == var
                    and mine.key is not None
                    and other.variable in env
                    and other.key is not None
                ):
                    return bucket(mine.key).get(value(env, other), [])
        return list(nodes)

    def solve(body, atoms, env):
        if atoms:
            (a, relation, b), rest = atoms[0], atoms[1:]
            if a in env:
                pairs = [(env[a], d) for d in out.get((relation, env[a]), ())]
            elif b in env:
                pairs = [(s, env[b]) for s in inc.get((relation, env[b]), ())]
            else:
                pairs = [(s, d) for s, r, d in edges if r == relation]
            for s, d in pairs:
                if env.get(b, d) != d or (a == b and s != d):
                    continue
                yield from solve(body, rest, {**env, a: s, b: d})
            return
        free = [v for v in body.variables if v not in env]
        if free:
            for node_id in candidates(env, free[0], body.tests):
                yield from solve(body, (), {**env, free[0]: node_id})
        elif all(holds(env, t) for t in body.tests):
            yield env

    compiled = []
    for rule in rules:
        query = parse_query(rule.body)
        relation, swapped = stored_name(rule.relation)
        a, b = (item.variable for item in query.returns)
        head = (b, relation, a) if swapped else (a, relation, b)
        compiled.append((query.body, *head))

    while True:
        before = len(edges)
        pending = list(edges)
        while pending:
            s, r, d = pending.pop()
            rel = stored_relation(r)
            for key in ((d, rel.inverse_of, s), (s, rel.subproperty_of, d)):
                if key[1] is not None and key not in edges:
                    edges.add(key)
                    pending.append(key)
        out, inc = {}, {}
        for s, r, d in edges:
            out.setdefault((r, s), []).append(d)
            inc.setdefault((r, d), []).append(s)
        heads = set()
        for body, a, relation, b in compiled:
            rel = stored_relation(relation)
            for env in solve(body, body.atoms, {}):
                s, d = env[a], env[b]
                if s == d:
                    continue
                if check_edge_conformance(
                    nodes[s].concept, relation, nodes[d].concept
                ) is None:
                    heads.add((s, relation, d))
        edges |= heads
        if len(edges) == before:
            return edges
