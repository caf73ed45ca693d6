"""The three benchmark workloads: set-up, op decks, ops and output checks.

Each workload is a closed loop with one client. An op's output is checked
after its timed interval and compared with values pinned in
``expected.json`` (regenerate with ``pin.py`` only when outputs change on
purpose). A check that fails, or an op that raises, counts as a failed op.

``read-8x`` draws arguments from all eight copies. The 8x graph does not
change when copies are renumbered, so a result is checked in a canonical
form: the copies its arguments name become copies 0 and 1 (in order), the
others keep their relative order, and collections are re-sorted. One pinned
digest then covers every seed.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
from dataclasses import fields, is_dataclass
from enum import Enum
from pathlib import Path

from sekg import analytics, cli, inference, loader, query
from sekg.analytics import End

import corpus

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".bench_out"
EXPECTED = Path(__file__).with_name("expected.json")
SUBPROCESS_TIMEOUT_S = 120


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


def ident(base: str, copy: int, k: int) -> str:
    """Id of a scenario-scoped node in copy ``copy`` of a k-times corpus."""
    return base if k == 1 else f"{base}_{copy}"


_SCOPED_NODES = corpus.scoped_nodes()
ATTACKERS = sorted(i for i, (c, _) in _SCOPED_NODES.items() if c == "Attacker")
VICTIMS = sorted(i for i, (c, _) in _SCOPED_NODES.items() if c == "AttackTarget")
SCENARIOS = sorted({sid for _, sid in _SCOPED_NODES.values()})
SCOPED = frozenset(_SCOPED_NODES)


# -- build-8x ----------------------------------------------------------------


def build_summary(graph, outcome) -> dict:
    """What a build is checked on: edge keys with provenance, rule counts."""
    edges = [[e.src, e.relation, e.dst, e.provenance] for e in graph.edges()]
    return {
        "nodes": graph.node_count,
        "edges": len(edges),
        "edge_digest": digest(edges),
        "fired": dict(sorted(outcome.fired.items())),
        "rounds": outcome.iterations,
    }


class Build:
    """Load the 8x text, run inference and freeze: the write path."""

    name = "build-8x"
    k = 8
    #: Whose peak RSS is reported: the process that does the ops.
    rusage = resource.RUSAGE_SELF

    def setup(self, rng):
        return corpus.corpus_text(self.k, rng.sample(range(self.k), self.k))

    def deck(self, state, rng):
        return [("build",)]

    def span_name(self, op) -> str:
        return "op.build"

    def runner(self, in_process: bool):
        return self.run

    def run(self, text, op):
        result = loader.load_dataset(text)
        outcome = inference.run_inference(result.graph)
        result.graph.freeze()
        return result.graph, outcome

    def check(self, text, op, value, expected) -> bool:
        return build_summary(*value) == expected["build-8x"]


# -- read-8x -----------------------------------------------------------------

Q_VICTIMS = (
    'MATCH (a:Attacker {{id="{0}"}})-[:craft_and_perform]->(m)-[:to_exploit]->(h)'
    "<-[:have_vul]-(v:AttackTarget) WHERE a.scenario_id <> v.scenario_id RETURN DISTINCT v"
)
Q_QUADS = (
    'MATCH (a {{id="{0}"}})-[:craft_and_perform]->(m)-[:to_exploit]->(h)'
    '<-[:have_vul]-(v {{id="{1}"}}) RETURN a, m, h, v'
)
Q_SCENARIO = 'MATCH (n {{scenario_id="{0}"}}) RETURN n'
Q_ORGANIZATION = (
    'MATCH (a {{id="{0}"}})-[:in_the_same_organization]->(b)-[:craft_and_perform]->(m) '
    "RETURN DISTINCT b, m"
)

#: Relations ranked by ``ranked_usage``; two are aliases the schema resolves.
RANKED_RELATIONS = (
    "performed_through", "to_exploit", "have_vul", "craft_and_perform", "apply_to",
    "motivated_by", "take_effected_by", "with_trick", "explain", "attack",
    "same_origin_attack", "exploited_by", "conduct",
)

#: Op kinds of the read mix: (entity kinds of the arguments, ops per deck).
#: Paths and threats are the majority because ``se-kg eval`` is made of them.
READ_MIX = {
    "paths": (("attacker", "victim"), 40),
    "threats": (("victim",), 20),
    "targets": (("attacker",), 8),
    "alternates": (("attacker", "victim"), 8),
    "ranked": ((), 6),
    "same_origin": ((), 2),
    "q_victims": (("attacker",), 4),
    "q_quads": (("attacker", "victim"), 5),
    "q_scenario": (("scenario",), 4),
    "q_organization": (("attacker",), 3),
}
ENTITY_BASES = {"attacker": ATTACKERS, "victim": VICTIMS, "scenario": SCENARIOS}


def _entity(kind: str, base, copy: int):
    if kind == "scenario":
        return str(base + 1000 * copy)
    return f"{base}_{copy}"


def read_call(graph, op):
    """Run one read op. ``op`` is (kind, ((base, copy), ...), extra)."""
    kind, ents, extra = op
    ent_kinds = READ_MIX[kind][0]
    a = [_entity(k, b, c) for k, (b, c) in zip(ent_kinds, ents)]
    if kind == "paths":
        return analytics.attack_paths_between(graph, *a)
    if kind == "threats":
        return analytics.potential_threats_for_victim(graph, *a)
    if kind == "targets":
        return analytics.potential_targets_for_attacker(graph, *a)
    if kind == "alternates":
        return analytics.alternate_methods_for_target(graph, *a)
    if kind == "ranked":
        relation, end, k = extra
        return analytics.ranked_usage(graph, relation, End(end), k)
    if kind == "same_origin":
        return analytics.same_origin_report(graph)
    template = {
        "q_victims": Q_VICTIMS,
        "q_quads": Q_QUADS,
        "q_scenario": Q_SCENARIO,
        "q_organization": Q_ORGANIZATION,
    }[kind]
    return query.evaluate_query(query.parse_query(template.format(*a)), graph)


def _plain(value):
    """JSON-like form; tuples stay records, lists become collections."""
    if isinstance(value, analytics.ThreatPair):
        return (
            value.attacker, value.method, value.victim,
            sorted(value.shared_vulnerabilities),
            tuple(str(s) for s in value.origin_scenarios),
        )
    if is_dataclass(value):
        return tuple(_plain(getattr(value, f.name)) for f in fields(value))
    if isinstance(value, (set, frozenset)):
        return sorted(_plain(v) for v in value)
    if isinstance(value, list):
        return [_plain(v) for v in value]
    if isinstance(value, tuple):
        return tuple(_plain(v) for v in value)
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, Enum):
        return value.value
    return value


def _relabel(value, perm):
    """Renumber copies in ids and scenario ids; re-sort every collection."""
    if isinstance(value, str):
        if value.isdigit():
            sid = int(value)
            return str(sid % 1000 + 1000 * perm[sid // 1000])
        base, sep, copy = value.rpartition("_")
        if sep and base in SCOPED and copy.isdigit():
            return f"{base}_{perm[int(copy)]}"
        return value
    if isinstance(value, list):
        items = [_relabel(v, perm) for v in value]
        return sorted(items, key=lambda v: json.dumps(v, sort_keys=True))
    if isinstance(value, tuple):
        return [_relabel(v, perm) for v in value]
    if isinstance(value, dict):
        return {k: _relabel(v, perm) for k, v in value.items()}
    return value


def canonical(op, k: int = 8):
    """Canonical key of a read op and the copy permutation that produces it."""
    kind, ents, extra = op
    anchors = list(dict.fromkeys(c for _, c in ents))
    order = anchors + [c for c in range(k) if c not in anchors]
    perm = {c: i for i, c in enumerate(order)}
    parts = [kind] + [f"{b}@{perm[c]}" for b, c in ents] + [str(x) for x in extra]
    return " ".join(parts), perm


def read_digest(op, value) -> str:
    if op[0] == "alternates":
        value = list(value)  # a tuple of ids: a collection, not a record
    _, perm = canonical(op)
    return digest(_relabel(_plain(value), perm))


def read_ops(k: int = 8):
    """Every canonical read op; ``pin.py`` pins a digest for each."""
    ops = []
    for kind, (ent_kinds, _) in READ_MIX.items():
        if kind == "ranked":
            ops += [
                (kind, (), (rel, end, top))
                for rel in RANKED_RELATIONS for end in ("src", "dst") for top in range(1, 6)
            ]
            continue
        combos = [()]
        for n, ek in enumerate(ent_kinds):
            copies = (0,) if n == 0 else (0, 1)
            combos = [c + ((b, cp),) for c in combos for b in ENTITY_BASES[ek] for cp in copies]
        ops += [(kind, ents, ()) for ents in combos]
    return ops


class Read:
    """Seeded analytics and MATCH ops on a frozen, inferred 8x graph."""

    name = "read-8x"
    k = 8
    rusage = resource.RUSAGE_SELF

    def setup(self, rng):
        text = corpus.corpus_text(self.k, rng.sample(range(self.k), self.k))
        graph = loader.load_dataset(text).graph
        inference.run_inference(graph)
        return graph.freeze()

    def deck(self, graph, rng):
        ops = []
        for kind, (ent_kinds, count) in READ_MIX.items():
            for _ in range(count):
                ents = tuple(
                    (rng.choice(ENTITY_BASES[ek]), rng.randrange(self.k)) for ek in ent_kinds
                )
                extra = ()
                if kind == "ranked":
                    extra = (rng.choice(RANKED_RELATIONS), rng.choice(("src", "dst")), rng.randint(1, 5))
                ops.append((kind, ents, extra))
        rng.shuffle(ops)
        return ops

    def span_name(self, op) -> str:
        return f"op.{op[0]}"

    def runner(self, in_process: bool):
        return read_call

    def check(self, graph, op, value, expected) -> bool:
        key, _ = canonical(op, self.k)
        return expected["read-8x"].get(key) == read_digest(op, value)


# -- cli-4x ------------------------------------------------------------------


def cli_commands(path: str, k: int) -> dict[str, list[str]]:
    """The 11 subcommands with arguments naming nodes of a k-times corpus."""
    a0, a1 = ident("attacker10", 0, k), ident("attacker10", min(1, k - 1), k)
    v0, v1 = ident("victim7", 0, k), ident("victim13", min(1, k - 1), k)
    return {
        "load": ["load", path],
        "validate": ["validate", path],
        "infer": ["infer", path, "--trace"],
        "stats": ["stats", path, "--relation", "performed_through", "--end", "dst", "--top", "3"],
        "threats": ["threats", path, "--victim", v0],
        "targets": ["targets", path, "--attacker", a1],
        "paths": ["paths", path, "--from", a0, "--to", v1],
        "same-origin": ["same-origin", path],
        "query": ["query", Q_QUADS.format(a0, v1), path],
        "export": ["export", path],
        "eval": ["eval", path],
    }


def cli_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def cli_subprocess(argv: list[str]) -> tuple[int, str, str]:
    proc = subprocess.run(
        [sys.executable, "-m", "sekg.cli", *argv],
        cwd=ROOT, env=cli_env(), capture_output=True, timeout=SUBPROCESS_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8")


def cli_in_process(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def write_corpus(k: int, order=None) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"corpus-{k}x.sekg"
    path.write_text(corpus.corpus_text(k, order), encoding="utf-8")
    return path


class Cli:
    """One ``python -m sekg.cli`` subprocess per op, all 11 subcommands."""

    name = "cli-4x"
    k = 4
    rusage = resource.RUSAGE_CHILDREN  # the largest child

    def setup(self, rng):
        path = write_corpus(self.k, rng.sample(range(self.k), self.k))
        return cli_commands(str(path), self.k)

    def deck(self, commands, rng):
        subs = sorted(commands)
        rng.shuffle(subs)
        return subs

    def span_name(self, sub) -> str:
        return f"cli.{sub}"

    def runner(self, in_process: bool):
        call = cli_in_process if in_process else cli_subprocess
        return lambda commands, sub: call(commands[sub])

    def check(self, commands, sub, value, expected) -> bool:
        return cli_result(value) == expected["cli"][str(self.k)][sub]


def cli_result(value) -> list:
    code, out, err = value
    return [code, digest(out), err]


WORKLOADS = {w.name: w for w in (Build(), Read(), Cli())}
