"""Package structure: lazy exports, record semantics, and no public name
that only tests use."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sekg
from sekg.analytics import AttackPath, EvalMetrics, RankedCount, ThreatPair
from sekg.catalog import CatalogEntry
from sekg.graph import Edge, KnowledgeGraph, Node
from sekg.inference import InferenceResult, Rule
from sekg.loader import Finding, LoadResult
from sekg.query import BindingRow, Condition, Conjunction, Operand, ReturnItem, parse_query
from sekg.schema import ConceptDef, RelationDef

SRC = Path(sekg.__file__).resolve().parent
ROOT = SRC.parents[1]


def fresh(code: str) -> str:
    """Run ``code`` in a new interpreter that imports this sekg; return stdout."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


LOADED = "print(sorted(m for m in sys.modules if m.startswith('sekg.')))"


def test_sources_parse_as_the_oldest_supported_python():
    # pyproject.toml declares requires-python >= 3.10, but the suite runs on
    # a newer interpreter. ``feature_version`` rejects grammar added after
    # 3.10 (best effort: ``except*`` is caught, a new library call is not).
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
    for path in sorted(SRC.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_import_sekg_loads_no_submodule():
    assert fresh(f"import sys, sekg; {LOADED}") == "[]"


def test_one_name_loads_only_its_module():
    loaded = fresh(f"import sys; from sekg import KnowledgeGraph; {LOADED}")
    assert "'sekg.graph'" in loaded
    for module in ("sekg.query", "sekg.inference", "sekg.analytics"):
        assert f"'{module}'" not in loaded


def test_analytics_loads_no_query_module():
    # The chain ops read the graph's adjacency maps, not the MATCH join.
    loaded = fresh(f"import sys, sekg.analytics; {LOADED}")
    assert "'sekg.analytics'" in loaded
    assert "'sekg.query'" not in loaded


def test_unknown_name_raises_attribute_error():
    code = (
        "import sekg\n"
        "try:\n    sekg.no_such_name\n"
        "except AttributeError as exc:\n    print(exc)\n"
    )
    assert fresh(code) == "module 'sekg' has no attribute 'no_such_name'"


def test_from_import_still_binds_submodules():
    code = "import sys; from sekg import analytics; print(analytics is sys.modules['sekg.analytics'])"
    assert fresh(code) == "True"


def test_star_import_binds_exactly_all():
    code = (
        "import sekg; ns = {}; exec('from sekg import *', ns); ns.pop('__builtins__')\n"
        "print(sorted(ns) == sorted(sekg.__all__))"
    )
    assert fresh(code) == "True"


def test_import_cli_loads_no_dataclasses():
    # Diffed against the modules loaded before the import, so what the
    # interpreter's start-up (``site``) loads does not count.
    code = (
        "import sys; before = set(sys.modules); import sekg.cli\n"
        "print(sorted(set(sys.modules) - before))"
    )
    loaded = fresh(code)
    assert "'sekg.cli'" in loaded
    assert "'dataclasses'" not in loaded


def test_rule_table_loads_no_query_module():
    # The builtin rules are data in schema: the loader refuses an asserted
    # derived edge by them without the engine that runs them.
    for code in ("import sys, sekg.loader", "import sys; from sekg import builtin_ruleset"):
        loaded = fresh(f"{code}; {LOADED}")
        assert "'sekg.schema'" in loaded
        assert "'sekg.query'" not in loaded
        assert "'sekg.inference'" not in loaded


#: A subcommand's argv, and the sekg modules it must not load: each imports
#: only what it runs, and runs inference only for a derivable relation read.
COMMAND_IMPORTS = [
    (["load"], {"query", "inference", "analytics"}),
    (["validate"], {"query", "inference", "analytics"}),
    (["threats", "--victim", "victim7"], {"query", "inference"}),
    (["targets", "--attacker", "attacker10"], {"query", "inference"}),
    (["paths", "--from", "attacker10", "--to", "victim13"], {"query", "inference"}),
    (["stats", "--relation", "performed_through"], {"query", "inference"}),
    (["query", "MATCH (a)-[:craft_and_perform]->(m) RETURN a, m"], {"inference", "analytics"}),
    (["infer"], {"analytics"}),
    (["export"], {"analytics"}),
]


@pytest.mark.parametrize("argv, absent", COMMAND_IMPORTS, ids=[a[0] for a, _ in COMMAND_IMPORTS])
def test_each_command_loads_only_what_it_runs(argv, absent):
    argv = [*argv, str(SRC / "data" / "canonical.sekg")]
    code = (
        "import contextlib, io, sys\n"
        "from sekg import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    status = cli.main({argv!r})\n"
        f"print(status); {LOADED}"
    )
    status, loaded = fresh(code).splitlines()
    assert status == "0"
    assert "'sekg.cli'" in loaded
    assert [m for m in absent if f"'sekg.{m}'" in loaded] == []


#: One value of every public record type, exported or not.
RECORDS = [
    ConceptDef("Attacker", ("Hacker",)),
    RelationDef("attack", "Attacker", "AttackTarget"),
    CatalogEntry("greed", "human_nature"),
    Node("a1", "Attacker", 1, properties={"kind": "spy"}),
    Edge("a", "attack", "b", "R1"),
    Rule("R1", "attack", "MATCH (a)-[:attack]->(v) RETURN a, v"),
    Finding(1, "mandatory", "Attacker", "scenario 1 has no Attacker"),
    LoadResult(KnowledgeGraph(), []),
    Operand("a", "kind", None),
    Condition(Operand("a", None, None), "<>", Operand("b", None, None)),
    ReturnItem("a", "kind"),
    parse_query("MATCH (a)-[:attack]->(v) RETURN a"),
    BindingRow((("a", "a1"),)),
    Conjunction((("a", "attack", "v"),), (), ("a", "v")),
    RankedCount("phishing", 3, 1),
    ThreatPair("a1", "m1", "v2", frozenset({"greed"}), (1, 2)),
    AttackPath(("a1", "m1"), (("craft_and_perform", True),)),
    EvalMetrics(1, 2, 3, 0.25, 0.5, 0.4),
]


def test_every_exported_record_has_a_sample():
    exported = {n for n in sekg.__all__ if isinstance(getattr(sekg, n), type)}
    records = {n for n in exported if issubclass(getattr(sekg, n), tuple)}
    assert records <= {type(r).__name__ for r in RECORDS}
    assert "InferenceResult" in exported - records


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_record_is_its_field_tuple(record):
    fields = tuple(getattr(record, name) for name in type(record)._fields)
    assert record == fields and fields == record
    try:
        expected = hash(fields)
    except TypeError:  # a dict or list field: neither one hashes
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected
    with pytest.raises(AttributeError):
        setattr(record, type(record)._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_record_defaults_are_not_shared():
    first, second = Node("a", "Attacker"), Node("b", "Attacker")
    with pytest.raises(TypeError):
        first.properties["kind"] = "spy"
    assert first.properties == second.properties == {}
    one, other = InferenceResult(), InferenceResult()
    one.added.append(Edge("a", "attack", "b", "R1"))
    one.fired["R1"] = 1
    assert (other.added, other.fired, other.iterations) == ([], {}, 0)


def public_definitions(source: str):
    """(name, label, first line, last line) of each public module-level
    definition and of each public method or property of a public class."""
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    label = f"{node.name}.{item.name}"
                    yield item.name, label, item.lineno, item.end_lineno


def test_every_public_name_has_a_non_test_user():
    # A reference is a whole-word mention in src/sekg (the package's export
    # table does not count), in the benchmark scripts or in the README, other
    # than the name's own definition. Tests do not count: a helper only they
    # call belongs in tests/conftest.py. A method or property of a public
    # class counts as used only on attribute access (``.name``), so a method
    # named like a common word is not kept alive by that word.
    modules = {
        p: p.read_text(encoding="utf-8")
        for p in sorted(SRC.glob("*.py"))
        if p.name != "__init__.py"
    }
    scripts = [p for p in (ROOT / "benchmarks").glob("*.py") if not p.name.startswith("test_")]
    outside = [p.read_text(encoding="utf-8") for p in [*scripts, ROOT / "README.md"]]
    unused = []
    for path, text in modules.items():
        others = "\n".join([*(t for p, t in modules.items() if p != path), *outside])
        lines = text.splitlines()
        for name, label, first, last in public_definitions(text):
            rest = "\n".join(lines[: first - 1] + lines[last:])
            use = rf"\.{re.escape(name)}\b" if "." in label else rf"\b{re.escape(name)}\b"
            if not re.search(use, rest + "\n" + others):
                unused.append(f"{path.stem}.{label}")
    assert unused == []


#: The ``KnowledgeGraph`` fields no module but ``graph.py`` may read.
GRAPH_INTERNALS = re.compile(
    r"\._(?:nodes|edges|out|in|rules|edge_count|property_values|by_property)\b"
)


def test_only_the_graph_module_reads_graph_internals():
    # Other modules go through the graph's public reads (``node_map``,
    # ``adjacency``, ``property_values``, ``edge`` ...), so a faster read
    # path is one the whole package can use and the tests can check.
    assert GRAPH_INTERNALS.search("graph._in.get(x)")
    assert GRAPH_INTERNALS.search("graph._rules.get(key)")
    assert GRAPH_INTERNALS.search("graph._edge_count += 1")
    assert not GRAPH_INTERNALS.search("self._index, graph._nodes_seen")
    readers = [
        f"{path.name}:{n}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "graph.py"
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if GRAPH_INTERNALS.search(line)
    ]
    assert readers == []


def test_calls_the_traced_benchmark_reads_stay_reachable(monkeypatch, graph):
    # ``benchmarks/run.py --trace 1`` wraps each public function where it is
    # looked up, and its per-layer rows fail with "no spans for ..." when a
    # row's function is never called. These three calls keep the loader,
    # neighbors and nodes_by_concept rows alive; each must look its name up
    # at call time, so that a patched name is the one called.
    from sekg import analytics, loader
    from sekg.datasets import canonical_text

    calls = []

    def spy(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    spy(loader, "parse_document")
    spy(KnowledgeGraph, "neighbors")
    spy(KnowledgeGraph, "nodes_by_concept")
    loader.load_dataset(canonical_text())
    assert calls == ["parse_document"]
    calls.clear()
    analytics.enumerate_oracle_paths(graph)
    assert "nodes_by_concept" in calls
    calls.clear()
    analytics.evaluation_report(graph)
    assert {"neighbors", "nodes_by_concept"} <= set(calls)
