"""Package structure: lazy exports, and no public name that only tests use."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import sekg

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


def test_import_sekg_loads_no_submodule():
    assert fresh(f"import sys, sekg; {LOADED}") == "[]"


def test_one_name_loads_only_its_module():
    loaded = fresh(f"import sys; from sekg import KnowledgeGraph; {LOADED}")
    assert "'sekg.graph'" in loaded
    for module in ("sekg.query", "sekg.inference", "sekg.analytics"):
        assert f"'{module}'" not in loaded


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
