import io
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from conftest import ASSERTED_ATTACK, crosslinked_graph
from sekg import cli
from sekg.cli import main
from sekg.graph import KnowledgeGraph
from sekg.inference import run_inference
from sekg.loader import load_dataset, serialize_dataset
from sekg.schema import RELATIONS
from test_query import BRUTE_QUERIES

GOLDEN = Path(__file__).parent / "golden"

EMPTY_SCENARIO = """\
SCENARIO 1 type=hollow
NODE attacker1 Attacker scenario=1
NODE victim1 AttackTarget scenario=1
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


#: (golden file, argv) of each CLI run pinned byte for byte.
GOLDEN_CASES = [
    ("load.txt", ["load"]),
    ("validate.txt", ["validate"]),
    ("infer_trace.txt", ["infer", "--trace"]),
    ("stats_table.txt", ["stats", "--relation", "performed_through", "--end", "dst", "--top", "3"]),
    ("stats.csv", ["stats", "--relation", "performed_through", "--end", "dst", "--top", "3", "--format", "csv"]),
    ("stats.json", ["stats", "--relation", "performed_through", "--end", "dst", "--top", "3", "--format", "json"]),
    ("threats_victim7.txt", ["threats", "--victim", "victim7"]),
    ("threats_victim7.json", ["threats", "--victim", "victim7", "--format", "json"]),
    ("targets_attacker10.txt", ["targets", "--attacker", "attacker10"]),
    ("paths_10_13.txt", ["paths", "--from", "attacker10", "--to", "victim13"]),
    ("paths_10_13.json", ["paths", "--from", "attacker10", "--to", "victim13", "--format", "json"]),
    ("same_origin.json", ["same-origin"]),
    (
        "query_company_a.tsv",
        ["query", 'MATCH (v:Victim {affiliation="Company A"}) RETURN v, v.scenario_id'],
    ),
    ("export_scenario9.dot", ["export", "--scenario", "9"]),
    ("eval.json", ["eval"]),
    ("targets_attacker10.json", ["targets", "--attacker", "attacker10", "--format", "json"]),
    (  # R5's test as a query: targets that share an affiliation
        "query_same_affiliation.tsv",
        [
            "query",
            "MATCH (v:Victim), (w:Victim) WHERE v.affiliation = w.affiliation AND v <> w"
            " RETURN v, w, v.affiliation",
        ],
    ),
]


@pytest.mark.parametrize("golden, argv", GOLDEN_CASES)
def test_golden_outputs(capsys, golden, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert err == ""
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


def test_repeated_runs_identical(capsys):
    first = run_cli(capsys, "eval")
    second = run_cli(capsys, "eval")
    assert first == second


def test_subprocess_determinism_across_hash_seeds(tmp_path):
    outs = []
    src = str(Path(cli.__file__).resolve().parents[1])  # the sekg under test
    for seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "sekg.cli", "export"],
            capture_output=True,
            env=env,
            check=True,
        )
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_missing_file_exit_code(capsys):
    code, out, err = run_cli(capsys, "load", "no_such_file.sekg")
    assert code == 1
    assert out == ""
    assert "file not found" in err
    assert "no_such_file.sekg" in err


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["load", "{tmp}/no_such_file.sekg"], "file not found: {tmp}/no_such_file.sekg"),
        (["load", "{tmp}"], "is a directory: {tmp}"),
        (["load", "{tmp}/latin1.sekg"], "not UTF-8 text: {tmp}/latin1.sekg (byte 8)"),
        (["load", "--output", "{tmp}/absent/out.txt"], "file not found: {tmp}/absent/out.txt"),
        (["load", "--output", "{tmp}"], "is a directory: {tmp}"),
    ],
)
def test_io_errors_print_one_error_line(tmp_path, capsys, argv, expected):
    (tmp_path / "latin1.sekg").write_bytes("NODE caf\xe9 Attacker\n".encode("latin-1"))
    code, out, err = run_cli(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 1
    assert out == ""
    assert err == f"error: {expected.format(tmp=tmp_path)}\n"


def test_dataset_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.sekg"
    bad.write_text("NODE a Attacker\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "load", str(bad))
    assert code == 1
    assert "line 1" in err


def test_asserted_derived_edge_is_one_error_line(tmp_path, capsys):
    # Two attack edges with no method behind them: the load stops at the
    # first, so no rule builds on it and no command runs.
    bad = tmp_path / "asserted_attack.sekg"
    bad.write_text(ASSERTED_ATTACK, encoding="utf-8")
    for argv in (["load"], ["threats", "--victim", "v"], ["eval"]):
        code, out, err = run_cli(capsys, *argv, str(bad))
        assert code == 1
        assert out == ""
        assert err == "error: line 8: attack is derived by R1, so its EDGE needs inferred=<rule>\n"


def test_strict_vocab_flag(tmp_path, capsys):
    loose = tmp_path / "loose.sekg"
    loose.write_text("NODE wizardry HumanVulnerability\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "load", str(loose))
    assert code == 0
    assert "warnings: 1" in out
    code, _, err = run_cli(capsys, "load", "--strict-vocab", str(loose))
    assert code == 1
    assert "not a catalog term" in err


def test_validate_exit_one_on_mandatory_findings(tmp_path, capsys):
    hollow = tmp_path / "hollow.sekg"
    hollow.write_text(EMPTY_SCENARIO, encoding="utf-8")
    code, out, _ = run_cli(capsys, "validate", str(hollow))
    assert code == 1
    assert "mandatory" in out


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["stats"])  # --relation is required
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2
    capsys.readouterr()
    for top in ("0", "-2"):
        with pytest.raises(SystemExit) as err:
            main(["stats", "--relation", "attack", "--top", top])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--top must be at least 1, got {top}" in captured.err
        assert captured.err.startswith("usage: se-kg stats ")


def test_query_parse_error_exit_one(capsys):
    code, out, err = run_cli(capsys, "query", "MATCH (a RETURN a")
    assert code == 1
    assert "at offset 9" in err


def test_query_that_can_never_match_exits_one(capsys):
    # craft_and_perform's sources are Attackers, never AttackTargets
    text = "MATCH (v:AttackTarget)-[:craft_and_perform]->(m) RETURN v, m"
    assert run_cli(capsys, "query", text) == (
        1,
        "",
        "error: at offset 25: v is AttackTarget, not Attacker\n",
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["threats", "--victim", "attacker10"],
        ["targets", "--attacker", "victim7"],
        ["paths", "--from", "victim7", "--to", "attacker10"],
    ],
)
def test_wrong_concept_id_exit_one(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: expected an ")


def test_query_stdin(capsys, monkeypatch):
    monkeypatch.setattr(
        sys, "stdin", io.StringIO("MATCH (a)-[:attack]->(v) RETURN a, v")
    )
    code, out, _ = run_cli(capsys, "query")
    assert code == 0
    assert out.splitlines()[0] == "a\tv"
    assert len(out.splitlines()) == 16


def test_query_json_format(capsys):
    code, out, _ = run_cli(
        capsys,
        "query",
        "--format",
        "json",
        'MATCH (v:Victim {affiliation="Company A"}) RETURN v',
    )
    assert code == 0
    assert json.loads(out) == [{"v": "victim10"}, {"v": "victim15"}]


def test_query_json_refuses_repeated_labels(capsys):
    text = "MATCH (a:Attacker)-[:craft_and_perform]->(m) RETURN a, m, a"
    code, out, err = run_cli(capsys, "query", "--format", "json", text)
    assert (code, out) == (1, "")
    assert err == "error: --format json needs distinct RETURN labels; repeated: a\n"
    code, out, _ = run_cli(capsys, "query", text)
    assert code == 0
    assert out.splitlines()[0] == "a\tm\ta"


def test_eval_graph_reads(graph, monkeypatch, capsys):
    # Counted, not timed, on a graph built before counting starts. eval
    # expands the chain pairs once: 36 adjacency reads (the chain's, the
    # oracle's and those under neighbors), no has_edge and 1
    # nodes_by_concept call (the oracle's). The chain join made it 132;
    # one analytics call per attacker x victim pair made 5577 + 280.
    calls: Counter = Counter()
    for name in ("adjacency", "has_edge", "nodes_by_concept"):

        def counted(self, *args, _name=name, _fn=getattr(KnowledgeGraph, name), **kw):
            calls[_name] += 1
            return _fn(self, *args, **kw)

        monkeypatch.setattr(KnowledgeGraph, name, counted)
    monkeypatch.setattr(cli, "_load_graph", lambda args: (graph, []))
    code, out, _ = run_cli(capsys, "eval")
    monkeypatch.undo()
    assert code == 0
    assert out == (GOLDEN / "eval.json").read_text(encoding="utf-8")
    assert sum(calls.values()) < 600


def test_threats_empty_json(capsys):
    code, out, _ = run_cli(capsys, "threats", "--victim", "victim11", "--format", "json")
    assert code == 0
    assert json.loads(out) == []


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, "same-origin", "--output", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text(encoding="utf-8") == (GOLDEN / "same_origin.json").read_text(
        encoding="utf-8"
    )


def test_no_infer_flag(capsys):
    code, out, _ = run_cli(capsys, "query", "--no-infer", "MATCH (a)-[:attack]->(v) RETURN a")
    assert code == 0
    assert out.splitlines() == ["a"]


def test_export_sekg_roundtrip_stable(tmp_path, capsys):
    code, once, _ = run_cli(capsys, "export", "--format", "sekg")
    assert code == 0
    path = tmp_path / "dump.sekg"
    path.write_text(once, encoding="utf-8")
    code, twice, _ = run_cli(capsys, "export", "--format", "sekg", str(path))
    assert code == 0
    assert once == twice


def test_export_dot_structure(capsys):
    code, out, _ = run_cli(capsys, "export")
    assert code == 0
    assert out.startswith("// node fill palette by concept:")
    assert "digraph sekg {" in out
    assert out.rstrip().endswith("}")
    # inferred attack edges render dashed and red
    assert (
        '"attacker10" -> "victim10" [label="attack", color="#d00000", style=dashed];'
        in out
    )
    # asserted red-set edges render red but solid
    assert (
        '"phishing10" -> "victim10" [label="apply_to", color="#d00000"];' in out
    )
    # off-set relations stay grey
    assert 'color="#555555"' in out


def test_export_dot_goal_cluster(capsys):
    _, out, _ = run_cli(capsys, "export", "--scenario", "9")
    assert "subgraph cluster_goal_tree_9 {" in out
    assert '"remote_access_foothold9"' in out
    assert '"network_fault9"' in out


def test_export_dot_empty_graph(tmp_path, capsys):
    empty = tmp_path / "empty.sekg"
    empty.write_text("# nothing here\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "export", str(empty))
    assert code == 0
    assert "digraph sekg {" in out
    assert out.rstrip().endswith("}")


def test_quoted_node_ids_escaped():
    from sekg.cli import export_dot
    from sekg.graph import KnowledgeGraph, Node

    g = KnowledgeGraph()
    g.add_node(Node('weird"id', "Attacker"))
    out = export_dot(g)
    assert '"weird\\"id"' in out


# -- demand-driven inference ---------------------------------------------------
#
# Each command derives only the relations it reads. It must print what it
# printed when every rule ran to fixpoint before it.

ROOT = Path(__file__).resolve().parents[1]


def full_load_graph(args):
    """``_load_graph`` without read sets: every rule to fixpoint, then freeze,
    before every command that infers."""
    result = load_dataset(cli._read_dataset(args.dataset), strict_vocab=args.strict_vocab)
    if not args.no_infer:
        run_inference(result.graph)
        result.graph.freeze()
    return result.graph, result.warnings


def assert_as_full(capsys, argv):
    """``argv`` prints the same stdout, stderr and exit code with demand-driven
    and with full inference."""
    demand = run_cli(capsys, *argv)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(cli, "_load_graph", full_load_graph)
        full = run_cli(capsys, *argv)
    assert demand == full, argv


@pytest.fixture(scope="module")
def gate_files(tmp_path_factory, asserted_graph):
    """The 4x benchmark corpus, its cli-4x commands, and 3 cross-linked copies
    of the bundled corpus (R4 fires on them), as dataset files."""
    with pytest.MonkeyPatch.context() as m:
        m.syspath_prepend(str(ROOT / "benchmarks"))
        import corpus
        import workloads
    root = tmp_path_factory.mktemp("gate")
    four, linked = root / "corpus-4x.sekg", root / "crosslinked-3x.sekg"
    four.write_text(corpus.corpus_text(4), encoding="utf-8")
    linked.write_text(serialize_dataset(crosslinked_graph(asserted_graph, 3)), encoding="utf-8")
    return workloads.cli_commands(str(four), 4), str(linked)


@pytest.mark.parametrize("argv", [argv for _, argv in GOLDEN_CASES])
def test_golden_argv_print_as_with_full_inference(capsys, argv):
    assert_as_full(capsys, argv)


def test_cli_4x_commands_print_as_with_full_inference(capsys, gate_files):
    commands, _ = gate_files
    assert len(commands) == 11
    for argv in commands.values():
        assert_as_full(capsys, argv)


@pytest.mark.parametrize("relation", sorted(RELATIONS))
def test_stats_of_each_relation_prints_as_with_full_inference(capsys, gate_files, relation):
    _, linked = gate_files
    for dataset in ([], [linked]):
        for end in ("src", "dst"):
            assert_as_full(capsys, ["stats", *dataset, "--relation", relation, "--end", end])


@pytest.mark.parametrize("text", BRUTE_QUERIES)
def test_queries_print_as_with_full_inference(capsys, gate_files, text):
    _, linked = gate_files
    for dataset in ([], [linked]):
        assert_as_full(capsys, ["query", text, *dataset])


MALFORMED = "SCENARIO 1 type=t\nNODE a Attacker scenario=1\nEDGE a no_such_relation a\n"


@pytest.mark.parametrize(
    "argv",
    [["stats", "--relation", "bogus"], ["query", "MATCH (a RETURN a"]],
)
def test_dataset_error_wins_over_an_argument_error(tmp_path, capsys, argv):
    # The dataset is read before the read set is worked out, and the MATCH
    # parsed only after the load, as when the handler parsed it.
    bad = tmp_path / "bad.sekg"
    bad.write_text(MALFORMED, encoding="utf-8")
    argv = [*argv, str(bad)]
    assert run_cli(capsys, *argv) == (1, "", "error: line 3: unknown relation: 'no_such_relation'\n")
    assert_as_full(capsys, argv)
