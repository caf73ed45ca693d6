"""Command line front end.

Subcommands: load, validate, infer, stats, threats, targets, paths,
same-origin, query, export, eval. Results go to stdout (or ``--output``),
diagnostics to stderr. Exit codes: 0 success, 1 validation or analysis
error, 2 usage error. All output is deterministic.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import analytics
from .datasets import canonical_text
from .errors import DatasetError, SekgError
from .graph import RED_RELATIONS, KnowledgeGraph
from .inference import run_inference
from .loader import load_dataset, serialize_dataset, validate_scenario_completeness
from .query import parse_query, evaluate_query

CONCEPT_FILL = {
    "Attacker": "#e63946",
    "AttackMotivation": "#f4a261",
    "AttackGoal": "#e9c46a",
    "SocialEngineeringInformation": "#94d2bd",
    "AttackStrategy": "#74c0fc",
    "AttackMethod": "#f77f00",
    "AttackTarget": "#457b9d",
    "AttackMedium": "#b5838d",
    "HumanVulnerability": "#9b5de5",
    "EffectMechanism": "#00b4d8",
    "AttackConsequence": "#2a9d8f",
}
AUXILIARY_FILL = "#ced4da"
RED_EDGE_COLOR = "#d00000"
PLAIN_EDGE_COLOR = "#555555"
GOAL_CLUSTER_FILL = "#ffec99"


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(graph: KnowledgeGraph) -> str:
    """Render the graph as a DOT document.

    Node fill follows the concept palette below; edges over the red
    relation set (plus derived attack edges) are red; inferred edges are
    dashed. Goal/sub-goal nodes of each scenario sit in their own cluster.
    """
    lines = ["// node fill palette by concept:"]
    for concept, fill in CONCEPT_FILL.items():
        lines.append(f"//   {concept}: {fill}")
    lines.append(f"//   auxiliary concepts (SubGoal, CommonSkill, AuxiliaryTrick): {AUXILIARY_FILL}")
    lines.append(f"// red relations ({', '.join(sorted(RED_RELATIONS | {'attack'}))}): {RED_EDGE_COLOR}")
    lines.append("// inferred edges are dashed")
    lines.append("digraph sekg {")
    lines.append('  node [shape=box, style=filled, fontname="Helvetica"];')

    goal_trees: dict[int, list[str]] = {}
    unclustered: list[str] = []
    for node in graph.nodes():
        fill = CONCEPT_FILL.get(node.concept, AUXILIARY_FILL)
        line = f"{_dot_quote(node.id)} [fillcolor=\"{fill}\"];"
        if node.concept in ("AttackGoal", "SubGoal") and node.scenario_id is not None:
            goal_trees.setdefault(node.scenario_id, []).append(line)
        else:
            unclustered.append(line)
    for sid in sorted(goal_trees):
        lines.append(f"  subgraph cluster_goal_tree_{sid} {{")
        lines.append(f'    label="goal tree S{sid}";')
        lines.append(f'    style=filled; fillcolor="{GOAL_CLUSTER_FILL}";')
        lines += [f"    {line}" for line in goal_trees[sid]]
        lines.append("  }")
    lines += [f"  {line}" for line in unclustered]

    red = RED_RELATIONS | {"attack"}
    for edge in graph.edges():
        color = RED_EDGE_COLOR if edge.relation in red else PLAIN_EDGE_COLOR
        attrs = [f'label="{edge.relation}"', f'color="{color}"']
        if edge.is_inferred:
            attrs.append("style=dashed")
        lines.append(
            f"  {_dot_quote(edge.src)} -> {_dot_quote(edge.dst)} [{', '.join(attrs)}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def attack_path_dict(path: analytics.AttackPath) -> dict:
    return {
        "nodes": list(path.nodes),
        "steps": [{"relation": r, "forward": f} for r, f in path.steps],
        "text": path.describe(),
    }


def export_report(result: object) -> str:
    """Serialize an analysis result as JSON with sorted keys."""
    return json.dumps(_jsonable(result), indent=2, sort_keys=True) + "\n"


def _jsonable(value: object) -> object:
    """JSON form of a result: a record (a ``NamedTuple``) becomes an object of
    its fields, a set a sorted list, and a float is rounded to 4 places."""
    if hasattr(value, "_asdict"):
        value = value._asdict()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (set, frozenset)):
        value = sorted(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float):
        return round(value, 4)
    return value


def _read_dataset(path: str | None) -> str:
    if path is None:
        return canonical_text()
    with open(path, encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise DatasetError(f"not UTF-8 text: {path} (byte {exc.start})") from None


def _load_graph(args: argparse.Namespace) -> tuple[KnowledgeGraph, list[str]]:
    """The dataset's graph and load warnings; inferred and frozen unless
    ``no_infer`` is set (``load``, ``validate`` and ``infer`` always set it)."""
    result = load_dataset(_read_dataset(args.dataset), strict_vocab=args.strict_vocab)
    if not args.no_infer:
        run_inference(result.graph)
        result.graph.freeze()
    return result.graph, result.warnings


def _add_common(parser: argparse.ArgumentParser, infer_flag: bool = True) -> None:
    parser.add_argument(
        "dataset",
        nargs="?",
        default=None,
        help="dataset file (.sekg); bundled canonical dataset when omitted",
    )
    parser.add_argument(
        "--strict-vocab",
        action="store_true",
        help="treat unknown vocabulary terms as errors instead of warnings",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="write results to this file instead of stdout",
    )
    if infer_flag:
        parser.add_argument(
            "--no-infer",
            action="store_true",
            help="skip the inference phase, exposing only asserted data",
        )
    else:
        parser.set_defaults(no_infer=True)


def _top(text: str) -> int:
    """``stats --top``: an int of at least 1."""
    try:
        top = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if top < 1:
        raise argparse.ArgumentTypeError(f"--top must be at least 1, got {top}")
    return top


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="se-kg",
        description="Social engineering knowledge graph toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("load", help="parse a dataset and print summary counts")
    _add_common(p, infer_flag=False)

    p = sub.add_parser("validate", help="lint scenarios for missing roles")
    _add_common(p, infer_flag=False)

    p = sub.add_parser("infer", help="run inference and list derived edges")
    _add_common(p, infer_flag=False)
    p.add_argument("--trace", action="store_true", help="print per-rule firing counts")

    p = sub.add_parser("stats", help="rank endpoint usage of one relation")
    _add_common(p)
    p.add_argument("--relation", required=True)
    p.add_argument("--end", choices=("src", "dst"), default="dst")
    p.add_argument("--top", type=_top, default=3)
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")

    p = sub.add_parser("threats", help="potential threats against one victim")
    _add_common(p)
    p.add_argument("--victim", required=True)
    p.add_argument("--format", choices=("table", "json"), default="table")

    p = sub.add_parser("targets", help="potential targets of one attacker")
    _add_common(p)
    p.add_argument("--attacker", required=True)
    p.add_argument("--format", choices=("table", "json"), default="table")

    p = sub.add_parser("paths", help="attack paths between an attacker and a victim")
    _add_common(p)
    p.add_argument("--from", dest="src", required=True, metavar="ATTACKER")
    p.add_argument("--to", dest="dst", required=True, metavar="VICTIM")
    p.add_argument("--format", choices=("table", "json"), default="table")

    p = sub.add_parser("same-origin", help="report same-origin attack evidence")
    _add_common(p)

    p = sub.add_parser("query", help="run a MATCH query")
    p.add_argument("text", nargs="?", default=None, help="query text; stdin when omitted")
    _add_common(p)
    p.add_argument("--format", choices=("table", "json"), default="table")

    p = sub.add_parser("export", help="export the graph as DOT or dataset text")
    _add_common(p)
    p.add_argument("--format", choices=("dot", "sekg"), default="dot")
    p.add_argument("--scenario", type=int, default=None, help="restrict to one scenario subgraph")

    p = sub.add_parser("eval", help="score the analysis patterns against the path oracle")
    _add_common(p)
    return parser


def _cmd_load(args: argparse.Namespace) -> str:
    graph, warnings = _load_graph(args)
    lines = [
        f"scenarios: {len(graph.scenarios)}",
        f"attack types: {len(graph.attack_types())}",
        f"nodes: {graph.node_count}",
        f"edges: {graph.edge_count}",
        f"warnings: {len(warnings)}",
    ]
    lines.extend(f"warning: {w}" for w in warnings)
    return "\n".join(lines) + "\n"


def _cmd_validate(args: argparse.Namespace) -> tuple[str, int]:
    graph, _ = _load_graph(args)
    findings = validate_scenario_completeness(graph)
    lines = [
        f"{f.severity} scenario={f.scenario_id} {f.role}: {f.message}"
        for f in findings
    ]
    mandatory = sum(1 for f in findings if f.severity == "mandatory")
    advisory = len(findings) - mandatory
    lines.append(f"findings: {mandatory} mandatory, {advisory} advisory")
    return "\n".join(lines) + "\n", 1 if mandatory else 0


def _cmd_infer(args: argparse.Namespace) -> str:
    graph, _ = _load_graph(args)
    outcome = run_inference(graph)
    lines = []
    if args.trace:
        for rule in sorted(outcome.fired, key=str):
            lines.append(f"fired {rule}: {outcome.fired[rule]}")
        lines.append(f"rounds: {outcome.iterations}")
    for edge in outcome.sorted_added():
        lines.append(f"{edge.src} {edge.relation} {edge.dst} [{edge.rule}]")
    lines.append(f"added: {len(outcome.added)}")
    return "\n".join(lines) + "\n"


def _cmd_stats(args: argparse.Namespace) -> str:
    graph, _ = _load_graph(args)
    end = analytics.End.SRC if args.end == "src" else analytics.End.DST
    ranked = analytics.ranked_usage(graph, args.relation, end, args.top)
    if args.format == "json":
        return export_report(ranked)
    if args.format == "csv":
        lines = ["id,count,rank"]
        lines.extend(f"{r.id},{r.count},{r.rank}" for r in ranked)
    else:
        lines = ["rank  count  id"]
        lines.extend(f"{r.rank:<5} {r.count:<6} {r.id}" for r in ranked)
    return "\n".join(lines) + "\n"


def _cmd_threats(args: argparse.Namespace) -> str:
    graph, _ = _load_graph(args)
    pairs = analytics.potential_threats_for_victim(graph, args.victim)
    if args.format == "json":
        return export_report(pairs)
    lines = [f"threats against {args.victim}: {len(pairs)}"]
    for p in pairs:
        shared = ", ".join(sorted(p.shared_vulnerabilities))
        lines.append(
            f"  {p.attacker} via {p.method} (S{p.origin_scenarios[0]}) shares: {shared}"
        )
    return "\n".join(lines) + "\n"


def _cmd_targets(args: argparse.Namespace) -> str:
    graph, _ = _load_graph(args)
    pairs = analytics.potential_targets_for_attacker(graph, args.attacker)
    alternates = [
        analytics.alternate_methods_for_target(graph, args.attacker, p.victim)
        for p in pairs
    ]
    if args.format == "json":
        payload = [
            {**_jsonable(p), "alternate_methods": list(methods)}
            for p, methods in zip(pairs, alternates)
        ]
        return export_report(payload)
    lines = [f"targets for {args.attacker}: {len(pairs)}"]
    for p, methods in zip(pairs, alternates):
        shared = ", ".join(sorted(p.shared_vulnerabilities))
        suffix = f" (alternates: {', '.join(methods)})" if methods else ""
        lines.append(f"  {p.victim} via {p.method} shares: {shared}{suffix}")
    return "\n".join(lines) + "\n"


def _cmd_paths(args: argparse.Namespace) -> str:
    graph, _ = _load_graph(args)
    paths, auxiliary = analytics.attack_paths_between(graph, args.src, args.dst)
    if args.format == "json":
        return export_report(
            {
                "paths": [attack_path_dict(p) for p in paths],
                "auxiliary_methods": auxiliary,
            }
        )
    lines = [f"attack paths {args.src} -> {args.dst}: {len(paths)}"]
    lines.extend(f"  {p.describe()}" for p in paths)
    shared = sorted({p.nodes[2] for p in paths})
    if shared:
        lines.append(f"shared vulnerabilities: {', '.join(shared)}")
    lines.append(f"auxiliary methods: {len(auxiliary)}")
    lines.extend(f"  {m}" for m in auxiliary)
    return "\n".join(lines) + "\n"


def _cmd_same_origin(args: argparse.Namespace) -> str:
    graph, _ = _load_graph(args)
    return export_report(analytics.same_origin_report(graph))


def _cmd_query(args: argparse.Namespace) -> str:
    text = args.text if args.text is not None else sys.stdin.read()
    graph, _ = _load_graph(args)
    query = parse_query(text)
    labels = [item.label for item in query.returns]
    repeated = sorted({label for label in labels if labels.count(label) > 1})
    if args.format == "json" and repeated:
        # one JSON key per label: a repeated label would lose a column
        raise SekgError(
            f"--format json needs distinct RETURN labels; repeated: {', '.join(repeated)}"
        )
    rows = evaluate_query(query, graph)
    if args.format == "json":
        return export_report([row.as_dict() for row in rows])
    lines = ["\t".join(labels)]
    lines.extend("\t".join(row.values) for row in rows)
    return "\n".join(lines) + "\n"


def _cmd_export(args: argparse.Namespace) -> str:
    graph, _ = _load_graph(args)
    if args.scenario is not None:
        graph = graph.scenario_subgraph(args.scenario)
    if args.format == "sekg":
        return serialize_dataset(graph, include_inferred=not args.no_infer)
    return export_dot(graph)


def _cmd_eval(args: argparse.Namespace) -> str:
    graph, _ = _load_graph(args)
    return export_report(analytics.evaluation_report(graph))


_HANDLERS = {
    "load": _cmd_load,
    "validate": _cmd_validate,
    "infer": _cmd_infer,
    "stats": _cmd_stats,
    "threats": _cmd_threats,
    "targets": _cmd_targets,
    "paths": _cmd_paths,
    "same-origin": _cmd_same_origin,
    "query": _cmd_query,
    "export": _cmd_export,
    "eval": _cmd_eval,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        outcome = _HANDLERS[args.command](args)
        text, status = outcome if isinstance(outcome, tuple) else (outcome, 0)
        if args.output is not None:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc.strerror.lower()}: {exc.filename}", file=sys.stderr)
        return 1
    except SekgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.output is None:
        sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
