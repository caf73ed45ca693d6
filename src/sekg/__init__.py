"""Knowledge graph toolkit for social engineering attack scenarios.

Every public name is imported from its module on first use (PEP 562), so
``import sekg`` loads no submodule and ``from sekg import KnowledgeGraph``
loads only what the graph needs.
"""

import importlib

__version__ = "0.1.0"

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "AttackPath": "analytics",
    "End": "analytics",
    "EvalMetrics": "analytics",
    "RankedCount": "analytics",
    "ThreatPair": "analytics",
    "alternate_methods_for_target": "analytics",
    "attack_paths_between": "analytics",
    "enumerate_oracle_paths": "analytics",
    "evaluate_pattern": "analytics",
    "evaluation_report": "analytics",
    "potential_targets_for_attacker": "analytics",
    "potential_threats_for_victim": "analytics",
    "ranked_usage": "analytics",
    "same_origin_report": "analytics",
    "canonical_graph": "datasets",
    "canonical_text": "datasets",
    "load_canonical": "datasets",
    "DatasetError": "errors",
    "GraphError": "errors",
    "QueryParseError": "errors",
    "RuleError": "errors",
    "SchemaError": "errors",
    "SekgError": "errors",
    "RED_RELATIONS": "graph",
    "Direction": "graph",
    "Edge": "graph",
    "KnowledgeGraph": "graph",
    "Node": "graph",
    "InferenceResult": "inference",
    "axiom_closure": "inference",
    "run_inference": "inference",
    "run_rules": "inference",
    "Finding": "loader",
    "LoadResult": "loader",
    "load_dataset": "loader",
    "serialize_dataset": "loader",
    "validate_scenario_completeness": "loader",
    "BindingRow": "query",
    "PatternQuery": "query",
    "evaluate_query": "query",
    "parse_query": "query",
    "run_query": "query",
    "Rule": "schema",
    "builtin_ruleset": "schema",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    # Not cached in the package globals: each read asks the module, so a
    # name rebound there (a wrapper, then the original) is seen as it is now.
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)
