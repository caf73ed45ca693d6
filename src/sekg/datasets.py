"""Access to the bundled canonical dataset."""

from __future__ import annotations

from importlib import resources

from .graph import KnowledgeGraph
from .loader import LoadResult, load_dataset

CANONICAL_RESOURCE = "data/canonical.sekg"


def canonical_text() -> str:
    """Return the raw text of the bundled canonical dataset."""
    return (
        resources.files("sekg").joinpath(CANONICAL_RESOURCE).read_text(encoding="utf-8")
    )


def load_canonical() -> LoadResult:
    """Parse the bundled dataset in strict mode: a vocabulary miss is an error."""
    return load_dataset(canonical_text(), strict_vocab=True)


def canonical_graph() -> KnowledgeGraph:
    """Load the bundled dataset, run inference, and freeze the result."""
    from .inference import run_inference

    graph = load_canonical().graph
    run_inference(graph)
    return graph.freeze()
