"""Deterministic k-times corpora built from the bundled ``canonical.sekg``.

Copy ``c`` of ``k`` (``c`` counts from 0) suffixes every scenario-scoped
node id with ``_<c>`` and adds ``1000 * c`` to every scenario id. Vocabulary
nodes, the edges between them, and every property value (``affiliation`` and
``encoded_domain`` included) are shared by all copies. The shared values are
what makes rules R5, R6 and R7 fan out across copies, so inference grows
about quadratically with ``k``. ``k == 1`` is the bundled corpus itself,
with unsuffixed ids.
"""

import re
from pathlib import Path

CANONICAL = Path(__file__).resolve().parents[1] / "src" / "sekg" / "data" / "canonical.sekg"

_SCOPED_NODE = re.compile(r"NODE (\S+) (\S+) scenario=(\d+)(.*)$")
_SCENARIO = re.compile(r"SCENARIO (\d+)(.*)$")


def _split(lines):
    """Partition record lines into scenario, vocabulary and scoped records."""
    scenarios, vocab, scoped_nodes, scoped_edges, vocab_edges = [], [], [], [], []
    scoped_ids = set()
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("SCENARIO "):
            m = _SCENARIO.match(line)
            scenarios.append((int(m.group(1)), m.group(2)))
        elif line.startswith("NODE "):
            m = _SCOPED_NODE.match(line)
            if m:
                scoped_ids.add(m.group(1))
                scoped_nodes.append(m.groups())
            else:
                vocab.append(line)
        elif line.startswith("EDGE "):
            _, src, rel, dst, *rest = line.split(" ")
            if src in scoped_ids or dst in scoped_ids:
                scoped_edges.append((src, rel, dst, rest))
            else:
                vocab_edges.append(line)
        else:
            raise ValueError(f"unexpected record: {line!r}")
    return scenarios, vocab, vocab_edges, scoped_nodes, scoped_edges, scoped_ids


def scoped_nodes():
    """Scenario-scoped nodes of the bundled corpus: id -> (concept, scenario)."""
    nodes = _split(CANONICAL.read_text(encoding="utf-8").splitlines())[3]
    return {node_id: (concept, int(sid)) for node_id, concept, sid, _ in nodes}


def corpus_text(k, order=None):
    """Dataset text of ``k`` copies of the bundled corpus.

    ``order`` permutes the copy blocks in the file (default: 0..k-1). The
    graph it loads into does not depend on ``order``.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    order = list(range(k)) if order is None else list(order)
    if sorted(order) != list(range(k)):
        raise ValueError(f"order must be a permutation of range({k})")
    lines = CANONICAL.read_text(encoding="utf-8").splitlines()
    scenarios, vocab, vocab_edges, nodes, edges, ids = _split(lines)

    def rename(node_id, c):
        return f"{node_id}_{c}" if k > 1 and node_id in ids else node_id

    out = [f"SCENARIO {sid + 1000 * c}{rest}" for c in order for sid, rest in scenarios]
    out += vocab
    out += vocab_edges
    for c in order:
        for node_id, concept, sid, rest in nodes:
            out.append(f"NODE {rename(node_id, c)} {concept} scenario={int(sid) + 1000 * c}{rest}")
        for src, rel, dst, rest in edges:
            out.append(" ".join(["EDGE", rename(src, c), rel, rename(dst, c), *rest]))
    return "\n".join(out) + "\n"
