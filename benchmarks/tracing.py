"""Span tracer that wraps sekg's public functions from outside the package.

The tracer replaces each public function of ``loader``, ``inference``,
``query``, ``analytics`` and ``cli``, and each public method of
``KnowledgeGraph``, with a wrapper that counts the call and records a span
(name, start, end, parent, group, op). A function is patched in every
``sekg`` module namespace that holds it, because callers look names up where
they imported them (``sekg.cli`` imports ``run_inference`` by name).

Calls one graph method makes to another are counted but get no span: the
graph is the leaf layer and its self time already covers them. Spans stay in
memory until :meth:`Tracer.write` dumps them.
"""

import sys
import time
import types
from array import array
from collections import Counter

LAYERS = ("loader", "graph", "inference", "query", "analytics", "cli")

#: Span groups: the workload's own ops, its set-up, and the coverage cycle
#: that measures layers the workload never reaches.
OPS, SETUP, COVERAGE = 0, 1, 2
GROUP_NAMES = ("ops", "setup", "coverage")


def _inference_counts(counts, result):
    counts["inference.rounds"] += result.iterations
    counts["inference.added"] += len(result.added)
    for rule, fired in result.fired.items():
        counts[f"inference.fired.{rule}"] += fired


def _query_counts(counts, rows):
    counts["query.rows"] += len(rows)


#: Result hooks turn return values into counts.
HOOKS = {
    "inference.run_inference": _inference_counts,
    "query.evaluate_query": _query_counts,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.group_of = array("b")
        self.op_of = array("i")
        self.counts: Counter = Counter()
        self.active = False
        self.group = OPS
        self.op = -1
        self._stack: list[tuple[int, str]] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, name: str, layer: str) -> int:
        idx = len(self.name)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.group_of.append(self.group)
        self.op_of.append(self.op)
        self.end.append(0)
        self._stack.append((idx, layer))
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def root(self, name: str, fn, *args):
        """Run ``fn(*args)`` under a root span (one per benchmark op)."""
        if not self.active:
            return fn(*args)
        idx = self._open(name, name.partition(".")[0])
        try:
            return fn(*args)
        finally:
            self._close(idx)

    # -- patching ------------------------------------------------------------

    def _wrap(self, name: str, layer: str, fn):
        tracer = self
        hook = HOOKS.get(name)
        leaf = layer == "graph"

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.counts[name] += 1
            stack = tracer._stack
            if leaf and stack and stack[-1][1] == "graph":
                return fn(*args, **kwargs)
            idx = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                hook(tracer.counts, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Patch every public function of the six layers where it is looked up."""
        from sekg.graph import KnowledgeGraph

        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = [
            m for n, m in sorted(sys.modules.items())
            if (n == "sekg" or n.startswith("sekg.")) and m is not None
        ]
        for attr, fn in sorted(vars(KnowledgeGraph).items()):
            if not attr.startswith("_") and isinstance(fn, types.FunctionType):
                self._patch(KnowledgeGraph, attr, self._wrap(f"graph.{attr}", "graph", fn))
        for layer in LAYERS:
            if layer == "graph":
                continue
            module = sys.modules[f"sekg.{layer}"]
            for attr, fn in sorted(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not isinstance(fn, types.FunctionType)
                    or fn.__module__ != module.__name__
                ):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", layer, fn)
                for namespace in namespaces:
                    for name, value in list(vars(namespace).items()):
                        if value is fn:
                            self._patch(namespace, name, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------------

    def span_count(self) -> int:
        return len(self.name)

    def durations(self) -> dict[tuple[str, int], list[int]]:
        """Span durations in ns, keyed by (span name, group)."""
        out: dict[tuple[str, int], list[int]] = {}
        names = self.names
        for nid, s, e, g in zip(self.name, self.start, self.end, self.group_of):
            out.setdefault((names[nid], g), []).append(e - s)
        return out

    def self_times(self) -> dict[tuple[str, int], int]:
        """Total self time in ns per (layer, group).

        A span's self time is its duration minus the durations of its child
        spans; children of one span never overlap (single thread).
        """
        n = len(self.name)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[tuple[str, int], int] = {}
        names = self.names
        for i in range(n):
            key = (names[self.name[i]].partition(".")[0], self.group_of[i])
            out[key] = out.get(key, 0) + (self.end[i] - self.start[i] - child[i])
        return out

    def write(self, path) -> None:
        """Dump the spans as TSV: id, name, start_ns, end_ns, parent, group, op."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id\tname\tstart_ns\tend_ns\tparent\tgroup\top\n")
            names = self.names
            rows = zip(self.name, self.start, self.end, self.parent, self.group_of, self.op_of)
            for i, (nid, s, e, p, g, op) in enumerate(rows):
                handle.write(f"{i}\t{names[nid]}\t{s}\t{e}\t{p}\t{GROUP_NAMES[g]}\t{op}\n")
