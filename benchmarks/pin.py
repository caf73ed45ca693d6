"""Pin the outputs the benchmark checks ops against, in ``expected.json``.

Run it only when the program's outputs change on purpose, and say so in the
change that re-pins:

    python3 benchmarks/pin.py
"""

import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import corpus  # noqa: E402
import workloads  # noqa: E402


def pin() -> dict:
    build = workloads.Build()
    expected = {"build-8x": workloads.build_summary(*build.run(corpus.corpus_text(8), None))}
    graph = workloads.Read().setup(random.Random(0))
    expected["read-8x"] = {
        workloads.canonical(op)[0]: workloads.read_digest(op, workloads.read_call(graph, op))
        for op in workloads.read_ops()
    }
    expected["cli"] = {}
    for k in (1, 4):
        commands = workloads.cli_commands(str(workloads.write_corpus(k)), k)
        results = {}
        for sub, argv in sorted(commands.items()):
            result = workloads.cli_result(workloads.cli_subprocess(argv))
            if result != workloads.cli_result(workloads.cli_in_process(argv)):
                raise SystemExit(f"cli {sub} at {k}x differs between subprocess and in-process")
            results[sub] = result
        expected["cli"][str(k)] = results
    return expected


if __name__ == "__main__":
    expected = pin()
    workloads.EXPECTED.write_text(json.dumps(expected, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {workloads.EXPECTED} ({len(expected['read-8x'])} read ops)")
