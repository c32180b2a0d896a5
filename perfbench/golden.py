"""Write golden_seed0.json: the exact outputs of the first operations of
every workload at the default seed.

    python3 perfbench/golden.py

run.py compares each of those operations with its stored payload whenever
it runs seed 0, so a change that alters a factor list, a certificate or a
group order shows as a failed operation.  Regenerate only on purpose, when
an exact output is meant to change; every stored report must first pass
the independent checks.
"""

from __future__ import annotations

import json
import sys

import checks
import run
import worker
import workloads

GOLDEN_OPS = {"census-generic": 30, "structured-mix": 100, "monodromy-sweep": 25}


def main() -> int:
    import jacobispec.cli  # noqa: F401

    checker = checks.Checker()
    operations = {}
    for workload in workloads.WORKLOADS:
        stored = []
        for index in range(GOLDEN_OPS[workload]):
            command, doc = workloads.operation(workload, run.DEFAULT_SEED, index)
            code, _, result, error = worker.run_op(command, doc)
            problem = (
                f"exit {code} {error}" if code != 0 else checker.check(command, doc, result)
            )
            if problem:
                print(f"{workload} op {index}: {problem}", file=sys.stderr)
                return 1
            stored.append(checks.exact_part(command, result))
        operations[workload] = stored
    with open(run.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(
            {"seed": run.DEFAULT_SEED, "operations": operations},
            fh,
            separators=(",", ":"),
        )
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
