"""One benchmark process: set-up timing or a timed run of one workload.

``run.py`` starts this script in a fresh interpreter, so imports and lazy
set-up are paid here and nowhere else, and the peak resident memory belongs
to the workload alone.

    worker.py setup --workload W --seed S
        Prints {"setup_s": ..., "probe": ...}: time to import jacobispec
        plus one warm-up operation per command the workload uses, and the
        median probe time of six probes run around it.

    worker.py calibrate
        Prints {"calibration_s": ...}: a reference set-up that jacobispec
        cannot change, the time to import numpy and run CALIBRATION_PROBES
        probes.  run.py starts one before each set-up process.

    worker.py run --workload W --seed S --seconds R --trace 0|1
        Warms up, then runs operations in a closed loop (one client, the
        next operation starts after the previous one returns) until the
        operations have taken R seconds.  A probe of the host's speed runs
        after each operation, outside its timing.  Prints one JSON line per
        operation and a final {"summary": ...} line.  With --trace 1 the
        run is traced, runs at least PREFIX_OPS operations so the
        deterministic counts cover a fixed set of inputs, and then runs
        that prefix again untraced to measure the tracing overhead.

Each operation is one in-process call of ``jacobispec.cli.main`` with the
pencil document on standard input; only that call is timed.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

# Operations whose deterministic counts a traced run reports.
PREFIX_OPS = {"census-generic": 6, "structured-mix": 40, "monodromy-sweep": 10}
PROBE_TERMS = 300
CALIBRATION_PROBES = 40


def probe() -> float:
    """Seconds taken by a fixed piece of pure-Python rational arithmetic,
    the kind of work jacobispec does.  It is the benchmark's own code, so
    only the speed of the host moves it; run.py scales operation times by
    it."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, PROBE_TERMS):
        acc += Fraction(i, i + 1) * Fraction(3, i + 2)
    return time.perf_counter() - start


def run_op(command: str, doc: dict) -> tuple[int | None, float, dict | None, str]:
    """Call the CLI once.  Returns (exit code, seconds, result, error);
    the exit code is None when the call raised."""
    cli = sys.modules["jacobispec.cli"]
    real_stdin, real_stdout = sys.stdin, sys.stdout
    sys.stdin = io.StringIO(json.dumps(doc))
    sys.stdout = captured = io.StringIO()
    code, error = None, ""
    start = time.perf_counter()
    try:
        code = cli.main([command])
    except Exception as exc:  # a crash is a failed operation, not a stop
        error = f"{type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter() - start
        sys.stdin, sys.stdout = real_stdin, real_stdout
    result = None
    if code == 0:
        try:
            result = json.loads(captured.getvalue())["result"]
        except (ValueError, KeyError) as exc:
            error = f"unreadable report: {exc}"
    return code, elapsed, result, error


def _peak_rss_kb() -> int:
    """Peak resident set of this process.  ru_maxrss would also count the
    parent's resident set at the time it spawned us, so read the high-water
    mark of our own address space where the kernel reports it."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _warm_up(workload: str) -> None:
    for command, doc in workloads.warmups(workload):
        code, _, _, error = run_op(command, doc)
        if code != 0:
            raise SystemExit(f"warm-up {command} failed: exit {code} {error}")


def setup(workload: str) -> None:
    probe()  # first call pays for the fractions module's own warm-up
    before = [probe() for _ in range(3)]
    start = time.perf_counter()
    import jacobispec.cli  # noqa: F401

    _warm_up(workload)
    elapsed = time.perf_counter() - start
    after = [probe() for _ in range(3)]
    speed = statistics.median(before + after)
    print(json.dumps({"setup_s": elapsed, "probe": speed}))


def calibrate() -> None:
    start = time.perf_counter()
    import numpy  # noqa: F401

    for _ in range(CALIBRATION_PROBES):
        probe()
    print(json.dumps({"calibration_s": time.perf_counter() - start}))


def _trace_summary(tracer, snapshot: dict, overhead: float) -> dict:
    return {
        "prefix_ops": snapshot["ops"],
        "prefix_calls": snapshot["calls"],
        "prefix_self": snapshot["self"],
        "prefix_counts": snapshot["counts"],
        "prefix_min_separation": snapshot["min_separation"],
        "total": tracer.total,
        "self": tracer.self_time,
        "calls": tracer.calls,
        "layer_self": {layer: tracer.layer_self(layer) for layer in LAYERS},
        "overhead_ratio": overhead,
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> None:
    import numpy

    import jacobispec.cli  # noqa: F401

    _warm_up(workload)
    out = sys.stdout
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    prefix = PREFIX_OPS[workload] if trace else 0
    busy = 0.0
    # Operation time over the probe after it, so the overhead ratio does
    # not follow the host's speed between the traced and untraced passes.
    prefix_work = 0.0
    snapshot: dict = {}
    index = 0
    while busy < seconds or index < prefix:
        command, doc = workloads.operation(workload, seed, index)
        code, elapsed, result, error = run_op(command, doc)
        speed = probe()
        busy += elapsed
        if index < prefix:
            prefix_work += elapsed / speed
        out.write(
            json.dumps(
                {
                    "i": index,
                    "command": command,
                    "code": code,
                    "t": elapsed,
                    "probe": speed,
                    "result": result,
                    "error": error,
                },
                separators=(",", ":"),
            )
            + "\n"
        )
        index += 1
        if tracer is not None and index == prefix:
            snapshot = {
                "ops": prefix,
                "calls": dict(tracer.calls),
                "self": dict(tracer.self_time),
                "counts": dict(tracer.counts),
                "min_separation": tracer.min_separation,
            }
    summary = {
        "ops": index,
        "peak_rss_kb": _peak_rss_kb(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        tracer.uninstall()
        untraced = 0.0
        for i in range(prefix):
            command, doc = workloads.operation(workload, seed, i)
            untraced += run_op(command, doc)[1] / probe()
        summary["trace"] = _trace_summary(tracer, snapshot, prefix_work / untraced)
    out.write(json.dumps({"summary": summary}) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("calibrate", "setup", "run"))
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.mode != "calibrate" and (args.workload is None or args.seed is None):
        parser.error(f"{args.mode} needs --workload and --seed")
    if args.mode == "calibrate":
        calibrate()
    elif args.mode == "setup":
        setup(args.workload)
    else:
        run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    main()
