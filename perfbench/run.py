"""jacobispec benchmark: seeded CLI workloads, checked outputs, metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload census-generic --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py for the exact schedules):

    census-generic   decide on generic distinct-diagonal pencils, n = 8, 9;
                     the full subset scan in hensel.
    structured-mix   detect on palindromic and constant-diagonal pencils,
                     n = 12..16, decide on cut pencils, n = 6..8, and both
                     on size-3 constant-branch pencils; mechanisms,
                     bivariate arithmetic and the witness path of decide.
    monodromy-sweep  monodromy on generic distinct-diagonal pencils, n = 4,
                     every coupling at least 3 in magnitude;
                     numeric tracking, group closure, exact gcd and
                     discriminant.

Every operation is one in-process call of ``jacobispec.cli.main`` in a
worker process (worker.py): one client in a closed loop, no threads.  After
the worker exits, every report is checked by checks.py, and for the default
seed (0) the exact part of each of the first operations must equal the
payload stored in golden_seed0.json.  An exception, a non-zero exit code or
a failed check counts as a failed operation; the result line is "correct"
only when no operation failed, and the timing metrics count only the
operations that passed.

--trace 0 prints the end-to-end metrics:
    ops_per_s    passed operations per second of operation time
    op_p50_s     median time of a passed operation
    op_tail_s    the highest percentile with at least ten operations beyond
                 it; the percentile and the sample count are printed above
                 the result line
    setup_s      median over SETUP_RUNS fresh processes of the time to import
                 jacobispec and run one warm-up operation per command
    peak_rss_mb  peak resident memory of the worker process
The error rate is failed / attempted in the result line; it is not a metric
of its own because it is zero whenever the program is correct.

Times are scaled to a reference host speed.  The CPU speed of a shared
virtual machine can change by more than half within seconds and stay
changed for minutes, so raw wall-clock times of the same code differ from
run to run by more than the benchmark's bounds.  The worker therefore runs
a short probe of fixed pure-Python rational arithmetic (worker.probe) after
every operation, and every operation time is multiplied by
PROBE_REFERENCE_S / (median probe time around it).  Set-up times are
scaled the same way, by the geometric mean of that probe and a reference
set-up run in a fresh process just before (see scaled_setup).  Probe and
reference are the benchmark's own code and numpy, so a change to
jacobispec cannot move them.  The unscaled wall-clock values are printed
above the result line.

--trace 1 runs the same loop with every public function of cli, pencil,
exactpoly, mechanisms, hensel and monodromy wrapped (tracer.py) and prints
the per-layer metrics:
    *_pct        share of the traced operation time, in percent: self time
                 of a layer (<layer>.self_pct) or of one function
                 (*_self_pct), or inclusive time of one function (the rest).
                 Shares keep a layer that a workload never calls at an
                 honest 0 instead of a time that reads 0 s on every run.
    counts       calls and outcomes over the first PREFIX_OPS operations,
                 which repeat exactly for a seed
    yardstick.*  sympy factor_list on the curves of the same prefix
                 operations (n <= 10), timed in the checks, and the ratio of
                 hensel.decide self time to it over that prefix; it should
                 move no metric
    trace.overhead_ratio  traced / untraced time of the prefix operations,
                 each operation divided by the probe run after it
The absolute seconds behind every share are printed above the result line.

The lines above the last one also record the context: Python, numpy and
sympy versions, CPU count, BLAS thread variables, the seed and the line
count of src/.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
GOLDEN = os.path.join(HERE, "golden_seed0.json")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import sympy  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 0
SETUP_RUNS = 5
# Probe time (worker.probe) that defines the reference host speed.
PROBE_REFERENCE_S = 0.0025
# Time of the reference set-up (worker.calibrate) at that speed.
CALIBRATION_REFERENCE_S = 0.25
PROBE_WINDOW = 2
# Time allowed beyond --seconds for the set-up processes, the warm-up and
# the start of the timed run; the checks run after the last subprocess.
MARGIN_S = 140.0
BLAS_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

# name -> (kind, key): kind "layer" is a layer's self time, "self" and
# "total" are one span's self or inclusive time.
SHARES = {
    "cli.self_pct": ("layer", "cli"),
    "pencil.self_pct": ("layer", "pencil"),
    "exactpoly.self_pct": ("layer", "exactpoly"),
    "mechanisms.self_pct": ("layer", "mechanisms"),
    "hensel.self_pct": ("layer", "hensel"),
    "monodromy.self_pct": ("layer", "monodromy"),
    "pencil.continuant_pct": ("total", "pencil.continuant"),
    "exactpoly.bipoly_mul_pct": ("total", "exactpoly.bipoly_mul"),
    "exactpoly.divide_exact_lambda_pct": ("total", "exactpoly.divide_exact_lambda"),
    "exactpoly.to_w_form_pct": ("total", "exactpoly.to_w_form"),
    "exactpoly.gcd_in_lambda_pct": ("total", "exactpoly.gcd_in_lambda"),
    "exactpoly.discriminant_in_lambda_pct": (
        "total",
        "exactpoly.discriminant_in_lambda",
    ),
    "mechanisms.apply_all_self_pct": ("self", "mechanisms.apply_all"),
    "mechanisms.scalar_block_certificate_pct": (
        "total",
        "mechanisms.scalar_block_certificate",
    ),
    "mechanisms.detect_palindrome_pct": ("total", "mechanisms.detect_palindrome"),
    "hensel.decide_self_pct": ("self", "hensel.decide"),
    "monodromy.monodromy_group_self_pct": ("self", "monodromy.monodromy_group"),
    "monodromy.root_solve_pct": ("total", "monodromy.root_solve"),
    "monodromy.branch_points_pct": ("total", "monodromy.branch_points"),
}

# count name -> span whose calls it counts
CALL_COUNTS = {
    "pencil.continuant_calls": "pencil.continuant",
    "exactpoly.bipoly_mul_calls": "exactpoly.bipoly_mul",
    "exactpoly.divide_exact_lambda_calls": "exactpoly.divide_exact_lambda",
    "exactpoly.gcd_in_lambda_calls": "exactpoly.gcd_in_lambda",
    "mechanisms.apply_all_calls": "mechanisms.apply_all",
    "hensel.decide_calls": "hensel.decide",
    "monodromy.root_solves": "monodromy.root_solve",
}


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def _python(*args: str, timeout: float) -> str:
    proc = subprocess.run(
        [sys.executable, WORKER, *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchmarkError(
            f"worker {args[0]} exited with {proc.returncode}: {proc.stderr.strip()}"
        )
    return proc.stdout


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchmarkError("out of time")
    return left


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that has at least ten
    operations beyond it; the maximum when there are ten or fewer."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _src_lines() -> int:
    total = 0
    for path in glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def _load_golden(workload: str, seed: int) -> list[dict]:
    if seed != DEFAULT_SEED:
        return []
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)["operations"][workload]


def check_operations(workload: str, seed: int, records: list[dict], checker):
    """One problem per record, empty when the operation passed.  An
    operation fails on an exception, a non-zero exit code, a failed check
    or, for the default seed, an exact output that differs from the golden
    file."""
    golden = _load_golden(workload, seed)
    problems = []
    for rec in records:
        command, doc = workloads.operation(workload, seed, rec["i"])
        if rec["command"] != command:
            problem = f"ran {rec['command']}, expected {command}"
        elif rec["code"] != 0:
            problem = f"exit code {rec['code']} {rec['error']}".strip()
        else:
            problem = checker.check(command, doc, rec["result"])
            if not problem and rec["i"] < len(golden):
                if checks.exact_part(command, rec["result"]) != golden[rec["i"]]:
                    problem = "exact output differs from golden_seed0.json"
        problems.append(problem)
    return problems


def scaled(seconds: float, probe: float) -> float:
    """Seconds at the reference host speed: the time the work would have
    taken had the probe run next to it taken PROBE_REFERENCE_S."""
    return seconds * PROBE_REFERENCE_S / probe


def scaled_setup(setup: dict) -> float:
    """Set-up time at the reference host speed.  Set-up mixes imports with
    arithmetic.  Between the host's fast and slow phases the arithmetic
    probe alone over-corrected it by about 15% and the reference set-up
    (worker.calibrate) alone under-corrected it by about 10%, so it is
    scaled by the geometric mean of the two."""
    arithmetic = PROBE_REFERENCE_S / setup["probe"]
    imports = CALIBRATION_REFERENCE_S / setup["calibration_s"]
    return setup["setup_s"] * math.sqrt(arithmetic * imports)


def local_probe(records: list[dict], i: int) -> float:
    """The host's speed around operation i: the median of the probes run
    after the operations from i - PROBE_WINDOW to i + PROBE_WINDOW, which
    include the probes right before and right after it."""
    window = records[max(0, i - PROBE_WINDOW) : i + PROBE_WINDOW + 1]
    return statistics.median(rec["probe"] for rec in window)


def outcome(records: list[dict], problems: list[str], scale=scaled) -> dict:
    """The result line's verdict, the times of the operations that passed
    (a failed operation never counts towards a timing metric) and the time
    taken by all operations."""
    times = [
        scale(rec["t"], local_probe(records, i)) for i, rec in enumerate(records)
    ]
    failed = sum(1 for problem in problems if problem)
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "times": [t for t, problem in zip(times, problems) if not problem],
        "busy": sum(times),
    }


def end_to_end(verdict: dict, setups: list[float], rss_kb: int):
    """Metrics over the passed operations; ops_per_s divides them by the
    time taken by all operations."""
    times = verdict["times"]
    if not times:
        raise BenchmarkError("no operation passed its checks")
    tail_value, tail_pct = tail(times)
    metrics = {
        "ops_per_s": (len(times) / verdict["busy"], "1/s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (tail_value, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    note = f"op_tail_s is p{tail_pct:.1f} of {len(times)} operations"
    return metrics, note


def per_layer(trace: dict, factor_list_s: float):
    op_time = trace["total"]["cli.main"]
    seconds = {}
    for name, (kind, key) in SHARES.items():
        if kind == "layer":
            seconds[name] = trace["layer_self"][key]
        elif kind == "self":
            seconds[name] = trace["self"].get(key, 0.0)
        else:
            seconds[name] = trace["total"].get(key, 0.0)
    metrics = {
        name: (100.0 * value / op_time, "%") for name, value in seconds.items()
    }
    calls = trace["prefix_calls"]
    counts = {name: calls.get(span, 0) for name, span in CALL_COUNTS.items()}
    counts.update(trace["prefix_counts"])
    for name, value in sorted(counts.items()):
        metrics[name] = (value, "count")
    subsets = counts["hensel.subsets_tried"]
    lassos = counts["monodromy.branch_points"]
    separation = trace["prefix_min_separation"]
    metrics["hensel.witness_ratio"] = (
        counts["hensel.witnesses"] / subsets if subsets else 0.0,
        "ratio",
    )
    metrics["monodromy.root_solves_per_lasso"] = (
        counts["monodromy.root_solves"] / lassos if lassos else 0.0,
        "ratio",
    )
    metrics["monodromy.min_separation_ratio"] = (
        separation if math.isfinite(separation) else 0.0,
        "ratio",
    )
    decide_self = trace["prefix_self"].get("hensel.decide", 0.0)
    metrics["yardstick.sympy_factor_list_s"] = (factor_list_s, "s")
    metrics["yardstick.hensel_to_sympy_ratio"] = (
        decide_self / factor_list_s if factor_list_s else 0.0,
        "ratio",
    )
    metrics["trace.overhead_ratio"] = (trace["overhead_ratio"], "ratio")
    table = [f"traced operation time {op_time:.6f} s"] + [
        f"  {name.replace('_pct', '_s'):42s} {value:12.6f} s"
        for name, value in seconds.items()
    ]
    return metrics, table


def benchmark(workload: str, seed: int, seconds: int, trace: bool) -> None:
    deadline = time.monotonic() + seconds + MARGIN_S
    if not os.path.isfile(os.path.join(ROOT, "src", "jacobispec", "cli.py")):
        raise BenchmarkError(f"no jacobispec sources under {ROOT}/src")
    common = ["--workload", workload, "--seed", str(seed)]
    setups = []
    if not trace:
        for _ in range(SETUP_RUNS):
            out = _python("calibrate", timeout=_remaining(deadline))
            setup = json.loads(out.splitlines()[-1])
            out = _python("setup", *common, timeout=_remaining(deadline))
            setup.update(json.loads(out.splitlines()[-1]))
            setups.append(setup)
    out = _python(
        "run",
        *common,
        "--seconds",
        str(seconds),
        "--trace",
        str(int(trace)),
        timeout=_remaining(deadline),
    )
    lines = [json.loads(line) for line in out.splitlines()]
    summary = lines[-1]["summary"]
    records = lines[:-1]
    checker = checks.Checker()
    # The yardstick times factor_list over the fixed prefix only, the same
    # operations the deterministic counts cover.
    prefix = summary["trace"]["prefix_ops"] if trace else 0
    problems = check_operations(workload, seed, records[:prefix], checker)
    factor_list_s = checker.factor_list_s
    problems += check_operations(workload, seed, records[prefix:], checker)
    verdict = outcome(records, problems)
    context = {
        "python": summary["python"],
        "numpy": summary["numpy"],
        "sympy": sympy.__version__,
        "nproc": os.cpu_count(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_VARIABLES},
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "src_lines": _src_lines(),
    }
    print("context " + json.dumps(context))
    print(
        f"operations {verdict['attempted']}, failed {verdict['failed']}, "
        f"error_rate {verdict['failed'] / verdict['attempted']:.6f}"
    )
    failures = [(rec, p) for rec, p in zip(records, problems) if p]
    for rec, problem in failures[:5]:
        command, doc = workloads.operation(workload, seed, rec["i"])
        print(f"failure op {rec['i']} {command} {json.dumps(doc)}: {problem}")
    if trace:
        metrics, table = per_layer(summary["trace"], factor_list_s)
        print(f"counts and yardstick over the first {prefix} operations")
        print("\n".join(table))
    else:
        metrics, note = end_to_end(
            verdict,
            [scaled_setup(setup) for setup in setups],
            summary["peak_rss_kb"],
        )
        wall, _ = end_to_end(
            outcome(records, problems, scale=lambda t, probe: t),
            [setup["setup_s"] for setup in setups],
            summary["peak_rss_kb"],
        )
        print(note)
        print("wall-clock values, not scaled to the reference speed:")
        for name, (value, unit) in wall.items():
            print(f"  {name:42s} {value} {unit}")
        print("scaled to the reference speed:")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value} {unit}")
    result = {
        "correct": verdict["correct"],
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
