"""Tests of the benchmark itself: generator, tracer counts, checks.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy

import jacobispec.cli  # noqa: F401
import jacobispec.hensel
import pytest

import checks
import run
import worker
import workloads
from tracer import Tracer


def traced(command: str, doc: dict) -> Tracer:
    tracer = Tracer()
    tracer.install()
    try:
        code, _, _, error = worker.run_op(command, doc)
    finally:
        tracer.uninstall()
    assert code == 0, error
    return tracer


def test_generator_is_seeded():
    for workload in workloads.WORKLOADS:
        first = [workloads.operation(workload, 3, i) for i in range(12)]
        again = [workloads.operation(workload, 3, i) for i in range(12)]
        other = [workloads.operation(workload, 4, i) for i in range(12)]
        assert first == again
        assert first != other


def test_generated_pencils_have_their_shape():
    for i in range(40):
        command, doc = workloads.operation("structured-mix", 5, i)
        a, b = doc["a"], doc["b"]
        if doc["n"] == 3:
            assert len(set(a)) == 3 and "0" not in b
        elif command == "decide":
            assert len(set(a)) == len(a) and b.count("0") == 1
        else:
            assert a == a[::-1] or len(set(a)) == 1


def test_generic_n8_scans_every_subset():
    command, doc = workloads.operation("census-generic", 0, 0)
    assert (command, doc["n"]) == ("decide", 8)
    tracer = traced(command, doc)
    assert tracer.counts["hensel.subsets_tried"] == 2**7 - 1
    assert tracer.counts["hensel.witnesses"] == 0
    assert tracer.calls["hensel.decide"] == 1


def test_cut_pencil_stops_at_its_witness():
    command, doc = workloads.operation("structured-mix", 0, 2)
    assert doc["b"] == ["0", "-3", "7", "-3", "8"]
    tracer = traced(command, doc)
    # {1} splits off at the first subset; the connected size-5 rest is
    # irreducible, so its scan refutes all 2^4 - 1 subsets
    assert tracer.counts["hensel.subsets_tried"] == 1 + 15
    assert tracer.counts["hensel.witnesses"] == 1


def test_palindromic_pencil_certificate_count():
    command, doc = workloads.operation("structured-mix", 0, 0)
    assert command == "detect" and doc["a"] == doc["a"][::-1]
    tracer = traced(command, doc)
    assert tracer.counts["mechanisms.certificates"] == 1
    assert tracer.calls["mechanisms.detect_palindrome"] == 1


def test_monodromy_lasso_count():
    command, doc = workloads.operation("monodromy-sweep", 0, 0)
    assert doc["n"] == 4
    tracer = traced(command, doc)
    # a generic size-n curve has n(n-1) branch points in w
    assert tracer.counts["monodromy.branch_points"] == 12
    assert tracer.calls["monodromy.root_solve"] > 12


def test_tracer_restores_the_program():
    original = jacobispec.hensel.decide
    tracer = Tracer()
    tracer.install()
    assert jacobispec.cli.decide is not original
    tracer.uninstall()
    assert jacobispec.cli.decide is original
    assert jacobispec.hensel.decide is original


def test_self_time_excludes_children():
    command, doc = workloads.operation("census-generic", 0, 0)
    tracer = traced(command, doc)
    main = tracer.total["cli.main"]
    covered = sum(tracer.self_time.values())
    assert covered == pytest.approx(main, rel=1e-6)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checks_reject_a_tampered_report(workload):
    command, doc = workloads.operation(workload, 0, 1)
    code, _, result, _ = worker.run_op(command, doc)
    checker = checks.Checker()
    assert code == 0 and checker.check(command, doc, result) == ""
    bad = copy.deepcopy(result)
    if command == "decide":
        bad["factors_t"][0][0][0] = str(int(bad["factors_t"][0][0][0]) + 1)
    elif command == "detect":
        bad["residual_factors"][0][0][0] = "12345"
    else:
        bad["consistent"] = False
    assert checker.check(command, doc, bad) != ""


def test_golden_matches_this_commit():
    golden = run._load_golden("structured-mix", run.DEFAULT_SEED)
    for index in range(10):
        command, doc = workloads.operation("structured-mix", run.DEFAULT_SEED, index)
        _, _, result, _ = worker.run_op(command, doc)
        assert checks.exact_part(command, result) == golden[index]


def test_tail_has_ten_operations_beyond_it():
    times = [float(i) for i in range(1, 41)]
    value, percentile = run.tail(times)
    assert sum(t > value for t in times) == 10
    assert percentile == 75.0
    assert run.tail([1.0, 2.0]) == (2.0, 100.0)


@pytest.mark.parametrize("code", [2, 3, 4, None])
def test_a_crashed_or_refused_operation_makes_the_run_not_correct(code):
    command, doc = workloads.operation("structured-mix", 7, 0)
    good_code, good_t, good_result, _ = worker.run_op(command, doc)
    crashed = workloads.operation("structured-mix", 7, 1)[0]
    records = [
        {"i": 0, "command": command, "code": good_code, "t": good_t, "probe": 0.004,
         "result": good_result, "error": ""},
        {"i": 1, "command": crashed, "code": code, "t": 1e-6, "probe": 0.004,
         "result": None, "error": "boom"},
    ]
    problems = run.check_operations("structured-mix", 7, records, checks.Checker())
    verdict = run.outcome(records, problems)
    assert problems[0] == "" and problems[1] != ""
    assert verdict["correct"] is False
    assert (verdict["attempted"], verdict["failed"]) == (2, 1)
    # the fast failure is not timed
    assert verdict["times"] == [run.scaled(good_t, 0.004)]


def test_times_are_scaled_by_the_probes_around_them():
    probes = [0.001, 0.001, 0.004, 0.001, 0.001, 0.001, 0.002]
    records = [{"t": 1.0, "probe": p} for p in probes]
    # a single slow probe does not move the median of its window
    assert run.local_probe(records, 3) == 0.001
    assert run.local_probe(records, 0) == 0.001
    assert run.local_probe(records, 6) == 0.001
    assert run.scaled(1.0, 2 * run.PROBE_REFERENCE_S) == 0.5


def test_setup_at_the_reference_speed_is_unscaled():
    setup = {
        "setup_s": 0.4,
        "probe": run.PROBE_REFERENCE_S,
        "calibration_s": run.CALIBRATION_REFERENCE_S,
    }
    assert run.scaled_setup(setup) == pytest.approx(0.4)
    setup["probe"] /= 2  # twice as fast a host by both references
    setup["calibration_s"] /= 2
    assert run.scaled_setup(setup) == pytest.approx(0.8)
