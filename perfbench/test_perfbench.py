"""Tests of the benchmark's own helpers (no server is started).

Run from the repository root: ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import loadgen  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


# -- percentile rule ----------------------------------------------------


@pytest.mark.parametrize("n, expected", [
    (5, None), (19, None), (20, 50.0), (100, 90.0), (199, 90.0),
    (200, 95.0), (424, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    assert measure.tail_percentile(n) == expected


def test_supports_counts_samples_beyond():
    assert measure.supports(200, 95.0)
    assert not measure.supports(199, 95.0)
    assert measure.supports(1000, 99.0)
    assert not measure.supports(424, 99.0)


def test_percentile_interpolates_and_handles_edges():
    values = [4.0, 1.0, 3.0, 2.0]
    assert measure.percentile(values, 50.0) == 2.5
    assert measure.percentile(values, 0.0) == 1.0
    assert measure.percentile(values, 100.0) == 4.0
    assert measure.percentile([], 95.0) == 0.0
    assert measure.percentile([7.0], 95.0) == 7.0


# -- self time ----------------------------------------------------------


def test_self_time_subtracts_union_of_children():
    # Overlapping children count once; parts outside the parent are cut.
    children = [(1.0, 3.0), (2.0, 4.0), (9.0, 12.0)]
    assert measure.covered(0.0, 10.0, children) == 4.0
    assert measure.self_time(0.0, 10.0, children) == 6.0
    assert measure.self_time(0.0, 10.0, []) == 10.0
    assert measure.self_time(5.0, 6.0, [(0.0, 1.0)]) == 1.0


def test_request_tree_self_times_partition_the_round_trip():
    # Sent at 0, answered at 100; server spans nest inside the round trip.
    spans = [
        ("service.handle", 10.0, 90.0, 0, "m0", 1, 7),
        ("scheduler.acquire", 11.0, 12.0, 1, "m0", 2, 7),
        ("pipeline.synthesize", 20.0, 80.0, 1, "m0", 3, 7),
        ("ranking.alternatives", 60.0, 70.0, 3, "m0", 4, 7),
    ]
    trace = {"spans": [
        {"stage": "parse", "elapsed_ms": 5000.0},
        {"stage": "word_to_api", "elapsed_ms": 15000.0},
        {"stage": "verify", "elapsed_ms": 4000.0},
    ]}
    tree = measure.request_tree(0.0, 100.0, spans, trace)
    selfs = {k: v / 1000.0 for k, v in measure.layer_self_ms(tree).items()}
    assert selfs["http"] == pytest.approx(100.0 - 80.0)
    assert selfs["service"] == pytest.approx(80.0 - 1.0 - 60.0)
    assert selfs["scheduler"] == pytest.approx(1.0)
    assert selfs["stage.parse"] == pytest.approx(5.0)
    assert selfs["stage.word_to_api"] == pytest.approx(15.0)
    assert selfs["stage.verify"] == pytest.approx(4.0)
    assert selfs["ranking"] == pytest.approx(10.0)
    assert selfs["pipeline"] == pytest.approx(60.0 - 5.0 - 15.0 - 4.0 - 10.0)
    assert sum(selfs.values()) == pytest.approx(100.0)


# -- seeded generation --------------------------------------------------


def test_plans_are_deterministic_per_seed():
    for name, workload in workloads.WORKLOADS.items():
        first = workloads.plan(workload, 11)
        assert first == workloads.plan(workload, 11), name
        other = workloads.plan(workload, 12)
        assert ([r.case.case_id for r in first.measured]
                != [r.case.case_id for r in other.measured]), name


def test_plans_send_every_case_once():
    cold = workloads.plan(workloads.WORKLOADS["cold_suites"], 1)
    assert len({r.case.case_id for r in cold.measured}) == 424
    assert all(r.timeout is None and r.example is None for r in cold.measured)
    deadline = workloads.plan(workloads.WORKLOADS["cold_deadline"], 1)
    assert len(deadline.measured) == 213
    assert all(r.timeout == 0.02 for r in deadline.measured)
    per_domain = {}
    for r in deadline.measured:
        per_domain[r.case.domain] = per_domain.get(r.case.domain, 0) + 1
    assert per_domain == {"textediting": 100, "astmatcher": 50,
                          "spreadsheet": 28, "stringxform": 35}
    verify = workloads.plan(workloads.WORKLOADS["verify_examples"], 1)
    assert len({r.case.case_id for r in verify.measured}) == 369
    assert verify.gt_failures == []
    assert all(r.example is not None for r in verify.measured)
    assert {r.case.domain for r in verify.warmup} == {"astmatcher"}
    assert len(verify.warmup) == 100


def test_example_inputs_are_fixed():
    assert workloads.example_inputs() == workloads.example_inputs()
    assert (workloads.textediting_input(3)
            != workloads.textediting_input(4))


def test_examples_come_from_the_ground_truth():
    from repro.verify.executors import get_executor

    requests, failed = workloads.derive_examples(workloads.load_suites())
    assert failed == []
    for req in requests[::37]:
        text, output = req.example
        assert get_executor(req.case.domain)(req.case.ground_truth, text) == output


# -- answer classification ----------------------------------------------


def _result(status, payload, error=None):
    case = workloads.Case("x1", "textediting", "q", "PRINT()")
    r = loadgen.Result(workloads.Request(case), "m0", 0.0, 0.0, 0.0)
    r.status, r.payload, r.transport_error = status, payload, error
    return r


def test_classify_follows_the_error_definition():
    ok = _result(200, {"status": "ok"})
    timeout = _result(504, {"status": "timeout", "error": {"code": "timeout"}})
    other = _result(422, {"status": "error", "error": {"code": "no_codelet"}})
    internal = _result(500, {"status": "error", "error": {"code": "internal"}})
    shed = _result(429, {"status": "error", "error": {"code": "overloaded"}})
    broken = _result(0, None, "ConnectionResetError")
    assert [run.classify(r, False) for r in
            (ok, timeout, other, internal, shed, broken)] == [
        "ok", "error", "error", "error", "error", "error"]
    assert [run.classify(r, True) for r in
            (ok, timeout, other, internal, shed, broken)] == [
        "ok", "timeout", "tolerated", "error", "error", "error"]
