"""DGGT core speed, normalized by a same-process calibration loop.

The cross-PR perf trajectory benchmark of the DGGT engine core.  Every
workload runs in a *fresh subprocess* — domains are per-process
singletons and the interner memos warm monotonically, so only a new
process measures a genuinely cold start.  Around every query the same
subprocess also times a fixed pure-Python calibration loop (it imports
nothing from ``repro``), and each query's cold core seconds are divided
by the mean of the calibration times just before and just after it.
That cancels the speed of the machine — including speed that drifts
within a run, as on a shared host — so the committed values can gate
any host.

Workloads:

* both full query suites (TextEditing, ASTMatcher), measuring the
  engine-core stages (``edge_to_path`` + ``merge``) from the pipeline
  trace, cold then warm;
* a synthetic merge-stress sweep (paper Sec. VI's complexity study:
  ``levels`` x ``fanout`` x ``alternatives`` grammars whose combination
  count grows as ``alternatives ** fanout`` per sibling group), where the
  merge loop dominates and the suites' NLU stages would only add noise.

Modes (``REPRO_CORE_BENCH``):

* ``smoke`` (default) — the pinned smoke subset only, each workload in
  ``SMOKE_REPEATS`` fresh subprocesses.  Fails when a workload's median
  normalized cold core time exceeds the committed value in
  ``BENCH_dggt_core.json`` by more than 25%, or when its Table III
  counters differ from the committed ones at all.
* ``full`` — every workload; rewrites the tracked ``BENCH_dggt_core.json``
  at the repo root, including the smoke baseline.

Run directly (``python benchmarks/test_dggt_core_speed.py '<spec-json>'``)
this file is its own subprocess worker.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_PATH = REPO_ROOT / "BENCH_dggt_core.json"
SCHEMA = "dggt-core-speed/v2"

#: Stages attributable to the DGGT engine core; parse/prune/word-to-API
#: are shared NLU front-end work.
CORE_STAGES = ("edge_to_path", "merge")

COUNTER_FIELDS = (
    "n_combinations",
    "pruned_by_grammar",
    "pruned_by_size",
    "n_merged",
    "n_valid_cgts",
)

#: The full benchmark: both suites plus the merge-stress sweep.
FULL_WORKLOADS = {
    "textediting": {"kind": "suite", "domain": "textediting"},
    "astmatcher": {"kind": "suite", "domain": "astmatcher"},
    "merge_stress_3x3x4": {
        "kind": "synthetic", "levels": 3, "fanout": 3, "alternatives": 4, "instances": 5,
    },
    "merge_stress_3x4x4": {"kind": "synthetic", "levels": 3, "fanout": 4, "alternatives": 4},
    "merge_stress_3x4x5": {"kind": "synthetic", "levels": 3, "fanout": 4, "alternatives": 5},
}

#: Pinned CI smoke subset: a search-heavy suite slice plus a merge-bound
#: synthetic point — seconds per subprocess, not minutes.
SMOKE_WORKLOADS = {
    "astmatcher_head15": {"kind": "suite", "domain": "astmatcher", "limit": 15},
    "merge_stress_3x3x4": FULL_WORKLOADS["merge_stress_3x3x4"],
}

#: Fresh subprocesses per smoke workload; the median one is gated.
SMOKE_REPEATS = 5
SMOKE_MAX_REGRESSION = 1.25
WARM_ROUNDS = 3

#: Calibration loop length (7-15 ms per run on a 2-core x86-64 container,
#: CPython 3.11) and runs per calibration; the fastest run counts,
#: dropping scheduler blips.
CALIBRATION_ITERATIONS = 40_000
CALIBRATION_ROUNDS = 3


# ----------------------------------------------------------------------
# Subprocess worker: one workload measurement per process.
# ----------------------------------------------------------------------


def calibration_seconds():
    """Fastest of ``CALIBRATION_ROUNDS`` runs of a fixed pure-Python loop.

    The loop has the shape of the DGGT core's hottest code, the reversed
    path search: a stack of depth-indexed list slots pushed and popped
    by small-int arithmetic, with tuple slices recorded and sorted.  Of
    the loops tried, this one's time tracked the core's most closely
    when the host's speed drifted."""
    best = float("inf")
    for _ in range(CALIBRATION_ROUNDS):
        started = time.perf_counter()
        path = [0] * 32
        weight = [0] * 32
        found = []
        depth = 0
        for i in range(CALIBRATION_ITERATIONS):
            if depth < 20 and (i * 2654435761) & 3:
                depth += 1
                path[depth] = i & 1023
                weight[depth] = weight[depth - 1] + (i & 3)
            else:
                if not i & 7:
                    found.append(tuple(path[: depth + 1]))
                depth = depth - 1 if depth else 0
            if len(found) > 2000:
                found = sorted(found[:500])
        best = min(best, time.perf_counter() - started)
    return best


def _percentile(values, q):
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, round(q * (len(ordered) - 1)))]


def _per_query_summary(values):
    return {
        "p50": _percentile(values, 0.50),
        "p99": _percentile(values, 0.99),
        "total": sum(values),
    }


def _sum_counters(stats_list):
    out = {field: 0 for field in COUNTER_FIELDS}
    for stats in stats_list:
        if stats is None:
            continue
        for field in COUNTER_FIELDS:
            out[field] += getattr(stats, field)
    return out


def _worker_suite(spec):
    from repro.domains.astmatcher import build_domain as build_astmatcher
    from repro.domains.astmatcher.queries import ASTMATCHER_QUERIES
    from repro.domains.textediting import build_domain as build_textediting
    from repro.domains.textediting.queries import TEXTEDITING_QUERIES
    from repro.eval.harness import run_dataset

    build, cases = {
        "textediting": (build_textediting, TEXTEDITING_QUERIES),
        "astmatcher": (build_astmatcher, ASTMATCHER_QUERIES),
    }[spec["domain"]]
    limit = spec.get("limit")
    if limit:
        cases = cases[:limit]
    domain = build()

    def sweep(calibrations=None):
        """One pass over the cases; with a ``calibrations`` list, a
        calibration is timed before the first case and after each one
        (and its time kept out of the wall clock)."""
        def progress(_result):
            if calibrations is not None:
                calibrations.append(calibration_seconds())

        if calibrations is not None:
            calibrations.append(calibration_seconds())
        started = time.perf_counter()
        results = run_dataset(
            domain, cases, engine="dggt",
            timeout_seconds=120.0, collect_trace=True, progress=progress,
        )
        wall = time.perf_counter() - started
        if calibrations:
            wall -= sum(calibrations[1:])  # timed between the cases
        per_query = []
        stage_totals = {stage: 0.0 for stage in CORE_STAGES}
        for result in results:
            stage_seconds = result.stage_seconds or {}
            per_query.append(
                sum(stage_seconds.get(stage, 0.0) for stage in CORE_STAGES)
            )
            for stage in CORE_STAGES:
                stage_totals[stage] += stage_seconds.get(stage, 0.0)
        return results, wall, per_query, stage_totals

    calibrations = []
    cold_results, cold_wall, cold_per_query, cold_stages = sweep(calibrations)
    warm_walls = []
    warm_per_query = []
    for _ in range(WARM_ROUNDS):
        _results, wall, per_query, _stages = sweep()
        warm_walls.append(wall)
        warm_per_query = per_query
    return {
        "n_queries": len(cold_results),
        "core_cold_seconds": sum(cold_per_query),
        "stage_seconds": cold_stages,
        "per_query_core_cold": _per_query_summary(cold_per_query),
        "per_query_core_warm": _per_query_summary(warm_per_query),
        "wall_cold_seconds": cold_wall,
        "wall_warm_seconds": min(warm_walls),
        "counters": _sum_counters(r.stats for r in cold_results),
        **_normalized(cold_per_query, calibrations),
    }


def _worker_synthetic(spec):
    """``instances`` cold solves, each on a freshly built synthetic domain
    (its own grammar graph, so its own cold interner and caches)."""
    from repro.core.dggt import DggtEngine
    from repro.eval.synthetic import make_synthetic_domain, make_synthetic_problem

    shape = (spec["levels"], spec["fanout"], spec["alternatives"])
    engine = DggtEngine()
    colds = []
    outs = []
    calibrations = [calibration_seconds()]
    for _ in range(spec.get("instances", 1)):
        domain = make_synthetic_domain(*shape)
        problem = make_synthetic_problem(domain, *shape)
        started = time.perf_counter()
        outs.append(engine.synthesize(problem))
        colds.append(time.perf_counter() - started)
        calibrations.append(calibration_seconds())
    return {
        "n_queries": len(colds),
        "params": {"levels": shape[0], "fanout": shape[1], "alternatives": shape[2]},
        "core_cold_seconds": sum(colds),
        "per_query_core_cold": _per_query_summary(colds),
        "wall_cold_seconds": sum(colds),
        "size": outs[0].size,
        "counters": _sum_counters(out.stats for out in outs),
        **_normalized(colds, calibrations),
    }


def _normalized(per_query, calibrations):
    """Each query's core seconds over the mean of the calibrations timed
    just before and after it (``calibrations`` has one more entry than
    ``per_query``), summed: the gated, machine-independent number."""
    return {
        "calibration_seconds": sum(calibrations) / len(calibrations),
        "normalized_core_cold": sum(
            core / ((calibrations[i] + calibrations[i + 1]) / 2)
            for i, core in enumerate(per_query)
        ),
    }


def _worker_main(raw_spec):
    spec = json.loads(raw_spec)
    sys.path.insert(0, str(REPO_ROOT / "src"))
    runner = _worker_suite if spec["kind"] == "suite" else _worker_synthetic
    print(json.dumps(runner(spec)))


# ----------------------------------------------------------------------
# Orchestration (the pytest side).
# ----------------------------------------------------------------------


def _measure(name, spec):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), json.dumps(spec)],
        capture_output=True, text=True, env=env, cwd=str(REPO_ROOT),
        timeout=1800,
    )
    assert proc.returncode == 0, (
        f"{name} worker failed:\n{proc.stdout}\n{proc.stderr}"
    )
    return json.loads(proc.stdout.splitlines()[-1])


def _smoke_runs():
    """{workload: its SMOKE_REPEATS measurements}, with every repeat
    required to walk the same search space."""
    runs = {}
    for name, spec in SMOKE_WORKLOADS.items():
        runs[name] = [_measure(name, spec) for _ in range(SMOKE_REPEATS)]
        counters = {json.dumps(r["counters"], sort_keys=True) for r in runs[name]}
        assert len(counters) == 1, f"{name}: counters differ between runs"
    return runs


def _smoke_summary(runs):
    return {
        name: {
            "normalized_core_cold": statistics.median(
                r["normalized_core_cold"] for r in measured
            ),
            "counters": measured[0]["counters"],
        }
        for name, measured in runs.items()
    }


def test_dggt_core_speed():
    mode = os.environ.get("REPRO_CORE_BENCH", "smoke")
    if mode == "full":
        report = {}
        for name, spec in FULL_WORKLOADS.items():
            report[name] = dict(spec, **_measure(name, spec))
        smoke = _smoke_summary(_smoke_runs())
        payload = {
            "schema": SCHEMA,
            "core_stages": list(CORE_STAGES),
            "calibration": {
                "rounds": CALIBRATION_ROUNDS,
                "iterations": CALIBRATION_ITERATIONS,
            },
            "workloads": report,
            "smoke": {
                "repeats": SMOKE_REPEATS,
                "max_regression": SMOKE_MAX_REGRESSION,
                "workloads": smoke,
            },
        }
        BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        print()
        print(json.dumps(payload["smoke"], indent=2))
        return

    baseline = json.loads(BENCH_PATH.read_text(encoding="utf-8"))
    assert baseline.get("schema") == SCHEMA, (
        f"unrecognized baseline schema in {BENCH_PATH}; regenerate with "
        "REPRO_CORE_BENCH=full"
    )
    committed = baseline["smoke"]["workloads"]
    measured = _smoke_summary(_smoke_runs())
    summary = {
        name: {
            "committed": committed[name]["normalized_core_cold"],
            "measured": entry["normalized_core_cold"],
            "ratio": entry["normalized_core_cold"]
            / committed[name]["normalized_core_cold"],
        }
        for name, entry in measured.items()
    }
    print()
    print(json.dumps({"max_regression": SMOKE_MAX_REGRESSION, "workloads": summary}, indent=2))
    for name, entry in measured.items():
        # Different counters mean different work: the timing below would
        # compare unlike things, so this is checked first and exactly.
        assert entry["counters"] == committed[name]["counters"], (
            f"{name}: counters {entry['counters']} differ from committed "
            f"{committed[name]['counters']}"
        )
    for name, row in summary.items():
        assert row["ratio"] <= SMOKE_MAX_REGRESSION, (
            f"{name}: normalized cold core time regressed "
            f"{(row['ratio'] - 1) * 100:.0f}% (>25%): measured "
            f"{row['measured']:.3f} vs committed {row['committed']:.3f}"
        )


if __name__ == "__main__":
    _worker_main(sys.argv[1])
