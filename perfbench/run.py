"""End-to-end benchmark of ``repro serve``: one command per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each run starts real ``repro serve``
processes from ``src/`` in a fresh directory under the checkout, sends the
seeded requests of the workload over a keep-alive ``HttpClient``
connection, checks every served codelet against the authored ground
truth, and prints each metric by name, unit and sample count.  The last
line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs the same workload and seed twice -- untraced, then under
``traced_serve.py`` with ``include_trace`` requests -- and reports the
per-layer metrics, including the tracing overhead between the two.

Workloads are defined, and the reason for each is given, in
``workloads.py``.  ``known_mismatches.json`` lists the suite cases whose
served codelet differs from the ground truth at the time it was
recorded: any other mismatch makes the run incorrect, and a listed case
that now matches is reported as newly fixed.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Server boots per untraced run; ``setup_s`` is their median.
BOOTS = 3
#: Answers within this many milliseconds meet the latency objective.
SLO_MS = 100.0
#: Per-layer threshold above which HTTP self time counts as stalled.
STALL_MS = 30.0
#: Pause that lets pre-fork workers publish their stats seats (0.2 s).
STATS_SETTLE_S = 0.5


@dataclass
class Phase:
    """What one pass of a workload against one server produced."""

    warm: list
    measured: list
    wall_s: float
    setup_s: List[float]
    snapshot_build_s: float
    snapshot_bytes: int
    pss_mib: Dict[int, float]
    server_pid: int
    stats_before: dict
    stats_after: dict
    #: (server, exit status, seconds from SIGTERM to exit) per stop.
    stops: List[Tuple[str, int, float]]
    spans: List[tuple] = field(default_factory=list)


# ----------------------------------------------------------------------
# Running a phase
# ----------------------------------------------------------------------


def _stats(port: int, workers: int) -> dict:
    from repro.client import HttpClient

    if workers > 1:
        time.sleep(STATS_SETTLE_S)
    with HttpClient(port=port, keep_alive=False) as admin:
        return admin.stats()


def run_phase(workload, plan, run_dir: Path, env: Dict[str, str], *,
              traced: bool, boots: int) -> Phase:
    """Boot the server ``boots`` times (the last boot serves), send the
    plan, read memory and stats, and stop the server."""
    import loadgen
    import serverctl
    from repro.client import HttpClient
    from workloads import DOMAINS

    snapshots = list((run_dir / "cache").iterdir())
    if not workload.snapshot_domains and snapshots:
        raise serverctl.BenchError(
            f"cold run found snapshots in its cache dir: {snapshots}"
        )
    domains = workload.snapshot_domains or DOMAINS
    tag = "traced" if traced else "plain"

    def server(name: str, with_trace: bool):
        return serverctl.Server(run_dir, env, workers=workload.workers,
                                domains=domains, traced=with_trace, tag=name)

    setup: List[float] = []
    stops: List[Tuple[str, int, float]] = []
    for k in range(boots - 1):
        boot = server(f"{tag}-boot{k}", False)
        try:
            setup.append(boot.start())
            stops.append((f"{tag}-boot{k}", boot.stop(), boot.stop_s))
        finally:
            boot.kill()
    main = server(tag, traced)
    try:
        setup.append(main.start())
        with HttpClient(port=main.port,
                        connect_timeout=loadgen.SOCKET_TIMEOUT_S) as client:
            warm = loadgen.closed_loop(client, plan.warmup, traced=traced,
                                       prefix="w")
            # Cache counters feed the per-layer report only; the untraced
            # pass sends nothing but the workload.
            before = _stats(main.port, workload.workers) if traced else {}
            measured = loadgen.closed_loop(client, plan.measured,
                                           traced=traced, prefix="m")
        wall = measured[-1].end - measured[0].send
        after = _stats(main.port, workload.workers) if traced else {}
        pss = main.pss_mib()
        server_pid = main.proc.pid
        stops.append((tag, main.stop(), main.stop_s))
    finally:
        main.kill()
    spans: List[tuple] = []
    if traced:
        seen = set()
        for path in sorted(main.spans_dir.glob("spans-*.json")):
            for span in json.loads(path.read_text()):
                key = (span[6], span[5])
                if key not in seen:
                    seen.add(key)
                    spans.append(tuple(span))
    return Phase(warm, measured, wall, setup, 0.0,
                 sum(p.stat().st_size for p in snapshots), pss, server_pid,
                 before, after, stops, spans)


# ----------------------------------------------------------------------
# Judging answers
# ----------------------------------------------------------------------


def classify(result, deadline_bound: bool) -> str:
    """``ok``, ``timeout`` (a deadline answer where budgets bind),
    ``tolerated`` (another non-ok answer where budgets bind) or
    ``error``."""
    if result.transport_error is not None or result.payload is None:
        return "error"
    if result.status >= 500 and not deadline_bound:
        return "error"
    status = result.payload.get("status")
    if status == "ok":
        return "ok"
    code = (result.payload.get("error") or {}).get("code")
    if code in ("internal", "overloaded"):
        return "error"
    if not deadline_bound:
        return "error"
    if code in ("timeout", "deadline_exceeded"):
        return "timeout"
    return "tolerated"


def load_known_mismatches() -> Dict[str, List[str]]:
    data = json.loads((HERE / "known_mismatches.json").read_text())
    return {key: list(entry["case_ids"]) for key, entry in data.items()
            if key != "about"}


def judge(phase: Phase, workload, known: Sequence[str]) -> dict:
    """Compare every answered codelet (warm-up included) with the
    authored ground truth."""
    from repro.core.expression import normalize_codelet

    mismatched = set()
    for r in phase.warm + phase.measured:
        if classify(r, workload.timeout is not None) != "ok":
            continue
        served = r.payload.get("codelet") or ""
        try:
            same = (normalize_codelet(served)
                    == normalize_codelet(r.request.case.ground_truth))
        except Exception:  # an unparsable codelet is a mismatch
            same = False
        if not same:
            mismatched.add(r.request.case.case_id)
    sent = {r.request.case.case_id for r in phase.warm + phase.measured}
    return {
        "mismatched": mismatched,
        "unexpected": sorted(mismatched - set(known)),
        "fixed": sorted((set(known) & sent) - mismatched),
    }


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


class Report:
    """Collects metrics with their sample counts for printing."""

    def __init__(self, units: Dict[str, str]):
        self.units = units
        self.values: Dict[str, float] = {}
        self.notes: Dict[str, str] = {}

    def put(self, name: str, value: float, n: Optional[int] = None,
            q: Optional[float] = None) -> None:
        from measure import supports

        self.values[name] = float(value)
        note = "" if n is None else f"n={n}"
        if q is not None and n is not None and not supports(n, q):
            note += f", fewer than 10 samples beyond p{q:g}"
        self.notes[name] = note

    def lines(self) -> List[str]:
        out = []
        for name, value in self.values.items():
            unit = self.units.get(name, "")
            note = f" ({self.notes[name]})" if self.notes.get(name) else ""
            out.append(f"{name} = {value:.6g} {unit}{note}")
        return out


def end_to_end(phase: Phase, workload, verdict: dict, rep: Report) -> None:
    from measure import percentile, tail_percentile
    from serverctl import BenchError

    measured = phase.measured
    n = len(measured)
    kinds = [classify(r, workload.timeout is not None) for r in measured]
    latency = [r.latency_ms for r in measured]
    ok = [r for r, k in zip(measured, kinds) if k == "ok"]
    rep.put("setup_s", percentile(phase.setup_s, 50.0), len(phase.setup_s))
    rep.put("latency_p50_ms", percentile(latency, 50.0), n, 50.0)
    # The tracked tail must be the highest percentile the sample supports.
    if tail_percentile(n) != 95.0:
        raise BenchError(f"{n} samples do not make p95 the tail percentile")
    rep.put("latency_p95_ms", percentile(latency, 95.0), n, 95.0)
    rep.put("throughput_rps", len(ok) / phase.wall_s, len(ok))
    rep.put("slo_share",
            sum(1 for r in ok if r.latency_ms <= SLO_MS) / n, n)
    rep.put("accuracy",
            sum(1 for r in ok
                if r.request.case.case_id not in verdict["mismatched"]) / n,
            n)
    rep.put("memory_mb", sum(phase.pss_mib.values()), len(phase.pss_mib))
    # Printed for reading, not tracked: 0 on some workloads, or not
    # steady enough to bound.
    rep.put("latency_p90_ms", percentile(latency, 90.0), n, 90.0)
    rep.put("error_share", kinds.count("error") / n, n)
    rep.put("timeout_share", kinds.count("timeout") / n, n)
    if workload.snapshot_domains:
        rep.put("snapshot_build_s", phase.snapshot_build_s, 1)
    if workload.timeout is not None:
        over = [max(0.0, r.latency_ms - workload.timeout * 1000.0)
                for r in measured]
        rep.put("overshoot_p50_ms", percentile(over, 50.0), n, 50.0)
        rep.put("overshoot_p95_ms", percentile(over, 95.0), n, 95.0)


def _counter_delta(before: dict, after: dict, name: str) -> int:
    def total(stats: dict) -> int:
        return sum(
            int((d.get("counters") or {}).get(name, 0))
            for d in (stats.get("domains") or {}).values()
        )

    return total(after) - total(before)


def per_layer(plain: Phase, traced: Phase, workload, rep: Report) -> None:
    from measure import STAGES, layer_self_ms, percentile, request_tree

    measured = traced.measured
    by_rid: Dict[str, List[tuple]] = {}
    for span in traced.spans:
        if span[4] is not None:
            by_rid.setdefault(span[4], []).append(span)
    trees = []
    payloads = []
    for r in measured:
        trace = (r.payload or {}).get("trace")
        trees.append(request_tree(r.send, r.end,
                                  by_rid.get(r.request_id, ()), trace))
        payloads.append(r.payload or {})
    selfs = [layer_self_ms(t) for t in trees]
    n = len(measured)

    def dist(name: str, values: List[float], total: bool = False,
             qs: Tuple[float, ...] = (50.0, 95.0)) -> None:
        if total:
            rep.put(f"{name}.total", sum(values), len(values))
        for q in qs:
            rep.put(f"{name}.p{q:g}", percentile(values, q), len(values), q)

    http_self = [s.get("http", 0.0) for s in selfs]
    dist("http.self_ms", http_self)
    rep.put("http.stalled_share",
            sum(1 for v in http_self if v > STALL_MS) / n, n)
    dist("service.self_ms", [s.get("service", 0.0) for s in selfs])

    ids = {r.request_id for r in measured}

    def span_ms(name: str) -> List[float]:
        return [(s[2] - s[1]) * 1000.0 for s in traced.spans
                if s[0] == name and s[4] in ids]

    handles = [s for s in traced.spans
               if s[0] == "service.handle" and s[4] in ids]
    acquire = span_ms("scheduler.acquire")
    dist("scheduler.queue_wait_ms", acquire, qs=(95.0,))
    codes = [((p.get("error") or {}).get("code")) for p in payloads]
    rep.put("scheduler.rejected",
            sum(1 for c in codes if c in ("overloaded", "deadline_exceeded")),
            n)
    per_pid: Dict[int, int] = {}
    for s in handles:
        per_pid[s[6]] = per_pid.get(s[6], 0) + 1
    rep.put("multiproc.busiest_worker_share",
            max(per_pid.values()) / max(1, len(handles)) if per_pid else 0.0,
            len(handles))

    traces = [p.get("trace") for p in payloads if p.get("trace")]
    rep.put("pipeline.outcome_hit_ratio",
            sum(1 for t in traces if t.get("cache_hit")) / max(1, len(traces)),
            len(traces))
    dist("pipeline.synthesize_ms", span_ms("pipeline.synthesize"))

    per_stage: Dict[str, List[float]] = {st: [] for st in STAGES}
    for t in traces:
        for entry in t.get("spans") or ():
            if entry.get("stage") in per_stage:
                per_stage[entry["stage"]].append(float(entry["elapsed_ms"]))
    for st in STAGES:
        rep.put(f"stage.{st}_ms.total", sum(per_stage[st]), len(per_stage[st]))
    for st in ("word_to_api", "edge_to_path", "merge"):
        dist(f"stage.{st}_ms", per_stage[st], qs=(95.0,))

    hits = _counter_delta(traced.stats_before, traced.stats_after,
                          "path_cache_hits")
    misses = _counter_delta(traced.stats_before, traced.stats_after,
                            "path_cache_misses")
    rep.put("paths.cache_hit_ratio", hits / max(1, hits + misses),
            hits + misses)
    rep.put("paths.cache_misses", misses)

    # An outcome-cache hit replays the stats of the run that filled it.
    stats = [p.get("stats") or {} for p in payloads
             if not (p.get("trace") or {}).get("cache_hit")]
    combos = sum(int(s.get("combinations", 0)) for s in stats)
    pruned = sum(int(s.get("pruned_grammar", 0)) + int(s.get("pruned_size", 0))
                 for s in stats)
    rep.put("dggt.combinations", combos, n)
    rep.put("dggt.pruned_share", pruned / max(1, combos), combos)

    dist("ranking.alternatives_ms", span_ms("ranking.alternatives"),
         total=True, qs=(95.0,))
    with_candidates = [p["candidates"] for p in payloads if p.get("candidates")]
    rep.put("ranking.candidates_per_request",
            sum(len(c) for c in with_candidates) / max(1, len(with_candidates)),
            len(with_candidates))
    reports = [p["verification"] for p in payloads if p.get("verification")]
    rep.put("verify.reranked_share",
            sum(1 for v in reports if v.get("reranked")) / max(1, len(reports)),
            len(reports))
    rep.put("verify.exhausted",
            sum(1 for v in reports if v.get("status") == "deadline_exhausted"),
            len(reports))

    timed_out = [p for p in payloads if p.get("status") == "timeout"]
    budget_ms = (workload.timeout or 0.0) * 1000.0
    overrun = [max(0.0, float((p.get("trace") or {}).get("total_ms", 0.0))
                   - budget_ms) for p in timed_out]
    rep.put("deadline.overrun_ms.p95", percentile(overrun, 95.0),
            len(overrun), 95.0)
    for st in STAGES:
        rep.put(f"deadline.timeout_stage.{st}",
                sum(1 for p in timed_out
                    if (p.get("error") or {}).get("stage") == st))

    setup_spans = [s for s in traced.spans if s[4] is None]
    rep.put("setup.domain_build_s",
            sum(s[2] - s[1] for s in setup_spans
                if s[0] == "setup.load_domains"), 1)
    rep.put("setup.snapshot_load_s",
            sum(s[2] - s[1] for s in setup_spans
                if s[0] == "setup.load_cache"), 1)
    rep.put("setup.snapshot_bytes", traced.snapshot_bytes)
    rep.put("setup.snapshot_build_s", plain.snapshot_build_s)
    workers = [mib for pid, mib in traced.pss_mib.items()
               if pid != traced.server_pid or workload.workers == 1]
    rep.put("memory.per_worker_mb", sum(workers) / max(1, len(workers)),
            len(workers))

    lag = [r.send_lag_ms for r in measured]
    rep.put("loadgen.send_lag_ms.p95", percentile(lag, 95.0), n, 95.0)
    plain_p50 = percentile([r.latency_ms for r in plain.measured], 50.0)
    traced_p50 = percentile([r.latency_ms for r in measured], 50.0)
    rep.put("trace.overhead_share", traced_p50 / plain_p50 - 1.0, n)
    rep.put("trace.accounted_share",
            percentile([sum(s.values()) for s in selfs], 50.0) / traced_p50,
            n)

    # Deadline enforcement as the untraced run saw it.
    kinds = [classify(r, workload.timeout is not None) for r in plain.measured]
    m = len(plain.measured)
    rep.put("deadline.timeout_share", kinds.count("timeout") / m, m)
    over = [max(0.0, r.latency_ms - budget_ms) for r in plain.measured]
    if workload.timeout is None:
        over = [0.0] * m
    rep.put("deadline.overshoot_p50_ms", percentile(over, 50.0), m, 50.0)
    rep.put("deadline.overshoot_p95_ms", percentile(over, 95.0), m, 95.0)
    rep.put("errors.share", kinds.count("error") / m, m)
    stops = plain.stops + traced.stops
    rep.put("server.unclean_stops", sum(1 for _, code, _ in stops if code),
            len(stops))


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="nominal length of the measured pass; every "
                        "workload sends a fixed, seeded request list once, "
                        "which takes about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Sequence[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC} holds no repro package to benchmark; run from "
              "the root of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import serverctl
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracked = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(latency_p90_ms="ms", error_share="ratio",
                 timeout_share="ratio", snapshot_build_s="s",
                 overshoot_p50_ms="ms", overshoot_p95_ms="ms")

    workload = workloads.WORKLOADS[args.workload]
    plan = workloads.plan(workload, args.seed)
    known = load_known_mismatches()[
        "verify_examples" if workload.name == "verify_examples" else "suites"
    ]
    scratch = ROOT / ".perfbench-runs"
    scratch.mkdir(exist_ok=True)
    rep = Report(units)
    try:
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            run_dir = Path(tmp)
            env = serverctl.isolated_env(run_dir)
            build_s = 0.0
            if workload.snapshot_domains:
                build_s = serverctl.build_snapshots(
                    run_dir, workload.snapshot_domains, env
                )
            plain = run_phase(workload, plan, run_dir, env, traced=False,
                              boots=1 if args.trace else BOOTS)
            plain.snapshot_build_s = build_s
            verdict = judge(plain, workload, known)
            if args.trace:
                traced = run_phase(workload, plan, run_dir, env, traced=True,
                                   boots=1)
                traced_verdict = judge(traced, workload, known)
                verdict["unexpected"] = sorted(
                    set(verdict["unexpected"]) | set(traced_verdict["unexpected"])
                )
                per_layer(plain, traced, workload, rep)
            else:
                end_to_end(plain, workload, verdict, rep)
    except serverctl.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            scratch.rmdir()
        except OSError:
            pass

    measured = plain.measured
    failed = sum(1 for r in measured
                 if classify(r, workload.timeout is not None) == "error")
    correct = not verdict["unexpected"] and not plan.gt_failures
    print(f"# workload {workload.name} seed {args.seed}: "
          f"{len(measured)} measured requests, {len(plain.warm)} warm-up")
    for line in rep.lines():
        print(line)
    print(f"ground-truth examples that failed to execute: "
          f"{len(plan.gt_failures)} {plan.gt_failures}")
    print(f"mismatches: {len(verdict['mismatched'])} "
          f"{sorted(verdict['mismatched'])}")
    stops = plain.stops + (traced.stops if args.trace else [])
    unclean = [f"{name} exit {code} after {secs:.1f}s"
               for name, code, secs in stops if code]
    print(f"server stops: {len(stops)}, unclean: {unclean}")
    print(f"unexpected mismatches: {verdict['unexpected']}")
    print(f"newly fixed: {verdict['fixed']}")
    print(f"correct: {str(correct).lower()}")
    missing = [m["name"] for m in tracked if m["name"] not in rep.values]
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": correct,
        "attempted": len(measured),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": rep.values[m["name"]], "unit": m["unit"]}
            for m in tracked
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
