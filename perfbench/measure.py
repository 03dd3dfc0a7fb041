"""Percentiles, span self times and the per-layer metrics of a traced run.

Percentile rule: a timing is reported as its median and the highest
percentile that has at least ten samples beyond it.  A named percentile
(``p95``) without that support is computed but flagged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Percentiles the tail is chosen from, highest last.
TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)
#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10

#: Pipeline stages as named in response traces.
STAGES = ("parse", "prune", "word_to_api", "edge_to_path", "merge", "codegen",
          "verify")


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * q / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo))


def supports(n: int, q: float) -> bool:
    """Whether ``n`` samples leave at least :data:`MIN_BEYOND` beyond
    percentile ``q``."""
    return n * (100.0 - q) / 100.0 >= MIN_BEYOND - 1e-9


def tail_percentile(n: int) -> Optional[float]:
    """The highest percentile of :data:`TAIL_LADDER` that ``n`` samples
    support, or None when not even the median is."""
    best = None
    for q in TAIL_LADDER:
        if supports(n, q):
            best = q
    return best


# ----------------------------------------------------------------------
# Span trees and self time
# ----------------------------------------------------------------------


def covered(start: float, end: float,
            intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    clipped = sorted(
        (max(s, start), min(e, end))
        for s, e in intervals
        if min(e, end) > max(s, start)
    )
    total, cur_s, cur_e = 0.0, None, None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_time(start: float, end: float,
              children: Iterable[Tuple[float, float]]) -> float:
    """A span's duration minus the part of it its children cover."""
    return (end - start) - covered(start, end, children)


@dataclass
class Span:
    name: str
    start: float
    end: float
    children: List["Span"] = field(default_factory=list)

    def self_ms(self) -> float:
        return self_time(
            self.start, self.end, ((c.start, c.end) for c in self.children)
        ) * 1000.0

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


def stage_spans(synth: Span, trace: Optional[dict]) -> List[Span]:
    """Stage spans from a response trace, which carries durations only:
    the six front stages are laid end to end from the start of the
    ``Synthesizer.synthesize`` span and ``verify`` ends with it (top-K
    generation runs between them and has its own timed span)."""
    spans: List[Span] = []
    if not trace:
        return spans
    t = synth.start
    for entry in trace.get("spans") or ():
        seconds = float(entry.get("elapsed_ms") or 0.0) / 1000.0
        if entry.get("stage") == "verify":
            spans.append(Span("stage.verify", synth.end - seconds, synth.end))
            continue
        spans.append(Span(f"stage.{entry.get('stage')}", t, t + seconds))
        t += seconds
    return spans


def request_tree(send: float, end: float, server_spans: Sequence[tuple],
                 trace: Optional[dict]) -> Span:
    """One request's span tree, rooted at the client's round trip
    (``http``).  ``server_spans`` are the launcher's ``(name, start, end,
    parent, rid, seq, pid)`` records for this request id; the stage spans
    come from the response trace."""
    root = Span("http", send, end)
    by_key = {(s[6], s[5]): Span(s[0], s[1], s[2]) for s in server_spans}
    for s in server_spans:
        parent = by_key.get((s[6], s[3]))
        (parent or root).children.append(by_key[(s[6], s[5])])
    for span in list(root.walk()):
        if span.name == "pipeline.synthesize":
            span.children.extend(stage_spans(span, trace))
    return root


#: Which layer each span's self time is charged to.
LAYER_OF = {
    "http": "http",
    "service.handle": "service",
    "scheduler.acquire": "scheduler",
    "pipeline.synthesize": "pipeline",
    "ranking.alternatives": "ranking",
}


def layer_self_ms(root: Span) -> Dict[str, float]:
    """Self time per layer of one request tree (stages by stage name)."""
    out: Dict[str, float] = {}
    for span in root.walk():
        layer = LAYER_OF.get(span.name, span.name)
        out[layer] = out.get(layer, 0.0) + span.self_ms()
    return out
