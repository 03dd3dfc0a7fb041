"""Run ``repro serve`` with spans recorded around each layer's entry point.

Usage: ``python perfbench/traced_serve.py SPANS_DIR serve --http 0 ...``

The wrappers are installed before the ordinary ``repro`` command-line
entry point runs, so pre-fork workers inherit them.  Each span is
``(name, start, end, parent, request id, seq, pid)`` with ``time.monotonic``
times, which share one clock with the load generator on the same host.
Spans stay in memory and every serving process writes its own to
``SPANS_DIR/spans-<pid>.json`` when it drains; spans recorded before a
fork appear in each child's file and are told apart by ``(pid, seq)``.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time

_SPANS: list = []
_SEQ = itertools.count(1)
_LOCAL = threading.local()


def _traced(name, fn, request_id_of=None):
    """Wrap ``fn`` so each call records one span named ``name``.
    ``request_id_of(args)`` marks the call that opens a request."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = getattr(_LOCAL, "stack", None)
        if stack is None:
            stack = _LOCAL.stack = []
        if request_id_of is not None:
            _LOCAL.request_id = request_id_of(args)
        request_id = getattr(_LOCAL, "request_id", None)
        parent = stack[-1] if stack else 0
        seq = next(_SEQ)
        stack.append(seq)
        start = time.monotonic()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.monotonic()
            stack.pop()
            _SPANS.append(
                (name, start, end, parent, request_id, seq, os.getpid())
            )
            if request_id_of is not None:
                _LOCAL.request_id = None

    return wrapper


def _payload_id(args):
    payload = args[1] if len(args) > 1 else None
    return payload.get("id") if isinstance(payload, dict) else None


def _dump(spans_dir: str) -> None:
    path = os.path.join(spans_dir, f"spans-{os.getpid()}.json")
    with open(path + ".tmp", "w", encoding="utf-8") as handle:
        json.dump(list(_SPANS), handle)
    os.replace(path + ".tmp", path)


def install(spans_dir: str) -> None:
    import repro.domains as domains

    domains.load_domains = _traced("setup.load_domains", domains.load_domains)

    import repro.server.service as service
    import repro.synthesis.ranking as ranking
    from repro.server.scheduler import RequestScheduler
    from repro.synthesis.domain import Domain
    from repro.synthesis.pipeline import Synthesizer

    service.load_domains = domains.load_domains
    cls = service.SynthesisService
    cls.handle_payload = _traced(
        "service.handle", cls.handle_payload, request_id_of=_payload_id
    )
    RequestScheduler.acquire = _traced(
        "scheduler.acquire", RequestScheduler.acquire
    )
    Synthesizer.synthesize = _traced(
        "pipeline.synthesize", Synthesizer.synthesize
    )
    ranking.alternative_outcomes = _traced(
        "ranking.alternatives", ranking.alternative_outcomes
    )
    Domain.load_cache = _traced("setup.load_cache", Domain.load_cache)

    drain = cls.drain

    @functools.wraps(drain)
    def drain_and_dump(self, *args, **kwargs):
        try:
            return drain(self, *args, **kwargs)
        finally:
            _dump(spans_dir)

    cls.drain = drain_and_dump


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "serve":
        print("usage: traced_serve.py SPANS_DIR serve [serve options]",
              file=sys.stderr)
        return 2
    install(argv[0])
    from repro.cli import main as repro_main

    return repro_main(argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
