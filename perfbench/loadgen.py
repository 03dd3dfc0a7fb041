"""Closed-loop load over one keep-alive ``repro.client.HttpClient``
connection.

The generator sends exactly what a client of the shipped ``HttpClient``
sends: one persistent connection, default socket options.  It does not
open a connection per call, so whatever the keep-alive path costs is part
of every measured round trip.
"""

from __future__ import annotations

import http.client
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from workloads import Request

#: Socket patience; far above any budget a workload sets.
SOCKET_TIMEOUT_S = 60.0


@dataclass
class Result:
    """One request as the generator saw it (``time.monotonic`` times)."""

    request: Request
    request_id: str
    send: float
    end: float
    #: When the previous answer arrived, so ``send - ready`` is the
    #: generator's own delay between requests.
    ready: float
    status: int = 0
    payload: Optional[Dict[str, Any]] = None
    transport_error: Optional[str] = None

    @property
    def latency_ms(self) -> float:
        return (self.end - self.send) * 1000.0

    @property
    def send_lag_ms(self) -> float:
        return (self.send - self.ready) * 1000.0


def request_body(req: Request, request_id: str, traced: bool) -> Dict[str, Any]:
    body: Dict[str, Any] = {
        "query": req.case.query,
        "domain": req.case.domain,
        "id": request_id,
    }
    if req.timeout is not None:
        body["timeout"] = req.timeout
    if req.example is not None:
        body["examples"] = [
            {"input": req.example[0], "output": req.example[1]}
        ]
    if traced:
        body["include_trace"] = True
        body["include_stats"] = True
    return body


def closed_loop(client, requests: Sequence[Request], *, traced: bool,
                prefix: str) -> List[Result]:
    """Send ``requests`` one after another on the client's connection;
    request ids are ``prefix`` plus the position."""
    results: List[Result] = []
    ready = time.monotonic()
    for i, req in enumerate(requests):
        body = request_body(req, f"{prefix}{i}", traced)
        send = time.monotonic()
        result = Result(req, f"{prefix}{i}", send, send, ready)
        try:
            result.status, result.payload = client.request(
                "POST", "/synthesize", body, timeout=SOCKET_TIMEOUT_S
            )
        except (OSError, ValueError, http.client.HTTPException) as exc:
            result.transport_error = f"{type(exc).__name__}: {exc}"
        result.end = ready = time.monotonic()
        results.append(result)
    return results
