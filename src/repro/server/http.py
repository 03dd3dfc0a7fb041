"""HTTP front end: a stdlib ``ThreadingHTTPServer`` over the service.

Endpoints (docs/serving.md is the reference):

* ``POST /synthesize`` — JSON body per :mod:`repro.server.protocol`;
  returns the shared per-query payload (``BatchItem.to_json()`` shape).
  ``"include_trace": true`` attaches the per-stage trace of the six-step
  pipeline to the response (docs/architecture.md).
  A 429 (``overloaded``) response carries the scheduler's backpressure
  hint both as ``error.retry_after_ms`` and as a standard ``Retry-After``
  header (seconds, rounded up).
* ``POST /admin/reload`` — hot reload: re-read pack-backed domains from
  disk (an edited pack swaps in a freshly built Domain) and atomically
  swap freshly loaded cache snapshots without dropping in-flight or
  queued work; body is optional ``{"cache_dir": "..."}``.
* ``GET /healthz`` — readiness: 200 while serving, 503 while draining;
  body reports domains, snapshot provenance, cache occupancy, inflight,
  and the scheduler's queue/budget state.
* ``GET /stats`` — cumulative PathCache counters per domain plus request
  counters (the service-level view of ``SynthesisStats``), the scheduler
  section, and a ``stages`` section with per-stage p50/p99 latency over
  recent traffic (docs/architecture.md; capacity planning).
* ``GET /domains`` — the served domain names plus per-domain provenance
  (API count, grammar hash, and — for pack-backed domains — the pack
  name / version / source directory; see docs/domain_packs.md).

Each request is handled on its own thread (``ThreadingHTTPServer``), so
concurrency is bounded by the service's request scheduler, not the
transport — excess requests wait in its bounded queue (backpressure)
instead of piling onto sockets.  :func:`run_http` is the blocking entry
point used by ``repro serve --http``: it installs SIGINT/SIGTERM handlers
that stop the accept loop, drain in-flight requests, and close the
service — a served request is never cut off mid-synthesis by a polite
shutdown — and a SIGHUP handler that triggers the same hot reload as
``POST /admin/reload``.
"""

from __future__ import annotations

import json
import math
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from repro.server.protocol import error_response
from repro.server.service import SynthesisService

#: Largest accepted request body; a synthesis query is a sentence, so
#: anything close to this is a client bug, not a workload.
MAX_BODY_BYTES = 1 << 20


class SynthesisHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer bound to a :class:`SynthesisService`."""

    #: Handler threads are daemonic so one wedged request cannot block
    #: process exit; the graceful path drains via the service instead.
    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        service: SynthesisService,
        *,
        sock: Optional[Any] = None,
    ):
        if sock is None:
            super().__init__(address, _Handler)
        else:
            # Adopt a listener bound (and listen()-ed) by someone else —
            # the pre-fork supervisor hands every worker the same socket
            # so the kernel load-balances accepts across processes.  Every
            # worker's poll wakes on one connection; a blocking accept()
            # would park the workers that lose the race until the next
            # connection, deaf to SIGTERM.  Non-blocking, a lost race is
            # a BlockingIOError, which socketserver treats as no request.
            super().__init__(address, _Handler, bind_and_activate=False)
            self.socket.close()
            sock.setblocking(False)
            self.socket = sock
            self.server_address = sock.getsockname()[:2]
            host, port = self.server_address
            self.server_name = host
            self.server_port = port
        self.service = service

    @property
    def port(self) -> int:
        return self.server_address[1]


class _Handler(BaseHTTPRequestHandler):
    #: Advertise HTTP/1.1 (keep-alive) so clients can reuse connections.
    protocol_version = "HTTP/1.1"
    server: SynthesisHTTPServer

    # ------------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 (stdlib naming)
        path = self.path.rstrip("/")
        if path == "/admin/reload":
            self._handle_reload()
            return
        if path != "/synthesize":
            # Consume the (ignored) body first: on a keep-alive
            # connection, unread body bytes would be parsed as the next
            # request line.
            self._discard_body()
            self._send(*error_response(
                "not_found", f"no such endpoint: POST {self.path}"
            ))
            return
        error, body = self._read_json()
        if error is not None:
            self._send(*error)
            return
        self._send(*self.server.service.handle_payload(body))

    def _handle_reload(self) -> None:
        """POST /admin/reload: swap in fresh cache snapshots.  Optional
        body ``{"cache_dir": "..."}`` redirects the snapshot directory."""
        error, body = self._read_json()
        if error is not None:
            self._send(*error)
            return
        cache_dir = None
        if isinstance(body, dict):
            cache_dir = body.get("cache_dir")
            if cache_dir is not None and not isinstance(cache_dir, str):
                self._send(*error_response(
                    "bad_request", "'cache_dir' must be a string"
                ))
                return
            unknown = sorted(set(body) - {"cache_dir"})
            if unknown:
                self._send(*error_response(
                    "bad_request", f"unknown reload field(s): {unknown}"
                ))
                return
        elif body is not None:
            self._send(*error_response(
                "bad_request", "reload body must be a JSON object"
            ))
            return
        try:
            result = self.server.service.reload_snapshots(cache_dir)
        except Exception as exc:  # the service must stay up
            self._send(*error_response(
                "internal", f"{type(exc).__name__}: {exc}"
            ))
            return
        # Multi-worker serving: one worker handled this request, but the
        # operator meant "reload the server" — hand the directory to the
        # supervisor, which reloads itself and every other worker.
        board = getattr(self.server.service, "worker_board", None)
        if board is not None:
            try:
                board.request_cluster_reload(result["cache_dir"])
            except Exception:
                pass  # this worker's reload already succeeded
        self._send(200, result)

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        service = self.server.service
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/healthz":
            health = service.health()
            self._send(503 if health["status"] == "draining" else 200, health)
        elif path == "/stats":
            self._send(200, service.stats())
        elif path == "/domains":
            # "domains" stays the plain name list (the stable shape);
            # "details" adds per-domain provenance: API count, grammar
            # hash, and pack name/version/source for pack-backed domains.
            self._send(200, {
                "domains": list(service.domain_names()),
                "details": service.domain_info(),
            })
        else:
            self._send(*error_response(
                "not_found", f"no such endpoint: GET {self.path}"
            ))

    # ------------------------------------------------------------------

    def _discard_body(self) -> None:
        """Drain an unread request body so the keep-alive stream stays
        framed; when the declared length is untrustworthy, close the
        connection after the response instead."""
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if 0 <= length <= MAX_BODY_BYTES:
            if length:
                self.rfile.read(length)
        else:
            self.close_connection = True

    def _read_json(self):
        """Returns ``(None, decoded_body)`` or ``((status, payload), None)``
        for a body that cannot be decoded."""
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0 or length > MAX_BODY_BYTES:
            # The body cannot be safely skipped, so the connection must
            # not be reused after this error response.
            self.close_connection = True
            return (
                error_response(
                    "bad_request",
                    "Content-Length required and must be "
                    f"0..{MAX_BODY_BYTES}",
                ),
                None,
            )
        if length == 0:
            return None, None  # endpoints decide whether a body is required
        raw = self.rfile.read(length)
        try:
            return None, json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return (
                error_response("bad_request", f"malformed JSON body: {exc}"),
                None,
            )

    def _send(self, status: int, payload: Dict[str, Any]) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        retry_after_ms = (
            (payload.get("error") or {}).get("retry_after_ms")
            if status == 429 else None
        )
        if retry_after_ms is not None:
            # Standard backpressure surface for generic HTTP clients:
            # whole seconds, rounded up so "soon" never reads as "now".
            self.send_header(
                "Retry-After", str(max(1, math.ceil(retry_after_ms / 1000)))
            )
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: Any) -> None:
        """Quiet by default; the CLI owns user-facing logging."""


def start_http_server(
    service: SynthesisService, host: str = "127.0.0.1", port: int = 0
) -> SynthesisHTTPServer:
    """Bind and start serving on a background thread (tests and embedders;
    ``port=0`` picks a free port — read it back from ``server.port``).
    Caller owns shutdown: ``server.shutdown()`` then ``service`` drain."""
    server = SynthesisHTTPServer((host, port), service)
    thread = threading.Thread(
        target=server.serve_forever,
        kwargs={"poll_interval": 0.05},
        name="repro-http",
        daemon=True,
    )
    thread.start()
    return server


def run_http(
    service: SynthesisService,
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    grace_seconds: float = 30.0,
    install_signal_handlers: bool = True,
    on_ready=None,
    sock: Optional[Any] = None,
) -> bool:
    """Serve until SIGINT/SIGTERM, then drain gracefully.

    Returns True when the drain finished inside ``grace_seconds`` (the
    CLI turns False into a non-zero exit code).  ``on_ready(server)`` is
    invoked once the socket is bound — the CLI uses it to print the
    listening address.  ``sock`` serves on an already-bound listening
    socket instead of binding ``(host, port)`` (the pre-fork worker
    path; see :mod:`repro.server.multiproc`).
    """
    server = SynthesisHTTPServer((host, port), service, sock=sock)
    if on_ready is not None:
        on_ready(server)

    if install_signal_handlers:
        previous: Dict[int, Any] = {}

        def _handle(signum: int, frame: Optional[Any]) -> None:
            service.begin_shutdown()
            # shutdown() blocks until serve_forever() exits, and the
            # handler runs on the thread that is inside serve_forever —
            # stop the loop from a helper thread to avoid the deadlock.
            threading.Thread(target=server.shutdown, daemon=True).start()

        for signum in (signal.SIGINT, signal.SIGTERM):
            previous[signum] = signal.signal(signum, _handle)

        if hasattr(signal, "SIGHUP"):  # pragma: no branch - POSIX only
            def _handle_hup(signum: int, frame: Optional[Any]) -> None:
                # Reload off the signal context so the accept loop never
                # stalls on snapshot IO; errors must not kill the server.
                # A pre-fork worker reloads from the directory its
                # supervisor recorded, which may come from another
                # worker's /admin/reload.
                def _reload() -> None:
                    board = service.worker_board
                    try:
                        service.reload_snapshots(
                            None if board is None
                            else board.reload_cache_dir()
                        )
                    except Exception:
                        pass  # /healthz still reports the old snapshots

                threading.Thread(
                    target=_reload, name="repro-sighup-reload", daemon=True
                ).start()

            previous[signal.SIGHUP] = signal.signal(
                signal.SIGHUP, _handle_hup
            )

    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        if install_signal_handlers:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
        service.begin_shutdown()
        drained = service.drain(grace_seconds=grace_seconds)
        server.server_close()
        service.close()
    return drained
