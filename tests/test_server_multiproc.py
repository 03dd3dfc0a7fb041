"""Pre-fork multi-worker serving (``repro serve --workers N``).

Two layers:

* unit tests for the building blocks — atomic port files, the per-worker
  stats seats, and the cross-worker ``/stats`` merge;
* one real 2-worker cluster (a ``repro serve --http 0 --workers 2``
  subprocess) shared by the process-level tests: distinct worker
  identities, server-wide stats aggregation, ``/admin/reload`` and
  SIGHUP fan-out, crash restart, and the graceful SIGTERM drain;
* a 2-worker cluster serving an edited domain pack, for the reload
  state the supervisor owns: one reload per worker, a cluster-wide
  ``cache_dir``, and restarted workers that serve the reloaded grammar.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro import Synthesizer, load_domain
from repro.client import HttpClient
from repro.cli import build_serve_arg_parser, serve_main
from repro.errors import ReproError
from repro.packs import scaffold_pack
from repro.server.http import SynthesisHTTPServer
from repro.server.multiproc import (
    WorkerStatsBoard,
    bind_listener,
    merge_worker_stats,
    run_supervisor,
    write_port_file,
)
from tests.test_server_pack_reload import _edit_pack_add_dismiss

QUERY = "print every line"

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def wait_until(predicate, timeout=30.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


# ---------------------------------------------------------------------------
# Port file
# ---------------------------------------------------------------------------


class TestPortFile:
    def test_write_and_read_back(self, tmp_path):
        path = tmp_path / "serve.port"
        write_port_file(str(path), 8123)
        assert path.read_text() == "8123\n"

    def test_replaces_previous_content_atomically(self, tmp_path):
        path = tmp_path / "serve.port"
        write_port_file(str(path), 1111)
        write_port_file(str(path), 2222)
        assert int(path.read_text()) == 2222
        # No temp droppings left next to the port file.
        leftovers = [
            name for name in os.listdir(tmp_path) if name != "serve.port"
        ]
        assert leftovers == []


class TestRunSupervisorValidation:
    def test_rejects_zero_workers(self):
        with pytest.raises(ReproError, match="workers must be >= 1"):
            run_supervisor(object(), workers=0)

    def test_fails_fast_without_fork(self, monkeypatch, capsys, tmp_path):
        monkeypatch.delattr(os, "fork")
        with pytest.raises(ReproError, match="os.fork"):
            run_supervisor(object(), workers=2)
        port_path = tmp_path / "serve.port"
        code = serve_main([
            "--http", "0", "--workers", "2", "--domains", "textediting",
            "--port-file", str(port_path),
        ])
        assert code == 2
        assert "os.fork" in capsys.readouterr().err
        assert not port_path.exists()  # refused before binding

    def test_serve_has_no_process_backend(self):
        # The offline batch command keeps its process backend; serving
        # scales out with --workers only.
        with pytest.raises(SystemExit) as exc:
            build_serve_arg_parser().parse_args(
                ["--http", "0", "--backend", "process"]
            )
        assert exc.value.code == 2

    def test_bind_listener_rejects_taken_port(self):
        sock = bind_listener("127.0.0.1", 0)
        try:
            port = sock.getsockname()[1]
            with pytest.raises(OSError):
                bind_listener("127.0.0.1", port)
        finally:
            sock.close()


class TestSharedListener:
    def test_lost_accept_race_returns_without_blocking(self):
        """Every pre-fork worker polls the one shared listener, and all of
        them wake on one connection.  A worker that loses the accept race
        must get "no request" back, not block in accept() — blocked, it
        misses SIGTERM until another connection arrives."""
        sock = bind_listener("127.0.0.1", 0)
        address = sock.getsockname()[:2]
        server = SynthesisHTTPServer(address, service=None, sock=sock)
        returned = threading.Event()

        def poll_once():
            server._handle_request_noblock()
            returned.set()

        worker = threading.Thread(target=poll_once, daemon=True)
        worker.start()
        try:
            assert returned.wait(1.0), "accept() blocked with nothing pending"
        finally:
            if not returned.is_set():
                socket.create_connection(address).close()  # unblock it
            worker.join(5)
            server.server_close()
        assert not worker.is_alive()


# ---------------------------------------------------------------------------
# Stats seats and the /stats merge
# ---------------------------------------------------------------------------


def _worker_stats(ok=0, reloads=0, inflight=0, uptime=1.0):
    return {
        "uptime_seconds": uptime,
        "requests": {"total": ok, "ok": ok, "error": 0},
        "scheduler": {
            "inflight": inflight,
            "queue_depth": 0,
            "max_inflight": 8,
            "counters": {"admitted": ok, "completed": ok},
            "priorities": {
                "interactive": {"queued": 0, "counters": {"admitted": ok}},
            },
        },
        "stages": {"parse": {"p50_ms": 1.0}},
        "verification": {"runs": 0},
        "reloads": reloads,
        "domains": {
            "textediting": {
                "counters": {"outcome_cache_hits": ok},
                "entries": {"outcome": ok},
                "capacities": {"outcome": 512},
            }
        },
    }


class TestWorkerStatsBoard:
    def test_publish_and_read_all(self, tmp_path):
        a = WorkerStatsBoard(str(tmp_path), 0)
        b = WorkerStatsBoard(str(tmp_path), 1)
        a.publish(_worker_stats(ok=3))
        b.publish(_worker_stats(ok=5))
        entries = a.read_all()
        assert [e["worker_id"] for e in entries] == [0, 1]
        assert all(e["pid"] == os.getpid() for e in entries)

    def test_corrupt_seat_is_skipped(self, tmp_path):
        board = WorkerStatsBoard(str(tmp_path), 0)
        board.publish(_worker_stats(ok=1))
        (tmp_path / "worker-1.json").write_text("{ half a payl")
        entries = board.read_all()
        assert [e["worker_id"] for e in entries] == [0]

    def test_merged_sums_counters_across_seats(self, tmp_path):
        a = WorkerStatsBoard(str(tmp_path), 0)
        b = WorkerStatsBoard(str(tmp_path), 1)
        b.publish(_worker_stats(ok=5, reloads=1, inflight=2, uptime=9.0))
        merged = a.merged(_worker_stats(ok=3, reloads=1, uptime=4.0))
        assert merged["n_workers"] == 2
        assert merged["worker_id"] == 0  # the responder
        assert merged["requests"] == {"total": 8, "ok": 8, "error": 0}
        assert merged["reloads"] == 2
        assert merged["uptime_seconds"] == 9.0  # oldest worker
        assert merged["scheduler"]["counters"]["admitted"] == 8
        assert merged["scheduler"]["inflight"] == 2
        # Config-shaped fields stay per-worker, not 2x'd.
        assert merged["scheduler"]["max_inflight"] == 8
        domain = merged["domains"]["textediting"]
        assert domain["counters"]["outcome_cache_hits"] == 8
        assert domain["entries"]["outcome"] == 8
        assert domain["capacities"] == {"outcome": 512}
        assert set(merged["workers"]) == {"0", "1"}
        assert merged["workers"]["1"]["requests"]["ok"] == 5

    def test_merged_with_no_seats_is_local(self, tmp_path):
        board = WorkerStatsBoard(str(tmp_path / "gone"), 7)
        merged = board.merged(_worker_stats(ok=2))
        assert merged["n_workers"] == 1
        assert merged["requests"]["ok"] == 2
        assert set(merged["workers"]) == {"7"}

    def test_background_publisher_keeps_seat_fresh(self, tmp_path):
        board = WorkerStatsBoard(
            str(tmp_path), 0, publish_interval=0.02
        )
        counter = {"n": 0}

        def supplier():
            counter["n"] += 1
            return _worker_stats(ok=counter["n"])

        board.start(supplier)
        try:
            assert wait_until(
                lambda: board.read_all()
                and board.read_all()[0]["stats"]["requests"]["ok"] >= 3,
                timeout=10.0,
            )
        finally:
            board.stop()
        # stop() publishes one final snapshot.
        final = board.read_all()[0]["stats"]["requests"]["ok"]
        assert final >= 3

    def test_merge_worker_stats_empty_schedulerless_seat(self):
        merged = merge_worker_stats(
            [{"worker_id": 0, "pid": 1, "stats": {}}], 0, {}
        )
        assert merged["n_workers"] == 1
        assert merged["requests"] == {}


# ---------------------------------------------------------------------------
# A real 2-worker cluster
# ---------------------------------------------------------------------------


def _repro_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _boot_cluster(tmp_path, *serve_args):
    """Start ``repro serve --http 0 --workers 2 SERVE_ARGS`` and wait
    until both workers hold a stats seat.  Returns (proc, client,
    port_path)."""
    port_path = tmp_path / "serve.port"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--http", "0",
         "--workers", "2", "--port-file", str(port_path), *serve_args],
        stderr=subprocess.PIPE,
        text=True,
        env=_repro_env(),
    )
    deadline = time.monotonic() + 120
    port = None
    while time.monotonic() < deadline:
        try:
            text = port_path.read_text()
        except OSError:
            text = ""
        if text.strip():
            port = int(text)
            break
        if proc.poll() is not None:
            raise AssertionError(
                f"supervisor exited with code {proc.returncode}: "
                f"{proc.stderr.read()}"
            )
        time.sleep(0.05)
    if port is None:
        proc.kill()
        raise AssertionError("supervisor never wrote its port file")
    client = HttpClient(port=port)
    # Both workers join the stats board at startup; wait for both seats.
    assert wait_until(
        lambda: client.stats().get("n_workers") == 2, timeout=60.0
    ), client.stats()
    return proc, client, port_path


def _stop_cluster(proc, client):
    client.close()
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=90)
    proc.stderr.close()


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    """One ``repro serve --http 0 --workers 2`` process shared by the
    process-level tests (startup builds a domain; no point paying that
    per test).  Yields (proc, client, port_path)."""
    proc, client, port_path = _boot_cluster(
        tmp_path_factory.mktemp("multiproc"),
        "--domains", "textediting", "--queue-depth", "4",
    )
    yield proc, client, port_path
    _stop_cluster(proc, client)


def _merged_stats(client):
    stats = client.stats()
    assert stats.get("n_workers") == 2, stats
    return stats


class TestMultiWorkerCluster:
    def test_distinct_worker_identities(self, cluster):
        _, client, _ = cluster
        stats = _merged_stats(client)
        assert set(stats["workers"]) == {"0", "1"}
        pids = {seat["pid"] for seat in stats["workers"].values()}
        assert len(pids) == 2
        # /healthz names the worker that answered.
        worker = client.health()["worker"]
        assert worker["id"] in (0, 1)
        assert worker["pid"] in pids

    def test_synthesis_matches_direct_and_stats_aggregate(self, cluster):
        _, client, _ = cluster
        direct = Synthesizer(load_domain("textediting")).synthesize(QUERY)
        before = _merged_stats(client)["requests"].get("ok", 0)
        n_requests = 6
        for _ in range(n_requests):
            payload = client.synthesize(QUERY, priority="interactive")
            assert payload["codelet"] == direct.codelet
        # Counters are summed across both seats; seats republish every
        # 0.2s, so the total converges rather than appearing instantly.
        assert wait_until(
            lambda: _merged_stats(client)["requests"].get("ok", 0)
            >= before + n_requests,
            timeout=30.0,
        ), _merged_stats(client)

    def test_admin_reload_fans_out_to_all_workers(self, cluster):
        _, client, _ = cluster
        before = _merged_stats(client)["reloads"]
        client.reload()
        # The handling worker reloads synchronously; the sibling learns
        # via supervisor SIGHUP and republishes shortly after.
        assert wait_until(
            lambda: _merged_stats(client)["reloads"] >= before + 2,
            timeout=30.0,
        ), _merged_stats(client)

    def test_sighup_reloads_every_worker(self, cluster):
        proc, client, _ = cluster
        before = _merged_stats(client)["reloads"]
        proc.send_signal(signal.SIGHUP)
        assert wait_until(
            lambda: _merged_stats(client)["reloads"] >= before + 2,
            timeout=30.0,
        ), _merged_stats(client)

    def test_crashed_worker_is_restarted(self, cluster):
        _, client, _ = cluster
        stats = _merged_stats(client)
        victim_id, victim_pid = next(
            (wid, seat["pid"]) for wid, seat in stats["workers"].items()
        )
        os.kill(victim_pid, signal.SIGKILL)

        def replaced():
            seats = client.stats().get("workers", {})
            seat = seats.get(victim_id)
            return (
                seat is not None
                and seat["pid"] != victim_pid
                and client.stats().get("n_workers") == 2
            )

        assert wait_until(replaced, timeout=60.0), client.stats()
        # The cluster still serves correctly after the restart.
        payload = client.synthesize(QUERY)
        assert payload["status"] == "ok"

    def test_zz_sigterm_drains_all_workers_and_exits_zero(self, cluster):
        # Deliberately last in the class: it kills the shared cluster,
        # which the fixture teardown tolerates.
        proc, client, _ = cluster
        payload = client.synthesize(QUERY)
        assert payload["status"] == "ok"
        proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=90)
        stderr = proc.stderr.read()
        assert code == 0, stderr
        assert "all workers drained and exited" in stderr


# ---------------------------------------------------------------------------
# Reload state owned by the supervisor
# ---------------------------------------------------------------------------


def _client_on_worker(port, worker_id, timeout=30.0):
    """A keep-alive client whose connection landed on ``worker_id``
    (every request it sends is answered by that worker)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        client = HttpClient(port=port)
        if client.health()["worker"]["id"] == worker_id:
            return client
        client.close()
    raise AssertionError(f"no connection reached worker {worker_id}")


def _health_per_worker(port):
    """``/healthz`` from each of the two workers, collected over fresh
    connections until both ids have answered."""
    answers = {}
    for worker_id in (0, 1):
        with _client_on_worker(port, worker_id) as client:
            answers[worker_id] = client.health()
    return answers


def _seat_reloads(client):
    return {
        worker_id: seat["reloads"]
        for worker_id, seat in _merged_stats(client)["workers"].items()
    }


def _assert_each_worker_reloaded_once(client, before):
    expected = {worker_id: n + 1 for worker_id, n in before.items()}
    assert wait_until(
        lambda: all(
            n >= expected[w] for w, n in _seat_reloads(client).items()
        ),
        timeout=30.0,
    ), _seat_reloads(client)
    # A second reload of any worker (the old fan-out reloaded the
    # handling worker twice) would land within a few publish intervals.
    time.sleep(1.0)
    assert _seat_reloads(client) == expected


class TestClusterReload:
    def test_reload_reaches_every_worker_and_restarts(self, tmp_path):
        pack = scaffold_pack(tmp_path / "packs", "hotdemo")
        boot_dir = tmp_path / "boot-cache"
        warm_dir = tmp_path / "warm-cache"
        boot_dir.mkdir()
        proc, client, port_path = _boot_cluster(
            tmp_path, "--pack-dir", str(pack), "--domains", "hotdemo",
            "--cache-dir", str(boot_dir),
        )
        port = int(port_path.read_text())
        try:
            # An edited pack reaches both workers, each reloading once.
            before = _seat_reloads(client)
            _edit_pack_add_dismiss(pack)
            result = client.reload()
            assert result["domains"]["hotdemo"]["pack_reloaded"] is True
            new_hash = result["domains"]["hotdemo"]["grammar_hash"]
            _assert_each_worker_reloaded_once(client, before)
            for health in _health_per_worker(port).values():
                assert health["domains"]["hotdemo"]["grammar_hash"] \
                    == new_hash

            # A cache_dir sent to one worker is adopted by both.
            subprocess.run(
                [sys.executable, "-m", "repro", "cache", "warm",
                 "--pack-dir", str(pack), "--domain", "hotdemo",
                 "--cache-dir", str(warm_dir)],
                env=_repro_env(), check=True, capture_output=True,
            )
            before = _seat_reloads(client)
            client.reload(cache_dir=str(warm_dir))
            _assert_each_worker_reloaded_once(client, before)
            for health in _health_per_worker(port).values():
                info = health["domains"]["hotdemo"]
                assert info["snapshot_loaded"] is True
                assert info["snapshot_file"].startswith(
                    str(warm_dir) + os.sep
                )

            # A worker restarted after the reloads forks from the
            # supervisor's reloaded state: edited grammar, new cache dir.
            victim_pid = _merged_stats(client)["workers"]["0"]["pid"]
            os.kill(victim_pid, signal.SIGKILL)

            def replaced():
                seat = client.stats().get("workers", {}).get("0")
                return seat is not None and seat["pid"] != victim_pid

            assert wait_until(replaced, timeout=60.0), client.stats()
            restarted = _client_on_worker(port, 0)
            try:
                info = restarted.health()["domains"]["hotdemo"]
                assert info["grammar_hash"] == new_hash
                assert info["snapshot_file"].startswith(
                    str(warm_dir) + os.sep
                )
                payload = restarted.synthesize(
                    "dismiss every alert", domain="hotdemo"
                )
                assert payload["codelet"] == "DISMISS(ALERTS())"
            finally:
                restarted.close()
        finally:
            _stop_cluster(proc, client)
