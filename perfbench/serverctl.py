"""Server lifecycle for one benchmark run.

Each run gets a fresh directory inside the checkout: the snapshot cache
dir, ``HOME``, ``REPRO_CACHE_DIR`` and ``TMPDIR`` all point into it, so a
user's ``~/.cache/repro-dggt`` can never warm a "cold" run and nothing is
written outside the checkout.  The server boots through ``--port-file``,
its memory is read from ``/proc`` before shutdown, and it is stopped with
SIGTERM: the exit status must be 0 and no worker may outlive it.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACED_LAUNCHER = HERE / "traced_serve.py"

#: Longest a boot may take before the run fails.
BOOT_TIMEOUT_S = 60.0
#: Drain grace the servers get (``--grace``).  Nothing is in flight when
#: the benchmark stops a server, so this only bounds how long a stuck
#: drain holds the run up: the pre-fork supervisor kills a worker that
#: has not exited GRACE_S + 10 seconds after SIGTERM.
GRACE_S = 1.0
#: Longest a SIGTERM stop may take before the run fails.
STOP_TIMEOUT_S = GRACE_S + 20.0


class BenchError(RuntimeError):
    """The benchmark could not run the workload as specified."""


def isolated_env(run_dir: Path) -> Dict[str, str]:
    """The environment of every child: repo sources on the path, every
    cache and temp location inside ``run_dir``, no inherited REPRO_*
    knobs (a stray REPRO_SERVE_INJECT_DELAY_MS would falsify a run)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(SRC),
        HOME=str(run_dir / "home"),
        TMPDIR=str(run_dir / "tmp"),
        REPRO_CACHE_DIR=str(run_dir / "cache"),
    )
    for key in ("HOME", "TMPDIR", "REPRO_CACHE_DIR"):
        Path(env[key]).mkdir(parents=True, exist_ok=True)
    return env


def build_snapshots(
    run_dir: Path, domains: Sequence[str], env: Dict[str, str]
) -> float:
    """``repro cache warm`` for each domain, two at a time so the largest
    suite overlaps the others; returns the wall seconds of the whole
    build."""
    cache_dir = str(run_dir / "cache")

    def warm(domain: str) -> None:
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "cache", "warm",
             "--domain", domain, "--cache-dir", cache_dir],
            env=env, cwd=str(run_dir), stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, timeout=120,
        )
        if proc.returncode != 0:
            raise BenchError(
                f"cache warm --domain {domain} failed:\n"
                + proc.stdout.decode(errors="replace")[-2000:]
            )

    ordered = sorted(domains, key=lambda d: d != "astmatcher")
    started = time.monotonic()
    with ThreadPoolExecutor(max_workers=2) as pool:
        for future in [pool.submit(warm, d) for d in ordered]:
            future.result()
    return time.monotonic() - started


def _children(pid: int) -> List[int]:
    """Direct children of ``pid`` from ``/proc``."""
    found: List[int] = []
    task_dir = Path(f"/proc/{pid}/task")
    try:
        tasks = list(task_dir.iterdir())
    except OSError:
        return found
    for task in tasks:
        try:
            found.extend(int(p) for p in (task / "children").read_text().split())
        except OSError:
            continue
    return found


def _pss_kib(pid: int) -> int:
    with open(f"/proc/{pid}/smaps_rollup", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("Pss:"):
                return int(line.split()[1])
    raise BenchError(f"no Pss line for pid {pid}")


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


class Server:
    """One ``repro serve --http 0`` process (plain, or under the tracing
    launcher), booted and stopped by this object."""

    def __init__(self, run_dir: Path, env: Dict[str, str], *, workers: int,
                 domains: Sequence[str], traced: bool, tag: str):
        self.run_dir = run_dir
        self.port_file = run_dir / f"{tag}.port"
        self.log_path = run_dir / f"{tag}.log"
        self.spans_dir = run_dir / f"{tag}-spans"
        argv = ["serve", "--http", "0", "--port-file", str(self.port_file),
                "--cache-dir", str(run_dir / "cache"),
                "--workers", str(workers), "--domains", ",".join(domains),
                "--grace", str(GRACE_S)]
        if traced:
            self.spans_dir.mkdir()
            command = [sys.executable, str(TRACED_LAUNCHER),
                       str(self.spans_dir)] + argv
        else:
            command = [sys.executable, "-m", "repro"] + argv
        self.command = command
        self.env = env
        self.workers = workers
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.setup_s = 0.0
        self.stop_s = 0.0

    def start(self) -> float:
        """Spawn and wait for the first 200 from ``/healthz``; returns the
        seconds from spawn to that answer."""
        import http.client

        self.port_file.unlink(missing_ok=True)
        log = open(self.log_path, "wb")
        started = time.monotonic()
        try:
            self.proc = subprocess.Popen(
                self.command, env=self.env, cwd=str(self.run_dir),
                stdout=log, stderr=subprocess.STDOUT,
            )
        finally:
            log.close()
        deadline = started + BOOT_TIMEOUT_S
        while True:
            if self.proc.poll() is not None:
                raise BenchError(f"server exited during boot:\n{self.log_tail()}")
            if time.monotonic() > deadline:
                raise BenchError(f"server boot timed out:\n{self.log_tail()}")
            if not self.port:
                try:
                    self.port = int(self.port_file.read_text())
                except (OSError, ValueError):
                    time.sleep(0.002)
                    continue
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
            try:
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                response.read()
                if response.status == 200:
                    break
            except OSError:
                pass
            finally:
                conn.close()
            time.sleep(0.002)
        self.setup_s = time.monotonic() - started
        if self.workers > 1:
            self._await_workers(deadline)
        return self.setup_s

    def _await_workers(self, deadline: float) -> None:
        """Wait until every pre-fork worker has published its stats seat,
        then a little longer so it has installed its signal handlers: a
        SIGTERM forwarded to a worker before that point ends it
        uncleanly.  It also lets every worker take connections before
        the load starts."""
        from repro.client import HttpClient

        with HttpClient(port=self.port, keep_alive=False) as admin:
            while admin.stats().get("n_workers", 0) < self.workers:
                if time.monotonic() > deadline:
                    raise BenchError(
                        f"workers did not all start:\n{self.log_tail()}"
                    )
                time.sleep(0.01)
        time.sleep(0.2)

    def serving_pids(self) -> List[int]:
        """The server process and every process under it."""
        assert self.proc is not None
        return self._walk(self.proc.pid)

    def pss_mib(self) -> Dict[int, float]:
        """Proportional set size per serving process, in MiB."""
        return {pid: _pss_kib(pid) / 1024.0 for pid in self.serving_pids()}

    def stop(self) -> int:
        """SIGTERM and wait for the drain; returns the exit status.

        A non-zero status is returned, not raised: the caller reports it.
        Raises when the server outlives :data:`STOP_TIMEOUT_S` or a worker
        outlives the server."""
        if self.proc is None:
            raise BenchError("stop() without a running server")
        proc, self.proc = self.proc, None
        descendants = [pid for pid in self._walk(proc.pid) if pid != proc.pid]
        started = time.monotonic()
        proc.send_signal(signal.SIGTERM)
        try:
            code = proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            self._reap(descendants)
            raise BenchError(
                f"{self.log_path.stem} server did not exit on SIGTERM:\n"
                f"{self.log_tail()}"
            )
        self.stop_s = time.monotonic() - started
        survivors = self._reap(descendants)
        if survivors:
            raise BenchError(f"workers outlived the server: {survivors}")
        return code

    def kill(self) -> None:
        """Best-effort cleanup after a failure."""
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        descendants = [pid for pid in self._walk(proc.pid) if pid != proc.pid]
        proc.kill()
        proc.wait()
        self._reap(descendants)

    @staticmethod
    def _walk(pid: int) -> List[int]:
        pids, frontier = [pid], [pid]
        while frontier:
            kids = _children(frontier.pop())
            pids.extend(kids)
            frontier.extend(kids)
        return pids

    @staticmethod
    def _reap(pids: Sequence[int]) -> List[int]:
        """Wait briefly for ``pids`` to vanish; kill and return any that
        did not."""
        deadline = time.monotonic() + 5.0
        survivors = [p for p in pids if _alive(p)]
        while survivors and time.monotonic() < deadline:
            time.sleep(0.02)
            survivors = [p for p in survivors if _alive(p)]
        for pid in survivors:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        return survivors

    def log_tail(self) -> str:
        try:
            return self.log_path.read_text(errors="replace")[-3000:]
        except OSError:
            return "(no server log)"
