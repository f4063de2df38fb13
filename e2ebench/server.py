"""The server under test: spawn, talk HTTP to it, measure it, drain it.

The server is the real CLI, ``python -m repro.serving``, run from the
checkout's ``src`` with an ephemeral port. It is stopped the way an
operator stops it: every client connection is closed first, then
SIGINT, and the run fails unless the process exits 0 after printing
its ``repro.serving drained:`` line.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

__all__ = ["Connection", "Server", "TransportError"]

READY_TIMEOUT_S = 120.0
DRAIN_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0

_LISTENING = re.compile(r"repro\.serving listening on http://([\d.]+):(\d+)")


class TransportError(Exception):
    """The request got no HTTP response (reset, refused, timed out)."""


class Connection:
    """One keep-alive HTTP/1.1 connection to the server."""

    def __init__(self, port: int) -> None:
        self._conn = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=REQUEST_TIMEOUT_S
        )

    def request(
        self, method: str, path: str, body: dict | None = None
    ) -> tuple[int, bytes]:
        """(status, body bytes); raises :class:`TransportError`."""
        payload = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if payload else {}
        try:
            self._conn.request(method, path, body=payload, headers=headers)
            response = self._conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException) as exc:
            self._conn.close()  # the next request reconnects
            raise TransportError(f"{type(exc).__name__}: {exc}") from None

    def close(self) -> None:
        self._conn.close()


class Server:
    """One ``python -m repro.serving`` subprocess."""

    def __init__(self, root: Path, args: list[str]) -> None:
        # The server must see only its command line: the CLI reads
        # REPRO_* variables (REPRO_SHARDS, ...) as flag defaults.
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(root / "src")
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        self.spawned = time.perf_counter()
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serving", "--host", "127.0.0.1",
             "--port", "0", *args],
            cwd=root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        self.stdout: list[str] = []
        self.stderr: list[str] = []
        self._ready = threading.Event()
        self.port: int | None = None
        self._readers = [
            threading.Thread(
                target=self._pump, args=(self._proc.stdout, self.stdout),
                daemon=True,
            ),
            threading.Thread(
                target=self._pump, args=(self._proc.stderr, self.stderr),
                daemon=True,
            ),
        ]
        for reader in self._readers:
            reader.start()

    def _pump(self, stream, lines: list[str]) -> None:
        for line in stream:
            lines.append(line.rstrip("\n"))
            match = _LISTENING.search(line)
            if match:
                self.port = int(match.group(2))
                self._ready.set()
        self._ready.set()  # EOF: the process is gone

    def wait_ready(self) -> int:
        """Block until the server listens; returns its port."""
        if not self._ready.wait(READY_TIMEOUT_S) or self.port is None:
            self.kill()
            raise RuntimeError(
                "server did not start:\n" + "\n".join(self.stderr[-20:])
            )
        return self.port

    def peak_rss_mb(self) -> float:
        """The process's high-water resident set size (VmHWM), in MB."""
        status = Path(f"/proc/{self._proc.pid}/status").read_text()
        kb = int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1))
        return kb / 1024.0

    def stop(self) -> None:
        """SIGINT, then require exit 0 and the drain line."""
        self._proc.send_signal(signal.SIGINT)
        try:
            code = self._proc.wait(DRAIN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("server did not drain within the timeout")
        for reader in self._readers:
            reader.join(DRAIN_TIMEOUT_S)
        drained = [
            line for line in self.stdout
            if line.startswith("repro.serving drained: ")
        ]
        if code != 0 or not drained:
            raise RuntimeError(
                f"server exited {code} (drain line seen: {bool(drained)}):\n"
                + "\n".join(self.stderr[-20:])
            )

    def kill(self) -> None:
        """Best-effort cleanup on the error path; waits for the exit."""
        if self._proc.poll() is None:
            self._proc.kill()
        self._proc.wait()
