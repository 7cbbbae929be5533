"""The service under test: one ``python -m repro serve`` process per run,
and the raw keep-alive HTTP client that drives it.

The client pre-encodes every request (request line, headers and JSON body)
into one ``bytes`` object, so in the timed window it only writes bytes and
reads a status line, headers and ``Content-Length`` body bytes.  Responses
are decoded after the window closes.
"""

from __future__ import annotations

import os
import re
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

#: The configuration every workload serves with; the traffic is what differs.
SERVER_FLAGS = [
    "--shards", "2",
    "--backend", "inproc",
    "--storage-backend", "file",
    "--hot-quarters", "1",
]
#: Header carrying the client's request id; the traced launcher stamps it on
#: the request's root span so client latency and server spans can be joined.
REQUEST_ID_HEADER = "X-Bench-Req"

_ADDRESS_RE = re.compile(r"service on http://([\d.]+):(\d+)")


class TransportError(Exception):
    """A request got no complete HTTP response."""


def encode_request(
    method: str, path: str, body: bytes | None, request_id: str
) -> bytes:
    """One complete HTTP/1.1 keep-alive request as bytes."""
    body = body or b""
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        "Host: 127.0.0.1\r\n"
        f"{REQUEST_ID_HEADER}: {request_id}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("ascii") + body


class Connection:
    """One keep-alive client connection, strictly request/response."""

    def __init__(self, port: int, timeout: float) -> None:
        self._sock = socket.create_connection(("127.0.0.1", port), timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = self._sock.makefile("rb")

    def send(self, raw: bytes) -> tuple[int, bytes]:
        """Send one pre-encoded request; returns ``(status, body)``."""
        try:
            self._sock.sendall(raw)
            line = self._reader.readline()
            if not line:
                raise TransportError("connection closed by the server")
            status = int(line.split(None, 2)[1])
            length = 0
            while True:
                header = self._reader.readline()
                if header in (b"\r\n", b"\n", b""):
                    break
                name, _, value = header.partition(b":")
                if name.strip().lower() == b"content-length":
                    length = int(value)
            body = self._reader.read(length)
            if len(body) != length:
                raise TransportError("response body cut short")
            return status, body
        except (OSError, ValueError, IndexError) as exc:
            raise TransportError(str(exc)) from exc

    def close(self) -> None:
        # The reader holds its own reference to the socket: both must close
        # before the server sees EOF and can finish its graceful drain.
        self._reader.close()
        self._sock.close()


class ServerProcess:
    """One fresh server process with its own WAL and cold-store directories."""

    def __init__(
        self, root: Path, workdir: Path, spans_path: Path | None = None
    ) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        self.wal_path = workdir / "snap" / "wal.jsonl"
        self.log_path = workdir / "server.log"
        serve_args = [
            "serve",
            "--port", "0",
            "--snapshot-dir", str(workdir / "snap"),
            "--storage-dir", str(workdir / "cold"),
            *SERVER_FLAGS,
        ]
        if spans_path is None:
            argv = [sys.executable, "-u", "-m", "repro", *serve_args]
        else:
            launcher = Path(__file__).with_name("traced_serve.py")
            argv = [
                sys.executable, "-u", str(launcher), str(spans_path),
                *serve_args,
            ]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            argv,
            cwd=root,
            env=env,
            stdout=self._log,
            stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL,
        )
        self.port = 0

    def wait_ready(self, deadline_s: float) -> None:
        """Block until ``/readyz`` answers 200 (address read from the log)."""
        deadline = time.monotonic() + deadline_s
        while not self.port:
            match = _ADDRESS_RE.search(
                self.log_path.read_text(errors="replace")
            )
            if match:
                self.port = int(match.group(2))
                break
            self._check_alive(deadline)
            time.sleep(0.005)
        probe = encode_request("GET", "/readyz", None, "ready")
        while True:
            self._check_alive(deadline)
            try:
                conn = Connection(self.port, timeout=5.0)
                try:
                    status, _ = conn.send(probe)
                finally:
                    conn.close()
                if status == 200:
                    return
            except (OSError, TransportError):
                pass
            time.sleep(0.005)

    def _check_alive(self, deadline: float) -> None:
        if self.proc.poll() is not None:
            raise RuntimeError(
                f"server exited with {self.proc.returncode} before it was "
                f"ready; log:\n{self.log_path.read_text(errors='replace')}"
            )
        if time.monotonic() > deadline:
            raise RuntimeError("server not ready before the deadline")

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server process, in MiB."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        kb = int(re.search(r"VmHWM:\s+(\d+)\s+kB", status).group(1))
        return kb / 1024.0

    def wal_bytes(self) -> int:
        return self.wal_path.stat().st_size if self.wal_path.exists() else 0

    def stop(self, deadline_s: float) -> bool:
        """SIGTERM, then wait; a kill at the deadline returns False.

        Callers close every client connection first: the server's graceful
        drain waits for open keep-alive connections to end.
        """
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=deadline_s)
                return self.proc.returncode == 0
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                return False
        finally:
            self._log.close()
