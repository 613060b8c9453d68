"""The server under test and the closed-loop load generator that drives it.

:class:`ServerProcess` runs ``python -m repro.serve`` (or, traced, the
``traced_serve.py`` launcher) as a real subprocess on an ephemeral port,
with ``src`` of the checkout on ``PYTHONPATH``.  :func:`closed_loop` sends a
fixed list of prepared requests from a few client threads, each waiting
for its reply before sending the next, as a designer at a notebook does.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

from bench_trace import REQUEST_ID_HEADER

HERE = Path(__file__).resolve().parent
STARTUP_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
REQUEST_TIMEOUT_S = 120.0


class ServerProcess:
    """One ``repro.serve`` subprocess, from spawn to a clean stop.

    ``trace_out`` set starts the traced launcher instead, which writes its
    spans there when the server stops.
    """

    def __init__(self, root: Path, serve_args: list[str], log_path: Path,
                 trace_out: Path | None = None) -> None:
        self.root = root
        self.serve_args = list(serve_args)
        self.log_path = log_path
        self.trace_out = trace_out
        self.process: subprocess.Popen | None = None
        self.port = 0

    def start(self) -> float:
        """Spawn the server; seconds from spawn to the first health 200."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        env["PYTHONUNBUFFERED"] = "1"
        if self.trace_out is None:
            command = [sys.executable, "-m", "repro.serve"]
        else:
            command = [sys.executable, str(HERE / "traced_serve.py"),
                       str(self.trace_out)]
        command += ["--port", "0", *self.serve_args]
        started = time.perf_counter()
        with open(self.log_path, "ab") as log:
            self.process = subprocess.Popen(
                command, cwd=self.root, env=env, stdout=subprocess.PIPE,
                stderr=log, text=True)
        line = self.process.stdout.readline()
        match = re.search(r"serving on http://[^:]+:(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not announce its port: {line!r}; "
                               f"see {self.log_path}")
        self.port = int(match.group(1))
        deadline = started + STARTUP_TIMEOUT_S
        while True:
            try:
                status, _ = self.request("GET", "/v1/health")
                if status == 200:
                    return time.perf_counter() - started
            except OSError:
                pass
            if time.perf_counter() > deadline:
                self.stop()
                raise RuntimeError("server never became healthy")
            time.sleep(0.002)

    def request(self, method: str, path: str, body: bytes = b"",
                rid: str | None = None) -> tuple[int, bytes]:
        """One request on a fresh connection: ``(status, body)``."""
        return exchange(self.port, http_request(method, path, body, rid))

    def post_json(self, path: str, payload: dict,
                  rid: str | None = None) -> tuple[int, dict]:
        status, data = self.request("POST", path,
                                    json.dumps(payload).encode("utf-8"), rid)
        return status, json.loads(data)

    def metrics(self) -> dict:
        status, data = self.request("GET", "/v1/metrics")
        if status != 200:
            raise RuntimeError(f"/v1/metrics answered {status}")
        return json.loads(data)

    def peak_rss_mb(self) -> float:
        """The server's high-water resident set (``VmHWM``), in MB."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        kilobytes = int(re.search(r"VmHWM:\s+(\d+)\s+kB", status).group(1))
        return kilobytes / 1024.0

    def stop(self) -> None:
        """SIGINT (the server's clean shutdown path), then wait; kill late."""
        process = self.process
        if process is None:
            return
        if process.poll() is None:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        process.stdout.close()
        self.process = None


def http_request(method: str, path: str, body: bytes = b"",
                 rid: str | None = None) -> bytes:
    """The bytes of one HTTP/1.0 request, built before any timing starts."""
    head = [f"{method} {path} HTTP/1.0", "Host: 127.0.0.1",
            "Connection: close", "Content-Type: application/json",
            f"Content-Length: {len(body)}"]
    if rid is not None:
        head.append(f"{REQUEST_ID_HEADER}: {rid}")
    return ("\r\n".join(head) + "\r\n\r\n").encode("ascii") + body


def exchange(port: int, request: bytes) -> tuple[int, bytes]:
    """Send one request on a new connection; read the reply to EOF.

    A raw socket keeps the load generator's own CPU cost per request far
    below ``http.client``'s header parsing, leaving the 2 CPUs to the
    server.  ``Connection: close`` makes the server end every reply.
    """
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=REQUEST_TIMEOUT_S) as sock:
        sock.sendall(request)
        chunks = []
        while chunk := sock.recv(1 << 16):
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    status = head.split(b" ", 2)[1:2]
    if not status or not status[0].isdigit():
        raise ConnectionError(f"malformed HTTP reply {head[:80]!r}")
    return int(status[0]), body


def closed_loop(port: int, requests: list[bytes],
                clients: int) -> tuple[list[tuple[float, int, bytes]], float]:
    """Send every prepared request from ``clients`` threads.

    Each thread sends its next request only after the previous reply
    arrived.  Threads take the next unsent request in list order, so the
    set of requests is fixed whatever the interleaving.  Returns
    ``(latency_s, status, reply)`` per request, in list order, and the wall
    time of the whole loop.  A connection error reads as status 0.
    """
    results: list[tuple[float, int, bytes] | None] = [None] * len(requests)
    cursor = itertools.count()

    def client() -> None:
        while (index := next(cursor)) < len(requests):
            started = time.perf_counter()
            try:
                status, reply = exchange(port, requests[index])
            except OSError as error:
                status, reply = 0, repr(error).encode("utf-8")
            results[index] = (time.perf_counter() - started, status, reply)

    threads = [threading.Thread(target=client, name=f"client-{index}")
               for index in range(clients)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results, time.perf_counter() - started
