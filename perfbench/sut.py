"""The system under test as users run it: ``repro-cli serve`` in its own process."""

from __future__ import annotations

import os
import re
import selectors
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
_LISTENING = re.compile(rb"^serving .* on ([0-9.]+):(\d+) ")


class ServerProcess:
    """One ``serve --async`` process, launched and waited on until it listens.

    With ``trace_out`` the process runs ``traced_server.py``, which wraps the
    program's layers before handing the same arguments to ``repro.cli``;
    ``dump_trace`` then asks it (SIGUSR1) to write its spans there.
    """

    def __init__(self, root: Path, cli_args: list[str], log_path: Path,
                 trace_out: Path | None = None, timeout: float = 60.0) -> None:
        # A fixed hash seed: dict and set layouts of str/bytes keys, and so
        # their speed, would otherwise differ from one launch to the next.
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONUNBUFFERED="1",
                   PYTHONHASHSEED="0")
        if trace_out is None:
            command = [sys.executable, "-m", "repro.cli", *cli_args]
        else:
            command = [sys.executable, str(HERE / "traced_server.py"), str(trace_out), *cli_args]
        self.trace_out = trace_out
        self._log = open(log_path, "ab")
        self.launched = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=root, env=env, stdout=subprocess.PIPE, stderr=self._log,
            stdin=subprocess.DEVNULL,
        )
        try:
            self.address = self._wait_listening(timeout)
        except BaseException:
            self.kill()
            raise
        self.listening = time.perf_counter()

    def _wait_listening(self, timeout: float) -> tuple[str, int]:
        deadline = time.perf_counter() + timeout
        buffer = b""
        stdout = self.process.stdout
        with selectors.DefaultSelector() as selector:
            selector.register(stdout, selectors.EVENT_READ)
            while True:
                while b"\n" in buffer:
                    line, buffer = buffer.split(b"\n", 1)
                    match = _LISTENING.match(line)
                    if match:
                        return match.group(1).decode(), int(match.group(2))
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    raise RuntimeError("server did not start listening in time")
                if selector.select(remaining):
                    chunk = os.read(stdout.fileno(), 65536)
                    if not chunk:
                        raise RuntimeError(
                            f"server exited with {self.process.wait()} before listening"
                        )
                    buffer += chunk

    def connect(self) -> socket.socket:
        sock = socket.create_connection(self.address, timeout=60.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def peak_rss_mb(self) -> float:
        """Peak resident set size (``VmHWM``) of the live server, in MiB."""
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not reported")

    def dump_trace(self, timeout: float = 30.0) -> None:
        """Ask a traced server to write its spans, and wait until it has."""
        if self.trace_out.exists():
            self.trace_out.unlink()
        self.process.send_signal(signal.SIGUSR1)
        deadline = time.perf_counter() + timeout
        while not self.trace_out.exists():
            if time.perf_counter() > deadline or self.process.poll() is not None:
                raise RuntimeError("traced server did not write its spans")
            time.sleep(0.01)

    def kill(self) -> None:
        """SIGKILL: no drain, no flush (a crash)."""
        if self.process.poll() is None:
            self.process.kill()
        self._reap()

    def _reap(self) -> None:
        self.process.wait()
        self.process.stdout.close()
        self._log.close()


def serve_args(algorithm: str, memory_bytes: int, store: Path | None = None) -> list[str]:
    """The ``repro-cli`` arguments of one served sketch on a free local port."""
    args = ["serve", "--async", "--bind", "127.0.0.1:0",
            "--algorithm", algorithm, "--memory-bytes", str(memory_bytes)]
    if store is not None:
        args += ["--store", str(store)]
    return args


class RunContext:
    """One benchmark run: its arguments, scratch directory and servers.

    Every server launched through :meth:`launch` is killed by :meth:`close`
    if the workload has not stopped it already.
    """

    def __init__(self, root: Path, scratch: Path, seed: int, seconds: float,
                 trace: bool, tally) -> None:
        self.root = root
        self.scratch = scratch
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tally = tally
        self.report: dict = {}
        self._servers: list[ServerProcess] = []
        self._launches = 0

    def launch(self, cli_args: list[str], traced: bool = False) -> ServerProcess:
        self._launches += 1
        trace_out = self.scratch / f"spans-{self._launches}.json" if traced else None
        server = ServerProcess(self.root, cli_args, self.scratch / "server.log", trace_out)
        self._servers.append(server)
        return server

    def close(self) -> None:
        for server in self._servers:
            server.kill()
