"""Single-threaded load generation over at most two server connections.

``OpenLoop`` sends pre-scheduled requests at their due times whatever the
server does, from one thread, multiplexing its connections with
``selectors``.  Every request is timed from its *scheduled* send time, so a
server stall also counts against the requests queued behind it, and the
generator records how late it ran against its own schedule.  Frames are
encoded before the loop starts; only a request whose content depends on a
reply (a read pinned to an epoch seen earlier) is built at send time.

``stream_writes`` and ``round_trip`` are the blocking helpers for set-up,
the ingest workload and the correctness gate.
"""

from __future__ import annotations

import gc
import selectors
import socket
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.distributed.wire import (
    FRAME_HEADER_SIZE,
    MSG_QUERY,
    MSG_QUERY_REPLY,
    QueryResponse,
    decode_query_response,
    encode_frame,
    encode_query_request,
    parse_frame_header,
)

_RECV_CHUNK = 1 << 16


def query_frame(request_id: int, kind: int, **fields) -> bytes:
    return encode_frame(MSG_QUERY, encode_query_request(request_id, kind, **fields))


def _parse_replies(buffer: bytearray) -> list[QueryResponse]:
    """Peel every complete reply frame off ``buffer``."""
    replies = []
    while len(buffer) >= FRAME_HEADER_SIZE:
        msg_type, length = parse_frame_header(bytes(buffer[:FRAME_HEADER_SIZE]))
        if len(buffer) < FRAME_HEADER_SIZE + length:
            break
        if msg_type != MSG_QUERY_REPLY:
            raise RuntimeError(f"unexpected message type {msg_type} from the server")
        replies.append(
            decode_query_response(bytes(buffer[FRAME_HEADER_SIZE : FRAME_HEADER_SIZE + length]))
        )
        del buffer[: FRAME_HEADER_SIZE + length]
    return replies


class BlockingConnection:
    """A connected socket with a reply buffer, for closed-loop use."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self._buffer = bytearray()
        self._replies: deque[QueryResponse] = deque()
        self.next_request_id = 0

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def recv_reply(self, timeout: float = 60.0) -> QueryResponse:
        """The next reply, polled for rather than slept on (see ``OpenLoop``)."""
        deadline = time.perf_counter() + timeout
        self.sock.setblocking(False)
        try:
            while not self._replies:
                try:
                    chunk = self.sock.recv(_RECV_CHUNK)
                except BlockingIOError:
                    if time.perf_counter() > deadline:
                        raise TimeoutError("no reply from the server") from None
                    continue
                if not chunk:
                    raise RuntimeError("server closed the connection")
                self._buffer += chunk
                self._replies.extend(_parse_replies(self._buffer))
        finally:
            self.sock.setblocking(True)
        return self._replies.popleft()

    def request(self, kind: int, **fields) -> bytes:
        """The frame of the next request on this connection."""
        frame = query_frame(self.next_request_id, kind, **fields)
        self.next_request_id += 1
        return frame

    def round_trip(self, kind: int, **fields) -> QueryResponse:
        request_id = self.next_request_id
        self.send(self.request(kind, **fields))
        reply = self.recv_reply()
        if reply.request_id != request_id:
            raise RuntimeError(f"reply {reply.request_id} does not match request {request_id}")
        return reply

    def close(self) -> None:
        self.sock.close()


def stream_writes(conn: BlockingConnection, frames: list[bytes],
                  barrier: Callable[[], list[bytes]], window: int = 32,
                  until: float | None = None, unit: int | None = None,
                  probe: Callable[[], list[bytes]] | None = None) -> tuple[list, list]:
    """Send write frames as fast as the server absorbs them.

    After every ``window`` frames the requests of ``barrier()`` follow; at
    most two windows are outstanding, so the server always has a window
    queued and never an unbounded backlog.  With ``probe``, the requests of
    ``probe()`` also follow every ``unit`` frames inside a window (before
    the barrier).  Stops after the frames run out or, with ``until``, once
    that ``perf_counter`` time has passed.  Returns ``(send time, frames
    sent so far)`` per window and, per window, the ``(receive time,
    reply)`` of each probe and barrier request in order.
    """
    windows: list[tuple[float, int]] = []
    replies: list[list[tuple[float, QueryResponse]]] = []
    expected: deque[int] = deque()
    sent = 0

    def receive() -> None:
        answers = []
        for _ in range(expected.popleft()):
            reply = conn.recv_reply()
            answers.append((time.perf_counter(), reply))
        replies.append(answers)

    while sent < len(frames):
        now = time.perf_counter()
        if until is not None and now >= until:
            break
        chunk = frames[sent : sent + window]
        parts: list[bytes] = []
        if probe is None:
            parts += chunk
        else:
            for first in range(0, len(chunk), unit):
                parts += chunk[first : first + unit]
                parts += probe()
        count = len(parts) - len(chunk)
        requests = barrier()
        conn.send(b"".join(parts) + b"".join(requests))
        sent += len(chunk)
        windows.append((now, sent))
        expected.append(count + len(requests))
        if len(expected) == 2:
            receive()
    while expected:
        receive()
    return windows, replies


# ------------------------------------------------------------------ open loop


@dataclass
class Request:
    """One scheduled send: ``frame`` is pre-encoded, or ``build()`` makes it."""

    due: float
    conn: int
    kind: str
    frame: bytes | None = None
    build: Callable[[], bytes] | None = None
    expects_reply: bool = True
    request_id: int | None = None
    sent: float = float("nan")
    received: float = float("nan")
    reply: QueryResponse | None = None
    info: dict = field(default_factory=dict)


class OpenLoop:
    """Send ``requests`` on schedule over ``socks``; collect replies in order.

    ``on_reply(request)`` runs as each reply arrives (the reply is already
    attached).  The server answers each connection in request order, so
    replies are matched to requests first-in first-out and checked by id.
    """

    def __init__(self, socks: list[socket.socket],
                 on_reply: Callable[[Request], None] | None = None) -> None:
        if len(socks) > 2:
            raise ValueError("the generator uses at most two connections")
        self._socks = socks
        self._on_reply = on_reply
        self.lateness: list[float] = []

    def run(self, requests: list[Request], start: float, drain_timeout: float = 60.0) -> int:
        """Run the schedule (``due`` is relative to ``start``); returns the
        number of replies still missing when the drain timed out."""
        selector = selectors.DefaultSelector()
        out = [bytearray() for _ in self._socks]
        inbox = [bytearray() for _ in self._socks]
        waiting: list[deque[Request]] = [deque() for _ in self._socks]
        for index, sock in enumerate(self._socks):
            sock.setblocking(False)
            selector.register(sock, selectors.EVENT_READ, index)
        writing = [False] * len(self._socks)
        position = 0
        missing = 0
        deadline = None
        # A collection pass over the reference sketches' objects would stall
        # the schedule for milliseconds; the loop allocates little.
        gc.collect()
        gc.disable()
        try:
            while True:
                now = time.perf_counter()
                while position < len(requests) and start + requests[position].due <= now:
                    request = requests[position]
                    position += 1
                    frame = request.frame if request.frame is not None else request.build()
                    request.sent = time.perf_counter()
                    self.lateness.append(request.sent - (start + request.due))
                    out[request.conn] += frame
                    if request.expects_reply:
                        waiting[request.conn].append(request)
                    now = request.sent
                for index, sock in enumerate(self._socks):
                    if out[index]:
                        try:
                            sent = sock.send(out[index])
                        except BlockingIOError:
                            sent = 0
                        del out[index][:sent]
                    want = bool(out[index])
                    if want != writing[index]:
                        events = selectors.EVENT_READ | (selectors.EVENT_WRITE if want else 0)
                        selector.modify(sock, events, index)
                        writing[index] = want
                pending = any(waiting) or any(out)
                if position >= len(requests):
                    if not pending:
                        break
                    if deadline is None:
                        deadline = time.perf_counter() + drain_timeout
                    timeout = deadline - time.perf_counter()
                    if timeout <= 0:
                        missing = sum(len(queue) for queue in waiting)
                        break
                else:
                    # Poll instead of sleeping: on a virtual machine a sleeping
                    # thread can wake milliseconds late, which would show up
                    # as latency of the requests it sends.
                    timeout = 0.0
                for key, mask in selector.select(timeout):
                    if mask & selectors.EVENT_READ:
                        self._read(key.data, inbox, waiting)
        finally:
            gc.enable()
            selector.close()
            for sock in self._socks:
                sock.setblocking(True)
        return missing

    def _read(self, index: int, inbox: list[bytearray], waiting: list[deque]) -> None:
        chunk = self._socks[index].recv(_RECV_CHUNK)
        received = time.perf_counter()
        if not chunk:
            raise RuntimeError("server closed a load-generator connection")
        inbox[index] += chunk
        for reply in _parse_replies(inbox[index]):
            request = waiting[index].popleft()
            if request.request_id is not None and reply.request_id != request.request_id:
                raise RuntimeError(
                    f"reply {reply.request_id} does not match request {request.request_id}"
                )
            request.received = received
            request.reply = reply
            if self._on_reply is not None:
                self._on_reply(request)
