"""Span recording around the calls into each layer, and span arithmetic.

The traced pass replaces selected functions and methods of the program
with wrappers that record one span per call: name, start, end (both
``time.perf_counter()``, which is ``CLOCK_MONOTONIC`` on Linux and so
comparable between processes), the index of the enclosing span, an
item count and, for queries, the wire request id.  Spans stay in memory
and are written out as JSON when asked (a signal in the server, the end
of the worker function in fleet workers).

Each name is wrapped where its caller looks it up: a function imported
by name into another module is replaced in that module, a method on the
class whose instances call it.
"""

from __future__ import annotations

import json
import os
import struct
import time
import types

# MSG_QUERY payloads start with the request id and kind (``>IB``); read
# straight from the bytes so the wrapper does no decode work of its own.
_QUERY_HEADER = struct.Struct(">IB")

NAME, START, END, PARENT, COUNT, REQUEST = range(6)


class Tracer:
    """In-memory span recorder for one process (single-threaded callers)."""

    def __init__(self) -> None:
        self.spans: list[list | None] = []
        self._stack: list[int] = []

    def reset(self) -> None:
        """Forget every span (a forked worker drops its parent's spans)."""
        self.spans = []
        self._stack = []

    def wrap(self, owner, attr: str, name: str, count=None, request=None, when=None):
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``count(args, result)`` gives the span's item count; ``request(args)``
        the ``(request_id, kind)`` of a query; ``when(args)`` decides whether
        this call is recorded at all.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            if when is not None and not when(args):
                return original(*args, **kwargs)
            spans = tracer.spans
            index = len(spans)
            spans.append(None)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(index)
            result = None
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                spans[index] = [
                    name,
                    start,
                    end,
                    parent,
                    count(args, result) if count is not None else 0,
                    request(args) if request is not None else None,
                ]

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        return traced

    def dump(self, path: str) -> None:
        """Write every finished span to ``path`` atomically."""
        temporary = f"{path}.tmp"
        with open(temporary, "w") as handle:
            json.dump(self.spans, handle)
        os.replace(temporary, path)


def _first_len(args, result) -> int:
    return len(args[1])


def _query_request(args):
    request_id, kind = _QUERY_HEADER.unpack_from(args[1], 0)
    return [request_id, kind]


def install_server_wrappers(tracer: Tracer) -> None:
    """Wrap the layers a ``serve --async`` process passes through."""
    from repro.core.reliable_sketch import ReliableSketch
    from repro.hashing import families
    from repro.kernels.interning import KeyInterner
    from repro.serve import async_server, snapshots
    from repro.serve.server import ServeConfig
    from repro.serve.service import SketchService
    from repro.store.faultfs import FileSystem
    from repro.store.store import SketchStore
    from repro.temporal.ring import EpochRing

    tracer.wrap(ServeConfig, "build_service", "service.build")
    tracer.wrap(SketchStore, "restore_into", "store.restore")
    tracer.wrap(
        async_server, "decode_batch", "wire.decode_batch",
        count=lambda args, result: len(result[0]),
    )
    tracer.wrap(async_server, "answer_request", "server.answer", request=_query_request)
    tracer.wrap(SketchService, "ingest", "service.ingest", count=_first_len)
    tracer.wrap(SketchService, "serve_batch", "service.serve_batch", count=_first_len)
    tracer.wrap(SketchStore, "append_batch", "store.append_batch", count=_first_len)
    tracer.wrap(SketchStore, "publish_epoch", "store.publish_epoch")
    tracer.wrap(FileSystem, "fsync", "store.fsync")
    tracer.wrap(snapshots, "replicate_sketch", "snapshots.replicate")
    tracer.wrap(EpochRing, "offer", "ring.offer")
    _wrap_sketch(tracer, ReliableSketch)
    _wrap_hashing(tracer, families)
    tracer.wrap(KeyInterner, "intern_batch", "kernels.intern", count=_first_len)
    tracer.wrap(KeyInterner, "lookup_batch", "kernels.intern", count=_first_len)


def install_fleet_wrappers(tracer: Tracer, directory: str) -> None:
    """Wrap the distributed-ingest layers; workers dump to ``directory``."""
    from repro.distributed import ingest
    from repro.distributed.transport import PipeChannel
    from repro.hashing import families
    from repro.sketches.cm import CountMinSketch

    tracer.wrap(ingest.IngestCoordinator, "send_batch", "coordinator.send_batch",
                count=_first_len)
    tracer.wrap(ingest.IngestCoordinator, "collect", "fleet.collect")
    tracer.wrap(ingest, "tree_merge", "fleet.merge")
    tracer.wrap(
        ingest, "encode_batch", "wire.encode_batch",
        count=lambda args, result: len(args[0]),
    )
    tracer.wrap(
        ingest, "decode_batch", "wire.decode_batch",
        count=lambda args, result: len(result[0]),
    )
    tracer.wrap(PipeChannel, "send", "transport.send")
    tracer.wrap(PipeChannel, "recv", "transport.recv")
    _wrap_sketch(tracer, CountMinSketch)
    _wrap_hashing(tracer, families)
    worker_main = ingest.worker_main

    def traced_worker(channel) -> None:
        # Forked from the coordinator: drop the spans inherited from it.
        tracer.reset()
        start = time.perf_counter()
        try:
            worker_main(channel)
        finally:
            tracer.spans.append(
                ["worker.main", start, time.perf_counter(), -1, 0, None]
            )
            tracer.dump(os.path.join(directory, f"worker-{os.getpid()}.json"))

    ingest.worker_main = traced_worker


def _wrap_sketch(tracer: Tracer, sketch_class) -> None:
    tracer.wrap(sketch_class, "insert_batch", "sketch.insert_batch", count=_first_len)
    tracer.wrap(sketch_class, "query_batch", "sketch.query_batch", count=_first_len)
    tracer.wrap(sketch_class, "state_snapshot", "sketch.state_snapshot")
    tracer.wrap(sketch_class, "state_restore", "sketch.state_restore")


def _wrap_hashing(tracer: Tracer, families) -> None:
    tracer.wrap(
        families.EncodedKeyBatch, "__init__", "hashing.encode",
        count=lambda args, result: len(args[0]),
    )
    # The packed matrices are built lazily on first use of ``groups``;
    # only that first access is encoding work.
    holder = types.SimpleNamespace(groups=families.EncodedKeyBatch.groups.fget)
    traced_groups = tracer.wrap(
        holder, "groups", "hashing.encode",
        when=lambda args: args[0]._groups is None,
    )
    families.EncodedKeyBatch.groups = property(traced_groups)
    tracer.wrap(families, "murmur3_32_fixed_batch", "hashing.murmur")


# --------------------------------------------------------------- arithmetic


def load_spans(path: str) -> list[list | None]:
    with open(path) as handle:
        return json.load(handle)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: list[list | None]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Unfinished spans (``None``) have no self time and are not children.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span is not None and span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    result = []
    for index, span in enumerate(spans):
        if span is None:
            result.append(0.0)
            continue
        covered = _union_length(
            [
                (max(start, span[START]), min(end, span[END]))
                for start, end in children.get(index, ())
                if end > span[START] and start < span[END]
            ]
        )
        result.append(span[END] - span[START] - covered)
    return result


def coverage(spans: list[list | None], start: float, end: float) -> float:
    """Share of ``[start, end]`` covered by the top-level spans."""
    if end <= start:
        return 0.0
    clipped = [
        (max(span[START], start), min(span[END], end))
        for span in spans
        if span is not None and span[PARENT] < 0
        and span[END] > start and span[START] < end
    ]
    return _union_length(clipped) / (end - start)


def in_window(spans: list[list | None], start: float, end: float) -> list[list | None]:
    """Spans that began inside ``[start, end]`` (indices keep their meaning)."""
    return [
        span if span is not None and start <= span[START] <= end else None
        for span in spans
    ]


def ancestors(spans: list[list | None], index: int):
    """Indices of the enclosing spans of ``spans[index]``, innermost first."""
    parent = spans[index][PARENT]
    while parent >= 0:
        yield parent
        parent = spans[parent][PARENT] if spans[parent] is not None else -1
