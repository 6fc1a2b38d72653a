"""``mixed``: point reads beside a steady write stream, in memory.

An in-memory ``serve --async --algorithm Ours`` (no ``--store``) is
preloaded during set-up.  Then one thread drives an open loop over two
connections: 256-item write batches (plus STATS probes) at a fixed rate on
one, 64-key point reads at a fixed rate on the other, every fourth read
pinned (``epoch=``) to an epoch two behind the newest the generator has
seen, which the default ring still holds.  The async server keeps one FIFO
for all connections, so a read queued behind a write batch that publishes
an epoch waits for the whole publish: replication cost shows up here as
read tail latency and staleness.  The store is not on this path.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

import numpy as np

from common import (
    ALGORITHM, LAUNCHES, MEMORY_BYTES, PUBLISH_EVERY, READ_KEYS, WRITE_BATCH,
    Freshness, Inputs, batches, build_reference, quantile, sliced_quantile,
)
import layers
from loadgen import BlockingConnection, OpenLoop, Request, query_frame, stream_writes
from repro.distributed.wire import (
    MSG_BATCH, QUERY_FLUSH, QUERY_KEYS, QUERY_STATS, STATUS_BUSY, STATUS_OK, encode_batch,
    encode_frame,
)
from sut import serve_args
from tracing import load_spans

#: Items written before the timed window (eight epochs).
PRELOAD_ITEMS = 8 * PUBLISH_EVERY
#: Fixed rates, per second: write batches (10240 items/s, well below what
#: the ingest workload sustains), point reads, and STATS probes.
WRITE_RATE = 40
READ_RATE = 200
STATS_RATE = 20
#: Every PINNED_EVERY-th read is pinned to an epoch PIN_LAG behind the newest.
PINNED_EVERY = 4
PIN_LAG = 2
#: STATS probes share the write connection; their ids never meet the reads'.
STATS_FIRST_ID = 1 << 30


class _Run:
    """The open-loop schedule of one timed window and what came back."""

    def __init__(self, inputs: Inputs, seconds: float, start_epoch: int):
        write_count = int(WRITE_RATE * seconds)
        read_count = int(READ_RATE * seconds)
        self.write_batches = batches(inputs.keys(write_count * WRITE_BATCH))
        self.read_keys = [keys.tolist() for keys in inputs.keys(read_count * READ_KEYS)
                          .reshape(read_count, READ_KEYS)]
        self.freshness = Freshness()
        self.latest_epoch = start_epoch
        self.start_epoch = start_epoch
        self.start = 0.0
        self.absorbed_s = 0.0
        self.requests: list[Request] = []
        for index, batch in enumerate(self.write_batches):
            due = (index + 0.5) / WRITE_RATE
            self.requests.append(Request(
                due, 0, "write", frame=encode_frame(MSG_BATCH, encode_batch(batch)),
                expects_reply=False,
            ))
        for index in range(int(STATS_RATE * seconds)):
            request_id = STATS_FIRST_ID + index
            self.requests.append(Request(
                (index + 0.25) / STATS_RATE, 0, "stats", request_id=request_id,
                frame=query_frame(request_id, QUERY_STATS),
            ))
        for index, keys in enumerate(self.read_keys):
            request = Request((index + 0.1) / READ_RATE, 1, "read", request_id=index)
            request.info["keys"] = index
            if index % PINNED_EVERY == PINNED_EVERY - 1:
                request.kind = "pinned"
                request.build = self._pinned_builder(request, keys)
            else:
                request.frame = query_frame(index, QUERY_KEYS, keys=keys)
            self.requests.append(request)
        self.requests.sort(key=lambda request: request.due)

    def _pinned_builder(self, request: Request, keys: list[int]):
        def build() -> bytes:
            epoch = max(self.start_epoch, self.latest_epoch - PIN_LAG)
            request.info["epoch"] = epoch
            return query_frame(request.request_id, QUERY_KEYS, keys=keys, epoch=epoch)
        return build

    def on_reply(self, request: Request) -> None:
        reply = request.reply
        if reply.status != STATUS_OK:
            return
        self.latest_epoch = max(self.latest_epoch, reply.epoch_id)
        if request.kind == "stats":
            self.freshness.stats_reply(request.received, reply.epoch_id,
                                       reply.stats["epoch_items"])
        else:
            self.freshness.reply(request.received, reply.epoch_id)


def _launch_preloaded(ctx, preload_frames, check_keys, expected, traced=False):
    """Launch, preload, flush; time launch to the first correct answer."""
    server = ctx.launch(serve_args(ALGORITHM, MEMORY_BYTES), traced=traced)
    conn = BlockingConnection(server.connect())
    windows, replies = stream_writes(
        conn, preload_frames, lambda: [conn.request(QUERY_KEYS, keys=[0])]
    )
    flush = conn.round_trip(QUERY_FLUSH)
    reply = conn.round_trip(QUERY_KEYS, keys=check_keys)
    seconds = time.perf_counter() - server.launched
    ctx.tally.ok(windows[-1][1])
    for other in [reply for answers in replies for _, reply in answers] + [flush]:
        ctx.tally.check(other.status == STATUS_OK, "rejected request")
    ctx.tally.check(
        reply.status == STATUS_OK and reply.epoch_id == flush.epoch_id
        and np.array_equal(reply.estimates, expected),
        "first answer differs from the reference",
    )
    return server, conn, seconds, flush.epoch_id


def _open_loop(ctx, server, conn, inputs, seconds, start_epoch):
    """One timed window; returns the schedule with its replies, and timings."""
    run = _Run(inputs, seconds, start_epoch)
    reader = server.connect()
    loop = OpenLoop([conn.sock, reader], on_reply=run.on_reply)
    start = run.start = time.perf_counter() + 0.05
    writes = [request for request in run.requests if request.kind == "write"]
    for index, request in enumerate(writes):
        run.freshness.write(start + request.due, PRELOAD_ITEMS + (index + 1) * WRITE_BATCH)
    missing = loop.run(run.requests, start)
    end = time.perf_counter()
    # Close out freshness: the flush covers every write sent before it.
    conn.next_request_id = STATS_FIRST_ID + len(run.requests)
    ctx.tally.check(conn.round_trip(QUERY_FLUSH).status == STATUS_OK, "rejected request")
    run.absorbed_s = time.perf_counter() - (start + 0.5 / WRITE_RATE)
    stats = conn.round_trip(QUERY_STATS)
    run.freshness.stats_reply(time.perf_counter(), stats.epoch_id, stats.stats["epoch_items"])
    reader.close()
    if missing:
        ctx.tally.fail("no reply", missing)
    return run, loop, start, end


def _gate(ctx, run: _Run, reference, start_epoch: int) -> None:
    """Every answer equals the reference replayed to the epoch that gave it."""
    by_epoch = defaultdict(list)
    for request in run.requests:
        if request.kind == "write":
            ctx.tally.ok()
            continue
        reply = request.reply
        if reply is None:
            continue
        if reply.status == STATUS_BUSY:
            ctx.tally.fail("busy")
        elif reply.status != STATUS_OK:
            ctx.tally.fail(f"status {reply.status}")
        elif request.kind == "stats":
            ctx.tally.ok()
        elif request.kind == "pinned" and reply.epoch_id != request.info["epoch"]:
            ctx.tally.fail("pinned read answered by another epoch")
        else:
            by_epoch[reply.epoch_id].append(request)
    epoch, items, last_publish = start_epoch, PRELOAD_ITEMS, PRELOAD_ITEMS
    predicted = {epoch: items}

    def answer(epoch_id: int) -> None:
        for request in by_epoch.pop(epoch_id, ()):
            ctx.tally.check(
                np.array_equal(request.reply.estimates,
                               reference.query_batch(run.read_keys[request.info["keys"]])),
                f"{request.kind} answer differs from the reference",
            )

    answer(epoch)
    for batch in run.write_batches:
        reference.insert_batch(batch)
        items += len(batch)
        if items - last_publish >= PUBLISH_EVERY:
            epoch, last_publish = epoch + 1, items
            predicted[epoch] = items
            answer(epoch)
    for requests in by_epoch.values():
        ctx.tally.fail("answer from an unexpected epoch", len(requests))
    for epoch_id, reported in run.freshness.epoch_items.items():
        if epoch_id in predicted:
            ctx.tally.check(predicted[epoch_id] == reported, "epoch item count")


def run(ctx) -> dict:
    inputs = Inputs(ctx.seed)
    check_keys = inputs.check_keys()
    preload = batches(inputs.keys(PRELOAD_ITEMS))
    preload_frames = [encode_frame(MSG_BATCH, encode_batch(batch)) for batch in preload]
    reference = build_reference()
    for batch in preload:
        reference.insert_batch(batch)
    expected = reference.query_batch(check_keys)
    metrics: dict = {}

    # More set-up launches follow the window, so the median spans the run.
    server, conn, setup_seconds, start_epoch = _launch_preloaded(
        ctx, preload_frames, check_keys, expected
    )
    setup_times = [setup_seconds]
    spawn_to_listen = server.listening - server.launched

    window_inputs = Inputs(ctx.seed + 1_000_003)
    window_seconds = ctx.seconds / 2 if ctx.trace else ctx.seconds
    if ctx.trace:
        untraced, _, _, _ = _open_loop(
            ctx, server, conn, window_inputs, window_seconds, start_epoch
        )
        untraced_p50 = sliced_quantile(_latencies(untraced), 0.5)
        conn.close()
        server.kill()
        server, conn, _, start_epoch = _launch_preloaded(
            ctx, preload_frames, check_keys, expected, traced=True
        )
        before = conn.round_trip(QUERY_STATS).stats
        window_inputs = Inputs(ctx.seed + 1_000_003)
    run_, loop, start, end = _open_loop(
        ctx, server, conn, window_inputs, window_seconds, start_epoch
    )
    metrics["peak_rss_mb"] = server.peak_rss_mb()
    if ctx.trace:
        after = conn.round_trip(QUERY_STATS).stats
        server.dump_trace()
    conn.close()
    server.kill()

    for _ in range(0 if ctx.trace else LAUNCHES - 1):
        again, again_conn, setup_seconds, _ = _launch_preloaded(
            ctx, preload_frames, check_keys, expected
        )
        setup_times.append(setup_seconds)
        again_conn.close()
        again.kill()

    _gate(ctx, run_, reference, start_epoch)
    latencies = _latencies(run_)
    delays, uncovered = run_.freshness.delays()
    if uncovered:
        ctx.tally.fail("write never visible", uncovered, attempted=False)
    if run_.freshness.conflicts:
        ctx.tally.fail("epoch item count changed", run_.freshness.conflicts)
    metrics["setup_s"] = statistics.median(setup_times)
    metrics["ingest_items_per_s"] = len(run_.write_batches) * WRITE_BATCH / run_.absorbed_s
    metrics["read_p50_ms"] = sliced_quantile(latencies, 0.5) * 1e3
    metrics["read_p99_ms"] = sliced_quantile(latencies, 0.99) * 1e3
    metrics["freshness_p50_ms"] = sliced_quantile(delays, 0.5) * 1e3
    metrics["freshness_p99_ms"] = sliced_quantile(delays, 0.99) * 1e3
    busy = sum(1 for r in run_.requests if r.reply is not None and r.reply.status == STATUS_BUSY)
    ctx.report.update(
        read_samples=len(latencies),
        pinned_reads=sum(1 for r in run_.requests if r.kind == "pinned"),
        freshness_samples=len(delays),
        write_items_per_s=WRITE_RATE * WRITE_BATCH,
        read_rate_per_s=READ_RATE,
        setup_s_samples=setup_times,
        busy_replies=busy,
        lateness_p50_ms=quantile(loop.lateness, 0.5) * 1e3,
        lateness_p99_ms=quantile(loop.lateness, 0.99) * 1e3,
        epochs_published=max(run_.freshness.epoch_items) - start_epoch,
    )
    if not ctx.trace:
        return metrics
    reads = [
        (r.request_id, start + r.due, r.received, READ_KEYS)
        for r in run_.requests
        if r.kind in ("read", "pinned") and r.reply is not None and r.reply.status == STATUS_OK
    ]
    per_layer = layers.read_metrics(load_spans(server.trace_out), start, end, reads)
    per_layer["setup.spawn_to_listen_s"] = spawn_to_listen
    per_layer["ring.evictions"] = after["temporal"]["evictions"] - before["temporal"]["evictions"]
    per_layer["loadgen.busy_replies"] = busy
    per_layer["loadgen.lateness_p99_ms"] = quantile(loop.lateness, 0.99) * 1e3
    per_layer["trace.overhead_share"] = metrics["read_p50_ms"] / (untraced_p50 * 1e3) - 1.0
    return per_layer


def _latencies(run: _Run) -> list[tuple[float, float]]:
    """``(due, seconds from the scheduled send to the reply)`` per read."""
    return [
        (r.due, r.received - (run.start + r.due))
        for r in run.requests
        if r.kind in ("read", "pinned") and r.reply is not None and r.reply.status == STATUS_OK
    ]
