"""``ingest``: sustained durable writes, then a crash and a warm restart.

One connection streams 256-item Zipf write batches into
``serve --async --store DIR --algorithm Ours`` as fast as the server absorbs
them.  The durable write path does almost all the work: wire decode, key
directory, WAL append and fsync, kernel insert, epoch publish (replicate)
and snapshot.  After a round-trip barrier the server is killed with
SIGKILL and no flush, so a journal tail remains, and relaunched on (copies
of) the same store.
"""

from __future__ import annotations

import itertools
import os
import shutil
import statistics
import time
from dataclasses import dataclass

import numpy as np

from common import (
    ALGORITHM, LAUNCHES, MEMORY_BYTES, PUBLISH_EVERY, READ_KEYS, TOLERANCE, UNIVERSE,
    WRITE_BATCH, Freshness, Inputs, batches, build_reference, sliced_quantile,
)
import layers
from loadgen import BlockingConnection, stream_writes
from repro.distributed.wire import (
    MSG_BATCH, QUERY_FLUSH, QUERY_KEYS, QUERY_STATS, STATUS_OK, encode_batch, encode_frame,
)
from repro.metrics.accuracy import count_outliers
from sut import serve_args
from tracing import load_spans

#: Frames are encoded up front for this rate; a faster server runs out of
#: frames and ends its window early, which still measures its rate.
MAX_ITEMS_PER_S = 100_000
#: Write batches per window: one epoch, so every window publishes once.
WINDOW = PUBLISH_EVERY // WRITE_BATCH
#: The journal tail left behind by the crash: fewer items than one epoch.
TAIL_BATCHES = 16
#: Write batches per unit: each unit ends with a 64-key read.
UNIT = 4
#: Keys per all-key verification query.
VERIFY_CHUNK = 4096


def _launch_and_answer(ctx, store, check_keys, expected, traced=False):
    """Launch a server on ``store``; time launch to the first correct answer."""
    server = ctx.launch(serve_args(ALGORITHM, MEMORY_BYTES, store), traced=traced)
    conn = BlockingConnection(server.connect())
    reply = conn.round_trip(QUERY_KEYS, keys=check_keys)
    seconds = time.perf_counter() - server.launched
    ctx.tally.check(
        reply.status == STATUS_OK and np.array_equal(reply.estimates, expected),
        "first answer differs from the reference",
    )
    return server, conn, seconds


def _stream(ctx, conn, frames, read_batches, seconds):
    """The timed window: first batch sent to the flush reply.

    Writes go out in windows of one epoch, each sent in one piece.  Every
    ``UNIT`` batches a 64-key read follows, and every window ends with a
    STATS request.  A read is timed from its window's send: it waits
    behind the writes queued ahead of it.  The server answers in order and
    stays busy (two windows are outstanding), so the reply that ends one
    unit is when the server began the next.  A batch is visible once a
    reply's epoch covers it (epoch item counts come from the STATS
    replies); its delay runs from when the server began its unit.
    """
    next_read = itertools.count()

    def probe():
        return [conn.request(QUERY_KEYS, keys=read_batches[next(next_read)])]

    def barrier():
        return [conn.request(QUERY_STATS)]

    opening = conn.round_trip(QUERY_STATS)
    start = time.perf_counter()
    windows, replies = stream_writes(
        conn, frames, barrier, WINDOW, until=start + seconds, unit=UNIT, probe=probe
    )
    flush = conn.round_trip(QUERY_FLUSH)
    end = time.perf_counter()
    closing = conn.round_trip(QUERY_STATS)
    sent = windows[-1][1]
    ctx.tally.ok(sent)
    ctx.tally.check(flush.status == STATUS_OK, "rejected request")

    freshness = Freshness()
    freshness.stats_reply(start, opening.epoch_id, opening.stats["epoch_items"])
    answered, latencies = [], []
    begun = start
    for (sent_at, through), answers in zip(windows, replies):
        *reads, (stats_at, stats) = answers
        if ctx.tally.check(stats.status == STATUS_OK, "rejected request"):
            freshness.stats_reply(stats_at, stats.epoch_id, stats.stats["epoch_items"])
        # Unit ends: each read's reply, and STATS for the window's last unit.
        ends = [received for received, _ in reads[:-1]] + [stats_at]
        for index, (read_at, read) in enumerate(reads):
            unit_began = begun if index == 0 else ends[index - 1]
            first = len(answered) * UNIT
            for batch in range(first, min(through, first + UNIT)):
                freshness.write(unit_began, (batch + 1) * WRITE_BATCH)
            if ctx.tally.check(read.status == STATUS_OK, "rejected read"):
                freshness.reply(read_at, read.epoch_id)
                latencies.append((read_at, read_at - sent_at))
            answered.append(read)
        begun = stats_at
    freshness.stats_reply(time.perf_counter(), closing.epoch_id, closing.stats["epoch_items"])
    delays, uncovered = freshness.delays()
    if uncovered:
        ctx.tally.fail("write never visible", uncovered, attempted=False)
    if freshness.conflicts:
        ctx.tally.fail("epoch item count changed", freshness.conflicts)
    return Window(sent, start, end, delays, latencies, answered, freshness.epoch_items)


@dataclass
class Window:
    """What one timed window sent and measured."""

    sent: int
    start: float
    end: float
    delays: list
    latencies: list
    reads: list
    epoch_items: dict


def _verify_all(ctx, conn, keys, reference, what):
    """Every distinct key's served answer must equal the reference's."""
    served = {}
    for start in range(0, len(keys), VERIFY_CHUNK):
        chunk = keys[start : start + VERIFY_CHUNK]
        reply = conn.round_trip(QUERY_KEYS, keys=chunk)
        good = reply.status == STATUS_OK and np.array_equal(
            reply.estimates, reference.query_batch(chunk)
        )
        ctx.tally.check(good, f"{what} answer differs from the reference")
        if reply.status == STATUS_OK:
            served.update(zip(chunk, reply.estimates.tolist()))
    return served


def run(ctx) -> dict:
    inputs = Inputs(ctx.seed)
    check_keys = inputs.check_keys()
    window_seconds = ctx.seconds / 2 if ctx.trace else ctx.seconds
    run_batches = batches(inputs.keys(int(MAX_ITEMS_PER_S * window_seconds)))
    tail_batches = batches(inputs.keys(TAIL_BATCHES * WRITE_BATCH))
    read_count = len(run_batches) // UNIT + 1
    read_batches = inputs.keys(read_count * READ_KEYS).reshape(read_count, READ_KEYS).tolist()
    frames = [encode_frame(MSG_BATCH, encode_batch(batch)) for batch in run_batches]
    tail_frames = [encode_frame(MSG_BATCH, encode_batch(batch)) for batch in tail_batches]
    zeros = np.zeros(len(check_keys), dtype=np.int64)
    metrics: dict = {}

    # Set-up: launch on an empty store to the first (all-zero) answer.
    # More set-up launches alternate with the restarts at the end.
    store = ctx.scratch / "store"
    server, conn, seconds = _launch_and_answer(ctx, store, check_keys, zeros)
    setup_times = [seconds]
    spawn_to_listen = server.listening - server.launched

    # Write back what set-up left dirty, so its disk traffic does not land
    # inside the timed window (and again before the restarts).
    os.sync()
    if ctx.trace:
        # Untraced half first, on its own store: the base of the overhead.
        untraced = _stream(ctx, conn, frames, read_batches, window_seconds)
        untraced_rate = untraced.sent * WRITE_BATCH / (untraced.end - untraced.start)
        conn.close()
        server.kill()
        store = ctx.scratch / "store-traced"
        server, conn, _ = _launch_and_answer(ctx, store, check_keys, zeros, traced=True)
        before = conn.round_trip(QUERY_STATS).stats

    window = _stream(ctx, conn, frames, read_batches, window_seconds)
    sent, start, end = window.sent, window.start, window.end
    items = sent * WRITE_BATCH
    metrics["ingest_items_per_s"] = items / (end - start)
    metrics["read_p50_ms"] = sliced_quantile(window.latencies, 0.5) * 1e3
    metrics["read_p99_ms"] = sliced_quantile(window.latencies, 0.99) * 1e3
    metrics["freshness_p50_ms"] = sliced_quantile(window.delays, 0.5) * 1e3
    metrics["freshness_p99_ms"] = sliced_quantile(window.delays, 0.99) * 1e3

    # Gate: every read equals the reference replayed to the epoch that
    # answered it, then remote == local on every key written.
    reference = build_reference()
    by_items: dict[int, list[int]] = {}
    for index, read in enumerate(window.reads):
        items_then = window.epoch_items.get(read.epoch_id)
        if items_then is None:
            ctx.tally.fail("read from an epoch no STATS reply described")
        else:
            by_items.setdefault(items_then, []).append(index)

    def check_reads(items_so_far: int) -> None:
        for index in by_items.pop(items_so_far, ()):
            ctx.tally.check(
                np.array_equal(window.reads[index].estimates,
                               reference.query_batch(read_batches[index])),
                "read differs from the reference at its epoch",
            )

    check_reads(0)
    for count, batch in enumerate(run_batches[:sent], start=1):
        reference.insert_batch(batch)
        check_reads(count * WRITE_BATCH)
    for indices in by_items.values():
        ctx.tally.fail("read from an epoch past the writes", len(indices))
    written = np.concatenate([np.asarray(batch) for batch in run_batches[:sent]])
    _verify_all(ctx, conn, np.unique(written).tolist(), reference, "served")
    if ctx.trace:
        after = conn.round_trip(QUERY_STATS).stats
    conn.send(b"".join(tail_frames))
    ctx.tally.ok(len(tail_frames))
    ctx.tally.check(conn.round_trip(QUERY_KEYS, keys=[0]).status == STATUS_OK, "rejected request")
    for batch in tail_batches:
        reference.insert_batch(batch)
    metrics["peak_rss_mb"] = server.peak_rss_mb()
    if ctx.trace:
        server.dump_trace()
        ingest_spans = server.trace_out
    conn.close()
    server.kill()

    # Restart: relaunch on copies of the killed server's store.  Launch
    # times drift over seconds on a shared machine, so set-up and restart
    # launches alternate and each median spans the same stretch of time.
    expected = reference.query_batch(check_keys)
    restart_times = []
    copies = [ctx.scratch / f"store-restart-{launch}"
              for launch in range(1 if ctx.trace else LAUNCHES)]
    for copy in copies:
        shutil.copytree(store, copy)
    os.sync()
    for launch, copy in enumerate(copies):
        if not ctx.trace:
            server, conn, seconds = _launch_and_answer(
                ctx, ctx.scratch / f"store-setup-{launch}", check_keys, zeros
            )
            setup_times.append(seconds)
            conn.close()
            server.kill()
        server, conn, seconds = _launch_and_answer(
            ctx, copy, check_keys, expected, traced=ctx.trace
        )
        restart_times.append(seconds)
        if launch < len(copies) - 1:
            conn.close()
            server.kill()
    metrics["setup_s"] = statistics.median(setup_times)

    # Gate: restart == replay on every key, and the paper's all-key bound.
    everything = np.concatenate([written] + [np.asarray(batch) for batch in tail_batches])
    distinct = np.unique(everything).tolist()
    served = _verify_all(ctx, conn, distinct, reference, "restarted")
    exact = np.bincount(everything, minlength=UNIVERSE)
    truth = {key: int(exact[key]) for key in distinct}
    outliers = count_outliers(truth, lambda key: served.get(key, -1), TOLERANCE, distinct)
    ctx.tally.check(outliers == 0, "keys beyond the error tolerance")
    if ctx.trace:
        server.dump_trace()
        restart_spans = server.trace_out
    conn.close()
    server.kill()

    ctx.report.update(
        items_written=items,
        window_s=end - start,
        tail_items=TAIL_BATCHES * WRITE_BATCH,
        distinct_keys=len(distinct),
        read_samples=len(window.latencies),
        freshness_samples=len(window.delays),
        outliers_beyond_tolerance=outliers,
        tolerance=TOLERANCE,
        setup_s_samples=setup_times,
        restart_s=statistics.median(restart_times),
        restart_s_samples=restart_times,
        epoch_items=PUBLISH_EVERY,
    )
    if not ctx.trace:
        return metrics
    per_layer = layers.server_metrics(load_spans(ingest_spans), start, end, items)
    per_layer.update(layers.restart_metrics(load_spans(restart_spans)))
    per_layer["setup.spawn_to_listen_s"] = spawn_to_listen
    per_layer["ring.evictions"] = (
        after["temporal"]["evictions"] - before["temporal"]["evictions"]
    )
    per_layer["store.snapshot_bytes"] = layers.snapshot_bytes(store)
    per_layer["trace.overhead_share"] = 1.0 - metrics["ingest_items_per_s"] / untraced_rate
    return per_layer
