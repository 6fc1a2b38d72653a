"""``fleet_ingest``: a batch job over the distributed layer.

``run_distributed_ingest`` (the path ``repro-cli ingest-collect`` takes)
with CM_fast and two worker processes over the ``pipe`` transport, fed a
stream this benchmark generates.  Wire encode, routing, transport and the
collect-and-merge dominate here; serve, temporal and store are bypassed.
Only the function and its result's ``merged``, ``total_items`` and
``bytes_sent`` are used, so a rework of the ingest internals keeps this
workload meaningful.
"""

from __future__ import annotations

import itertools
import os
import resource
import statistics
import time

import numpy as np

from common import (
    LAUNCHES, MEMORY_BYTES, READ_KEYS, Inputs, build_reference, sliced_quantile,
)
import layers
import tracing
from tracing import load_spans
from repro.distributed.ingest import run_distributed_ingest

ALGORITHM = "CM_fast"
WORKERS = 2
TRANSPORT = "pipe"
#: Items per routed chunk: the small-batch regime where per-batch cost shows.
CHUNK = 256
#: Items per job; every job ingests the same stream.
STREAM_ITEMS = 1 << 17
#: Closed-loop point reads of each job's merged result.
READS_PER_JOB = 125
READS = 2000


def _ingest(items):
    return run_distributed_ingest(
        ALGORITHM, MEMORY_BYTES, items, workers=WORKERS, transport=TRANSPORT, chunk_size=CHUNK,
    )


def _same_state(sketch, reference) -> bool:
    state, expected = sketch.state_snapshot(), reference.state_snapshot()
    return state.keys() == expected.keys() and all(
        np.array_equal(state[name], expected[name]) for name in expected
    )


def _launches(ctx, empty, count: int) -> list[float]:
    """Launch an empty job ``count`` times: fleet start to a correct result."""
    times = []
    for _ in range(count):
        started = time.perf_counter()
        result = _ingest([])
        times.append(time.perf_counter() - started)
        ctx.tally.check(
            result.total_items == 0 and _same_state(result.merged, empty),
            "empty fleet result differs from an empty sketch",
        )
    return times


def _jobs(ctx, keys: list[int], reference, seconds: float, empty=None, read_batches=()):
    """Run jobs until ``seconds`` have passed; each checked bit for bit.

    Returns per job ``(launch, first item, end, items, bytes sent)``, per
    chunk the time from feeding it to the merged result, and ``(time,
    latency)`` of the point reads of each job's result.  With ``empty``,
    an empty job is launched after each job and its launch times returned.
    """
    calls, delays, latencies, relaunches = [], [], [], []
    began = time.perf_counter()
    while not calls or time.perf_counter() - began < seconds:
        fed: list[float] = []

        def stream():
            for start in range(0, len(keys), CHUNK):
                fed.append(time.perf_counter())
                yield from zip(keys[start : start + CHUNK], itertools.repeat(1))

        launch = time.perf_counter()
        result = _ingest(stream())
        end = time.perf_counter()
        calls.append((launch, fed[0], end, result.total_items, result.bytes_sent))
        delays.extend((at, end - at) for at in fed)
        ctx.tally.check(
            result.total_items == len(keys) and result.merged is not None
            and _same_state(result.merged, reference),
            "merged fleet result differs from single-node ingest",
        )
        # Reading the job's answer: the merged sketch, in the caller's
        # process.  A busy neighbour can slow one CPU for a whole run, so
        # the reads after each job move to the next CPU in turn.
        if read_batches:
            cpus = sorted(os.sched_getaffinity(0))
            os.sched_setaffinity(0, {cpus[len(calls) % len(cpus)]})
            try:
                for index in range(READS_PER_JOB):
                    batch = read_batches[(len(calls) * READS_PER_JOB + index) % len(read_batches)]
                    sent_at = time.perf_counter()
                    estimates = result.merged.query_batch(batch)
                    latencies.append((sent_at, time.perf_counter() - sent_at))
                    ctx.tally.check(
                        np.array_equal(estimates, reference.query_batch(batch)),
                        "merged result read differs from single-node ingest",
                    )
            finally:
                os.sched_setaffinity(0, cpus)
        if empty is not None:
            relaunches.extend(_launches(ctx, empty, 1))
    return calls, delays, latencies, relaunches


def _rate(calls) -> float:
    """Items per second, first item to merged result, of the median job."""
    return statistics.median(items / (end - first) for _, first, end, items, _ in calls)


def run(ctx) -> dict:
    inputs = Inputs(ctx.seed)
    keys = inputs.keys(STREAM_ITEMS).tolist()
    read_batches = inputs.keys(READS * READ_KEYS).reshape(READS, READ_KEYS).tolist()
    reference = build_reference(ALGORITHM)
    empty = build_reference(ALGORITHM)
    started = time.perf_counter()
    for start in range(0, len(keys), CHUNK):
        reference.insert_batch(keys[start : start + CHUNK])
    single_node_rate = len(keys) / (time.perf_counter() - started)
    launches = 1 if ctx.trace else LAUNCHES

    setup_times = _launches(ctx, empty, launches)
    seconds = ctx.seconds / 2 if ctx.trace else ctx.seconds
    # More set-up launches follow every job, so the median spans the run.
    calls, delays, latencies, relaunches = _jobs(
        ctx, keys, reference, seconds, empty, read_batches
    )
    setup_times += relaunches
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ingest_items_per_s": _rate(calls),
        "read_p50_ms": sliced_quantile(latencies, 0.5) * 1e3,
        "read_p99_ms": sliced_quantile(latencies, 0.99) * 1e3,
        "freshness_p50_ms": sliced_quantile(delays, 0.5) * 1e3,
        "freshness_p99_ms": sliced_quantile(delays, 0.99) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }
    ctx.report.update(
        jobs=len(calls),
        items_per_job=len(keys),
        setup_s_samples=setup_times,
        read_samples=len(latencies),
        freshness_samples=len(delays),
        single_node_items_per_s=single_node_rate,
    )
    if not ctx.trace:
        return metrics

    spans_dir = ctx.scratch / "fleet-spans"
    spans_dir.mkdir()
    tracer = tracing.Tracer()
    tracing.install_fleet_wrappers(tracer, str(spans_dir))
    traced, _, _, _ = _jobs(ctx, keys, reference, seconds)
    workers = [load_spans(path) for path in sorted(spans_dir.glob("worker-*.json"))]
    per_layer = layers.fleet_metrics(tracer.spans, workers, [call[:4] for call in traced])
    per_layer["fleet.bytes_sent_per_item"] = (
        sum(call[4] for call in traced) / sum(call[3] for call in traced)
    )
    per_layer["fleet.single_node_items_per_s"] = single_node_rate
    per_layer["trace.overhead_share"] = 1.0 - _rate(traced) / metrics["ingest_items_per_s"]
    return per_layer
