"""Per-layer metrics derived from recorded spans (the traced pass)."""

from __future__ import annotations

import os
import statistics
from pathlib import Path

import numpy as np

from common import WRITE_BATCH, quantile
from repro.distributed.wire import QUERY_KEYS
from tracing import (
    COUNT, END, NAME, REQUEST, START, ancestors, coverage, in_window, self_times,
)


def _named(spans: list, name: str) -> list[int]:
    return [i for i, span in enumerate(spans) if span is not None and span[NAME] == name]


def _durations(spans: list, name: str) -> list[float]:
    return [spans[i][END] - spans[i][START] for i in _named(spans, name)]


def _outermost(spans: list, indices: list[int]) -> list[int]:
    """Drop spans nested inside a span of the same name (no double counting)."""
    return [
        i for i in indices
        if not any(spans[a] is not None and spans[a][NAME] == spans[i][NAME]
                   for a in ancestors(spans, i))
    ]


def _total(spans: list, name: str, under: set[int] | None = None) -> float:
    """Time in ``name`` spans, optionally only those below ``under``."""
    total = 0.0
    for i in _outermost(spans, _named(spans, name)):
        if under is None or any(a in under for a in ancestors(spans, i)):
            total += spans[i][END] - spans[i][START]
    return total


def _items(spans: list, name: str) -> int:
    return sum(spans[i][COUNT] for i in _named(spans, name))


def _p50_ms(values: list[float]) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def publish_metrics(spans: list) -> dict:
    """Epoch publish: replication, sketch state copies and the ring."""
    replicate = _durations(spans, "snapshots.replicate")
    return {
        "snapshots.publishes": len(replicate),
        "snapshots.replicate_ms_p50": _p50_ms(replicate),
        "snapshots.replicate_ms_max": max(replicate) * 1e3 if replicate else 0.0,
        "sketch.state_snapshot_ms": _p50_ms(_durations(spans, "sketch.state_snapshot")),
        "sketch.state_restore_ms": _p50_ms(_durations(spans, "sketch.state_restore")),
        "ring.offer_us": _p50_ms(_durations(spans, "ring.offer")) * 1e3,
    }


def server_metrics(spans: list, start: float, end: float, items: int) -> dict:
    """The durable write path over the window ``[start, end]``."""
    window = in_window(spans, start, end)
    selfs = self_times(window)
    ingest_self = sum(selfs[i] for i in _named(window, "service.ingest"))
    per_item = 1e6 / items
    metrics = {
        "wire.decode_batch_us_per_item": _total(window, "wire.decode_batch") * per_item,
        "service.ingest_self_us_per_item": ingest_self * per_item,
        "store.append_batch_us": float(np.mean(_durations(window, "store.append_batch"))) * 1e6,
        "store.fsyncs": len(_named(window, "store.fsync")) / (items / WRITE_BATCH),
        "store.publish_epoch_ms_p50": _p50_ms(_durations(window, "store.publish_epoch")),
        "sketch.insert_batch_us_per_item": _total(window, "sketch.insert_batch") * per_item,
        "hashing.encode_us_per_key": _total(window, "hashing.encode") * per_item,
        "kernels.intern_us_per_key": _total(window, "kernels.intern") * per_item,
        "trace.span_coverage_share": coverage(window, start, end),
    }
    metrics.update(publish_metrics(window))
    return metrics


def restart_metrics(spans: list) -> dict:
    """Warm restart: building the service, of which restoring the store."""
    return {
        "service.build_ms": _p50_ms(_durations(spans, "service.build")),
        "store.restore_ms": _p50_ms(_durations(spans, "store.restore")),
    }


def snapshot_bytes(store: Path) -> int:
    """Size of the largest epoch snapshot file in ``store``."""
    sizes = [entry.stat().st_size for entry in os.scandir(store)
             if entry.name.startswith("epoch-") and entry.name.endswith(".snap")]
    return max(sizes) if sizes else 0


def read_metrics(spans: list, start: float, end: float, reads: list[tuple]) -> dict:
    """The read path; ``reads`` are client ``(request_id, due, received, keys)``."""
    window = in_window(spans, start, end)
    answers = {}
    for i in _named(window, "server.answer"):
        request_id, kind = window[i][REQUEST]
        if kind == QUERY_KEYS:
            answers[request_id] = i
    under = set(answers.values())
    keys_read = sum(keys for request_id, _, _, keys in reads if request_id in answers)
    publishes = sorted(
        (window[i][START], window[i][END]) for i in _named(window, "snapshots.replicate")
    )
    waits = []
    behind_publish = 0
    for request_id, due, received, _ in reads:
        index = answers.get(request_id)
        if index is None:
            continue
        answer_start, answer_end = window[index][START], window[index][END]
        waits.append((received - due) - (answer_end - answer_start))
        if any(p_start < answer_start and p_end > due for p_start, p_end in publishes):
            behind_publish += 1
    murmur_calls = sum(
        1 for i in _named(window, "hashing.murmur")
        if any(a in under for a in ancestors(window, i))
    )
    query_keys = _items(window, "sketch.query_batch")
    metrics = {
        "server.answer_ms_p50": _p50_ms([window[i][END] - window[i][START] for i in under]),
        "server.wait_ms_p50": quantile(waits, 0.5) * 1e3,
        "server.wait_ms_p99": quantile(waits, 0.99) * 1e3,
        "server.reads_behind_publish": behind_publish,
        "service.serve_batch_ms_p50": _p50_ms(_durations(window, "service.serve_batch")),
        "sketch.query_batch_us_per_key": (
            _total(window, "sketch.query_batch") / query_keys * 1e6 if query_keys else 0.0
        ),
        "hashing.murmur_calls_per_read": murmur_calls / len(answers) if answers else 0.0,
        "hashing.encode_us_per_key": (
            _total(window, "hashing.encode", under) / keys_read * 1e6 if keys_read else 0.0
        ),
        "trace.span_coverage_share": coverage(window, start, end),
    }
    metrics.update(publish_metrics(window))
    return metrics


def fleet_metrics(coordinator: list, workers: list[list], calls: list[tuple]) -> dict:
    """Distributed ingest; ``calls`` are ``(launch, start, end, items)`` per
    traced call: launched at ``launch``, first item at ``start``."""
    items = sum(call[3] for call in calls)
    wall = sum(end - start for _, start, end, _ in calls)
    spans = coordinator
    selfs = self_times(spans)
    send_batches = set(_named(spans, "coordinator.send_batch"))
    route = sum(selfs[i] for i in send_batches)
    busy, idle, inserted, insert_time, imbalance = [], [], [], 0.0, []
    for worker in workers:
        main = _durations(worker, "worker.main")[0]
        work = _total(worker, "wire.decode_batch") + _total(worker, "sketch.insert_batch")
        busy.append(work / main)
        idle.append(_total(worker, "transport.recv") / main)
        insert_time += _total(worker, "sketch.insert_batch")
        inserted.append((worker[_named(worker, "worker.main")[0]][START],
                         _items(worker, "sketch.insert_batch")))
    for launch, _, end, _ in calls:
        loads = [count for began, count in inserted if launch <= began <= end]
        if loads and sum(loads):
            imbalance.append(max(loads) / (sum(loads) / len(loads)))
    return {
        "coordinator.route_us_per_item": route / items * 1e6,
        "wire.encode_batch_us_per_item": _total(spans, "wire.encode_batch") / items * 1e6,
        "transport.send_blocked_share": _total(spans, "transport.send") / wall,
        "coordinator.credit_wait_share": _total(spans, "transport.recv", send_batches) / wall,
        "worker.busy_share": float(np.mean(busy)),
        "worker.idle_share": float(np.mean(idle)),
        "sketch.insert_batch_us_per_item": insert_time / items * 1e6,
        "fleet.load_imbalance": float(np.mean(imbalance)) if imbalance else 0.0,
        "fleet.collect_ms": _p50_ms(_durations(spans, "fleet.collect")),
        "fleet.merge_ms": _p50_ms(_durations(spans, "fleet.merge")),
        "trace.span_coverage_share": float(np.mean(
            [coverage(spans, start, end) for _, start, end, _ in calls]
        )),
    }
