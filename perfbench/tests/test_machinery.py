"""Tests of the benchmark's own machinery (not of the program it measures).

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import math
import re
import socket
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
from common import Freshness, sliced_quantile  # noqa: E402
from loadgen import OpenLoop, Request, stream_writes  # noqa: E402
from tracing import Tracer, _query_request, coverage, self_times  # noqa: E402


def span(name, start, end, parent=-1):
    return [name, start, end, parent, 0, None]


# ------------------------------------------------------------ span arithmetic


def test_self_time_subtracts_children():
    spans = [
        span("outer", 0.0, 10.0),
        span("child", 1.0, 3.0, parent=0),
        span("child", 5.0, 6.0, parent=0),
        span("grandchild", 1.5, 2.0, parent=1),
    ]
    assert self_times(spans) == pytest.approx([7.0, 1.5, 1.0, 0.5])


def test_self_time_counts_overlapping_children_once():
    # Children of one span may overlap (e.g. clipped to a window); the
    # covered part is their union, not their sum.
    spans = [span("outer", 0.0, 10.0), span("a", 2.0, 6.0, 0), span("b", 4.0, 8.0, 0)]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_self_time_ignores_unfinished_spans():
    spans = [span("outer", 0.0, 4.0), None, span("child", 1.0, 2.0, parent=0)]
    assert self_times(spans) == pytest.approx([3.0, 0.0, 1.0])


def test_coverage_is_the_union_of_top_level_spans_in_the_window():
    spans = [
        span("a", 0.0, 4.0),
        span("nested", 1.0, 2.0, parent=0),
        span("b", 3.0, 5.0),
        span("c", 9.0, 12.0),
    ]
    assert coverage(spans, 0.0, 10.0) == pytest.approx(0.6)


def test_tracer_records_parent_links_and_counts():
    class Layer:
        def outer(self, keys):
            return self.inner(keys)

        def inner(self, keys):
            return len(keys)

    tracer = Tracer()
    tracer.wrap(Layer, "outer", "outer", count=lambda args, result: len(args[1]))
    tracer.wrap(Layer, "inner", "inner")
    assert Layer().outer([1, 2, 3]) == 3
    inner, outer = tracer.spans[1], tracer.spans[0]
    assert outer[0] == "outer" and outer[3] == -1 and outer[4] == 3
    assert inner[0] == "inner" and inner[3] == 0
    assert outer[1] <= inner[1] <= inner[2] <= outer[2]


def test_query_header_matches_the_wire_encoding():
    from repro.distributed.wire import QUERY_KEYS, encode_query_request

    payload = encode_query_request(1234, QUERY_KEYS, keys=[1, 2, 3], epoch=7)
    assert _query_request((None, payload)) == [1234, QUERY_KEYS]


# -------------------------------------------------------- scheduler lateness


def _sink() -> tuple[socket.socket, threading.Thread]:
    ours, theirs = socket.socketpair()

    def drain():
        while theirs.recv(65536):
            pass
        theirs.close()

    thread = threading.Thread(target=drain, daemon=True)
    thread.start()
    return ours, thread


def test_lateness_is_measured_from_the_schedule():
    sock, thread = _sink()
    try:
        requests = [Request(due, 0, "write", frame=b"x", expects_reply=False)
                    for due in (0.0, 0.01, 0.02)]
        loop = OpenLoop([sock])
        # The schedule started 50 ms ago: every send is at least that late.
        start = time.perf_counter() - 0.05
        assert loop.run(requests, start) == 0
        assert len(loop.lateness) == 3
        for request, late in zip(requests, loop.lateness):
            assert late == pytest.approx(request.sent - (start + request.due))
            assert late >= 0.05 - request.due - 1e-9
    finally:
        sock.close()
        thread.join(timeout=5)
        assert not thread.is_alive()


def test_on_time_requests_wait_for_their_due_time():
    sock, thread = _sink()
    try:
        requests = [Request(0.03, 0, "write", frame=b"x", expects_reply=False)]
        loop = OpenLoop([sock])
        start = time.perf_counter()
        loop.run(requests, start)
        assert requests[0].sent >= start + 0.03
        assert loop.lateness[0] >= 0.0
    finally:
        sock.close()
        thread.join(timeout=5)


def test_open_loop_refuses_more_than_two_connections():
    with pytest.raises(ValueError):
        OpenLoop([None, None, None])


class _ScriptedConnection:
    """Records what is sent; answers each reply wait with the next number."""

    def __init__(self) -> None:
        self.sends: list[bytes] = []
        self.replies = 0

    def send(self, data: bytes) -> None:
        self.sends.append(data)

    def recv_reply(self):
        self.replies += 1
        return self.replies


def test_stream_writes_puts_probes_inside_each_window():
    conn = _ScriptedConnection()
    frames = [bytes([ord("a") + index]) for index in range(7)]
    windows, replies = stream_writes(conn, frames, lambda: [b"S"], window=4,
                                     unit=2, probe=lambda: [b"P"])
    # A probe after every 2 frames (and after a short last unit), then the
    # window's barrier; the last window holds the 3 frames left.
    assert conn.sends == [b"abPcdPS", b"efPgPS"]
    assert [through for _, through in windows] == [4, 7]
    assert [[reply for _, reply in answers] for answers in replies] == [[1, 2, 3], [4, 5, 6]]


# ------------------------------------------------------ freshness bookkeeping


def test_freshness_waits_for_an_epoch_that_covers_the_write():
    fresh = Freshness()
    fresh.write(1.0, 100)
    fresh.write(2.0, 200)
    fresh.stats_reply(1.5, epoch_id=3, epoch_items=50)   # covers neither
    fresh.reply(2.5, epoch_id=4)                          # items unknown yet
    fresh.stats_reply(3.0, epoch_id=4, epoch_items=150)  # covers the first
    fresh.stats_reply(4.0, epoch_id=5, epoch_items=200)  # covers both
    delays, uncovered = fresh.delays()
    assert uncovered == 0
    # Epoch 4's count, learned later, applies to the earlier reply too.
    assert delays == [(1.0, pytest.approx(1.5)), (2.0, pytest.approx(2.0))]


def test_freshness_credits_an_unreported_epoch_with_its_predecessor():
    fresh = Freshness()
    fresh.write(0.0, 10)
    fresh.stats_reply(1.0, epoch_id=1, epoch_items=10)
    fresh.reply(0.5, epoch_id=2)  # epoch 2 is never reported: credited 10 items
    delays, _ = fresh.delays()
    # The unreported epoch 2 reply came first but is credited only with
    # epoch 1's count, which does cover the write.
    assert delays == [(0.0, pytest.approx(0.5))]


def test_freshness_counts_writes_never_covered():
    fresh = Freshness()
    fresh.write(0.0, 10)
    fresh.write(0.1, 20)
    fresh.stats_reply(1.0, epoch_id=1, epoch_items=10)
    delays, uncovered = fresh.delays()
    assert len(delays) == 1 and uncovered == 1


def test_freshness_counts_contradicting_epoch_counts():
    fresh = Freshness()
    fresh.stats_reply(1.0, epoch_id=1, epoch_items=10)
    fresh.stats_reply(2.0, epoch_id=1, epoch_items=10)
    assert fresh.conflicts == 0
    fresh.stats_reply(3.0, epoch_id=1, epoch_items=11)
    assert fresh.conflicts == 1 and fresh.epoch_items[1] == 10


def test_sliced_quantile_is_the_median_over_slices():
    # Two of eight slices ran 2x slower under outside load and one more
    # holds a single stall: the figure follows the undisturbed majority.
    samples = [(float(t), 2.0 if t < 20 else 1.0) for t in range(80)]
    samples[75] = (75.0, 100.0)
    assert sliced_quantile(samples, 0.5, slices=8) == pytest.approx(1.0)
    assert sliced_quantile(samples, 1.0, slices=8) == pytest.approx(1.0)
    # Samples are cut in time order, whatever order they come in.
    assert sliced_quantile(list(reversed(samples)), 0.5, slices=8) == pytest.approx(1.0)
    assert math.isnan(sliced_quantile([], 0.5))


# --------------------------------------------------------------- metric names

# The benchmark contract: a name starts with a letter or digit and has at
# most 64 letters, digits, ``_``, ``.`` and ``-``.
_METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def valid_metric_name(name: str) -> bool:
    return bool(_METRIC_NAME.fullmatch(name))



@pytest.mark.parametrize("name", ["setup_s", "read_p99_ms", "store.fsyncs", "a-b.c_1", "9x"])
def test_valid_metric_names(name):
    assert valid_metric_name(name)


@pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "a/b", "é", "x" * 65])
def test_invalid_metric_names(name):
    assert not valid_metric_name(name)


def test_every_declared_metric_is_valid_and_listed():
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    end_to_end = {metric["name"]: metric["unit"] for metric in declared["end_to_end"]}
    per_layer = {metric["name"]: metric["unit"] for metric in declared["per_layer"]}
    assert end_to_end == run.END_TO_END
    assert per_layer == run.PER_LAYER
    assert {workload["name"] for workload in declared["workloads"]} == set(run.WORKLOADS)
    for name in [*end_to_end, *per_layer, *run.WORKLOADS]:
        assert valid_metric_name(name), name
