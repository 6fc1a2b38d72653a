"""Temporal serving: pinned epochs, sliding windows, change alerts, EPOCH_GONE.

Service-level first (ring integration, bit-identical time travel, exact
window deltas, per-publish listeners), then end to end over the wire on
both front ends — the sequential session loop and the async event loop —
including the client's typed, non-retried rejection errors.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve.async_server import AsyncServingSession
from repro.serve.errors import EpochGoneError, QueryRejectedError, ServerBusyError
from repro.serve.server import ServeConfig, ServingSession
from repro.serve.service import SketchService
from repro.sketches.registry import build_sketch

MEMORY = 32 * 1024


def make_service(name="CM_fast", publish_every_items=100, **kwargs) -> SketchService:
    return SketchService(
        build_sketch(name, MEMORY, seed=0),
        publish_every_items=publish_every_items,
        **kwargs,
    )


def ingest_epochs(service, rounds, keys_per_round=50, per_key=2):
    """Drive ``rounds`` publishes of 100 items over a fixed key set."""
    for _ in range(rounds):
        service.ingest(np.tile(np.arange(keys_per_round, dtype=np.int64), per_key))


# ------------------------------------------------------------ ring integration
def test_every_publish_lands_in_the_ring():
    service = make_service(ring_epochs=4)
    ingest_epochs(service, 3)
    assert service.ring.epochs == (0, 1, 2, 3)
    ingest_epochs(service, 3)
    assert service.ring.epochs == (3, 4, 5, 6)
    assert service.ring.evictions == 3


def test_pinned_reads_bit_identical_after_later_publishes_and_evictions():
    service = make_service(ring_epochs=8)
    ingest_epochs(service, 2)
    pinned = service.ring.get(2)
    expected = pinned.query_batch(list(range(10))).copy()
    # Later publishes (and evictions of *other* epochs) must not disturb it.
    ingest_epochs(service, 6)
    assert 0 not in service.ring  # evicted
    estimates, answered = service.serve_batch(list(range(10)), epoch=2)
    assert answered == 2
    assert np.array_equal(estimates, expected)
    # Again after more churn (epoch 2 is now the ring's oldest resident):
    ingest_epochs(service, 1)
    assert service.ring.epochs[0] == 2
    estimates, _ = service.serve_batch(list(range(10)), epoch=2)
    assert np.array_equal(estimates, expected)


@pytest.mark.parametrize("name", ["CM_fast", "Count"])
def test_window_matches_exact_table_subtraction(name):
    service = make_service(name=name, ring_epochs=8)
    ingest_epochs(service, 5)
    current = service.current_epoch
    earlier = service.ring.get(current.epoch_id - 3)
    estimates, answered = service.serve_batch(list(range(10)), window=3)
    assert answered == current.epoch_id
    manual = current.query_batch(list(range(10))) - earlier.query_batch(list(range(10)))
    assert np.array_equal(estimates, manual)


def test_window_of_current_epoch_count_is_full_history():
    service = make_service(ring_epochs=8)
    ingest_epochs(service, 4)
    whole, answered = service.serve_batch([0, 1], window=4)
    latest, _ = service.serve_batch([0, 1])
    assert np.array_equal(whole, latest)  # epoch 0 is the empty sketch


def test_window_beyond_history_is_epoch_gone():
    service = make_service(ring_epochs=8)
    ingest_epochs(service, 2)
    with pytest.raises(EpochGoneError):
        service.serve_batch([1], window=5)
    assert service.epoch_gone_rejections == 1


def test_pinned_epoch_evicted_is_epoch_gone():
    service = make_service(ring_epochs=2)
    ingest_epochs(service, 5)
    with pytest.raises(EpochGoneError) as caught:
        service.serve_batch([1], epoch=0)
    assert caught.value.epoch_id == 0
    assert service.epoch_gone_rejections == 1
    assert service.stats()["temporal"]["epoch_gone_rejections"] == 1


def test_epoch_and_window_are_mutually_exclusive():
    service = make_service()
    with pytest.raises(ValueError):
        service.serve_batch([1], epoch=0, window=1)


def test_window_on_unsubtractable_family_raises():
    from repro.sketches.base import UnmergeableSketchError

    service = make_service(name="CU_fast")
    ingest_epochs(service, 2)
    with pytest.raises(UnmergeableSketchError):
        service.serve_batch([1], window=1)


def test_pinned_top_k_ranks_against_the_pinned_epoch():
    service = make_service(max_tracked_keys=64, ring_epochs=8)
    ingest_epochs(service, 1)
    service.ingest(np.full(100, 7, dtype=np.int64))  # epoch 2: key 7 surges
    ranking_now, _ = service.serve_top_k(3)
    assert ranking_now[0][0] == 7
    ranking_then, answered = service.serve_top_k(3, epoch=1)
    assert answered == 1
    # At epoch 1 every key had the same count; key 7 was not yet on top.
    estimates = dict(ranking_then)
    assert estimates[ranking_then[0][0]] == service.ring.get(1).sketch.query(
        ranking_then[0][0]
    )


def test_window_cache_memoizes_until_publish():
    service = make_service(ring_epochs=8)
    ingest_epochs(service, 3)
    first, _ = service.window_sketch(2)
    again, _ = service.window_sketch(2)
    assert first is again  # memoized for the same (epoch, window)
    ingest_epochs(service, 1)
    after, _ = service.window_sketch(2)
    assert after is not first  # cache cleared on publish


# ------------------------------------------------------------ change detection
def test_diff_epochs_reports_exact_deltas():
    service = make_service(max_tracked_keys=64, ring_epochs=8)
    ingest_epochs(service, 1)
    service.ingest(np.full(100, 3, dtype=np.int64))
    report = service.diff_epochs(1)
    assert report.later_epoch == 2
    surged = {change.key: change.delta for change in report.surges}
    assert surged[3] >= 100  # CM overestimates never under
    with pytest.raises(ValueError):
        service.diff_epochs(2, later=1)


def test_change_listener_fires_on_publish():
    service = make_service(max_tracked_keys=64, ring_epochs=8)
    reports = []
    service.add_change_listener(reports.append, k=5, min_delta=1)
    ingest_epochs(service, 2)
    assert len(reports) >= 1
    assert all(report.has_changes for report in reports)
    assert reports[0].later_epoch == reports[0].earlier_epoch + 1


def test_raising_listener_is_counted_not_fatal():
    service = make_service(max_tracked_keys=64, ring_epochs=8)

    def explode(report):
        raise RuntimeError("listener bug")

    service.add_change_listener(explode)
    ingest_epochs(service, 2)  # must not raise out of ingest
    assert service.change_alert_errors >= 1
    assert service.stats()["temporal"]["change_alert_errors"] >= 1


def test_change_listener_requires_directory():
    service = make_service()  # track_keys left on by default?
    service_untracked = SketchService(
        build_sketch("CM_fast", MEMORY, seed=0),
        track_keys=False,
    )
    with pytest.raises(ValueError):
        service_untracked.add_change_listener(lambda report: None)
    with pytest.raises(ValueError):
        service.add_change_listener(lambda report: None, k=0)
    with pytest.raises(ValueError):
        service.add_change_listener(lambda report: None, min_delta=0)


# ------------------------------------------------------------------ wire + e2e
def fill_epochs(client, epochs=4, items_per_epoch=100):
    keys = list(range(50))
    for _ in range(epochs):
        client.ingest(keys * 2, [1] * 100)
    client.flush()


@pytest.mark.parametrize("transport", ["inproc", "tcp"])
def test_sequential_front_end_pinned_and_gone(transport):
    config = ServeConfig(
        "CM_fast", MEMORY, publish_every_items=100, ring_epochs=3,
        max_tracked_keys=64,
    )
    with ServingSession(config, transport=transport) as session:
        fill_epochs(session.client, epochs=6)
        stats = session.client.stats()
        resident = stats["temporal"]["resident_epochs"]
        pinned_epoch = resident[0]
        estimates, answered = session.client.query_batch([1, 2], epoch=pinned_epoch)
        assert answered == pinned_epoch
        # Windowed read over the wire matches pinned subtraction.
        windowed, later = session.client.query_batch([1, 2], window=1)
        upper, _ = session.client.query_batch([1, 2], epoch=later)
        lower, _ = session.client.query_batch([1, 2], epoch=later - 1)
        assert np.array_equal(windowed, upper - lower)
        # Evicted epoch: typed, non-retryable error — immediately.
        with pytest.raises(EpochGoneError) as caught:
            session.client.query_batch([1], epoch=0)
        assert caught.value.epoch_id == 0
        assert not caught.value.retryable
        # Pinned top-k over the wire.
        ranking, answered = session.client.top_k(3, epoch=pinned_epoch)
        assert answered == pinned_epoch and len(ranking) == 3


def test_async_front_end_pinned_and_gone():
    config = ServeConfig(
        "CM_fast", MEMORY, publish_every_items=100, ring_epochs=3,
        max_tracked_keys=64,
    )
    with AsyncServingSession(config.build_service()) as session:
        client = session.connect()
        try:
            fill_epochs(client, epochs=6)
            resident = client.stats()["temporal"]["resident_epochs"]
            estimates, answered = client.query_batch([1, 2], epoch=resident[0])
            assert answered == resident[0]
            with pytest.raises(EpochGoneError):
                client.query_batch([1], epoch=0)
            # The connection survives the rejection: next query answers.
            _, latest = client.query_batch([1, 2])
            assert latest == resident[-1]
        finally:
            client.close()


def test_typed_hierarchy():
    assert issubclass(ServerBusyError, QueryRejectedError)
    assert issubclass(EpochGoneError, QueryRejectedError)
    assert ServerBusyError(1, 2, 3).retryable
    assert not EpochGoneError(4).retryable
    error = EpochGoneError(4, oldest=2, newest=9)
    assert "2..9" in str(error)
