"""Load generation against a serving endpoint: closed-loop and open-loop.

**Closed-loop** (:func:`run_loadgen`) models the paper's operator
workload: a measurement stream being absorbed (writes) while per-flow
estimates are queried concurrently (reads), one outstanding operation at a
time — so reported latencies are service latencies, not queue-buildup
artifacts, and sustained ops/sec is the inverse of mean latency.

**Open-loop** (:func:`run_open_loop`) is the saturation harness behind the
concurrency section of ``BENCH_serving.json``: N worker connections, each
issuing read requests on a *Poisson arrival schedule* pinned to a target
aggregate qps — arrivals do not wait for replies (requests pipeline on
each connection), so offered load is independent of service speed, which
is what makes saturation qps and tail latency under overload measurable at
all.  ``target_qps=0`` is blast mode: every worker streams its whole
schedule as fast as the socket accepts it, and the achieved rate *is* the
saturation throughput.  Typed BUSY rejections (the async server's
admission control) are counted and retried with bounded attempts.

Operations are drawn from a pre-generated schedule (read with probability
``read_ratio``, write otherwise) over a Zipf key mix; all randomness is
materialised before the timed loop so the measurement is pure serving cost.

Two correctness signals ride along and land in ``BENCH_serving.json``:

* **Repeat-read consistency** — a sampled fraction of reads is immediately
  re-issued; whenever both answers carry the same epoch id they must be
  bit-identical (a torn read would differ).
* **End-of-run bit-identity** — after the final flush, every distinct key's
  served answer must equal a local *reference sketch* fed the identical
  write stream in the identical order.  Channels are FIFO and the service
  is single-writer, so the remote live sketch is bit-identical to the local
  reference by the layers-below contracts; the final epoch must expose
  exactly that state.

``epoch_consistent`` is the conjunction of both.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.distributed.wire import (
    MSG_QUERY,
    MSG_QUERY_REPLY,
    QUERY_KEYS,
    STATUS_BUSY,
    WireFormatError,
    decode_frame,
    decode_query_response,
    encode_frame,
    encode_query_request,
)
from repro.metrics.throughput import LatencySummary
from repro.serve.server import QueryClient
from repro.sketches.base import Sketch
from repro.streams.synthetic import ZipfGenerator

#: Fraction of reads that are immediately re-issued for the consistency check.
REPEAT_READ_FRACTION = 0.05


@dataclass(frozen=True)
class LoadGenConfig:
    """Shape of one load-generation run."""

    #: Total operations (each write ships ``write_batch`` items, each read
    #: queries ``read_batch`` keys).
    operations: int = 2000
    #: Probability that an operation is a read.
    read_ratio: float = 0.5
    #: Items per write operation.
    write_batch: int = 256
    #: Keys per read operation.
    read_batch: int = 64
    #: Zipf skew of the key mix (reads and writes share it).
    skew: float = 1.1
    #: Key universe size.
    universe: int = 10_000
    #: RNG seed (schedule and key draws are fully deterministic).
    seed: int = 0

    def __post_init__(self) -> None:
        if self.operations <= 0:
            raise ValueError("operations must be positive")
        if not 0.0 <= self.read_ratio <= 1.0:
            raise ValueError("read_ratio must be in [0, 1]")
        if self.write_batch <= 0 or self.read_batch <= 0:
            raise ValueError("write_batch and read_batch must be positive")


@dataclass
class LoadGenReport:
    """Everything one run measured (one row of ``BENCH_serving.json``)."""

    operations: int
    reads: int
    writes: int
    items_written: int
    keys_read: int
    wall_seconds: float
    ops_per_second: float
    reads_per_second: float
    keys_read_per_second: float
    items_written_per_second: float
    read_latency_p50_ms: float
    read_latency_p99_ms: float
    read_latency_mean_ms: float
    #: Epoch rotation observed by the service (staleness accounting).
    epochs_published: int
    mean_staleness_items: float
    max_staleness_items: float
    #: Both correctness signals held (see the module docstring).
    epoch_consistent: bool
    repeat_reads_checked: int
    service_stats: dict = field(default_factory=dict)

    def to_row(self) -> dict:
        """A flat JSON-serializable dict."""
        return dict(self.__dict__)


def run_loadgen(
    client: QueryClient,
    config: LoadGenConfig,
    reference: Sketch | None = None,
) -> LoadGenReport:
    """Drive one serving endpoint with a mixed read/write workload.

    ``reference`` is a local empty sketch built with the *same* registry
    configuration and seed as the served one; after the timed loop the
    generator feeds it every write batch it shipped, batch for batch, and
    uses it for the end-of-run bit-identity check (skipped when ``None``,
    leaving only the repeat-read signal).  Only client calls are timed.
    """
    rng = np.random.default_rng(config.seed)
    zipf = ZipfGenerator(config.skew, universe=config.universe, seed=config.seed + 1)

    # Materialise the whole schedule before the timed loop.
    is_read = rng.random(config.operations) < config.read_ratio
    reads = int(is_read.sum())
    writes = config.operations - reads
    write_keys = zipf.draw(writes * config.write_batch).tolist()
    read_keys = zipf.draw(reads * config.read_batch).tolist()
    repeat_read = rng.random(reads) < REPEAT_READ_FRACTION

    consistent = True
    repeat_checked = 0
    read_latencies: list[float] = []
    write_cursor = 0
    read_cursor = 0
    read_index = 0

    start = time.perf_counter()
    for operation in range(config.operations):
        if is_read[operation]:
            keys = read_keys[read_cursor : read_cursor + config.read_batch]
            read_cursor += config.read_batch
            issued = time.perf_counter()
            estimates, epoch_id = client.query_batch(keys)
            read_latencies.append(time.perf_counter() - issued)
            if repeat_read[read_index]:
                again, again_epoch = client.query_batch(keys)
                repeat_checked += 1
                if again_epoch == epoch_id and not (again == estimates).all():
                    # Same epoch, different answers: a torn read.
                    consistent = False
            read_index += 1
        else:
            keys = write_keys[write_cursor : write_cursor + config.write_batch]
            write_cursor += config.write_batch
            client.ingest(keys)
    wall_seconds = time.perf_counter() - start

    # Epoch-rotation accounting must be read BEFORE the drain flush: the
    # flush force-publishes, so reading afterwards would make
    # ``epochs_published`` >= 1 even if rotation during the run was broken
    # (and the CI assertion on it vacuous).
    in_run_stats = client.stats()
    publishes = int(in_run_stats.get("publishes", 0))

    # Drain: force the final epoch, then compare every written key against
    # the reference fed the identical stream.
    client.flush()
    if reference is not None and write_cursor:
        for offset in range(0, write_cursor, config.write_batch):
            reference.insert_batch(write_keys[offset : offset + config.write_batch])
        distinct = list(dict.fromkeys(write_keys[:write_cursor]))
        served, _ = client.query_batch(distinct)
        if not (served == reference.query_batch(distinct)).all():
            consistent = False

    stats = client.stats()
    latency = LatencySummary.from_seconds(read_latencies)
    items_written = writes * config.write_batch
    keys_read = reads * config.read_batch
    return LoadGenReport(
        operations=config.operations,
        reads=reads,
        writes=writes,
        items_written=items_written,
        keys_read=keys_read,
        wall_seconds=wall_seconds,
        ops_per_second=config.operations / max(wall_seconds, 1e-9),
        reads_per_second=reads / max(wall_seconds, 1e-9),
        keys_read_per_second=keys_read / max(wall_seconds, 1e-9),
        items_written_per_second=items_written / max(wall_seconds, 1e-9),
        read_latency_p50_ms=latency.p50_ms,
        read_latency_p99_ms=latency.p99_ms,
        read_latency_mean_ms=latency.mean_ms,
        epochs_published=publishes,
        # Staleness from the in-run stats too: the drain flush would append
        # one short partial interval and skew the mean low.
        mean_staleness_items=float(in_run_stats.get("mean_interval_items", 0.0)),
        max_staleness_items=float(in_run_stats.get("max_interval_items", 0)),
        epoch_consistent=consistent,
        repeat_reads_checked=repeat_checked,
        service_stats=stats,
    )


# ---------------------------------------------------------------------------
# Open-loop, multi-client load generation (the concurrency harness)


@dataclass(frozen=True)
class OpenLoopConfig:
    """Shape of one open-loop run (read-only; the caller pre-loads state)."""

    #: Concurrent worker connections.
    clients: int = 4
    #: Read requests issued per client.
    requests_per_client: int = 500
    #: Aggregate offered load across all clients (Poisson arrivals); 0 means
    #: *blast mode* — no pacing, the achieved rate is the saturation rate.
    target_qps: float = 0.0
    #: Keys per read request.
    read_batch: int = 16
    #: Distinct request batches drawn up front; requests sample from this
    #: pool, so the same batch recurs and cross-client / cross-epoch answers
    #: can be compared for the consistency signal.
    batch_pool: int = 64
    #: Zipf skew of the key mix.
    skew: float = 1.1
    #: Key universe size.
    universe: int = 10_000
    #: RNG seed (schedules and key draws are fully deterministic).
    seed: int = 0
    #: Local cap on requests in flight per connection (bounds client memory;
    #: an open loop that falls behind queues locally beyond it).
    max_inflight_per_client: int = 128
    #: Total BUSY retries allowed per client before a request is recorded
    #: as failed (None retries forever).
    busy_retries: int | None = 1024
    #: Epoch publishes forced mid-run through a control connection (0 = off);
    #: state is read-only so they rotate epoch ids without changing answers —
    #: the consistency checks must hold across the publishes.
    flushes_during_run: int = 0

    def __post_init__(self) -> None:
        if self.clients <= 0 or self.requests_per_client <= 0:
            raise ValueError("clients and requests_per_client must be positive")
        if self.read_batch <= 0 or self.batch_pool <= 0:
            raise ValueError("read_batch and batch_pool must be positive")
        if self.target_qps < 0:
            raise ValueError("target_qps must be >= 0")
        if self.max_inflight_per_client <= 0:
            raise ValueError("max_inflight_per_client must be positive")


@dataclass
class OpenLoopReport:
    """Everything one open-loop run measured (one concurrency-section row)."""

    clients: int
    requests_total: int
    completed: int
    failed: int
    offered_qps: float
    achieved_qps: float
    wall_seconds: float
    latency_p50_ms: float
    latency_p99_ms: float
    latency_p999_ms: float
    latency_mean_ms: float
    latency_max_ms: float
    busy_rejected: int
    busy_retried: int
    busy_rejection_rate: float
    #: Every consistency signal held: same-epoch repeat answers (within and
    #: across clients) were bit-identical, and — when a reference sketch was
    #: given — every pool batch's final answer equals the reference.
    epoch_consistent: bool
    epochs_observed: int
    client_errors: list = field(default_factory=list)

    def to_row(self) -> dict:
        return dict(self.__dict__)


class _ClientOutcome:
    """Mutable per-worker result box (threads have no return values)."""

    def __init__(self, requests: int) -> None:
        self.latencies = np.full(requests, np.nan)
        self.completed = 0
        self.failed = 0
        self.busy_rejected = 0
        self.busy_retried = 0
        #: (epoch_id, pool_index) -> estimates bytes, for repeat-answer checks.
        self.answers: dict[tuple[int, int], bytes] = {}
        self.consistent = True
        self.error: str | None = None
        self.finished_at = 0.0


def _open_loop_worker(
    client: QueryClient,
    pool: list[list[int]],
    schedule: np.ndarray,
    arrivals: np.ndarray,
    start_event: threading.Event,
    start_box: list[float],
    config: OpenLoopConfig,
    outcome: _ClientOutcome,
) -> None:
    """One open-loop connection: a paced sender plus an in-thread receiver.

    The sender thread issues requests at their scheduled arrival instants
    without waiting for replies; this (receiver) thread matches replies by
    request id, retries BUSY rejections, and records per-request latency —
    schedule-relative when paced (queueing delay included, the open-loop
    convention), send-relative in blast mode (where the schedule is "now").
    """
    channel = client._channel
    requests = len(schedule)
    send_lock = threading.Lock()  # sender and BUSY-retry both write the socket
    window = threading.Semaphore(config.max_inflight_per_client)
    id_to_index: dict[int, int] = {}
    send_times = np.zeros(requests)
    next_id = [0]
    paced = config.target_qps > 0

    def send_request(index: int) -> None:
        request_id = next_id[0]
        next_id[0] += 1
        id_to_index[request_id] = index
        frame = encode_frame(
            MSG_QUERY,
            encode_query_request(request_id, QUERY_KEYS, keys=pool[schedule[index]]),
        )
        with send_lock:
            channel.send(frame)

    def sender() -> None:
        start = start_box[0]
        try:
            for index in range(requests):
                if paced:
                    while True:
                        delay = arrivals[index] - (time.perf_counter() - start)
                        if delay <= 0:
                            break
                        time.sleep(min(delay, 0.01))
                window.acquire()
                if outcome.error is not None:
                    return
                send_times[index] = time.perf_counter() - start
                send_request(index)
        except (WireFormatError, OSError) as error:
            outcome.error = f"sender: {error}"

    start_event.wait()
    sender_thread = threading.Thread(target=sender, daemon=True)
    sender_thread.start()
    start = start_box[0]
    remaining = requests
    retries_left = (
        float("inf") if config.busy_retries is None else config.busy_retries
    )
    try:
        while remaining:
            frame = channel.recv()
            if frame is None:
                outcome.error = "server closed the connection mid-run"
                break
            msg_type, payload = decode_frame(frame)
            if msg_type != MSG_QUERY_REPLY:
                outcome.error = f"unexpected message type {msg_type}"
                break
            response = decode_query_response(payload)
            index = id_to_index.pop(response.request_id, None)
            if index is None:
                outcome.error = f"unmatched reply id {response.request_id}"
                break
            if response.status == STATUS_BUSY:
                outcome.busy_rejected += 1
                if retries_left > 0:
                    retries_left -= 1
                    outcome.busy_retried += 1
                    send_request(index)  # new id, same slot in the window
                    continue
                outcome.failed += 1
                remaining -= 1
                window.release()
                continue
            now = time.perf_counter() - start
            reference_instant = arrivals[index] if paced else send_times[index]
            outcome.latencies[index] = now - reference_instant
            outcome.completed += 1
            fingerprint = (response.epoch_id, int(schedule[index]))
            answer = response.estimates.tobytes()
            previous = outcome.answers.setdefault(fingerprint, answer)
            if previous != answer:
                outcome.consistent = False  # torn read within one epoch
            remaining -= 1
            window.release()
    except (WireFormatError, OSError) as error:
        outcome.error = f"receiver: {error}"
    finally:
        outcome.finished_at = time.perf_counter() - start
        # Unblock a sender parked on the window before joining it.
        for _ in range(config.max_inflight_per_client):
            window.release()
        sender_thread.join(timeout=10)
        # Close eagerly: against the *sequential* accept loop the next
        # waiting connection is only served once this one disconnects, so
        # holding sockets open until the end of the run would deadlock the
        # comparison harness.
        client.close()


def run_open_loop(
    connect: Callable[[], QueryClient],
    config: OpenLoopConfig,
    reference: Sketch | None = None,
) -> OpenLoopReport:
    """Drive one endpoint with ``config.clients`` open-loop connections.

    ``connect`` dials one fresh connection per call (clients plus one
    control connection).  ``reference`` is a local sketch holding the same
    state the server was pre-loaded with; when given, the end-of-run check
    queries every pool batch once more and requires bit-identity.  The run
    is read-only — pre-load the service before calling.
    """
    rng = np.random.default_rng(config.seed)
    zipf = ZipfGenerator(config.skew, universe=config.universe, seed=config.seed + 1)
    pool = [
        zipf.draw(config.read_batch).tolist() for _ in range(config.batch_pool)
    ]
    schedules = [
        rng.integers(0, config.batch_pool, size=config.requests_per_client)
        for _ in range(config.clients)
    ]
    if config.target_qps > 0:
        per_client_interval = config.clients / config.target_qps
        arrival_lists = [
            np.cumsum(rng.exponential(per_client_interval, size=config.requests_per_client))
            for _ in range(config.clients)
        ]
    else:
        arrival_lists = [np.zeros(config.requests_per_client)] * config.clients

    clients = [connect() for _ in range(config.clients)]
    control = connect()
    outcomes = [_ClientOutcome(config.requests_per_client) for _ in range(config.clients)]
    start_event = threading.Event()
    start_box = [0.0]
    workers = [
        threading.Thread(
            target=_open_loop_worker,
            args=(clients[i], pool, schedules[i], arrival_lists[i],
                  start_event, start_box, config, outcomes[i]),
            name=f"loadgen-client-{i}",
            daemon=True,
        )
        for i in range(config.clients)
    ]
    for worker in workers:
        worker.start()
    start_box[0] = time.perf_counter()
    start_event.set()

    # Mid-run epoch publishes (optional): rotate epoch ids while readers
    # are in flight; answers must stay bit-identical (read-only state).
    for _ in range(config.flushes_during_run):
        time.sleep(0.01)
        control.flush()

    for worker in workers:
        worker.join(timeout=120)
    wall_seconds = max(
        (outcome.finished_at for outcome in outcomes), default=0.0
    )

    consistent = all(outcome.consistent for outcome in outcomes)
    # Cross-client agreement: the same (epoch, batch) answered to two
    # different clients must be one answer.
    merged: dict[tuple[int, int], bytes] = {}
    epochs = set()
    for outcome in outcomes:
        for fingerprint, answer in outcome.answers.items():
            epochs.add(fingerprint[0])
            if merged.setdefault(fingerprint, answer) != answer:
                consistent = False
    # End-of-run bit-identity against the local reference.
    if reference is not None:
        control.flush()
        for pool_index, keys in enumerate(pool):
            served, _ = control.query_batch(keys)
            if not (served == reference.query_batch(keys)).all():
                consistent = False
                break
    control.close()
    for client in clients:
        client.close()

    latencies = np.concatenate([outcome.latencies for outcome in outcomes])
    latencies = latencies[~np.isnan(latencies)]
    summary = LatencySummary.from_seconds(latencies.tolist())
    p999 = float(np.percentile(latencies * 1e3, 99.9)) if latencies.size else 0.0
    completed = sum(outcome.completed for outcome in outcomes)
    failed = sum(outcome.failed for outcome in outcomes)
    busy = sum(outcome.busy_rejected for outcome in outcomes)
    attempts = completed + busy
    errors = [
        f"client {i}: {outcome.error}"
        for i, outcome in enumerate(outcomes)
        if outcome.error
    ]
    return OpenLoopReport(
        clients=config.clients,
        requests_total=config.clients * config.requests_per_client,
        completed=completed,
        failed=failed,
        offered_qps=config.target_qps,
        achieved_qps=completed / max(wall_seconds, 1e-9),
        wall_seconds=wall_seconds,
        latency_p50_ms=summary.p50_ms,
        latency_p99_ms=summary.p99_ms,
        latency_p999_ms=p999,
        latency_mean_ms=summary.mean_ms,
        latency_max_ms=summary.max_ms,
        busy_rejected=busy,
        busy_retried=sum(outcome.busy_retried for outcome in outcomes),
        busy_rejection_rate=busy / attempts if attempts else 0.0,
        epoch_consistent=consistent and not errors,
        epochs_observed=len(epochs),
        client_errors=errors,
    )
