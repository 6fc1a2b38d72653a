"""Shared constants, seeded inputs and the small statistics the runs report."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

#: The served sketch: the paper's ReliableSketch at a budget where an epoch
#: publish (a full replica copy) is a visible share of the write path.
ALGORITHM = "Ours"
MEMORY_BYTES = 1 << 20
#: The paper's default error tolerance for Ours (section 6.1.1).
TOLERANCE = 25
#: The CLI's sketch seed; the reference sketches must use the same one.
SKETCH_SEED = 0
#: Items per write batch and keys per point read.
WRITE_BATCH = 256
READ_KEYS = 64
#: The served epoch length (the CLI default of ``serve --publish-every``).
PUBLISH_EVERY = 8192
#: Zipf key distribution shared by every workload.
ZIPF_SKEW = 1.1
UNIVERSE = 100_000
#: Distinct keys whose answers decide "first correct answer".
CHECK_KEYS = 1024
#: Set-up and restart are timed this many times per run; the median is kept.
LAUNCHES = 5
#: Latency quantiles are taken per slice of the run (see ``sliced_quantile``).
SLICES = 10

class Inputs:
    """Seeded Zipf keys; the same seed always gives the same inputs."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        ranks = np.arange(1, UNIVERSE + 1, dtype=np.float64)
        weights = ranks ** (-ZIPF_SKEW)
        self._probabilities = weights / weights.sum()
        self._rng = np.random.default_rng([seed, 0x5EED])

    def keys(self, count: int) -> np.ndarray:
        """``count`` Zipf-distributed keys in ``[0, UNIVERSE)`` (int64)."""
        return self._rng.choice(UNIVERSE, size=count, p=self._probabilities).astype(np.int64)

    def check_keys(self) -> list[int]:
        """Half the hottest ranks, half spread over the whole universe."""
        hot = np.arange(CHECK_KEYS // 2, dtype=np.int64)
        cold = self._rng.choice(
            np.arange(CHECK_KEYS // 2, UNIVERSE), size=CHECK_KEYS - hot.size, replace=False
        )
        return np.concatenate([hot, np.sort(cold)]).tolist()


def batches(keys: np.ndarray, size: int = WRITE_BATCH) -> list[list[int]]:
    return [keys[start : start + size].tolist() for start in range(0, len(keys), size)]


def build_reference(algorithm: str = ALGORITHM, memory_bytes: float = MEMORY_BYTES):
    from repro.sketches.registry import build_sketch

    return build_sketch(algorithm, memory_bytes, seed=SKETCH_SEED)


def quantile(values, q: float) -> float:
    """The ``q`` quantile by linear interpolation (numpy's default)."""
    if len(values) == 0:
        return math.nan
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


def sliced_quantile(samples: list[tuple[float, float]], q: float, slices: int = SLICES) -> float:
    """The ``q`` quantile per time slice; the median over the slices.

    ``samples`` are ``(time, value)``, cut in time order into ``slices``
    runs of equal count.  One disturbed stretch of a run moves one slice,
    not the figure.
    """
    ordered = [value for _, value in sorted(samples)]
    if len(ordered) < slices:
        return quantile(ordered, q)
    bounds = np.linspace(0, len(ordered), slices + 1).astype(int)
    return float(np.median([quantile(ordered[lo:hi], q)
                            for lo, hi in zip(bounds[:-1], bounds[1:])]))


@dataclass
class Tally:
    """Operations attempted and failed, with the reasons for failures."""

    attempted: int = 0
    failed: int = 0
    reasons: dict = field(default_factory=dict)

    def ok(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, reason: str, count: int = 1, attempted: bool = True) -> None:
        if attempted:
            self.attempted += count
        self.failed += count
        self.reasons[reason] = self.reasons.get(reason, 0) + count

    def check(self, good: bool, reason: str) -> bool:
        if good:
            self.ok()
        else:
            self.fail(reason)
        return good


class Freshness:
    """When each write became visible to readers.

    A write batch is visible once a reply arrives whose epoch covers it:
    the epoch's item count (learned from STATS replies, which carry
    ``epoch_id`` and ``epoch_items``) is at least the number of items
    written up to and including the batch.  An epoch whose count no STATS
    reply reported is credited with the count of the newest earlier epoch
    that one did, which can only make freshness look worse, never better.
    """

    def __init__(self) -> None:
        self._writes: list[tuple[float, int]] = []
        self._replies: list[tuple[float, int]] = []
        self.epoch_items: dict[int, int] = {}
        #: STATS replies that gave an epoch another item count than before.
        self.conflicts = 0

    def write(self, due: float, items_through: int) -> None:
        """A write batch scheduled at ``due`` that brings the total to
        ``items_through`` (writes go out in order on one connection)."""
        self._writes.append((due, items_through))

    def reply(self, received: float, epoch_id: int) -> None:
        self._replies.append((received, epoch_id))

    def stats_reply(self, received: float, epoch_id: int, epoch_items: int) -> None:
        known = self.epoch_items.setdefault(epoch_id, epoch_items)
        if known != epoch_items:
            self.conflicts += 1
        self._replies.append((received, epoch_id))

    def _covered_items(self, epoch_id: int) -> int:
        best = -1
        for known_epoch, items in self.epoch_items.items():
            if known_epoch <= epoch_id and items > best:
                best = items
        return best

    def delays(self) -> tuple[list[tuple[float, float]], int]:
        """``(due, seconds from due to the first covering reply)`` per write,
        and the number of writes no reply covered."""
        covered_cache: dict[int, int] = {}
        timeline = []
        for received, epoch_id in sorted(self._replies):
            if epoch_id not in covered_cache:
                covered_cache[epoch_id] = self._covered_items(epoch_id)
            timeline.append((received, covered_cache[epoch_id]))
        delays: list[tuple[float, float]] = []
        position = 0
        best = -1
        best_time = math.nan
        uncovered = 0
        for due, items_through in sorted(self._writes, key=lambda write: write[1]):
            while best < items_through and position < len(timeline):
                received, covered = timeline[position]
                position += 1
                if covered > best:
                    best, best_time = covered, received
            if best >= items_through:
                delays.append((due, best_time - due))
            else:
                uncovered += 1
        return delays, uncovered
