"""``copy.deepcopy`` replicas: the single epoch-publish path of the serving layer.

Every published epoch is ``copy.deepcopy`` of the live sketch, and
ReliableSketch implements that copy at array level (shared immutable keys,
an interner rebuilt over the bucket-resident keys).  The properties pinned
here, for every registry family, a sharded ReliableSketch and a
ReliableSketch with a bounded LRU interner, under every available kernel
backend:

* the replica answers exactly like the donor (estimates and, for
  ReliableSketch, sensed error bounds);
* no array, list, dict, interner or hash function is shared with the donor;
* ingest into the donor after the copy leaves the replica unchanged, and
  the replica fed the same further stream answers exactly like the donor;
* for an unbounded ReliableSketch, the replica is array-for-array the
  sketch that a ``state_snapshot`` → ``state_restore`` round trip builds.

The oracle is never ``copy.deepcopy`` itself: equality is checked against
the donor's answers and against the snapshot round trip.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import ReliableSketch
from repro.hashing.families import HashFunction
from repro.kernels import available_backends, use_backend
from repro.kernels.dispatch import KernelBackend
from repro.kernels.interning import KeyInterner
from repro.sketches.registry import build_sketch, competitor_names
from repro.sketches.sharded import ShardedSketch

MEMORY = 4096

BUILDERS = {name: (lambda name=name: build_sketch(name, MEMORY, seed=0))
            for name in competitor_names()}
BUILDERS["Sharded(Ours)"] = lambda: ShardedSketch.from_registry("Ours", MEMORY, 2, seed=0)
BUILDERS["Ours(lru)"] = lambda: build_sketch(
    "Ours", MEMORY, seed=0, max_interned_keys=48, interner_eviction="lru"
)

KEYS = st.one_of(
    st.integers(min_value=-40, max_value=400),
    st.text(max_size=3),
    st.binary(max_size=3),
)
STREAMS = st.lists(KEYS, min_size=1, max_size=400)


def _owned_parts(sketch) -> list:
    """Every array, list, dict, interner and hash function a sketch reaches.

    Keys and other scalars are leaves (immutable, shared by design), and
    kernel backends — stateless tables of entry points — are not entered.
    """
    parts, stack, seen = [], [sketch], set()
    while stack:
        node = stack.pop()
        if id(node) in seen or isinstance(node, (KernelBackend, type)) or callable(node):
            continue
        seen.add(id(node))
        if isinstance(node, np.ndarray):
            parts.append(node)
        elif isinstance(node, (list, dict)):
            parts.append(node)
            stack.extend(node.values() if isinstance(node, dict) else node)
        elif isinstance(node, (tuple, set, frozenset)):
            stack.extend(node)
        elif hasattr(node, "__dict__") or hasattr(type(node), "__slots__"):
            if isinstance(node, (KeyInterner, HashFunction)):
                parts.append(node)
            stack.extend(vars(node).values() if hasattr(node, "__dict__") else ())
            for klass in type(node).__mro__:
                for slot in getattr(klass, "__slots__", ()):
                    if hasattr(node, slot):
                        stack.append(getattr(node, slot))
    return parts


def _reliable_parts(sketch) -> list[ReliableSketch]:
    if isinstance(sketch, ReliableSketch):
        return [sketch]
    if isinstance(sketch, ShardedSketch) and isinstance(sketch.shards[0], ReliableSketch):
        return list(sketch.shards)
    return []


def _answers(sketch, keys) -> tuple:
    estimates = sketch.query_batch(keys).tolist()
    bounds = [
        [part.query_with_error(key) for key in keys] for part in _reliable_parts(sketch)
    ]
    return estimates, bounds


def _assert_same_snapshot(left: dict, right: dict) -> None:
    assert left.keys() == right.keys()
    for name in left:
        assert np.array_equal(left[name], right[name]), name


@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("name", sorted(BUILDERS))
@settings(
    max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(stream=STREAMS, tail=STREAMS)
def test_deepcopy_replica_is_equal_and_disjoint(name, backend, stream, tail):
    with use_backend(backend):
        donor = BUILDERS[name]()
    donor.insert_batch(stream)
    probe = list(dict.fromkeys(stream + tail)) + ["absent", -999]

    replica = copy.deepcopy(donor)
    frozen = _answers(replica, probe)
    assert frozen == _answers(donor, probe)

    donor_parts = _owned_parts(donor)
    replica_parts = _owned_parts(replica)
    assert not {id(part) for part in donor_parts} & {id(part) for part in replica_parts}
    donor_arrays = [part for part in donor_parts if isinstance(part, np.ndarray)]
    for array in (part for part in replica_parts if isinstance(part, np.ndarray)):
        assert not any(np.shares_memory(array, other) for other in donor_arrays)

    if getattr(donor, "snapshotable", False):
        _assert_same_snapshot(replica.state_snapshot(), donor.state_snapshot())
    reliable = _reliable_parts(donor)
    if reliable and reliable[0].max_interned_keys is not None:
        # A bounded interner is copied as it is: recycled ids and LRU
        # recency are state that later evictions depend on.
        ours, theirs = reliable[0]._interner, _reliable_parts(replica)[0]._interner
        assert ours.max_keys == theirs.max_keys
        assert ours.id_to_key == theirs.id_to_key
        assert np.array_equal(ours._last_touch, theirs._last_touch)
    elif reliable:
        restored = BUILDERS[name]()
        restored.state_restore(donor.state_snapshot())
        _assert_same_snapshot(replica.state_snapshot(), restored.state_snapshot())
        for ours, theirs in zip(_reliable_parts(replica), _reliable_parts(restored)):
            for our_layer, their_layer in zip(ours._layers, theirs._layers):
                assert np.array_equal(our_layer.key_ids, their_layer.key_ids)
            assert ours._interner.id_to_key == theirs._interner.id_to_key

    donor.insert_batch(tail)
    assert _answers(replica, probe) == frozen
    replica.insert_batch(tail)
    assert _answers(replica, probe) == _answers(donor, probe)
