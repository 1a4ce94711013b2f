"""Tests for the crash-aware stable store."""

import pytest

from repro.storage import StableStore
from repro.storage.stable import StableStoreError


def test_append_returns_offsets():
    store = StableStore()
    assert store.append(b"abc") == 0
    assert store.append(b"defg") == 3
    assert store.end == 7


def test_read_back_volatile():
    store = StableStore()
    store.append(b"hello")
    assert store.read(0, 5) == b"hello"
    assert store.read(1, 3) == b"ell"


def test_durable_boundary_monotone():
    store = StableStore()
    store.append(b"0123456789")
    store.mark_durable(5)
    store.mark_durable(3)  # no-op, must not regress
    assert store.durable_end == 5
    assert store.unflushed_bytes == 5


def test_mark_durable_past_end_rejected():
    store = StableStore()
    store.append(b"ab")
    with pytest.raises(StableStoreError):
        store.mark_durable(3)


def test_crash_discards_volatile_tail():
    store = StableStore()
    store.append(b"durable|")
    store.mark_durable(store.end)
    store.append(b"volatile")
    store.crash()
    assert store.end == 8
    assert store.read(0, 8) == b"durable|"
    assert store.crash_count == 1


def test_crash_preserves_durable_prefix_exactly():
    store = StableStore()
    for i in range(100):
        store.append(bytes([i]))
    store.mark_durable(42)
    store.crash()
    assert store.end == 42
    assert store.read(0, 42) == bytes(range(42))


def test_read_durable_enforces_boundary():
    store = StableStore()
    store.append(b"0123456789")
    store.mark_durable(4)
    assert store.read_durable(0, 4) == b"0123"
    with pytest.raises(StableStoreError):
        store.read_durable(0, 5)


def test_read_out_of_range():
    store = StableStore()
    store.append(b"ab")
    with pytest.raises(StableStoreError):
        store.read(0, 3)
    with pytest.raises(StableStoreError):
        store.read(-1, 1)


def test_anchor_survives_only_if_flushed():
    store = StableStore()
    store.write_anchor(b"anchor-v1")
    assert store.read_anchor() is None
    store.flush_anchor()
    assert store.read_anchor() == b"anchor-v1"
    store.write_anchor(b"anchor-v2")
    store.crash()
    assert store.read_anchor() == b"anchor-v1"


def test_append_after_crash_continues_from_durable_end():
    store = StableStore()
    store.append(b"aaaa")
    store.mark_durable(4)
    store.append(b"bbbb")
    store.crash()
    offset = store.append(b"cccc")
    assert offset == 4
    assert store.read(0, 8) == b"aaaacccc"


class _Recorder:
    """A durability observer that writes down what it is told, and what
    the store looked like when it was told."""

    def __init__(self):
        self.events = []

    def durable_advanced(self, store):
        self.events.append(("durable", store.durable_end))

    def anchor_flushed(self, store):
        self.events.append(("anchor", store.read_anchor()))

    def rewound(self, store, boundary):
        self.events.append(("rewound", boundary, store.end))


def test_observer_is_told_after_each_durability_event():
    store = StableStore()
    seen = _Recorder()
    store.subscribe(seen)
    store.append(b"0123456789")
    assert seen.events == []  # appends are volatile: nothing to report
    store.mark_durable(6)
    store.write_anchor(b"a1")
    assert seen.events == [("durable", 6)]  # staging is not durable yet
    store.flush_anchor()
    store.rewind(4)
    assert seen.events == [
        ("durable", 6), ("anchor", b"a1"), ("rewound", 4, 4),
    ]


def test_observer_is_not_told_of_a_refused_call_and_survives_crashes():
    store = StableStore()
    seen = _Recorder()
    store.subscribe(seen)
    store.append(b"abcd")
    with pytest.raises(StableStoreError):
        store.mark_durable(99)
    with pytest.raises(StableStoreError):
        store.rewind(99)
    assert seen.events == []
    store.crash()
    store.append(b"efgh")
    store.mark_durable(4)
    assert seen.events == [("durable", 4)]
