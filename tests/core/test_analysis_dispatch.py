"""Unit tests for the type-keyed analysis-scan dispatch.

``analyze_scan`` is the pure-CPU core of recovery step 2 (§4.3); these
tests drive it with a hand-built record list (no simulator, no disk) and
check the reconstructed :class:`AnalysisState` directly — the dispatch
table must reproduce exactly what the old ``isinstance`` chain did.
"""

from repro.core.crash_recovery import _ANALYSIS_DISPATCH, AnalysisState, analyze_scan
from repro.core.dv import DependencyVector
from repro.core.records import (
    EosRecord,
    FillerRecord,
    LogRecord,
    ReplyRecord,
    RequestRecord,
    SessionCheckpointRecord,
    SessionEndRecord,
    SvReadRecord,
)


class _StubMsp:
    """Just enough MSP surface for the handlers that touch shared state."""

    shared: dict = {}


def _request(session_id, seq):
    return RequestRecord(session_id, seq, "m", b"x")


def _session_ckpt(session_id):
    return SessionCheckpointRecord(
        session_id,
        variables={},
        buffered_reply=None,
        buffered_reply_seq=0,
        next_expected_seq=1,
        outgoing_next_seq={},
    )


def test_dispatch_covers_every_recovery_record_kind():
    # Every leaf record type except filler (pure padding) must have a
    # handler; a new record kind without one is a silent recovery bug.
    leaf_types = set(LogRecord.__args__)
    assert set(_ANALYSIS_DISPATCH) == leaf_types - {FillerRecord}


def test_position_stream_membership():
    records = [
        (0, _request("s1", 1)),
        (10, ReplyRecord("s1", "out1", 1, b"r")),
        (20, SvReadRecord("s1", "SV0", b"v", DependencyVector())),
        (30, _request("s2", 1)),
        (40, FillerRecord(16)),  # ignored
    ]
    state = analyze_scan(_StubMsp(), records)
    assert state.positions == {"s1": [0, 10, 20], "s2": [30]}
    assert state.session_ckpts == {}
    assert state.ended == set()


def test_session_checkpoint_truncates_positions():
    records = [
        (0, _request("s1", 1)),
        (10, _request("s1", 2)),
        (20, _session_ckpt("s1")),
        (30, _request("s1", 3)),
    ]
    state = analyze_scan(_StubMsp(), records)
    # Only records after the checkpoint matter for replay.
    assert state.positions == {"s1": [30]}
    assert state.session_ckpts == {"s1": 20}


def test_session_end_removes_session():
    records = [
        (0, _request("s1", 1)),
        (10, _session_ckpt("s1")),
        (20, SessionEndRecord("s1")),
    ]
    state = analyze_scan(_StubMsp(), records)
    assert state.positions == {}
    assert state.session_ckpts == {}
    assert state.ended == {"s1"}
    # A later checkpoint would resurrect it (new incarnation).
    records.append((30, _session_ckpt("s1")))
    state = analyze_scan(_StubMsp(), records)
    assert state.ended == set()
    assert state.session_ckpts == {"s1": 30}


def test_eos_hides_skipped_records():
    records = [
        (0, _request("s1", 1)),
        (10, _request("s1", 2)),  # the orphan
        (20, _request("s1", 3)),  # skipped work
        (30, EosRecord("s1", orphan_lsn=10)),
    ]
    state = analyze_scan(_StubMsp(), records)
    # Everything at or after the orphan LSN is invisible.
    assert state.positions == {"s1": [0]}


def test_empty_scan():
    state = analyze_scan(_StubMsp(), [])
    assert state == AnalysisState()
