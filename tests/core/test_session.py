"""Unit tests for session state and checkpoint round-trips."""

from repro.core.dv import RecoveryTable, StateId
from repro.core.session import Session, SessionStatus


def test_initial_state():
    s = Session("c#0", "msp1")
    assert s.status is SessionStatus.NORMAL
    assert s.next_expected_seq == 0
    assert s.buffered_reply is None
    assert s.state_lsn is None
    assert s.scan_start_lsn() is None


def test_account_record_updates_everything():
    s = Session("c#0", "msp1")
    s.account_record(lsn=100, size=64, epoch=0)
    assert s.state_lsn == 100
    assert s.first_lsn == 100
    assert s.bytes_since_ckpt == 64
    assert s.dv.get("msp1") == StateId(0, 100)
    assert s.position_stream.positions() == [100]
    s.account_record(lsn=200, size=32, epoch=0)
    assert s.state_lsn == 200
    assert s.first_lsn == 100
    assert s.bytes_since_ckpt == 96


def test_account_record_signals_spill():
    s = Session("c#0", "msp1", buffer_capacity=2)
    assert s.account_record(1, 8, 0) is False
    assert s.account_record(2, 8, 0) is True


def test_scan_start_prefers_checkpoint():
    s = Session("c#0", "msp1")
    s.account_record(100, 8, 0)
    assert s.scan_start_lsn() == 100
    s.last_ckpt_lsn = 500
    assert s.scan_start_lsn() == 500


def test_outgoing_session_ids_deterministic():
    s = Session("c#0", "msp1")
    out1 = s.outgoing_to("msp2")
    out2 = s.outgoing_to("msp2")
    assert out1 is out2
    assert out1.session_id == "c#0>msp2"
    assert out1.next_seq == 0


def test_checkpoint_roundtrip():
    s = Session("c#0", "msp1")
    s.variables = {"a": b"1", "b": b"2"}
    s.buffered_reply = b"last"
    s.buffered_reply_seq = 4
    s.next_expected_seq = 5
    s.outgoing_to("msp2").next_seq = 9
    s.account_record(100, 8, 0)

    record = s.build_checkpoint("value")
    fresh = Session("c#0", "msp1")
    fresh.restore_checkpoint(record)
    assert fresh.variables == {"a": b"1", "b": b"2"}
    assert fresh.buffered_reply == b"last"
    assert fresh.buffered_reply_seq == 4
    assert fresh.next_expected_seq == 5
    assert fresh.outgoing["msp2"].session_id == "c#0>msp2"
    assert fresh.outgoing["msp2"].next_seq == 9
    assert not fresh.dv
    assert fresh.state_lsn is None


def test_checkpoint_with_no_reply():
    s = Session("c#0", "msp1")
    record = s.build_checkpoint("value")
    fresh = Session("c#0", "msp1")
    fresh.restore_checkpoint(record)
    assert fresh.buffered_reply is None
    assert fresh.buffered_reply_seq == -1


def test_account_checkpoint_clears_dv_and_stream():
    s = Session("c#0", "msp1")
    s.account_record(100, 8, 0)
    s.account_record(200, 8, 0)
    s.account_checkpoint(300)
    assert s.last_ckpt_lsn == 300
    assert s.bytes_since_ckpt == 0
    assert len(s.position_stream) == 0
    assert not s.dv
    assert s.msp_ckpts_since_own_ckpt == 0


def test_reset_fresh():
    s = Session("c#0", "msp1")
    s.variables["x"] = b"1"
    s.next_expected_seq = 7
    s.outgoing_to("msp2")
    s.reset_fresh()
    assert s.variables == {}
    assert s.next_expected_seq == 0
    assert s.outgoing == {}


def test_is_orphan_prunes_resolved():
    s = Session("c#0", "msp1")
    s.account_record(100, 8, 0)
    s.dv.observe("msp2", StateId(0, 40))
    table = RecoveryTable()
    table.record("msp2", 0, 50)  # our 40 survived the crash
    assert not s.is_orphan(table)
    # The resolved entry was pruned away entirely.
    assert s.dv.get("msp2") is None
    s.dv.observe("msp2", StateId(0, 60))
    assert s.is_orphan(table)
