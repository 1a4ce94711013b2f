"""Round-trip tests for every log record type."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.dv import DependencyVector, StateId
from repro.core.records import (
    NO_LSN,
    AnnouncementRecord,
    CommandRecord,
    EosRecord,
    MspCheckpointRecord,
    ReplyRecord,
    RequestRecord,
    SessionCheckpointRecord,
    SessionEndRecord,
    SvCheckpointRecord,
    SvReadRecord,
    SvUpdateRecord,
    SvWriteRecord,
    decode_record,
)
from repro.wire.codec import TEXT, UINT, CodecError, encode_fields, encode_uvarint

from tests.core.test_golden_records import decode_view


def sample_dv():
    dv = DependencyVector()
    dv.observe("msp1", StateId(0, 123))
    dv.observe("msp2", StateId(1, 456))
    return dv


def roundtrip(record):
    return decode_record(record.encode())


def test_request_record_roundtrip():
    rec = RequestRecord("c1:0", 7, "method_a", b"arg-bytes", sender_dv=sample_dv())
    back = roundtrip(rec)
    assert back == rec


def test_request_record_no_dv():
    rec = RequestRecord("c1:0", 7, "m", b"x", sender_dv=None)
    assert roundtrip(rec) == rec


def test_reply_record_roundtrip():
    rec = ReplyRecord("c1:0", "msp1:out:3", 2, b"reply", sender_dv=sample_dv())
    assert roundtrip(rec) == rec


def test_sv_read_record_roundtrip():
    rec = SvReadRecord("c1:0", "SV0", b"\x01" * 128, variable_dv=sample_dv())
    assert roundtrip(rec) == rec


def test_sv_write_record_roundtrip():
    rec = SvWriteRecord("c1:0", "SV0", b"v", writer_dv=sample_dv(), prev_write_lsn=42)
    assert roundtrip(rec) == rec


def test_sv_write_no_prev():
    rec = SvWriteRecord("c1:0", "SV0", b"v", writer_dv=DependencyVector())
    back = roundtrip(rec)
    assert back.prev_write_lsn == NO_LSN


def test_sv_checkpoint_roundtrip():
    rec = SvCheckpointRecord("SV3", b"checkpointed-value")
    assert roundtrip(rec) == rec


def test_session_checkpoint_roundtrip():
    rec = SessionCheckpointRecord(
        session_id="c1:0",
        variables={"a": b"1", "b": b"\x00" * 512},
        buffered_reply=b"last-reply",
        buffered_reply_seq=9,
        next_expected_seq=10,
        outgoing_next_seq={"msp1:out:1": 4},
    )
    assert roundtrip(rec) == rec


def test_session_checkpoint_none_reply():
    rec = SessionCheckpointRecord(
        session_id="s",
        variables={},
        buffered_reply=None,
        buffered_reply_seq=0,
        next_expected_seq=0,
        outgoing_next_seq={},
    )
    assert roundtrip(rec) == rec


def test_msp_checkpoint_roundtrip():
    rec = MspCheckpointRecord(
        recovered_snapshot={"msp2": {0: 100, 1: 200}},
        session_start_lsns={"c1:0": 50, "c2:0": 75},
        sv_start_lsns={"SV0": 10},
        partition_ends=(300,),
        epoch=2,
    )
    assert roundtrip(rec) == rec


def test_msp_checkpoint_min_lsn():
    """The minimal LSN (§3.4) is the one-partition floor."""
    rec = MspCheckpointRecord(
        recovered_snapshot={},
        session_start_lsns={"a": 50},
        sv_start_lsns={"v": 10},
        partition_ends=(90,),
    )
    assert rec.partition_floors(own_lsn=99) == [10]
    empty = MspCheckpointRecord({}, {}, {}, partition_ends=(99,))
    assert empty.partition_floors(own_lsn=99) == [99]


def test_eos_record_roundtrip():
    rec = EosRecord("c1:0", orphan_lsn=1234)
    assert roundtrip(rec) == rec


def test_announcement_roundtrip():
    rec = AnnouncementRecord("msp2", epoch=1, recovered_lsn=888)
    assert roundtrip(rec) == rec


def test_session_end_roundtrip():
    rec = SessionEndRecord("c1:0")
    assert roundtrip(rec) == rec


def test_unknown_kind_rejected():
    with pytest.raises(CodecError, match="unknown log record kind"):
        decode_record(encode_uvarint(99))


def _session_records():
    dv = sample_dv()
    return [
        RequestRecord("s-1", 7, "method", b"arg", sender_dv=dv),
        CommandRecord("s-1", 7, "method", b"arg", sender_dv=dv),
        ReplyRecord("s-1", "out-1", 3, b"pay", sender_dv=dv),
        SvReadRecord("s-1", "v", b"val", variable_dv=dv),
        SvWriteRecord("s-1", "v", b"new", writer_dv=dv, prev_write_lsn=64),
        SvUpdateRecord(
            "s-1", "v", b"old", b"new", variable_dv=dv, writer_dv=dv,
            prev_write_lsn=64,
        ),
    ]


@pytest.mark.parametrize("decoder", [decode_record, decode_view])
@pytest.mark.parametrize("link", [0, 4096, (3 << 48) | 12345, NO_LSN])
def test_retired_session_chain_link_is_rejected(decoder, link):
    """The lazy backward chain's trailing ``prev_lsn`` uvarint is
    retired with the chain: a session record still carrying one must
    fail as trailing bytes, not decode with the link dropped."""
    for record in _session_records():
        assert decoder(record.encode()) == record
        with pytest.raises(CodecError, match="trailing bytes after decode"):
            decoder(record.encode() + encode_uvarint(link))


@pytest.mark.parametrize("decoder", [decode_record, decode_view])
@pytest.mark.parametrize("ends", [(), (512, 0, 77, 4096)])
def test_retired_checkpoint_chain_heads_are_rejected(decoder, ends):
    """Likewise the MSP checkpoint's trailing heads block, written
    after the ends block."""
    record = MspCheckpointRecord(
        recovered_snapshot={"msp1": {0: 3}},
        session_start_lsns={"s-1": 100, "s-2": 220},
        sv_start_lsns={"v": 40},
        epoch=3,
        partition_ends=ends,
    )
    assert decoder(record.encode()) == record
    heads = encode_fields((UINT, TEXT, UINT), (1, "s-1", 480))
    retired = record.encode() + heads
    with pytest.raises(CodecError, match="trailing bytes after decode"):
        decoder(retired)


@given(
    st.text(max_size=20),
    st.integers(min_value=0, max_value=2**32),
    st.text(max_size=20),
    st.binary(max_size=300),
)
def test_request_roundtrip_property(sid, seq, method, arg):
    rec = RequestRecord(sid, seq, method, arg, sender_dv=None)
    assert roundtrip(rec) == rec


@given(
    st.dictionaries(st.text(max_size=10), st.binary(max_size=100), max_size=5),
    st.one_of(st.none(), st.binary(max_size=50)),
    st.integers(min_value=0, max_value=1000),
)
def test_session_checkpoint_roundtrip_property(variables, reply, seq):
    rec = SessionCheckpointRecord(
        session_id="s",
        variables=variables,
        buffered_reply=reply,
        buffered_reply_seq=seq,
        next_expected_seq=seq + 1,
        outgoing_next_seq={},
    )
    assert roundtrip(rec) == rec


def test_session_checkpoint_error_flag_roundtrip():
    rec = SessionCheckpointRecord(
        session_id="s",
        variables={},
        buffered_reply=b"unknown method",
        buffered_reply_seq=3,
        next_expected_seq=4,
        outgoing_next_seq={},
        buffered_reply_error=True,
    )
    back = roundtrip(rec)
    assert back.buffered_reply_error is True
