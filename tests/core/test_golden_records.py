"""Golden-bytes compatibility tests for the record codecs.

The hex strings below were produced by the *pre-fast-path* codec (the
chained ``Encoder`` implementation in the seed tree).  The compiled
codecs must keep the byte format identical in both directions: a log
written by the old codec decodes to the same records under the new one,
and the new encoder reproduces the old bytes exactly — otherwise
existing logs (and the paper's sector-accounting arithmetic) break.
"""

import pytest

from repro.core import records as R
from repro.core.dv import DependencyVector, StateId
from repro.core.records import _decode_record_general, decode_record


def _dv() -> DependencyVector:
    dv = DependencyVector()
    dv.observe("MSP1", StateId(0, 12345))
    dv.observe("MSP2", StateId(1, 987654))
    return dv


#: (record object, hex of its encoding under the seed codec)
GOLDEN = [
    (
        R.RequestRecord("sess-1", 17, "ServiceMethod1", b"\x00\x01arg", sender_dv=_dv()),
        "0106736573732d31110e536572766963654d6574686f64310500016172670102044d5350310100b960044d535032010186a43c",
    ),
    (
        R.RequestRecord("sess-1", 18, "m", b"", sender_dv=None),
        "0106736573732d3112016d0000",
    ),
    (
        R.ReplyRecord("sess-1", "out-2", 9, b"payload\xff", sender_dv=_dv()),
        "0206736573732d31056f75742d3209087061796c6f6164ff0102044d5350310100b960044d535032010186a43c",
    ),
    (
        R.ReplyRecord("sess-1", "out-2", 10, b"p", sender_dv=None),
        "0206736573732d31056f75742d320a017000",
    ),
    (
        R.SvReadRecord("sess-1", "var-a", b"value", variable_dv=_dv()),
        "0306736573732d31057661722d610576616c756502044d5350310100b960044d535032010186a43c",
    ),
    (
        R.SvWriteRecord("sess-1", "var-a", b"newval", writer_dv=_dv(), prev_write_lsn=4096),
        "0406736573732d31057661722d61066e657776616c02044d5350310100b960044d535032010186a43c8020",
    ),
    (
        R.SvWriteRecord("sess-1", "var-a", b"", writer_dv=DependencyVector()),
        "0406736573732d31057661722d610000ffffffffffff3f",
    ),
    (
        R.SvUpdateRecord(
            "sess-1", "var-a", b"old", b"new",
            variable_dv=_dv(), writer_dv=_dv(), prev_write_lsn=77,
        ),
        "0c06736573732d31057661722d61036f6c64036e657702044d5350310100b960044d53503201"
        "0186a43c02044d5350310100b960044d535032010186a43c4d",
    ),
    (
        R.SvCheckpointRecord("var-a", b"ckptval", version=3),
        "05057661722d6107636b707476616c03",
    ),
    (
        R.SessionCheckpointRecord(
            "sess-1", {"x": b"1", "y": b"22"}, b"reply", 4, 5, {"out-2": 7},
            buffered_reply_error=True,
        ),
        "0606736573732d310201780131017902323201057265706c79040501056f75742d320701",
    ),
    (
        R.SessionCheckpointRecord("sess-1", {}, None, 0, 1, {}),
        "0606736573732d31000000010000",
    ),
    (
        R.MspCheckpointRecord(
            {"MSP1": {0: 100, 1: 200}}, {"sess-1": 50}, {"var-a": 60}, epoch=2
        ),
        "070201044d53503102006401c8010106736573732d313201057661722d613c",
    ),
    (
        R.EosRecord("sess-1", orphan_lsn=321),
        "0806736573732d31c102",
    ),
    (
        R.AnnouncementRecord("MSP2", epoch=1, recovered_lsn=654321),
        "09044d53503201f1f727",
    ),
    (
        R.FillerRecord(size=13),
        "0b0d00000000000000000000000000",
    ),
    (
        R.SessionEndRecord("sess-1"),
        "0a06736573732d31",
    ),
    # PR 8 command logging.  A CommandRecord is byte-for-byte a
    # RequestRecord with kind 0x0e — the analysis scan, partition
    # routing and lazy chains treat the two identically by design.
    (
        R.CommandRecord("sess-1", 17, "ServiceMethod1", b"\x00\x01arg", sender_dv=_dv()),
        "0e06736573732d31110e536572766963654d6574686f64310500016172670102044d5350310100b960044d535032010186a43c",
    ),
    (
        R.CommandRecord("sess-1", 18, "m", b"", sender_dv=None),
        "0e06736573732d3112016d0000",
    ),
    # A non-value session checkpoint appends the coded logging mode;
    # value mode omits it (the SessionCheckpointRecord entries above
    # pin that the pre-PR 8 bytes are unchanged).
    (
        R.SessionCheckpointRecord(
            "sess-1", {"x": b"1"}, None, 0, 1, {}, logging_mode="command"
        ),
        "0606736573732d310101780131000001000001",
    ),
    # SV checkpoints with a command frontier: the trailing block is
    # prev_write_lsn (NO_LSN placeholder when absent) then the sorted
    # (session, lsn, ordinal) triples.
    (
        R.SvCheckpointRecord(
            "var-a", b"ckptval", version=3, prev_write_lsn=4096,
            command_frontier={"sess-1": (200, 1), "sess-2": (150, 0)},
        ),
        "05057661722d6107636b707476616c0380200206736573732d31c8010106736573732d32960100",
    ),
    (
        R.SvCheckpointRecord(
            "var-a", b"ckptval", version=3,
            command_frontier={"sess-1": (200, 2)},
        ),
        "05057661722d6107636b707476616c03ffffffffffff3f0106736573732d31c80102",
    ),
]


@pytest.mark.parametrize(
    "record,golden_hex", GOLDEN, ids=[type(r).__name__ + f"-{i}" for i, (r, _) in enumerate(GOLDEN)]
)
def test_old_codec_bytes_decode_identically(record, golden_hex):
    """A log written by the seed codec parses to the same record."""
    assert decode_record(bytes.fromhex(golden_hex)) == record


@pytest.mark.parametrize(
    "record,golden_hex", GOLDEN, ids=[type(r).__name__ + f"-{i}" for i, (r, _) in enumerate(GOLDEN)]
)
def test_new_encoder_reproduces_old_bytes(record, golden_hex):
    """The compiled encoders emit byte-identical output."""
    assert record.encode().hex() == golden_hex


@pytest.mark.parametrize(
    "record,golden_hex", GOLDEN, ids=[type(r).__name__ + f"-{i}" for i, (r, _) in enumerate(GOLDEN)]
)
def test_fast_and_general_decoders_agree(record, golden_hex):
    """The compiled decoders and the chained-Decoder path agree on
    every kind (the general path is the fallback for rare kinds)."""
    payload = bytes.fromhex(golden_hex)
    assert _decode_record_general(payload) == decode_record(payload) == record


@pytest.mark.parametrize(
    "record,golden_hex", GOLDEN, ids=[type(r).__name__ + f"-{i}" for i, (r, _) in enumerate(GOLDEN)]
)
def test_decode_from_memoryview_matches(record, golden_hex):
    """Zero-copy scans hand the decoder memoryviews, not bytes."""
    payload = bytes.fromhex(golden_hex)
    decoded = decode_record(memoryview(payload))
    assert decoded == record
    # Leaf byte fields must be real bytes, not views pinning the log
    # buffer alive.
    for name, value in vars(decoded).items():
        assert not isinstance(value, memoryview), name


def test_single_log_checkpoint_floor_is_its_min_lsn():
    """The golden P=1 checkpoint wrote no ``partition_ends`` block: its
    floor vector is the one-element ``[min_lsn]`` — the encoding rule
    that lets a single log run the N-partition recovery path."""
    golden = next(r for r, _ in GOLDEN if isinstance(r, R.MspCheckpointRecord))
    ckpt = decode_record(golden.encode())
    assert ckpt.partition_ends == ()
    for anchor in (40, 55, 700):
        assert ckpt.partition_floors(anchor) == [ckpt.min_lsn(anchor)]
    assert ckpt.partition_floors(700) == [50]


@pytest.mark.parametrize("decoder", [decode_record, _decode_record_general])
def test_retired_kind_13_is_unknown(decoder):
    """Kind 13 (the access-order record, retired) must not decode: these
    are the bytes the seed codec wrote for one."""
    payload = bytes.fromhex("0d06736573732d31057661722d610501")
    with pytest.raises(ValueError, match="unknown log record kind 13"):
        decoder(payload)
    assert 13 not in {
        value for name, value in vars(R).items() if name.startswith("KIND_")
    }
