"""Golden-bytes tests for the record codecs.

The hex strings of the ten non-checkpoint kinds were produced by the
*pre-fast-path* codec (the chained ``Encoder`` implementation in the
seed tree) and have never changed: the paper's sector-accounting
arithmetic rests on them.  The three checkpoint kinds were re-recorded
when every field became unconditional (one layout for every partition
count and logging mode); the layouts they replace, last written at
commit 92fdbba, are pinned below as rejected.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import records as R
from repro.core.dv import DependencyVector, StateId
from repro.core.records import decode_record
from repro.wire.codec import CodecError


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
        R.SvCheckpointRecord("var-a", b"ckptval"),
        "05057661722d6107636b707476616cffffffffffff3f00",
    ),
    (
        R.SessionCheckpointRecord(
            "sess-1", {"x": b"1", "y": b"22"}, b"reply", 4, 5, {"out-2": 7},
            buffered_reply_error=True,
        ),
        "0606736573732d310201780131017902323201057265706c79040501056f75742d32070100",
    ),
    (
        R.SessionCheckpointRecord("sess-1", {}, None, 0, 1, {}),
        "0606736573732d3100000001000000",
    ),
    (
        R.MspCheckpointRecord(
            {"MSP1": {0: 100, 1: 200}}, {"sess-1": 50}, {"var-a": 60},
            partition_ends=(700,), epoch=2,
        ),
        "070201044d53503102006401c8010106736573732d313201057661722d613c01bc05",
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
    # The session checkpoint's last byte is the coded logging mode.
    (
        R.SessionCheckpointRecord(
            "sess-1", {"x": b"1"}, None, 0, 1, {}, logging_mode="command"
        ),
        "0606736573732d310101780131000001000001",
    ),
    # SV checkpoints with a command frontier: prev_write_lsn, then the
    # sorted (session, lsn, ordinal) triples.
    (
        R.SvCheckpointRecord(
            "var-a", b"ckptval", prev_write_lsn=4096,
            command_frontier={"sess-1": (200, 1), "sess-2": (150, 0)},
        ),
        "05057661722d6107636b707476616c80200206736573732d31c8010106736573732d32960100",
    ),
    (
        R.SvCheckpointRecord(
            "var-a", b"ckptval",
            command_frontier={"sess-1": (200, 2)},
        ),
        "05057661722d6107636b707476616cffffffffffff3f0106736573732d31c80102",
    ),
]

#: What commit 92fdbba wrote for the checkpoint goldens above, where it
#: differs: a write-version byte and optional trailing blocks in the SV
#: checkpoint, no mode byte in a value-mode session checkpoint, no ends
#: block in a one-partition MSP checkpoint.
RETIRED_LAYOUTS = [
    "05057661722d6107636b707476616c03",
    "05057661722d6107636b707476616c0380200206736573732d31c8010106736573732d32960100",
    "05057661722d6107636b707476616c03ffffffffffff3f0106736573732d31c80102",
    "0606736573732d310201780131017902323201057265706c79040501056f75742d320701",
    "0606736573732d31000000010000",
    "070201044d53503102006401c8010106736573732d313201057661722d613c",
]


_GOLDEN_IDS = [type(r).__name__ + f"-{i}" for i, (r, _) in enumerate(GOLDEN)]


def decode_view(payload):
    """``decode_record`` as the zero-copy log scan calls it."""
    return decode_record(memoryview(payload))


@pytest.mark.parametrize("record,golden_hex", GOLDEN, ids=_GOLDEN_IDS)
def test_old_codec_bytes_decode_identically(record, golden_hex):
    """The recorded bytes parse to the same record."""
    assert decode_record(bytes.fromhex(golden_hex)) == record


@pytest.mark.parametrize("record,golden_hex", GOLDEN, ids=_GOLDEN_IDS)
def test_new_encoder_reproduces_old_bytes(record, golden_hex):
    """The encoders emit exactly the recorded bytes."""
    assert record.encode().hex() == golden_hex


@pytest.mark.parametrize("payload_hex", RETIRED_LAYOUTS)
def test_the_92fdbba_checkpoint_layouts_are_rejected(payload_hex):
    """No compatibility decoder: an old-layout checkpoint is damage."""
    for decoder in (decode_record, decode_view):
        with pytest.raises(CodecError):
            decoder(bytes.fromhex(payload_hex))


@pytest.mark.parametrize("record,golden_hex", GOLDEN, ids=_GOLDEN_IDS)
def test_fast_and_general_decoders_agree(record, golden_hex):
    """One layout, one decoder: decoding the golden and encoding it
    again gives the same bytes, and every truncation and every
    single-byte flip of it either decodes or raises ``CodecError`` —
    never anything else, from ``bytes`` and from a view."""
    payload = bytes.fromhex(golden_hex)
    damaged = [payload[:cut] for cut in range(len(payload))]
    for i in range(len(payload)):
        for flip in range(1, 256):
            damaged.append(payload[:i] + bytes([payload[i] ^ flip]) + payload[i + 1 :])
    for decoder in (decode_record, decode_view):
        assert decoder(payload).encode() == payload
        for bad in damaged:
            try:
                decoder(bad)
            except CodecError:
                pass


_ids = st.text(max_size=12)
_lsns = st.integers(min_value=0, max_value=R.NO_LSN)
_small = st.integers(min_value=0, max_value=2**20)
_blobs = st.binary(max_size=40)
_dvs = st.dictionaries(
    _ids, st.dictionaries(st.integers(0, 5), _lsns, min_size=1, max_size=3), max_size=3
).map(DependencyVector)
_maybe_dvs = st.one_of(st.none(), _dvs)
_uint_maps = st.dictionaries(_ids, _lsns, max_size=4)

#: One strategy per record kind, all thirteen.
RECORDS = st.one_of(
    st.builds(R.RequestRecord, _ids, _small, _ids, _blobs, _maybe_dvs),
    st.builds(R.CommandRecord, _ids, _small, _ids, _blobs, _maybe_dvs),
    st.builds(R.ReplyRecord, _ids, _ids, _small, _blobs, _maybe_dvs),
    st.builds(R.SvReadRecord, _ids, _ids, _blobs, _dvs),
    st.builds(R.SvWriteRecord, _ids, _ids, _blobs, _dvs, _lsns),
    st.builds(R.SvUpdateRecord, _ids, _ids, _blobs, _blobs, _dvs, _dvs, _lsns),
    st.builds(
        R.SvCheckpointRecord, _ids, _blobs, _lsns,
        st.dictionaries(_ids, st.tuples(_lsns, _small), max_size=3),
    ),
    st.builds(
        R.SessionCheckpointRecord, _ids, st.dictionaries(_ids, _blobs, max_size=3),
        st.one_of(st.none(), _blobs), _small, _small, _uint_maps, st.booleans(),
        st.sampled_from(sorted(R.LOGGING_MODE_CODES)),
    ),
    st.builds(
        R.MspCheckpointRecord,
        st.dictionaries(_ids, st.dictionaries(st.integers(0, 5), _lsns, max_size=3), max_size=3),
        _uint_maps, _uint_maps, st.lists(_lsns, max_size=4).map(tuple), _small,
    ),
    st.builds(R.EosRecord, _ids, _lsns),
    st.builds(R.AnnouncementRecord, _ids, _small, _lsns),
    st.builds(R.SessionEndRecord, _ids),
    st.builds(R.FillerRecord, st.integers(0, 200)),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(RECORDS)
def test_every_kind_round_trips(record):
    """encode -> decode -> encode is the identity on the bytes, and the
    decode is the record, from ``bytes`` and from a view."""
    payload = record.encode()
    for decoder in (decode_record, decode_view):
        decoded = decoder(payload)
        assert decoded == record
        assert decoded.encode() == payload


def test_every_kind_has_exactly_one_decoder():
    kinds = {value for name, value in vars(R).items() if name.startswith("KIND_")}
    assert len(kinds) == 13 and kinds == set(R._DECODERS)


@pytest.mark.parametrize("record,golden_hex", GOLDEN, ids=_GOLDEN_IDS)
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
    """A one-partition checkpoint's floors are the one-element case of
    ``partition_floors``: the minimum of the captured end, the
    checkpoint's own lsn and every start lsn."""
    golden = next(r for r, _ in GOLDEN if isinstance(r, R.MspCheckpointRecord))
    ckpt = decode_record(golden.encode())
    assert ckpt.partition_ends == (700,)
    assert ckpt.partition_floors(40) == [40]
    assert ckpt.partition_floors(55) == [50]
    assert ckpt.partition_floors(800) == [50]
    bare = R.MspCheckpointRecord({}, {}, {}, partition_ends=(700,))
    # Nothing named: the end at the capture bounds the scan, not the
    # record's own (later) lsn — a record appended between the two is
    # above the floor.
    assert bare.partition_floors(800) == [700]
    wide = R.MspCheckpointRecord({}, {"s": (2 << 48) | 30}, {}, partition_ends=(700, 90, 80))
    assert wide.partition_floors(800) == [700, 90, 30]


@pytest.mark.parametrize("decoder", [decode_record, decode_view])
def test_retired_kind_13_is_unknown(decoder):
    """Kind 13 (the access-order record, retired) must not decode: these
    are the bytes the seed codec wrote for one."""
    payload = bytes.fromhex("0d06736573732d31057661722d610501")
    with pytest.raises(CodecError, match="unknown log record kind byte 13"):
        decoder(payload)
    assert 13 not in {
        value for name, value in vars(R).items() if name.startswith("KIND_")
    }


@pytest.mark.parametrize(
    "payload_hex",
    [
        "",  # empty
        "63",  # unknown kind
        "8101",  # no kind is a multi-byte varint
        "0a02c328",  # session id is not UTF-8
        "0606736573732d3100000001000007",  # unknown logging-mode code
        "0206736573732d31056f75742d320a017002",  # DV flag is not a boolean
    ],
)
def test_damaged_payloads_fail_as_codec_error_only(payload_hex):
    for decoder in (decode_record, decode_view):
        with pytest.raises(CodecError):
            decoder(bytes.fromhex(payload_hex))
