"""Codec coverage for the lazy-recovery chain fields (DESIGN.md §15).

Two guarantees:

1. **Eager byte-identity** — a record without ``prev_lsn`` (and a
   checkpoint without ``session_chain_heads``) encodes to exactly the
   bytes the pre-lazy codec produced; the golden-bytes suite pins the
   absolute hex, this file pins the *prefix property* (the chain link is
   a pure suffix) so any future reordering of the trailing fields fails
   loudly.
2. **Roundtrip** — every chained record kind carries ``prev_lsn``
   through both the fast per-kind decoder and the general decoder.
"""

import pytest

from repro.core import records as R
from repro.core.dv import DependencyVector, StateId
from repro.core.records import NO_LSN, _decode_record_general, decode_record


def _dv() -> DependencyVector:
    dv = DependencyVector()
    dv.observe("MSP1", StateId(0, 12345))
    return dv


def _chained_records(prev_lsn):
    return [
        R.RequestRecord("s-1", 7, "method", b"arg", sender_dv=_dv(), prev_lsn=prev_lsn),
        R.ReplyRecord("s-1", "out-1", 3, b"pay", sender_dv=_dv(), prev_lsn=prev_lsn),
        R.SvReadRecord("s-1", "v", b"val", variable_dv=_dv(), prev_lsn=prev_lsn),
        R.SvWriteRecord(
            "s-1", "v", b"new", writer_dv=_dv(), prev_write_lsn=64, prev_lsn=prev_lsn
        ),
        R.SvUpdateRecord(
            "s-1", "v", b"old", b"new", variable_dv=_dv(), writer_dv=_dv(),
            prev_write_lsn=64, prev_lsn=prev_lsn,
        ),
    ]


@pytest.mark.parametrize("decoder", [decode_record, _decode_record_general])
@pytest.mark.parametrize("prev_lsn", [0, 1, 4096, (3 << 48) | 12345, NO_LSN])
def test_prev_lsn_roundtrips(decoder, prev_lsn):
    for record in _chained_records(prev_lsn):
        decoded = decoder(record.encode())
        assert decoded == record, type(record).__name__
        assert decoded.prev_lsn == prev_lsn


@pytest.mark.parametrize("decoder", [decode_record, _decode_record_general])
def test_unchained_records_decode_with_no_prev_lsn(decoder):
    for record in _chained_records(None):
        decoded = decoder(record.encode())
        assert decoded == record, type(record).__name__
        assert decoded.prev_lsn is None


def test_prev_lsn_is_a_pure_suffix():
    """Eager logs stay byte-identical: the chain link only appends."""
    for plain, chained in zip(_chained_records(None), _chained_records(9000)):
        plain_bytes, chained_bytes = plain.encode(), chained.encode()
        assert chained_bytes.startswith(plain_bytes), type(plain).__name__
        assert len(chained_bytes) > len(plain_bytes)


def _ckpt(partition_ends=(), session_chain_heads=None):
    return R.MspCheckpointRecord(
        recovered_snapshot={"msp1": {0: 3}},
        session_start_lsns={"s-1": 100, "s-2": 220},
        sv_start_lsns={"v": 40},
        epoch=3,
        partition_ends=partition_ends,
        session_chain_heads=session_chain_heads or {},
    )


@pytest.mark.parametrize("decoder", [decode_record, _decode_record_general])
@pytest.mark.parametrize("ends", [(), (512,), (512, 0, 77, 4096)])
def test_checkpoint_chain_heads_roundtrip(decoder, ends):
    heads = {"s-1": 480, "s-2": NO_LSN}
    record = _ckpt(partition_ends=ends, session_chain_heads=heads)
    decoded = decoder(record.encode())
    assert decoded == record
    assert decoded.session_chain_heads == heads
    assert tuple(decoded.partition_ends) == tuple(ends)


@pytest.mark.parametrize("decoder", [decode_record, _decode_record_general])
def test_checkpoint_without_heads_is_byte_identical(decoder):
    """An eager checkpoint (no heads) omits both trailing blocks at
    P=1 — the exact pre-lazy encoding — and decodes to empty heads."""
    record = _ckpt()
    decoded = decoder(record.encode())
    assert decoded == record
    assert decoded.session_chain_heads == {}
    # Heads force the ends block (even a 0-length one at P=1), so the
    # two trailing fields stay unambiguous; without heads the P=1
    # encoding must not grow at all.
    with_heads = _ckpt(session_chain_heads={"s-1": 480})
    assert len(record.encode()) < len(with_heads.encode())
    assert with_heads.encode().startswith(record.encode())
