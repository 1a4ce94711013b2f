"""Golden bytes of the two byte formats outside the MSP log.

The KV store's WAL records (the Psession baseline's per-transaction log
force) and the session-variables blob Psession and StateServer persist
are sized into the baselines' disk and network costs, so their bytes
are pinned here the way ``tests/core/test_golden_records.py`` pins the
log record kinds.
"""

import random

import pytest

from repro.baselines.psession import decode_variables, encode_variables
from repro.db import KVStore
from repro.sim import Simulator
from repro.storage import Disk
from repro.wire import FrameReader

#: (offset in the WAL, payload hex) of two committed transactions: the
#: first writes two short keys, the second one key and one value whose
#: length prefixes take two varint bytes.
WAL_GOLDEN = [
    (0, "0101"),  # begin txn 1
    (10, "0201" "06736573732d31" "06000176617273"),  # write sess-1
    (34, "0201" "016b" "00"),  # write k = b""
    (47, "0301"),  # commit txn 1
    (57, "0102"),  # begin txn 2
    (67, "0202" "8201" + "6e" * 130 + "c801" + "78" * 200),  # long key and value
    (411, "0302"),  # commit txn 2
]


def test_kv_wal_records_are_the_pinned_bytes():
    sim = Simulator()
    kv = KVStore(sim, Disk(sim, rng=random.Random(0)))

    def run():
        txn = kv.begin()
        yield from txn.write("sess-1", b"\x00\x01vars")
        yield from txn.write("k", b"")
        yield from txn.commit()
        txn = kv.begin()
        yield from txn.write("n" * 130, b"x" * 200)
        yield from txn.commit()

    sim.run_process(run())
    wal = [
        (offset, bytes(payload).hex())
        for offset, payload in FrameReader(kv.wal.read(0, kv.wal.durable_end))
    ]
    assert wal == WAL_GOLDEN

    kv.crash()
    sim.run_process(kv.recover())
    assert kv.get_committed("sess-1") == b"\x00\x01vars"
    assert kv.get_committed("k") == b""
    assert kv.get_committed("n" * 130) == b"x" * 200


VARIABLES_GOLDEN = [
    ({}, "00"),
    (
        {"z": b"xyz", "a": b"\x00" * 3, "": b""},
        "03" "00" "00" "0161" "03000000" "017a" "0378797a",  # keys sorted
    ),
    ({"big": bytes(range(200))}, "01" "03626967" "c801" + bytes(range(200)).hex()),
]


@pytest.mark.parametrize("variables,golden_hex", VARIABLES_GOLDEN)
def test_session_variables_blob_is_the_pinned_bytes(variables, golden_hex):
    assert encode_variables(variables).hex() == golden_hex
    assert decode_variables(bytes.fromhex(golden_hex)) == variables
