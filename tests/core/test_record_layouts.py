"""Schema-drift guard for the log record layouts.

Each record kind declares its wire layout once (``LAYOUT``) and both
codec directions come from it, so the layout must name exactly the
fields the record is built from: a field added to a class but not to
its layout would be silently dropped from the log.
"""

import dataclasses

import pytest

from repro.core import records as R
from repro.wire.codec import Field

_CLASSES = sorted(
    {value for value in vars(R).values()
     if isinstance(value, type) and issubclass(value, R._Record) and value is not R._Record},
    key=lambda cls: cls.kind,
)


def test_every_kind_byte_has_exactly_one_layout():
    kinds = {value for name, value in vars(R).items() if name.startswith("KIND_")}
    assert len(kinds) == 13
    assert sorted(R.RECORD_CLASSES) == sorted(kinds) == [cls.kind for cls in _CLASSES]
    for cls in _CLASSES:
        assert R.RECORD_CLASSES[cls.kind] is cls
    # The filler and the three checkpoint kinds are records like the rest.
    for cls in (
        R.FillerRecord, R.SvCheckpointRecord, R.SessionCheckpointRecord,
        R.MspCheckpointRecord,
    ):
        assert cls in _CLASSES


@pytest.mark.parametrize("cls", _CLASSES, ids=lambda cls: cls.__name__)
def test_layout_names_exactly_the_constructor_fields(cls):
    names = [name for name, _ in cls.LAYOUT]
    assert len(names) == len(set(names)), f"{cls.__name__} names a field twice"
    assert sorted(names) == sorted(f.name for f in dataclasses.fields(cls) if f.init)
    assert all(isinstance(field_type, Field) for _, field_type in cls.LAYOUT)
