"""The records are named tuples, and importing the CLI loads no heavy module."""

import json
import os
import pickle
import subprocess
import sys

import pytest

import segre_towers
from segre_towers import (
    LaurentPoly,
    RationalFunction1V,
    TowerFactor,
    TowerLevel,
    TowerSpec,
    TruncationRequest,
    Violation,
    flag_tower,
)
from segre_towers.cli import ResultTable, VerifyCase

#: Standard-library modules the CLI's import needs none of.  ``dataclasses``
#: and ``typing`` import ``inspect``, which loads ``ast``, ``dis`` and
#: ``tokenize``: together about half of the CLI's start-up time.  ``random``
#: is imported only where weights are drawn, by ``verify`` and the
#: fixed-point cross-check, and loads ``os`` and ``bisect`` with it.
#: ``fractions``, which loads ``decimal`` and ``numbers``, is imported only
#: where the public API builds a ``Fraction``.
UNWANTED_AT_START_UP = (
    "dataclasses", "inspect", "typing", "ast", "dis", "tokenize", "random",
    "fractions", "decimal", "numbers",
)


def test_cli_import_loads_no_unwanted_module():
    # A fresh process without ``site``, whose .pth files could preload modules.
    src = os.path.dirname(os.path.dirname(os.path.abspath(segre_towers.__file__)))
    child = (
        "import json, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import segre_towers.cli\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", child, src],
        capture_output=True, text=True, timeout=60, check=True,
    ).stdout
    loaded = set(json.loads(out))
    assert "segre_towers.cli" in loaded
    found = [name for name in UNWANTED_AT_START_UP if name in loaded]
    assert not found, f"import segre_towers.cli loaded {', '.join(found)}"


_SERIES = RationalFunction1V(1, LaurentPoly.one())
_FACTOR = TowerFactor((1, -1), _SERIES)
_LEVEL = TowerLevel((_FACTOR,), ("w",))

#: Each record class with one value per field, in field order.
RECORDS = [
    (TowerFactor, {"twists": (1, -1), "series": _SERIES}),
    (TowerLevel, {"factors": (_FACTOR,), "aux": ("w",)}),
    (TowerSpec, {"levels": (_LEVEL,), "base_generators": (("e1", 1),)}),
    (Violation, {"level": None, "field": "levels", "message": "bad"}),
    (TruncationRequest, {"tower_orders": (1,), "aux_orders": (("w", 0),), "shift_caps": (4,)}),
    (ResultTable, {"header": ("u1",), "rows": (((-1,), "1"),)}),
    (VerifyCase, {"name": "flag k=1", "passed": True, "detail": "ok"}),
]
RECORD_IDS = [cls.__name__ for cls, _ in RECORDS]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=RECORD_IDS)
def test_record_construction_and_field_order(cls, fields):
    by_position = cls(*fields.values())
    assert by_position == cls(**fields)
    assert cls._fields == tuple(fields)
    assert tuple(by_position) == tuple(fields.values())
    for name, value in fields.items():
        assert getattr(by_position, name) == value


def test_record_defaults():
    assert TowerLevel((_FACTOR,)).aux == ()
    assert TowerSpec((_LEVEL,)).base_generators == ()
    spec = TowerSpec((_LEVEL, _LEVEL))
    assert (spec.k, len(spec)) == (2, 2)
    assert TowerSpec(()).k == 0


@pytest.mark.parametrize("cls, fields", RECORDS, ids=RECORD_IDS)
def test_record_fields_cannot_be_assigned(cls, fields):
    record = cls(**fields)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = None  # __slots__ = () leaves no instance dict


@pytest.mark.parametrize("cls, fields", RECORDS, ids=RECORD_IDS)
def test_equal_records_hash_equal(cls, fields):
    first, second = cls(**fields), cls(*fields.values())
    assert first is not second and first == second
    assert first == tuple(fields.values())  # a record is a tuple
    # A RationalFunction1V defines no hash, so a factor has none, and a level
    # or tower has one only without factors or levels.
    if cls in (TowerLevel, TowerSpec):
        first, second = (record._replace(**{cls._fields[0]: ()}) for record in (first, second))
    if cls is not TowerFactor:
        assert hash(first) == hash(second)


@pytest.mark.parametrize("cls, fields", RECORDS, ids=RECORD_IDS)
def test_record_repr_names_the_class_and_fields(cls, fields):
    text = repr(cls(**fields))
    assert text.startswith(f"{cls.__name__}(")
    for name, value in fields.items():
        assert f"{name}={value!r}" in text


@pytest.mark.parametrize("cls, fields", RECORDS, ids=RECORD_IDS)
def test_record_replace(cls, fields):
    record = cls(**fields)
    first = next(iter(fields))
    changed = record._replace(**{first: "other"})
    assert type(changed) is cls
    assert getattr(changed, first) == "other"
    assert changed[1:] == record[1:]
    assert getattr(record, first) == fields[first]


def test_records_survive_a_pickle_round_trip():
    spec = flag_tower(3)
    req = TruncationRequest.derive(spec, (2, 1, 3))
    for record in (spec, req):
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is type(record)
        assert copy == record
