"""The rules ``repro.config.read`` applies to every scenario object."""

import math
from dataclasses import dataclass
from typing import Annotated, Optional

import pytest

from repro.config import (
    BOOL,
    COUNT,
    INTEGER,
    REAL,
    REQUIRED,
    TEXT,
    ScenarioError,
    build,
    read,
)

TABLE = {
    "name": (TEXT, REQUIRED),
    "count": (COUNT, 4),
    "stop": (REAL, None),
    "on": (BOOL, True),
}


def test_absent_fields_are_their_defaults():
    assert read("w", {"name": "x"}, TABLE) == {
        "name": "x", "count": 4, "stop": None, "on": True,
    }


@pytest.mark.parametrize(
    "raw,message",
    [
        ({}, "w: missing name"),
        ({"name": "x", "cuont": 1},
         "w: unknown key(s) cuont (accepted: count, name, on, stop)"),
        # null is accepted only where the default is unset
        ({"name": "x", "count": None}, "w: bad count None: "),
        ({"name": "x", "on": "false"},
         "w: bad on 'false': must be true or false"),
        ({"name": "x", "count": 2.5}, "w: bad count 2.5: must be an integer"),
        ({"name": "x", "count": True}, "w: bad count True: "),
        # a value that becomes NaN is named as the number it became
        ({"name": "x", "stop": "nan"}, "w: bad stop nan: must be a number"),
    ],
)
def test_a_refusal_names_the_object_and_the_field(raw, message):
    with pytest.raises(ScenarioError) as exc:
        read("w", raw, TABLE)
    assert str(exc.value).startswith(message)


def test_null_is_the_default_where_the_default_is_unset():
    assert read("w", {"name": "x", "stop": None}, TABLE)["stop"] is None


def test_the_document_has_no_prefix():
    with pytest.raises(ScenarioError, match="^the document: must be an obj"):
        read("", [1], TABLE)
    with pytest.raises(ScenarioError, match="^bad on 5: "):
        read("", {"name": "x", "on": 5}, TABLE)


def test_integers_may_be_written_as_integral_numbers_or_numerals():
    assert INTEGER(2.0) == 2 and INTEGER("16") == 16
    assert REAL("0.5") == 0.5 and math.isinf(REAL("inf"))


@dataclass(frozen=True)
class _Knobs:
    period: Annotated[int, COUNT] = 1
    enabled: bool = True
    limit: Optional[float] = None
    horizon: Optional[float] = None

    def __post_init__(self):
        if self.limit is not None and self.limit < self.period:
            raise ValueError("limit must be >= period")


def test_build_reads_a_dataclass_by_its_annotations():
    knobs = build(_Knobs, "k", {"period": 3, "limit": "7"}, horizon=2.0)
    assert knobs == _Knobs(period=3, enabled=True, limit=7.0, horizon=2.0)
    with pytest.raises(ScenarioError, match=r"^k: unknown key\(s\) horizon "):
        build(_Knobs, "k", {"horizon": 1}, horizon=2.0)
    with pytest.raises(ScenarioError, match="^k: bad period -1: must be >= 0"):
        build(_Knobs, "k", {"period": -1})
    # the class's own checks are named like a field's
    with pytest.raises(ScenarioError, match="^k: limit must be >= period$"):
        build(_Knobs, "k", {"period": 3, "limit": 1})
