"""reports.encode_json against json.dumps, the format it reproduces."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darcais.reports import CertReport, encode_json


def dumps(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def outcome(encode, value):
    """The text, or the type of the exception raised."""
    try:
        return encode(value)
    except (TypeError, ValueError) as exc:
        return type(exc)


# every code point, lone surrogates included
TEXT = st.text(st.characters(exclude_categories=()), max_size=12)
SCALARS = (
    st.none() | st.booleans() | TEXT
    | st.integers() | st.integers(min_value=-(10**400), max_value=10**400)
    | st.floats(allow_nan=True, allow_infinity=True)
)
KEYS = TEXT | st.integers() | st.floats() | st.booleans() | st.none()
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner)
    | st.dictionaries(TEXT, inner, max_size=4) | st.dictionaries(KEYS, inner, max_size=3),
    max_leaves=20,
)


@settings(max_examples=500, deadline=None)
@given(VALUES)
def test_encode_json_writes_what_json_dumps_writes(value):
    assert outcome(encode_json, value) == outcome(dumps, value)


@pytest.mark.parametrize("value", [
    "caf\N{LATIN SMALL LETTER E WITH ACUTE}", "\N{GRINNING FACE}", "\ud800", "\udfff x",
    "\x00\x01\x1f\x7f\x80", "\b\f\n\r\t", 'say "hi"', "back\\slash", "/", "",
    2**64, -(10**300), 10**5000, True, False, None,
    0.0, -0.0, 1e300, -1e-300, 5e-324, float("inf"), float("-inf"), float("nan"),
    {"b": 1, "a": [1, 2.5, None], "\N{SNOWMAN}": {"z": True}},
    {2: "x", 10: "y"}, {1.5: 0, float("nan"): 1}, {None: 0}, {True: 1, False: 0},
    {"a": 1, 2: "mixed keys"}, {(1, 2): "tuple key"}, {"k": {1, 2}}, [b"bytes"],
    ("tuple", ["list"]), [[[]], {}],
], ids=lambda value: type(value).__name__)
def test_encode_json_edge_values(value):
    assert outcome(encode_json, value) == outcome(dumps, value)


def test_report_lines_are_json_dumps_lines():
    report = CertReport(
        kind="roots", target={"coeffs": "1/2 -3"}, verdict="fail",
        details={"degree": 1, "big": str(10**200), "ok": None, "é": [1.0, -0.0]},
        witnesses=[{"check": "x", "expected": 2, "actual": 1}], timings={"count": 1e-06},
    )
    line = report.to_json()
    assert line == dumps(json.loads(line))
