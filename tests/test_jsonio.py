"""Deterministic JSON writer and the JSON kind check."""

import json
import math
from fractions import Fraction

import pytest

from coneasym import jsonio
from coneasym.errors import ScenarioError


def test_floats_carry_17_digits():
    text = jsonio.dumps({"x": 0.1})
    assert "0.10000000000000001" in text


def test_fractions_serialize_numerically():
    assert json.loads(jsonio.dumps({"g": Fraction(1, 2)}))["g"] == 0.5


def test_integers_stay_integers():
    assert jsonio.dumps({"k": 3}).strip() == '{\n  "k": 3\n}'.strip()


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        jsonio.dumps({"x": math.nan})
    with pytest.raises(ValueError):
        jsonio.dumps({"x": math.inf})


def test_round_trip_is_stable():
    payload = {"a": [1.5, 2, "s"], "b": {"nested": 1e-300}}
    once = jsonio.dumps(payload)
    assert jsonio.dumps(json.loads(once)) == once


def test_dumps_line_compact():
    line = jsonio.dumps_line({"a": 1, "b": 2.5})
    assert "\n" not in line


def test_nested_layout_is_pinned():
    """Both forms of one nested payload, byte for byte, empty containers
    included."""
    payload = {"a": [1, {"b": [], "c": (2.5, None)}], "d": {}, "e": "x"}
    assert jsonio.dumps_line(payload) == '{"a": [1, {"b": [], "c": [2.5, null]}], "d": {}, "e": "x"}'
    assert jsonio.dumps(payload) == (
        '{\n  "a": [\n    1,\n    {\n      "b": [],\n      "c": [\n        2.5,\n'
        '        null\n      ]\n    }\n  ],\n  "d": {},\n  "e": "x"\n}\n'
    )


@pytest.mark.parametrize("value, kind, length, message", [
    (True, "number", None, "x must be a number, got True"),
    (False, "integer", None, "x must be an integer, got False"),
    (1.0, "integer", None, "x must be an integer, got 1.0"),
    ("1", "number", None, "x must be a number, got '1'"),
    (7, "string", None, "x must be a string, got 7"),
    ({}, "list", None, "x must be a list, got {}"),
    ([1.0], "list", 2, "x must be a list of 2, got [1.0]"),
    ([1, 2], "object", None, "x must be a JSON object, got [1, 2]"),
    (None, "object", None, "x must be a JSON object, got None"),
    pytest.param(10**400, "number", None, "x must be a number that fits a float, got an integer of 401 digits",
                 id="integer-past-float-range"),
])
def test_require_refuses_the_wrong_json_kind(value, kind, length, message):
    """require names the field and the kind it wanted; a boolean is never a
    number or an integer."""
    with pytest.raises(ScenarioError) as err:
        jsonio.require(value, kind, "x", length)
    assert str(err.value) == message


def test_require_returns_the_value_and_a_number_as_a_float():
    assert jsonio.require(2, "number", "x") == 2.0 and isinstance(jsonio.require(2, "number", "x"), float)
    assert jsonio.require(2, "integer", "x") == 2
    assert jsonio.require([1, "a"], "list", "x", 2) == [1, "a"]
    assert jsonio.require({"a": 1}, "object", "x") == {"a": 1}
    assert jsonio.require_numbers([1, 2.5], "x", 2) == [1.0, 2.5]
