"""Deterministic JSON writer."""

import math
from fractions import Fraction

import pytest

from coneasym import jsonio


def test_floats_carry_17_digits():
    text = jsonio.dumps({"x": 0.1})
    assert "0.10000000000000001" in text


def test_fractions_serialize_numerically():
    assert jsonio.loads(jsonio.dumps({"g": Fraction(1, 2)}))["g"] == 0.5


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
    assert jsonio.dumps(jsonio.loads(once)) == once


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
