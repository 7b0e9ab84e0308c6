"""Deterministic JSON writing, and the one kind check of JSON read in.

Every float is rendered with 17 significant digits so serialized artifacts
(templates, fit reports, recovery summaries) are byte-stable across runs
and reparse to the exact same double.  Fractions are converted to floats on
the way out; insertion order of dicts is preserved.

`require` is the kind check of every field read from a scenario, a
cross-section file or a fit report.  This module imports nothing but
`errors`, so `template` and `recover` still start without numpy.
"""

import json
import math
from fractions import Fraction

from .errors import ScenarioError

# JSON kind -> (the words of its error, the Python types json.loads gives it)
_KINDS = {
    "number": ("a number", (int, float)),
    "integer": ("an integer", (int,)),
    "string": ("a string", (str,)),
    "list": ("a list", (list,)),
    "object": ("a JSON object", (dict,)),
}


def require(value, kind, what, length=None):
    """value, a number as a float, if it is of the JSON kind named (a key of
    `_KINDS`); else a ScenarioError that names `what`.  A boolean is never
    a number or an integer (Python takes true for 1), a number must fit a
    float, and a list must hold `length` items when that is given."""
    words, types = _KINDS[kind]
    if isinstance(value, bool) or not isinstance(value, types) or length is not None and len(value) != length:
        raise ScenarioError(f"{what} must be {words}{'' if length is None else f' of {length}'}, got {value!r}")
    if kind != "number":
        return value
    try:
        return float(value)
    except OverflowError:
        raise ScenarioError(f"{what} must be a number that fits a float, got an integer of "
                            f"{len(str(abs(value)))} digits") from None


def require_numbers(value, what, length=None) -> list:
    """value as a list of floats: a list (of `length` items when given) of numbers."""
    return [require(v, "number", what) for v in require(value, "list", what, length)]


def _fmt_scalar(value):
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        value = float(value)
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            raise ValueError("non-finite float in JSON output")
        return format(value, ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"unserializable value of type {type(value).__name__}")


def _write(value, out, indent, level):
    """Append value's JSON to out: on one line when indent is None, else
    one item per line, indent spaces deeper per level."""
    if isinstance(value, dict):
        brackets, items = "{}", value.items()
    elif isinstance(value, (list, tuple)):
        brackets, items = "[]", enumerate(value)
    else:
        out.append(_fmt_scalar(value))
        return
    if not value:
        out.append(brackets)
        return
    if indent is None:
        head, sep, tail = "", ", ", ""
    else:
        head = "\n" + " " * (indent * (level + 1))
        sep, tail = "," + head, "\n" + " " * (indent * level)
    out.append(brackets[0] + head)
    for i, (key, item) in enumerate(items):
        if i:
            out.append(sep)
        if isinstance(value, dict):
            if not isinstance(key, str):
                raise TypeError("JSON object keys must be strings")
            out.append(json.dumps(key) + ": ")
        _write(item, out, indent, level + 1)
    out.append(tail + brackets[1])


def dumps(obj) -> str:
    """Serialize obj (dict/list/str/int/float/bool/None/Fraction), one item
    per line, indented by two spaces per level."""
    out: list[str] = []
    _write(obj, out, 2, 0)
    out.append("\n")
    return "".join(out)


def dumps_line(obj) -> str:
    """Single-line form, for JSONL streams."""
    out: list[str] = []
    _write(obj, out, None, 0)
    return "".join(out)
