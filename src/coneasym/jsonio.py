"""Deterministic JSON writing.

Every float is rendered with 17 significant digits so serialized artifacts
(templates, fit reports, recovery summaries) are byte-stable across runs
and reparse to the exact same double.  Fractions are converted to floats on
the way out; insertion order of dicts is preserved.
"""

import json
import math
from fractions import Fraction


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
