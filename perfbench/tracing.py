"""Spans and counters recorded around coneasym's layer boundaries.

The benchmark wraps public functions where one module calls the next, as
the calling module binds them (``coneasym.conesolve.heat_rows``, not
``coneasym._kernels.heat_rows``), so no file of the program changes.
Spans stay in memory and are written out once, at the end of a run.  A
wrapped name that no longer exists is recorded as absent, and the layer
metrics built on it are left out of the result instead of crashing it.
"""

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager

# span record fields
SPAN_ID, PARENT, OP, NAME, START, END, ATTRS = range(7)


def _heat_rows_attrs(result):
    _values, _errs, panels, ok = result
    return {
        "points": int(panels.size),
        "panels": int(panels.sum()),
        "panels_max": int(panels.max()) if panels.size else 0,
        "unconverged": int((~ok).sum()),
    }


# (wrapped name as the caller binds it, span name, attributes from the result)
SPANS = [
    ("coneasym.conesolve.heat_mode", "conesolve.heat_mode", None),
    ("coneasym.conesolve.heat_rows", "kernels.heat_rows", _heat_rows_attrs),
    ("coneasym.conesolve.resolvent_mode", "conesolve.resolvent_mode",
     lambda sol: {"points": int(sol.x.size)}),
    ("coneasym.cli.peel_exponents", "fitrecover.peel", None),
    ("coneasym.fitrecover.least_squares", "fitrecover.least_squares",
     lambda res: {"nfev": int(res.nfev)}),
    ("coneasym.cli.recover_spectrum", "fitrecover.recover",
     lambda summary: {"recovered": len(summary.recovered)}),
    ("coneasym.cli.template_closed_form", "templates.closed_form", None),
    ("coneasym.cli.template_inductive", "templates.inductive", None),
    ("coneasym.cli.template_differences", "templates.differences",
     lambda diffs: {"differences": len(diffs)}),
    ("coneasym.templates.pole_set", "indicial.pole_set", None),
]

# Scalar functions called thousands of times per operation: counted and
# timed, but given no span of their own.
COUNTED = [
    ("coneasym.conesolve.bessel_i", "besselkit"),
    ("coneasym.conesolve.bessel_k", "besselkit"),
]


class Tracer:
    """Spans as lists ``[id, parent, op, name, start, end, attrs]``.

    ``covered[span_id]`` accumulates the time that child spans and counted
    calls made directly inside the span took, so a span's self time is its
    duration minus that.
    """

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self.covered = defaultdict(float)
        self.absent = []
        self.op_id = None
        self._stack = []
        self._patches = []

    def begin(self, name):
        parent = self._stack[-1][SPAN_ID] if self._stack else None
        span = [len(self.spans), parent, self.op_id, name, time.perf_counter(), None, {}]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span):
        span[END] = time.perf_counter()
        self._stack.pop()
        if span[PARENT] is not None:
            self.covered[span[PARENT]] += span[END] - span[START]

    @contextmanager
    def span(self, name):
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    def _lookup(self, target):
        module_name, attr = target.rsplit(".", 1)
        try:
            module = importlib.import_module(module_name)
            return module, attr, getattr(module, attr)
        except (ImportError, AttributeError):
            self.absent.append(target)
            return None

    def wrap(self, target, name, attrs_of=None):
        found = self._lookup(target)
        if found is None:
            return
        module, attr, original = found

        def wrapper(*args, **kwargs):
            span = self.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(span)
            if attrs_of is not None:
                span[ATTRS] = attrs_of(result)
            return result

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def count(self, target, name):
        found = self._lookup(target)
        if found is None:
            return
        module, attr, original = found
        counters, covered, stack = self.counters, self.covered, self._stack

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                counters[name + ".calls"] += 1
                counters[name + ".busy_s"] += elapsed
                if stack:
                    covered[stack[-1][SPAN_ID]] += elapsed

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def install(self):
        for target, name, attrs_of in SPANS:
            self.wrap(target, name, attrs_of)
        for target, name in COUNTED:
            self.count(target, name)

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def self_time(self, span):
        return span[END] - span[START] - self.covered.get(span[SPAN_ID], 0.0)

    def merge(self, record, op_id):
        """Adopt a record written by ``dump`` in a child process, under ``op_id``."""
        base = len(self.spans)
        for span in record["spans"]:
            parent = None if span[PARENT] is None else span[PARENT] + base
            self.spans.append([span[SPAN_ID] + base, parent, op_id] + list(span[NAME:]))
            if parent is not None:
                self.covered[parent] += span[END] - span[START]
        for key, value in record["counters"].items():
            self.counters[key] += value
        for target in record["absent"]:
            if target not in self.absent:
                self.absent.append(target)

    def to_json(self):
        return {"spans": self.spans, "counters": dict(self.counters), "absent": self.absent}

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh)



# Metric groups and the wrapped names each one needs; a group whose name
# is absent is left out of the result.
NEEDS = {
    "kernels.": ["coneasym.conesolve.heat_rows"],
    "conesolve.heat_mode": ["coneasym.conesolve.heat_mode", "coneasym.conesolve.heat_rows"],
    "conesolve.us_per_point": ["coneasym.conesolve.heat_mode", "coneasym.conesolve.heat_rows"],
    "conesolve.resolvent": ["coneasym.conesolve.resolvent_mode"],
    "besselkit.": ["coneasym.conesolve.bessel_i", "coneasym.conesolve.bessel_k",
                   "coneasym.conesolve.resolvent_mode"],
    "fitrecover.peel": ["coneasym.cli.peel_exponents"],
    "fitrecover.lsq": ["coneasym.fitrecover.least_squares"],
    "fitrecover.recover": ["coneasym.cli.recover_spectrum"],
    "templates.closed": ["coneasym.cli.template_closed_form"],
    "templates.inductive": ["coneasym.cli.template_inductive"],
    "templates.differences": ["coneasym.cli.template_differences"],
    "indicial.": ["coneasym.templates.pole_set"],
}

# Counts that depend only on the inputs and the program: they must repeat
# exactly between passes over the same operations.
DETERMINISTIC = [
    "kernels.panels", "kernels.panels_max", "kernels.unconverged",
    "conesolve.heat_mode_calls", "conesolve.resolvent_mode_calls", "besselkit.calls",
    "fitrecover.peel_calls", "fitrecover.lsq_nfev", "fitrecover.recovered",
    "templates.differences", "indicial.pole_set_calls",
]


def layer_metrics(tracer):
    """Per-layer totals of one traced pass."""
    by_name = defaultdict(list)
    for span in tracer.spans:
        by_name[span[NAME]].append(span)

    def total(name):
        return sum(s[END] - s[START] for s in by_name[name])

    def self_total(name):
        return sum(tracer.self_time(s) for s in by_name[name])

    def attr_sum(name, key):
        return sum(s[ATTRS].get(key, 0) for s in by_name[name])

    panels = attr_sum("kernels.heat_rows", "panels")
    heat_points = attr_sum("kernels.heat_rows", "points")
    res_points = attr_sum("conesolve.resolvent_mode", "points")
    calls = tracer.counters.get("besselkit.calls", 0)
    metrics = {
        "kernels.heat_rows_s": total("kernels.heat_rows"),
        "kernels.panels": panels,
        "kernels.panels_max": max((s[ATTRS]["panels_max"] for s in by_name["kernels.heat_rows"]), default=0),
        "kernels.unconverged": attr_sum("kernels.heat_rows", "unconverged"),
        "kernels.us_per_panel": 1e6 * total("kernels.heat_rows") / panels if panels else 0.0,
        "conesolve.heat_mode_s": total("conesolve.heat_mode"),
        "conesolve.heat_mode_self_s": self_total("conesolve.heat_mode"),
        "conesolve.heat_mode_calls": len(by_name["conesolve.heat_mode"]),
        "conesolve.us_per_point": 1e6 * total("conesolve.heat_mode") / heat_points if heat_points else 0.0,
        "conesolve.resolvent_mode_s": total("conesolve.resolvent_mode"),
        "conesolve.resolvent_self_s": self_total("conesolve.resolvent_mode"),
        "conesolve.resolvent_mode_calls": len(by_name["conesolve.resolvent_mode"]),
        "besselkit.calls": int(calls),
        "besselkit.calls_per_point": calls / res_points if res_points else 0.0,
        "besselkit.busy_s": tracer.counters.get("besselkit.busy_s", 0.0),
        "fitrecover.peel_s": total("fitrecover.peel"),
        "fitrecover.peel_calls": len(by_name["fitrecover.peel"]),
        "fitrecover.lsq_nfev": attr_sum("fitrecover.least_squares", "nfev"),
        "fitrecover.recover_s": total("fitrecover.recover"),
        "fitrecover.recovered": attr_sum("fitrecover.recover", "recovered"),
        "templates.closed_form_s": total("templates.closed_form"),
        "templates.inductive_s": total("templates.inductive"),
        "templates.differences": attr_sum("templates.differences", "differences"),
        "indicial.pole_set_s": total("indicial.pole_set"),
        "indicial.pole_set_calls": len(by_name["indicial.pole_set"]),
        "cli.template_s": total("cli.template"),
        "cli.fit_s": total("cli.fit"),
        "cli.recover_s": total("cli.recover"),
    }
    for prefix, targets in NEEDS.items():
        if any(t in tracer.absent for t in targets):
            for key in [k for k in metrics if k.startswith(prefix)]:
                del metrics[key]
    return metrics
