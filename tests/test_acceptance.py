"""The ten acceptance criteria, one pass/fail line each, planted faults
that the criteria on the solvers' Bessel calls and on the pole orders
must catch, and run_all's verdict on a criterion that overruns its
budget or raises.

Criteria live in coneasym.acceptance (also behind `coneasym selftest`);
this module runs them once and asserts each outcome.
"""

import re
import time

import numpy as np
import pytest

from coneasym import acceptance, besselkit

_CACHE: dict = {}


def _results():
    if not _CACHE:
        _CACHE.update((r.cid, r) for r in acceptance.run_all())
    return _CACHE


@pytest.mark.parametrize("cid", [cid for cid, *_ in acceptance.CRITERIA],
                         ids=[f"criterion_{cid}" for cid, *_ in acceptance.CRITERIA])
def test_criterion(cid, capsys):
    result = _results()[cid]
    with capsys.disabled():
        print(acceptance.format_line(result))
    assert result.passed, result.detail


def test_criterion_10_catches_unscaled_complex_k(monkeypatch):
    """A bessel_k that returns K itself, not e^z K, on complex arguments
    (the resolvent's) and stays right on real ones."""
    scaled = besselkit.bessel_k

    def unscaled(nu, z):
        value = scaled(nu, z)
        return value * np.exp(-np.asarray(z)) if np.iscomplexobj(z) else value

    monkeypatch.setattr(besselkit, "bessel_k", unscaled)
    _, problems = acceptance.criterion_10()
    assert any("K 1/2" in p for p in problems)


def test_criterion_4_catches_off_by_one_pole_orders(monkeypatch):
    exact = acceptance.pole_set

    def off_by_one(cross_section, k):
        return tuple(p._replace(order=p.order + 1) for p in exact(cross_section, k))

    monkeypatch.setattr(acceptance, "pole_set", off_by_one)
    _, problems = acceptance.criterion_4()
    assert any("symbol multiplicities" in p for p in problems)


def test_run_all_fails_a_criterion_over_budget_or_raising(monkeypatch):
    def slow():
        time.sleep(0.05)
        return "slept", []

    def broken():
        raise ValueError("planted")

    monkeypatch.setattr(acceptance, "CRITERIA", [(1, "slow", slow, 0.01), (2, "broken", broken, 5.0),
                                                 (3, "quick", lambda: ("ok", []), 5.0)])
    slow_result, broken_result, quick = acceptance.run_all()
    assert not slow_result.passed
    assert re.fullmatch(r"slept, budget 0.01s; took \d+\.\d\ds, over the budget", slow_result.detail)
    assert not broken_result.passed
    assert "raised ValueError: planted" in broken_result.detail
    assert quick.passed and quick.detail == "ok, budget 5s"
