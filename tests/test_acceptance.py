"""The eleven acceptance criteria, one pass/fail line each.

Criteria live in coneasym.acceptance (also behind `coneasym selftest`);
this module runs them once and asserts each outcome.
"""

import pytest

from coneasym import acceptance

_CACHE: dict = {}


def _results():
    if not _CACHE:
        _CACHE.update((r.cid, r) for r in acceptance.run_all())
    return _CACHE


@pytest.mark.parametrize("cid", [cid for cid, _, _ in acceptance.CRITERIA],
                         ids=[f"criterion_{cid}" for cid, _, _ in acceptance.CRITERIA])
def test_criterion(cid, capsys):
    result = _results()[cid]
    with capsys.disabled():
        print(acceptance.format_line(result))
    assert result.passed, result.detail
