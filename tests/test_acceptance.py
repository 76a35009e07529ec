"""Acceptance suite: one test (one pass/fail line under pytest -v) per
headline claim of the desk level, each run at the desk degrees its row of
cliffharm.verify.CHECKS declares; each test prints its verdict line."""

import pytest

from cliffharm import verify

DESK = [ident for ident in verify.CHECKS if any(verify.level_degrees(ident, "desk"))]


@pytest.mark.parametrize("ident", DESK)
def test_claim(ident):
    result = verify.run_check(ident, *verify.level_degrees(ident, "desk"))
    status = "PASS" if result.ok else "FAIL"
    print(f"[{status}] {result.ident} {result.description} -- {result.detail}")
    assert result.ok, f"{result.ident}: {result.detail}"
