"""swapcal verify's checks, each run in process under its own name on the
generator that `swapcal verify` gives it."""

import pytest

from swapcal import verify


@pytest.mark.parametrize("k", range(len(verify.CHECKS)),
                         ids=[name for name, _ in verify.CHECKS])
def test_verify_check(k):
    ok, detail = verify.CHECKS[k][1](verify.check_rng(k))
    assert ok, detail
