"""Campaign tests touch process-global obs/ledger state."""

import pytest

from repro import obs
from repro.obs import ledger


@pytest.fixture(autouse=True)
def _reset_globals():
    obs.reset()
    ledger.reset()
    yield
    obs.reset()
    ledger.reset()
