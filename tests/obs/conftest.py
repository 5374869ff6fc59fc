"""Observability tests share process-global state: reset around each."""

import pytest

from repro import obs
from repro.obs import ledger


@pytest.fixture(autouse=True)
def _reset_obs():
    obs.reset()
    ledger.reset()
    yield
    obs.reset()
    ledger.reset()
