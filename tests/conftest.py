import pytest

from brauerkit import build_standard_ledger, engine


@pytest.fixture(scope="session")
def derived_standard_ledger():
    """The full bound ledger, built and driven to its fixpoint once."""
    led = build_standard_ledger()
    entries = led.derive_all()
    return led, entries


@pytest.fixture
def pair_batch(monkeypatch):
    """Set engine._PAIR_BATCH, the most cells a batched loop takes in one
    block, for one test; the kernel and the ledger read it from engine, so
    this one patch reaches every loop."""
    def lower(cells):
        monkeypatch.setattr(engine, "_PAIR_BATCH", cells)
    return lower
