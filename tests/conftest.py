import pytest


@pytest.fixture
def small_sweeps(monkeypatch):
    """The verify harness with its sum and property sweeps cut short, for
    tests that run it whole; test_run_all_default_names_and_inputs covers
    the default sizes."""
    from conwaykit import verify

    monkeypatch.setattr(verify, "THEOREM_MAX_N", 20)
    monkeypatch.setattr(verify, "DIAGRAM_SAMPLES", 12)
    monkeypatch.setattr(verify, "PAIR_SAMPLES", 4)
