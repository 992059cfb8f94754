"""Fixtures shared by the test modules."""

import pytest

from lcoupler import dynamics


@pytest.fixture
def extractions(monkeypatch):
    """(schedule method, direction) of each transfer-channel extraction the
    program makes during the test, in order; every call still extracts."""
    calls = []
    extract = dynamics.extract_channel

    def recording(cfg, schedule, *args, **kwargs):
        calls.append((schedule.method, f"{schedule.emitter}->{schedule.receiver}"))
        return extract(cfg, schedule, *args, **kwargs)

    monkeypatch.setattr(dynamics, "extract_channel", recording)
    return calls
