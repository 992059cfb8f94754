"""Fixtures shared by the test modules."""

import pytest

from lcoupler import dynamics


@pytest.fixture
def extractions(monkeypatch):
    """The transfer-channel extractions the program makes during the test,
    one list per dynamics.extract_channels call, in call order, holding the
    (schedule method, direction) of each schedule in the call's order;
    every call still extracts."""
    calls = []
    extract = dynamics.extract_channels

    def recording(cfg, schedules, *args, **kwargs):
        schedules = list(schedules)
        calls.append([(s.method, f"{s.emitter}->{s.receiver}") for s in schedules])
        return extract(cfg, schedules, *args, **kwargs)

    monkeypatch.setattr(dynamics, "extract_channels", recording)
    return calls
