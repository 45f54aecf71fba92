"""The crash-loop governor every worker respawn consults.

:class:`~repro.runner.pool.RespawnGovernor` backs off exponentially in
the consecutive crash streak, forgets the streak on worker progress,
and refuses a respawn once more than ``RESPAWN_BUDGET`` crashes land
inside ``RESPAWN_WINDOW`` seconds.
"""

from __future__ import annotations

import types

import pytest

from repro.runner import pool
from repro.runner.pool import RESPAWN_BUDGET, RESPAWN_WINDOW, RespawnGovernor


@pytest.fixture
def clock(monkeypatch):
    """A hand-driven monotonic clock for the governor's window."""
    now = [1000.0]
    monkeypatch.setattr(pool, "time", types.SimpleNamespace(monotonic=lambda: now[0]))
    return now


def test_backoff_doubles_up_to_the_cap(clock):
    governor = RespawnGovernor()
    delays = []
    for _ in range(9):
        governor.note_crash(1)
        delays.append(governor.permit())
    assert delays == pytest.approx([0.0, 0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 2.0, 2.0])


def test_progress_resets_the_streak(clock):
    governor = RespawnGovernor()
    for _ in range(3):
        governor.note_crash(1)
    assert governor.permit() == pytest.approx(0.1)
    governor.note_progress()
    governor.note_crash(1)
    assert governor.permit() == 0.0


def test_the_thirteenth_crash_in_the_window_stops_respawning(clock):
    governor = RespawnGovernor()
    for _ in range(RESPAWN_BUDGET):
        governor.note_crash(-9)
        assert governor.permit() is not None
    governor.note_crash(-9)
    assert governor.permit() is None
    assert f"{RESPAWN_BUDGET + 1} crashes within {RESPAWN_WINDOW:g}s" in governor.diagnosis()


def test_a_crash_outside_the_window_is_forgotten(clock):
    governor = RespawnGovernor()
    for _ in range(RESPAWN_BUDGET):
        governor.note_crash(1)
    clock[0] += RESPAWN_WINDOW + 1
    governor.note_crash(1)
    assert governor.permit() is not None
    assert "1 crashes within" in governor.diagnosis()
