"""Fixtures shared by the test files."""

import pytest

from ringnet import scenarios


@pytest.fixture
def taken_snapshots(monkeypatch):
    """Every non-empty snapshot ``ScenarioRunner`` measures, in order.  The
    trace keeps only the newest, so tests that compare a whole run's
    topology collect them where they are taken."""
    taken = []
    take = scenarios.take_snapshot

    def keeping(nodes, timestamp):
        snap = take(nodes, timestamp)
        if snap.nodes:
            taken.append(snap)
        return snap

    monkeypatch.setattr(scenarios, "take_snapshot", keeping)
    return taken
