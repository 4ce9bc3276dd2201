"""Tests for QUEST configuration objects and result accounting."""

from __future__ import annotations

import pytest

from repro import QuestConfig
from repro.core.objective import SIMILARITY_WEIGHT
from repro.core.quest import QuestTimings
from repro.synthesis import LeapConfig


def test_quest_config_defaults():
    config = QuestConfig()
    assert config.max_block_qubits == 3
    assert config.max_samples == 16  # the paper's M
    assert SIMILARITY_WEIGHT == 0.5  # the paper's balance


def test_leap_target_cost_conversion():
    config = LeapConfig(target_distance=0.6)
    # cost = 1 - sqrt(1 - d^2) = 1 - 0.8 = 0.2
    assert config.target_cost == pytest.approx(0.2)
    assert LeapConfig().target_cost is None
    assert LeapConfig(target_distance=0.0).target_cost == pytest.approx(0.0)
    assert LeapConfig(target_distance=1.0).target_cost == pytest.approx(1.0)


def test_timings_total():
    timings = QuestTimings(
        partition_seconds=1.0, synthesis_seconds=2.0, selection_seconds=0.5
    )
    assert timings.total_seconds == pytest.approx(3.5)
