"""Randomized protocol invariants over mixed clusters and behaviors."""

import random

import pytest

import phalanx.mempool
from phalanx import ProtocolInvariantError, Scenario, Simulation, run
from phalanx.scenario import TIMESTAMP

from prop_harness import check_invariants, random_scenario, wide_scenario

BATCH = 40  # the acceptance suite runs the full 200-scenario battery


@pytest.mark.parametrize("index", range(BATCH))
def test_random_scenario_invariants(index):
    rng = random.Random(0xA5C0 + index)
    scenario = random_scenario(rng)
    failures = check_invariants(scenario)
    assert not failures, f"{scenario.to_dict()}: {failures}"


@pytest.mark.parametrize("index", range(BATCH))
def test_wide_scenario_invariants(index):
    scenario = wide_scenario(random.Random(7000 + index))
    failures = check_invariants(scenario)
    assert not failures, f"{scenario.to_dict()}: {failures}"


@pytest.mark.parametrize("window", [2, 8, 24])
@pytest.mark.parametrize("index", range(BATCH))
def test_wide_scenario_invariants_at_window(index, window, monkeypatch):
    # The same scenarios with other pre-order windows than the default.
    monkeypatch.setattr(phalanx.mempool, "PRE_ORDER_WINDOW", window)
    scenario = wide_scenario(random.Random(7000 + index))
    failures = check_invariants(scenario)
    assert not failures, f"window {window}, {scenario.to_dict()}: {failures}"


def test_alter_sets_respect_reliable_order_small():
    # No faults, four racing proposers: alter-path sets used to commit a
    # command ahead of a reliable predecessor left outside the set.
    scenario = Scenario(
        n=4, f=1, proposers=4, commands_per_proposer=17, delta_o=50,
        latency=(40, 150), propose_interval=0, seed=4079721836611,
    )
    result = run(scenario)
    assert result.reordered_ratio == 0.0
    assert check_invariants(scenario) == []


def test_alter16_invariants():
    scenario = Scenario(
        n=16, f=5, proposers=4, commands_per_proposer=20, delta_o=20,
        latency=(1, 1200), propose_interval=5, seed=9,
    )
    assert check_invariants(scenario) == []


@pytest.mark.parametrize("index", range(8))
def test_timestamp_strategy_consistency(index):
    rng = random.Random(0xBEEF + index)
    scenario = random_scenario(rng, strategy=TIMESTAMP)
    result = run(scenario)
    assert result.consistency
    assert not result.non_quiescent


def test_unanimous_preservation_under_pure_skew():
    # Skew-only adversaries never change any declared order, so every pair
    # is unanimously ordered and the total order must equal proposal order.
    from phalanx import NodeBehavior

    scenario = Scenario(
        n=4, f=1, proposers=1, commands_per_proposer=40, seed=77,
        byzantine={3: NodeBehavior(skew=-500)},
    )
    result = run(scenario)
    assert result.reordered_ratio == 0.0
    assert result.uncommitted == 0


def test_invariant_error_reported_as_failure(monkeypatch):
    def broken_run(self):
        raise ProtocolInvariantError("log (1, 2) missing after the gap check passed")

    monkeypatch.setattr(Simulation, "run", broken_run)
    failures = check_invariants(Scenario(n=4, f=1, commands_per_proposer=2))
    assert len(failures) == 1
    assert "log (1, 2) missing" in failures[0]
