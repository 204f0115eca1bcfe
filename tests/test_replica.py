"""The replica pipeline and the interface every ordering strategy offers."""

import pytest

from phalanx import HmacAuthenticator, simnet
from phalanx.replica import Replica
from phalanx.scenario import FOLLOW, STRATEGIES

INTERFACE = ("feed", "drain", "flush", "blocked_on", "unblock", "idle",
             "committed_order", "alter_path_ratio", "uses_consensus")
# Handlers the benchmark's tracer wraps on the node class's own namespace.
NODE_HANDLERS = ("on_tick", "on_message", "on_batch", "on_command")


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_strategy_offers_the_interface(strategy):
    executor = Replica(0, HmacAuthenticator(4, 1), strategy, designated=3).executor
    assert [name for name in INTERFACE if not hasattr(executor, name)] == []
    assert type(executor).uses_consensus is (strategy != FOLLOW)
    assert executor.idle and not executor.blocked_on and executor.committed_order == []
    assert executor.alter_path_ratio() == 0.0
    assert set(NODE_HANDLERS) <= vars(simnet._Node).keys()


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_pump_reports_whether_anything_was_fed(strategy):
    replica = Replica(0, HmacAuthenticator(4, 1), strategy)
    assert replica.pump() is False
    replica.consenter.log_sets.extend([(), ()])
    assert replica.pump() is True
    assert not replica.consenter.log_sets
