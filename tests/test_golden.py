"""Built-in micro-scenarios must match their frozen outcomes."""

import time

from phalanx import Command, HmacAuthenticator, golden
from phalanx.golden import FifoPort, run_all, run_anchor_handoff, run_median_inversion
from phalanx.scenario import ANCHOR

AUTH = HmacAuthenticator(4, 1, cluster_seed=b"golden-test")
ONLY = Command.create(0, 1, b"only")


def test_anchor_handoff_passes():
    outcome = run_anchor_handoff()
    assert outcome.passed, "\n".join(outcome.details)


def test_anchor_handoff_is_fast():
    start = time.monotonic()
    run_anchor_handoff()
    assert time.monotonic() - start < 1.0


def test_median_inversion_passes():
    outcome = run_median_inversion()
    assert outcome.passed, "\n".join(outcome.details)


def test_run_all_reports_both():
    outcomes = run_all()
    assert [o.name for o in outcomes] == ["anchor-handoff", "median-inversion"]
    assert all(o.passed for o in outcomes)


def test_every_golden_replica_ends_clean(monkeypatch):
    ports = []

    class Recorded(FifoPort):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            ports.append(self)

    monkeypatch.setattr(golden, "FifoPort", Recorded)
    run_all()
    assert len(ports) == 3  # anchor handoff; median inversion under two strategies
    for port in ports:
        for replica in port.replicas:
            mempool = replica.mempool
            # No reject; only the fourth vote on each own log lands after
            # the quorum of three certified it.
            assert not mempool.rejects
            assert mempool.late_votes == mempool.seq
            assert mempool.rebroadcasts == 0
            assert replica.consenter.leader_faults == 0


def test_delivery_consumes_every_log_set():
    port = FifoPort(AUTH, ANCHOR)
    for replica in port.replicas[:3]:
        replica.on_command(ONLY)
        replica.tick(replica.node_id)
    port.run()
    leader = port.replicas[0]
    assert leader.tick(3)  # cuts the batch [1,1,1,-]
    port.run()
    assert not leader.consenter.log_sets
    assert [e.digest for e in leader.executor.committed_order] == [ONLY.digest]
