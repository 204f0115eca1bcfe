"""Built-in micro-scenarios must match their frozen outcomes."""

import time

import pytest

from phalanx import (
    EMPTY_DIGEST,
    Command,
    HmacAuthenticator,
    PartialOrderLog,
    ProtocolInvariantError,
)
from phalanx.golden import (
    _chain,
    _replica,
    run_all,
    run_anchor_handoff,
    run_median_inversion,
)

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


def test_delivery_consumes_every_log_set():
    chains = [_chain(AUTH, node, [(ONLY, node)]) for node in range(3)]
    replica = _replica(0, AUTH, "anchor", [ONLY], [chain[0] for chain in chains])
    replica.on_batch(0, (chains[0][0], chains[1][0], chains[2][0], None))
    assert not replica.consenter.log_sets
    assert [e.digest for e in replica.executor.committed_order] == [ONLY.digest]


def test_rejected_harness_log_raises():
    uncertified = PartialOrderLog.create(1, 1, 5, ONLY.digest, EMPTY_DIGEST)
    with pytest.raises(ProtocolInvariantError):
        _replica(0, AUTH, "anchor", [ONLY], [uncertified])


def test_harness_batch_with_a_gap_raises():
    chain = _chain(AUTH, 1, [(ONLY, 1), (Command.create(0, 2, b"next"), 2)])
    replica = _replica(0, AUTH, "anchor", [ONLY], [])
    with pytest.raises(ProtocolInvariantError):
        replica.on_batch(0, (None, chain[1], None, None))
