"""Order-batch generation and deterministic commit expansion."""

from dataclasses import replace

import pytest

from phalanx import (
    BatchInvalid,
    Command,
    Consenter,
    EMPTY_DIGEST,
    HmacAuthenticator,
    Mempool,
    MissingLogs,
    PartialOrderLog,
    ProtocolInvariantError,
)

N, F = 4, 1
QUORUM = 2 * F + 1


@pytest.fixture
def auth():
    return HmacAuthenticator(N, F)


def certified(auth, node_id, seq, prev, payload=None, ts=None):
    command = Command.create(0, 100 * node_id + seq, payload or b"c%d-%d" % (node_id, seq))
    log = PartialOrderLog.create(node_id, seq, ts if ts is not None else seq, command.digest, prev)
    shares = [auth.partial_sign(s, log.cur_digest) for s in range(QUORUM)]
    return log.with_certificate(auth.aggregate(log.cur_digest, shares))


def chain(auth, node_id, length):
    logs, prev = [], EMPTY_DIGEST
    for seq in range(1, length + 1):
        log = certified(auth, node_id, seq, prev)
        logs.append(log)
        prev = log.cur_digest
    return logs


@pytest.fixture
def setup(auth):
    pool = Mempool(0, auth)
    consenter = Consenter(0, pool)
    return pool, consenter


class TestMakeOrderBatch:
    def test_no_progress_returns_none(self, setup):
        _pool, consenter = setup
        assert consenter.make_order_batch() is None

    def test_snapshot_contains_latest_vector(self, setup, auth):
        pool, consenter = setup
        log = chain(auth, 1, 1)[0]
        pool.handle_order(log)
        batch = consenter.make_order_batch()
        assert batch == (None, log, None, None)

    def test_committed_frontier_suppresses_stale_batches(self, setup, auth):
        pool, consenter = setup
        log = chain(auth, 1, 1)[0]
        pool.handle_order(log)
        consenter.commit_order_batch(consenter.make_order_batch())
        assert consenter.make_order_batch() is None

    def test_new_logs_reenable_batching(self, setup, auth):
        pool, consenter = setup
        logs = chain(auth, 1, 2)
        pool.handle_order(logs[0])
        consenter.commit_order_batch(consenter.make_order_batch())
        pool.handle_order(logs[1])
        batch = consenter.make_order_batch()
        assert batch[1] is logs[1]


class TestCommit:
    def test_gap_fill_pulls_full_range(self, setup, auth):
        pool, consenter = setup
        logs = chain(auth, 2, 3)
        for log in logs:
            pool.handle_order(log)
        batch = (None, None, logs[2], None)
        log_set = consenter.commit_order_batch(batch)
        assert [log.seq for log in log_set] == [1, 2, 3]
        assert consenter.committed_seq == [0, 0, 3, 0]

    def test_stale_entry_contributes_nothing(self, setup, auth):
        pool, consenter = setup
        logs = chain(auth, 2, 3)
        for log in logs:
            pool.handle_order(log)
        consenter.commit_order_batch((None, None, logs[2], None))
        log_set = consenter.commit_order_batch((None, None, logs[1], None))
        assert log_set == ()
        assert consenter.committed_seq == [0, 0, 3, 0]

    def test_sort_by_seq_then_author(self, setup, auth):
        pool, consenter = setup
        chain1 = chain(auth, 1, 2)
        chain2 = chain(auth, 2, 1)
        for log in chain1 + chain2:
            pool.handle_order(log)
        log_set = consenter.commit_order_batch((None, chain1[1], chain2[0], None))
        assert [(log.seq, log.node_id) for log in log_set] == [(1, 1), (1, 2), (2, 1)]

    def test_missing_logs_raised_with_gap_list(self, setup, auth):
        pool, consenter = setup
        logs = chain(auth, 2, 3)
        pool.handle_order(logs[0])  # seq 2 never arrives locally
        with pytest.raises(MissingLogs) as err:
            consenter.commit_order_batch((None, None, logs[2], None))
        assert err.value.missing == [(2, 2)]

    def test_invalid_certificate_rejected(self, setup, auth):
        _pool, consenter = setup
        good = chain(auth, 1, 1)[0]
        forged = good.with_certificate(chain(auth, 2, 1)[0].certificate)
        with pytest.raises(BatchInvalid):
            consenter.commit_order_batch((None, forged, None, None))

    def test_misplaced_author_rejected(self, setup, auth):
        _pool, consenter = setup
        log = chain(auth, 1, 1)[0]
        with pytest.raises(BatchInvalid):
            consenter.commit_order_batch((log, None, None, None))

    def test_wrong_width_rejected(self, setup, auth):
        _pool, consenter = setup
        with pytest.raises(BatchInvalid):
            consenter.commit_order_batch((None, None))


class TestDeliveryPipeline:
    def _full_stores(self, auth, count=3):
        pools = []
        all_logs = [log for node in (1, 2) for log in chain(auth, node, count)]
        for node_id in range(2):
            pool = Mempool(node_id, auth)
            for log in all_logs:
                pool.handle_order(log)
            pools.append(pool)
        return pools, all_logs

    def test_identical_stream_for_identical_batches(self, auth):
        pools, logs = self._full_stores(auth)
        batches = [
            (None, logs[0], None, None),
            (None, logs[2], logs[3], None),
            (None, logs[2], logs[5], None),
        ]
        streams = []
        for pool in pools:
            consenter = Consenter(pool.node_id, pool)
            for index, batch in enumerate(batches):
                assert consenter.on_delivered(index, batch) == []
            streams.append(list(consenter.log_sets))
        assert streams[0] == streams[1]

    def test_out_of_order_delivery_buffers(self, auth):
        pools, logs = self._full_stores(auth)
        consenter = Consenter(0, pools[0])
        batches = {
            0: (None, logs[0], None, None),
            1: (None, logs[1], None, None),
        }
        assert consenter.on_delivered(1, batches[1]) == []
        assert len(consenter.log_sets) == 0  # index 0 still missing
        assert consenter.on_delivered(0, batches[0]) == []
        assert len(consenter.log_sets) == 2

    def test_exactly_once_across_log_sets(self, auth):
        pools, logs = self._full_stores(auth)
        consenter = Consenter(0, pools[0])
        batches = [
            (None, logs[1], None, None),
            (None, logs[2], logs[4], None),
            (None, logs[2], logs[5], None),
        ]
        for index, batch in enumerate(batches):
            consenter.on_delivered(index, batch)
        seen = set()
        for log_set in consenter.log_sets:
            for log in log_set:
                key = (log.node_id, log.seq)
                assert key not in seen
                seen.add(key)
        # prefix completeness: everything up to the frontier appeared
        for author in (1, 2):
            seqs = sorted(s for (a, s) in seen if a == author)
            assert seqs == list(range(1, consenter.committed_seq[author] + 1))

    def test_stall_and_resume_on_fetched_log(self, auth):
        pool = Mempool(0, auth)
        logs = chain(auth, 2, 3)
        pool.handle_order(logs[0])
        consenter = Consenter(0, pool)
        missing = consenter.on_delivered(0, (None, None, logs[2], None))
        assert missing == [(2, 2)]
        assert consenter.blocked
        # A later batch buffers behind the stall.
        assert consenter.on_delivered(1, (None, None, logs[2], None)) == []
        assert len(consenter.log_sets) == 0
        pool.handle_order(logs[1])
        assert consenter.on_log_stored(2, 2) == []
        assert not consenter.blocked
        assert [log.seq for log in consenter.log_sets[0]] == [1, 2, 3]
        assert len(consenter.log_sets) == 2  # stalled batch plus the buffered one


class TestStoredSlotSkip:
    """A slot equal to the stored log skips re-verification; any other is checked."""

    @pytest.fixture
    def stored(self, setup, auth, monkeypatch):
        pool, consenter = setup
        log = chain(auth, 1, 1)[0]
        assert pool.handle_order(log)
        calls = []
        verify = auth.verify_certificate
        monkeypatch.setattr(
            auth, "verify_certificate", lambda cert: calls.append(cert) or verify(cert)
        )
        return pool, consenter, log, calls

    def test_equal_slot_accepted_without_certificate_check(self, stored):
        _pool, consenter, log, calls = stored
        assert consenter.on_delivered(0, (None, log, None, None)) == []
        assert calls == []
        assert consenter.leader_faults == 0
        assert consenter.log_sets[0] == (log,)

    def test_equal_copy_accepted_without_certificate_check(self, stored):
        _pool, consenter, log, calls = stored
        copy = replace(log)
        assert copy is not log
        consenter.on_delivered(0, (None, copy, None, None))
        assert calls == []
        assert consenter.committed_seq[1] == 1

    @pytest.mark.parametrize("tamper", ["aggregate", "timestamp", "signers"])
    def test_tampered_copy_of_stored_log_rejected(self, stored, auth, tamper):
        pool, consenter, log, calls = stored
        cert = log.certificate
        if tamper == "aggregate":
            flipped = bytes([cert.aggregate[0] ^ 1]) + cert.aggregate[1:]
            forged = log.with_certificate(replace(cert, aggregate=flipped))
        elif tamper == "signers":
            others = frozenset(range(1, QUORUM + 1))
            forged = log.with_certificate(replace(cert, signer_set=others))
        else:
            forged = replace(log, timestamp=log.timestamp + 1)
        assert pool.fetch_log(1, 1) == log != forged
        with pytest.raises(BatchInvalid):
            consenter.commit_order_batch((None, forged, None, None))
        calls.clear()
        assert consenter.on_delivered(0, (None, forged, None, None)) == []
        assert consenter.leader_faults == 1
        assert consenter.committed_seq == [0, 0, 0, 0]
        assert len(consenter.log_sets) == 0
        assert pool.fetch_log(1, 1) is log
        if tamper != "timestamp":
            assert len(calls) == 1  # the forged certificate was checked

    def test_unstored_slot_still_verified(self, setup, auth, monkeypatch):
        pool, consenter = setup
        log = chain(auth, 2, 1)[0]
        calls = []
        verify = auth.verify_certificate
        monkeypatch.setattr(
            auth, "verify_certificate", lambda cert: calls.append(cert) or verify(cert)
        )
        consenter.commit_order_batch((None, None, log, None))
        assert calls  # verified before it was stored
        assert pool.fetch_log(2, 1) == log


class TestExpandInvariant:
    def test_rejected_frontier_slot_raises(self, setup, auth):
        # A certified slot that breaks the stored chain (possible only with
        # more than f faults) is refused by the mempool, so the batch is
        # invalid: expansion could not find the frontier log it was promised.
        pool, consenter = setup
        first = chain(auth, 2, 1)[0]
        pool.handle_order(first)
        fork = certified(auth, 2, 2, b"\x11" * 32)
        with pytest.raises(BatchInvalid):
            consenter.commit_order_batch((None, None, fork, None))
        assert pool.rejects["chain_break"] == 1
        assert consenter.committed_seq == [0, 0, 0, 0]
        assert not consenter.log_sets

    def test_rejected_frontier_slot_counts_leader_fault(self, setup, auth):
        pool, consenter = setup
        pool.handle_order(chain(auth, 2, 1)[0])
        fork = certified(auth, 2, 2, b"\x11" * 32)
        assert consenter.on_delivered(0, (None, None, fork, None)) == []
        assert consenter.leader_faults == 1
        assert not consenter.log_sets
        # The pipeline moves on past the skipped batch.
        good = chain(auth, 1, 1)[0]
        pool.handle_order(good)
        assert consenter.on_delivered(1, (None, good, None, None)) == []
        assert consenter.log_sets.popleft() == (good,)

    def test_expand_raises_on_missing_promised_log(self, setup, auth):
        _pool, consenter = setup
        unstored = chain(auth, 1, 1)[0]
        with pytest.raises(ProtocolInvariantError):
            consenter._expand((None, unstored, None, None))
