"""Order-batch generation and deterministic commit expansion."""

import random
from dataclasses import replace

import pytest

from phalanx import (
    BatchInvalid,
    Command,
    Consenter,
    HmacAuthenticator,
    Mempool,
    MissingLogs,
    PartialOrderLog,
)
from phalanx.golden import FifoPort
from phalanx.mempool import INVALID_CERT
from phalanx.scenario import ANCHOR
from phalanx.wire import OrderMessage

from prop_harness import certified_chain, certify_log

N, F = 4, 1
QUORUM = 2 * F + 1


@pytest.fixture
def auth():
    return HmacAuthenticator(N, F)


def command(node_id, seq):
    return Command.create(0, 100 * node_id + seq, b"c%d-%d" % (node_id, seq))


def certified(auth, node_id, seq, prev):
    log = PartialOrderLog.create(node_id, seq, seq, (command(node_id, seq).digest,), prev)
    return certify_log(auth, log)


def chain(auth, node_id, length):
    return certified_chain(
        auth, node_id, [(command(node_id, seq), seq) for seq in range(1, length + 1)])


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

    def test_batch_carries_only_the_heads_that_moved(self, setup, auth):
        pool, consenter = setup
        ones, twos = chain(auth, 1, 2), chain(auth, 2, 1)
        pool.handle_order(ones[0])
        pool.handle_order(twos[0])
        assert consenter.make_order_batch() == (None, ones[0], twos[0], None)
        pool.handle_order(ones[1])
        assert consenter.has_batch()
        assert consenter.make_order_batch() == (None, ones[1], None, None)
        assert not consenter.has_batch() and consenter.make_order_batch() is None


class TestSnapshotEquivalence:
    """A consenter fed the leader's batches, which carry only the heads that
    moved, and one fed full snapshots of the same heads expand one stream."""

    @pytest.mark.parametrize("seed", range(8))
    def test_delta_and_snapshot_streams_match(self, auth, seed):
        rng = random.Random(seed)
        chains = {author: chain(auth, author, 6) for author in (1, 2, 3)}
        every = [log for logs in chains.values() for log in logs]
        leader_pool = Mempool(0, auth)
        leader = Consenter(0, leader_pool)
        followers = []
        for node_id in (1, 2):
            pool = Mempool(node_id, auth)
            for log in every:
                assert pool.handle_order(log)
            followers.append(Consenter(node_id, pool))
        delta, snapshot = followers
        heads = dict.fromkeys(chains, 0)
        index = unchanged = 0
        for _ in range(12):
            for author in rng.sample(sorted(chains), rng.randint(0, 3)):
                heads[author] = min(6, heads[author] + rng.randint(1, 2))
                for log in chains[author][:heads[author]]:
                    leader_pool.handle_order(log)
            batch = leader.make_order_batch()
            if batch is None:
                continue
            full = tuple(leader_pool.latest)
            unchanged += sum(slot is None and head is not None for slot, head in zip(batch, full))
            assert delta.on_delivered(index, batch) == []
            assert snapshot.on_delivered(index, full) == []
            index += 1
        assert unchanged  # some batch left out a head that did not move
        assert list(delta.log_sets) == list(snapshot.log_sets)
        assert delta.committed_seq == snapshot.committed_seq == [0] + [heads[a] for a in (1, 2, 3)]
        assert delta.leader_faults == snapshot.leader_faults == 0


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


class TestExpandedBatchSkip:
    """Every slot enters the store through ``Mempool.handle_order``: a slot
    equal to the stored log, such as one already expanded, is not checked
    again, and every other slot is verified there, once per node."""

    @pytest.fixture
    def spied(self, setup, auth, monkeypatch):
        """The pool and consenter, and a call list: ("handle_order", log),
        ("verify", log whose handle_order is running, or None) and
        ("fetch_log", author, seq)."""
        pool, consenter = setup
        calls, running = [], []
        handle_order, fetch_log = pool.handle_order, pool.fetch_log
        verify = auth.verify_certificate

        def door(log):
            calls.append(("handle_order", log))
            running.append(log)
            try:
                return handle_order(log)
            finally:
                running.pop()

        monkeypatch.setattr(pool, "handle_order", door)
        monkeypatch.setattr(auth, "verify_certificate", lambda cert: calls.append(
            ("verify", running[-1] if running else None)) or verify(cert))
        monkeypatch.setattr(pool, "fetch_log", lambda author, seq: calls.append(
            ("fetch_log", author, seq)) or fetch_log(author, seq))
        return pool, consenter, calls

    def _verified(self, calls):
        return [call[1] for call in calls if call[0] == "verify"]

    def test_redelivered_batch_checks_nothing(self, spied, auth):
        _pool, consenter, calls = spied
        ones, twos = chain(auth, 1, 1), chain(auth, 2, 1)
        batch = (None, ones[0], twos[0], None)
        assert consenter.on_delivered(0, batch) == []
        assert self._verified(calls) == [ones[0], twos[0]]  # each inside its handle_order
        calls.clear()
        assert consenter.on_delivered(1, batch) == []
        assert calls == [("handle_order", ones[0]), ("handle_order", twos[0])]
        assert consenter.log_sets[1] == ()
        assert consenter.committed_seq == [0, 1, 1, 0]

    def test_tampered_copy_of_expanded_slot_refused(self, spied, auth):
        pool, consenter, calls = spied
        log = chain(auth, 1, 1)[0]
        consenter.on_delivered(0, (None, log, None, None))
        cert = log.certificate
        flipped = bytes([cert.aggregate[0] ^ 1]) + cert.aggregate[1:]
        forged = log.with_certificate(replace(cert, aggregate=flipped))
        calls.clear()
        assert consenter.on_delivered(1, (None, forged, None, None)) == []
        assert self._verified(calls) == [forged]
        assert consenter.leader_faults == 1
        assert pool.rejects[INVALID_CERT] == 1
        assert len(consenter.log_sets) == 1
        assert pool.fetch_log(1, 1) is log

    def test_expanded_slot_moved_to_another_position_refused(self, spied, auth):
        _pool, consenter, calls = spied
        log = chain(auth, 1, 1)[0]
        consenter.on_delivered(0, (None, log, None, None))
        calls.clear()
        assert consenter.on_delivered(1, (None, None, log, None)) == []
        assert calls == []  # refused before it reaches the store
        assert consenter.leader_faults == 1
        assert consenter.committed_seq == [0, 1, 0, 0]

    def test_refused_batch_keeps_its_valid_slots_stored(self, spied, auth):
        pool, consenter, calls = spied
        first = chain(auth, 1, 2)
        other = chain(auth, 2, 1)[0]
        consenter.on_delivered(0, (None, first[0], other, None))
        # Author 2's stored log under another log's certificate.
        forged = other.with_certificate(first[1].certificate)
        refused = (None, first[1], forged, None)
        calls.clear()
        consenter.on_delivered(1, refused)
        assert self._verified(calls) == [first[1]]
        assert pool.fetch_log(1, 2) is first[1]  # stored, as its order message would be
        assert pool.rejects[INVALID_CERT] == 1
        assert consenter.committed_seq == [0, 1, 1, 0]
        assert len(consenter.log_sets) == 1
        calls.clear()
        consenter.on_delivered(2, refused)
        assert consenter.leader_faults == 2
        consenter.on_delivered(3, (None, first[1], other, None))
        assert self._verified(calls) == []
        assert consenter.log_sets[-1] == (first[1],)
        assert consenter.leader_faults == 2

    def test_resumed_stall_expands_its_advancing_slots(self, spied, auth):
        pool, consenter, calls = spied
        ones, twos, threes = chain(auth, 1, 1), chain(auth, 2, 3), chain(auth, 3, 1)
        consenter.on_delivered(0, (None, ones[0], twos[0], None))
        # Slot 1 is an equal copy of the stored log: accepted unchecked.
        stalled = (None, replace(ones[0]), twos[2], threes[0])
        calls.clear()
        assert consenter.on_delivered(1, stalled) == [(2, 2)]
        assert self._verified(calls) == [twos[2], threes[0]]
        assert consenter.committed_seq == [0, 1, 1, 0]
        pool.handle_order(twos[1])
        calls.clear()
        assert consenter.on_log_stored(2, 2) == []
        # The stalled attempt stored its slots, so the retry verifies nothing
        # again; it repeats the range walk's lookups.
        assert self._verified(calls) == []
        assert [call for call in calls if call[0] == "fetch_log"] == [
            ("fetch_log", 2, 2), ("fetch_log", 2, 3), ("fetch_log", 3, 1)]
        assert consenter.log_sets[-1] == (threes[0], twos[1], twos[2])
        assert consenter.committed_seq == [0, 1, 3, 1]
        calls.clear()
        consenter.on_delivered(2, stalled)
        assert self._verified(calls) == [] and consenter.log_sets[-1] == ()

    def test_each_certificate_verified_once_per_node(self, monkeypatch):
        # Four replicas: every certified log reaches each peer as an order
        # message and again in the leader's batch, replica 3 getting the
        # batch first, and only handle_order verifies it, once per node.
        net = FifoPort(HmacAuthenticator(N, F, cluster_seed=b"one-door"), ANCHOR, tick_ms=2)
        running, verified = [], []
        handle_order = Mempool.handle_order
        verify = net.replicas[0].mempool.auth.verify_certificate

        def door(pool, log):
            running.append(pool.node_id)
            try:
                return handle_order(pool, log)
            finally:
                running.pop()

        monkeypatch.setattr(Mempool, "handle_order", door)
        monkeypatch.setattr(net.replicas[0].mempool.auth, "verify_certificate", lambda cert: (
            verified.append((running[-1] if running else None, cert.event_digest))
            or verify(cert)))
        for stamp in (10, 20):
            for replica in net.replicas:
                replica.on_command(command(replica.node_id, stamp))
                replica.tick(stamp)
            held = []
            while net.queue:
                src, dst, msg = net.queue.popleft()
                if dst == 3 and isinstance(msg, OrderMessage):
                    held.append((src, dst, msg))
                else:
                    net.deliver(src, dst, msg)
            assert net.replicas[0].tick(stamp + 5)
            net.queue.extend(held)  # behind the batch
            net.run()
        logs = {(log.node_id, log.cur_digest) for log in net.replicas[0].mempool.log_store.values()}
        assert len(logs) == 8 and len(net.batches) == 2
        assert sorted(verified) == sorted(
            (node, digest) for node in range(N) for author, digest in logs if author != node)
        assert [r.consenter.committed_seq for r in net.replicas] == [[2, 2, 2, 2]] * N


class TestExpandInvariant:
    def test_rejected_frontier_slot_raises(self, setup, auth):
        # A certified slot that breaks the stored chain (possible only with
        # more than f faults) is refused by the mempool's handle_order, so the
        # batch is invalid: expansion could not find the frontier log it was
        # promised.
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

