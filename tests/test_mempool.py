"""Ordering-protocol state machine: pre-order, vote, order."""

import dataclasses

import pytest

import phalanx.types
from phalanx import Command, EMPTY_DIGEST, HmacAuthenticator, Mempool, PartialOrderLog
from phalanx.mempool import (
    CHAIN_BREAK,
    DUPLICATE_COMMAND,
    INVALID_CERT,
    INVALID_PARTIAL,
    REJECT_EQUIVOCATION,
    REJECT_GAP,
    STALE_VOTE,
)
from phalanx.wire import PreOrderMessage, VoteMessage

N, F = 4, 1
QUORUM = 2 * F + 1


@pytest.fixture
def auth():
    return HmacAuthenticator(N, F)


@pytest.fixture
def pool(auth):
    return Mempool(0, auth)


def cmd(seq, payload=None):
    return Command.create(0, seq, payload or b"payload-%d" % seq)


def certify_own_log(pool, auth, now):
    """Drive the author through its own pre-order/vote/order round."""
    pre = pool.try_pre_order(now)
    assert pre is not None
    order = None
    for voter in range(QUORUM):
        vote = VoteMessage(pre.log.cur_digest, auth.partial_sign(voter, pre.log.cur_digest))
        result = pool.handle_vote(vote, voter)
        if result is not None:
            order = result
    assert order is not None
    return order.log


class TestEnqueue:
    def test_fifo_order(self, pool):
        a, b = cmd(1), cmd(2)
        assert pool.enqueue_command(a)
        assert pool.enqueue_command(b)
        assert list(pool.inbound) == [a, b]

    def test_duplicate_is_signaled_noop(self, pool):
        a = cmd(1)
        assert pool.enqueue_command(a)
        assert not pool.enqueue_command(a)
        assert len(pool.inbound) == 1
        assert pool.rejects[DUPLICATE_COMMAND] == 1


class TestPreOrder:
    def test_first_log_chains_from_empty(self, pool):
        pool.enqueue_command(cmd(1))
        msg = pool.try_pre_order(now=5)
        assert msg is not None
        log = msg.log
        assert (log.seq, log.prev_digest, log.timestamp) == (1, EMPTY_DIGEST, 5)
        assert log.certificate is None
        assert pool.pending is log

    def test_no_double_pending(self, pool):
        pool.enqueue_command(cmd(1))
        pool.enqueue_command(cmd(2))
        assert pool.try_pre_order(0) is not None
        assert pool.try_pre_order(50) is None  # one outstanding log at a time
        assert len(pool.inbound) == 1

    def test_empty_queue_returns_none(self, pool):
        assert pool.try_pre_order(0) is None

    def test_chain_continues_after_certification(self, pool, auth):
        pool.enqueue_command(cmd(1))
        pool.enqueue_command(cmd(2))
        first = certify_own_log(pool, auth, now=0)
        msg = pool.try_pre_order(50)
        assert msg.log.seq == 2
        assert msg.log.prev_digest == first.cur_digest

    def test_resend_after_interval(self, pool):
        pool.enqueue_command(cmd(1))
        original = pool.try_pre_order(0)
        assert pool.resend_pre_order(100, resend_ms=500) is None
        resent = pool.resend_pre_order(600, resend_ms=500)
        assert resent is not None
        assert resent.log == original.log


class TestVote:
    def _author_pre_order(self, auth, seq=1, prev=EMPTY_DIGEST, ts=0, command=None):
        command = command or cmd(seq)
        log = PartialOrderLog.create(1, seq, ts, command.digest, prev)
        return PreOrderMessage(log)

    def test_valid_first_log_gets_vote(self, pool, auth):
        msg = self._author_pre_order(auth)
        vote = pool.handle_pre_order(msg, sender=1)
        assert vote is not None
        assert vote.digest == msg.log.cur_digest
        assert auth.verify_partial(vote.partial)

    def test_equivocation_refused(self, pool, auth):
        first = self._author_pre_order(auth, command=cmd(1, b"one"))
        second = self._author_pre_order(auth, command=cmd(1, b"two"))
        assert pool.handle_pre_order(first, sender=1) is not None
        assert pool.handle_pre_order(second, sender=1) is None
        assert pool.rejects[REJECT_EQUIVOCATION] == 1

    def test_identical_rebroadcast_revotes(self, pool, auth):
        msg = self._author_pre_order(auth)
        v1 = pool.handle_pre_order(msg, sender=1)
        v2 = pool.handle_pre_order(msg, sender=1)
        assert v1 == v2

    def test_gap_refused(self, pool, auth):
        msg = self._author_pre_order(auth, seq=3, prev=b"\x05" * 32)
        assert pool.handle_pre_order(msg, sender=1) is None
        assert pool.rejects[REJECT_GAP] == 1

    def test_wrong_claimed_author_refused(self, pool, auth):
        msg = self._author_pre_order(auth)
        assert pool.handle_pre_order(msg, sender=2) is None

    def test_tampered_digest_refused(self, pool, auth):
        msg = self._author_pre_order(auth)
        bad = PreOrderMessage(dataclasses.replace(msg.log, timestamp=99))
        assert pool.handle_pre_order(bad, sender=1) is None


class TestOrder:
    def test_quorum_votes_emit_certified_log(self, pool, auth):
        pool.enqueue_command(cmd(1))
        log = certify_own_log(pool, auth, now=0)
        assert log.certificate is not None
        assert auth.verify_certificate(log.certificate)
        assert pool.pending is None
        assert pool.latest[0] is log
        assert pool.fetch_log(0, 1) is log

    def test_duplicate_votes_not_double_counted(self, pool, auth):
        pool.enqueue_command(cmd(1))
        pre = pool.try_pre_order(0)
        vote = VoteMessage(pre.log.cur_digest, auth.partial_sign(1, pre.log.cur_digest))
        assert pool.handle_vote(vote, 1) is None
        assert pool.handle_vote(vote, 1) is None
        assert len(pool.votes_for_pending) == 1

    def test_stale_vote_ignored(self, pool, auth):
        pool.enqueue_command(cmd(1))
        pool.enqueue_command(cmd(2))
        old = certify_own_log(pool, auth, now=0)
        stale = VoteMessage(old.cur_digest, auth.partial_sign(3, old.cur_digest))
        pool.try_pre_order(50)
        assert pool.handle_vote(stale, 3) is None
        assert pool.rejects[STALE_VOTE] >= 1

    def test_vote_with_wrong_sender_rejected(self, pool, auth):
        pool.enqueue_command(cmd(1))
        pre = pool.try_pre_order(0)
        vote = VoteMessage(pre.log.cur_digest, auth.partial_sign(1, pre.log.cur_digest))
        assert pool.handle_vote(vote, 2) is None

    def test_share_over_other_digest_refused(self, pool, auth):
        pool.enqueue_command(cmd(1))
        pre = pool.try_pre_order(0)
        digest = pre.log.cur_digest
        for voter in (0, 1):
            assert pool.handle_vote(VoteMessage(digest, auth.partial_sign(voter, digest)), voter) is None
        other = cmd(9).digest
        assert pool.handle_vote(VoteMessage(digest, auth.partial_sign(2, other)), 2) is None
        assert pool.rejects[INVALID_PARTIAL] == 1
        assert pool.pending is pre.log
        order = pool.handle_vote(VoteMessage(digest, auth.partial_sign(2, digest)), 2)
        assert order is not None
        assert auth.verify_certificate(order.log.certificate)

    def test_each_share_verified_once(self, pool, auth, monkeypatch):
        pool.enqueue_command(cmd(1))
        checked = []
        verify = auth.verify_partial
        monkeypatch.setattr(auth, "verify_partial", lambda ps: checked.append(ps) or verify(ps))
        log = certify_own_log(pool, auth, now=0)
        assert len(checked) == QUORUM
        assert sorted(ps.signer for ps in checked) == sorted(log.certificate.signer_set)


def make_certified(auth, node_id, seq, command, prev, ts=0):
    log = PartialOrderLog.create(node_id, seq, ts, command.digest, prev)
    shares = [auth.partial_sign(s, log.cur_digest) for s in range(QUORUM)]
    return log.with_certificate(auth.aggregate(log.cur_digest, shares))


class TestHandleOrder:
    def test_valid_log_updates_latest(self, pool, auth):
        log = make_certified(auth, 2, 1, cmd(1), EMPTY_DIGEST)
        assert pool.handle_order(log)
        assert pool.latest[2] is log

    def test_wrong_digest_certificate_rejected(self, pool, auth):
        log = make_certified(auth, 2, 1, cmd(1), EMPTY_DIGEST)
        other = make_certified(auth, 2, 1, cmd(2), EMPTY_DIGEST)
        forged = log.with_certificate(other.certificate)
        assert not pool.handle_order(forged)
        assert pool.rejects[INVALID_CERT] == 1
        assert pool.latest[2] is None

    def test_uncertified_log_rejected(self, pool, auth):
        log = PartialOrderLog.create(2, 1, 0, cmd(1).digest, EMPTY_DIGEST)
        assert not pool.handle_order(log)

    def test_conflicting_same_slot_flags_chain_break(self, pool, auth):
        a = make_certified(auth, 2, 1, cmd(1), EMPTY_DIGEST, ts=0)
        b = make_certified(auth, 2, 1, cmd(2), EMPTY_DIGEST, ts=1)
        assert pool.handle_order(a)
        assert not pool.handle_order(b)
        assert pool.rejects[CHAIN_BREAK] == 1
        assert pool.chain_break_evidence

    def test_idempotent_redelivery(self, pool, auth):
        log = make_certified(auth, 2, 1, cmd(1), EMPTY_DIGEST)
        assert pool.handle_order(log)
        assert pool.handle_order(log)
        assert pool.rejects[CHAIN_BREAK] == 0

    def test_stored_log_accepted_without_check(self, pool, auth, monkeypatch):
        log = make_certified(auth, 2, 1, cmd(1), EMPTY_DIGEST)
        assert pool.handle_order(log)
        checked = []
        monkeypatch.setattr(pool, "is_certified", checked.append)
        assert pool.handle_order(log)
        assert pool.handle_order(dataclasses.replace(log))
        assert checked == []

    @pytest.mark.parametrize("tamper", ["aggregate", "timestamp"])
    def test_tampered_copy_of_stored_log_checked(self, pool, auth, monkeypatch, tamper):
        log = make_certified(auth, 2, 1, cmd(1), EMPTY_DIGEST)
        assert pool.handle_order(log)
        if tamper == "aggregate":
            cert = log.certificate
            flipped = bytes([cert.aggregate[0] ^ 1]) + cert.aggregate[1:]
            forged = log.with_certificate(dataclasses.replace(cert, aggregate=flipped))
        else:
            forged = dataclasses.replace(log, timestamp=log.timestamp + 1)
        checked = []
        verify = pool.is_certified
        monkeypatch.setattr(pool, "is_certified", lambda l: checked.append(l) or verify(l))
        assert not pool.handle_order(forged)
        assert checked == [forged]
        assert pool.rejects[INVALID_CERT] == 1
        assert pool.fetch_log(2, 1) is log

    def test_order_equal_to_voted_pre_order_not_rehashed(self, pool, auth, monkeypatch):
        log = make_certified(auth, 2, 1, cmd(1), EMPTY_DIGEST)
        assert pool.handle_pre_order(PreOrderMessage(log.without_certificate()), 2) is not None
        hashed, certs = [], []
        verify = auth.verify_certificate
        monkeypatch.setattr(phalanx.types, "digest_log", lambda *a: hashed.append(a))
        monkeypatch.setattr(auth, "verify_certificate", lambda c: certs.append(c) or verify(c))
        assert pool.handle_order(log)
        assert hashed == []
        assert certs == [log.certificate]
        assert pool.fetch_log(2, 1) is log

    @pytest.mark.parametrize("field", ["timestamp", "command_digest", "prev_digest"])
    def test_changed_copy_at_voted_slot_rehashed(self, pool, auth, field):
        first = make_certified(auth, 2, 1, cmd(1), EMPTY_DIGEST)
        assert pool.handle_order(first)
        log = make_certified(auth, 2, 2, cmd(2), first.cur_digest, ts=50)
        assert pool.handle_pre_order(PreOrderMessage(log.without_certificate()), 2) is not None
        changed = {
            "timestamp": log.timestamp + 1,
            "command_digest": cmd(3).digest,
            "prev_digest": b"\x07" * 32,
        }[field]
        forged = dataclasses.replace(log, **{field: changed})
        assert forged.cur_digest == log.cur_digest
        assert not pool.handle_order(forged)
        assert pool.rejects[INVALID_CERT] == 1
        assert pool.fetch_log(2, 2) is None
        assert pool.handle_order(log)

    def test_prefix_consistency_enforced(self, pool, auth):
        first = make_certified(auth, 2, 1, cmd(1), EMPTY_DIGEST)
        detached = make_certified(auth, 2, 2, cmd(2), b"\x09" * 32)
        assert pool.handle_order(first)
        assert not pool.handle_order(detached)
        assert pool.rejects[CHAIN_BREAK] == 1

    def test_lookup_miss_returns_none(self, pool):
        assert pool.fetch_log(2, 6) is None
        assert pool.fetch_command(b"\x00" * 32) is None


class TestLogicalClockDensity:
    def test_certified_seqs_are_dense(self, pool, auth):
        for i in range(1, 6):
            pool.enqueue_command(cmd(i))
        for i in range(1, 6):
            certify_own_log(pool, auth, now=i * 50)
        seqs = sorted(seq for (author, seq) in pool.log_store if author == 0)
        assert seqs == [1, 2, 3, 4, 5]
        assert pool.seq == 5
