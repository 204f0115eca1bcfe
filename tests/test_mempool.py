"""Ordering-protocol state machine: pre-order, vote, order."""

import dataclasses

import pytest

import phalanx.mempool
import phalanx.types
from phalanx import Command, EMPTY_DIGEST, HmacAuthenticator, Mempool, PartialOrderLog
from phalanx.consensus import Consenter
from phalanx.mempool import (
    CHAIN_BREAK,
    DUPLICATE_COMMAND,
    INVALID_CERT,
    INVALID_PARTIAL,
    PRE_ORDER_WINDOW,
    REJECT_BAD_DIGEST,
    REJECT_EQUIVOCATION,
    REJECT_GAP,
)
from phalanx.wire import PreOrderMessage, VoteMessage

from prop_harness import certify_log

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


def certify(pool, auth, log, now=None):
    """Deliver 2f+1 votes for the author's outstanding ``log`` at ``now``
    (default: the log's own stamp); return the certified log."""
    now = log.timestamp if now is None else now
    order = None
    for voter in range(QUORUM):
        vote = VoteMessage(auth.partial_sign(voter, log.cur_digest))
        result = pool.handle_vote(vote, voter, now)
        if result is not None:
            order = result
    assert order is not None
    return order.log


def pre_order(pool, now, k=1):
    """Stage the front ``k`` queued commands and pre-order them as one log."""
    for _ in range(k):
        pool.stage()
    return pool.try_pre_order(now)


def certify_own_log(pool, auth, now):
    """Drive the author through its own pre-order/vote/order round."""
    pre = pre_order(pool, now)
    assert pre is not None
    return certify(pool, auth, pre.log)


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
        msg = pre_order(pool, 5)
        assert msg is not None
        log = msg.log
        assert (log.seq, log.prev_digest, log.timestamp) == (1, EMPTY_DIGEST, 5)
        assert log.certificate is None
        assert [entry.log for entry in pool.outstanding.values()] == [log]

    @pytest.mark.parametrize("window", [1, 4, 12])
    def test_window_caps_outstanding_logs(self, pool, auth, window, monkeypatch):
        monkeypatch.setattr(phalanx.mempool, "PRE_ORDER_WINDOW", window)
        for i in range(1, window + 3):
            pool.enqueue_command(cmd(i))
        pres = [pre_order(pool, 50 * k) for k in range(window)]
        assert all(pre is not None for pre in pres)
        assert not pool.has_room()
        assert pool.try_pre_order(50 * window) is None  # nothing staged
        assert len(pool.outstanding) == window
        assert len(pool.inbound) == 2
        certify(pool, auth, pres[-1].log)  # completing any one log frees a place
        assert pool.has_room()
        assert pre_order(pool, 50 * window) is not None
        assert len(pool.outstanding) == window
        assert len(pool.inbound) == 1

    def test_tick_packs_its_staged_commands_into_one_log(self, pool):
        for i in (1, 2, 3):
            pool.enqueue_command(cmd(i))
        log = pre_order(pool, 40, k=3).log
        assert log.command_digests == tuple(cmd(i).digest for i in (1, 2, 3))
        assert list(log.stamped()) == [(40 + k, cmd(k + 1).digest) for k in range(3)]
        assert (pool.seq, pool.in_flight, pool.staged) == (1, 3, [])

    def test_author_stops_at_window_commands_across_logs(self, pool, auth):
        # Logs of up to 10 commands: 10 + 10 + 4 fill the window of 24, and
        # certifying the first log frees room for 10 more.
        for i in range(1, 41):
            pool.enqueue_command(cmd(i))

        def tick(now):
            k = 0
            while k < 10 and pool.inbound and pool.has_room():
                pool.stage()
                k += 1
            return pool.try_pre_order(now)

        logs = [tick(now) for now in (0, 50, 100, 150)]
        assert [len(msg.log.command_digests) for msg in logs[:3]] == [10, 10, 4]
        assert logs[3] is None
        assert pool.in_flight == PRE_ORDER_WINDOW and not pool.has_room()
        certify(pool, auth, logs[0].log)
        assert pool.in_flight == 14 and pool.has_room()
        assert len(tick(200).log.command_digests) == 10
        assert not pool.has_room()

    def test_new_log_chains_on_uncertified_own_log(self, pool):
        pool.enqueue_command(cmd(1))
        pool.enqueue_command(cmd(2))
        first = pre_order(pool, 0).log
        second = pre_order(pool, 50).log
        assert (second.seq, second.prev_digest) == (2, first.cur_digest)
        assert pool.latest[0] is None

    def test_empty_queue_returns_none(self, pool):
        assert pool.try_pre_order(0) is None

    def test_chain_continues_after_certification(self, pool, auth):
        pool.enqueue_command(cmd(1))
        pool.enqueue_command(cmd(2))
        first = certify_own_log(pool, auth, now=0)
        msg = pre_order(pool, 50)
        assert msg.log.seq == 2
        assert msg.log.prev_digest == first.cur_digest

    def test_resend_after_interval(self, auth):
        pool = Mempool(0, auth, resend_ms=500)
        pool.enqueue_command(cmd(1))
        original = pre_order(pool, 0)
        assert pool.resend_pre_order(100) is None
        resent = pool.resend_pre_order(600)
        assert resent is not None
        assert resent.log == original.log

    def test_resend_takes_the_log_due_first(self, auth):
        pool = Mempool(0, auth, resend_ms=60)
        for i in (1, 2, 3):
            pool.enqueue_command(cmd(i))
        logs = [pre_order(pool, now).log for now in (0, 50, 100)]
        assert pool.resend_pre_order(60).log is logs[0]
        # Log 2 (last sent at 50) now falls due before log 1 (re-sent at 60).
        assert pool.first_due().log is logs[1]
        assert pool.resend_pre_order(109) is None
        assert pool.resend_pre_order(110).log is logs[1]
        # One log per call; log 1 (sent at 60) before log 3 (sent at 100).
        assert pool.resend_pre_order(160).log is logs[0]
        assert pool.resend_pre_order(160).log is logs[2]
        assert pool.resend_pre_order(160) is None


class TestRoundTripEstimator:
    """The re-broadcast timeout follows the vote round trip, RFC 6298 style:
    ``max(resend_ms, SRTT + 4 * RTTVAR)`` once a round trip is sampled."""

    def test_first_sample_sets_srtt_and_half_of_it_as_variance(self, auth):
        pool = Mempool(0, auth, resend_ms=500)
        pool.enqueue_command(cmd(1))
        pool.enqueue_command(cmd(2))
        certify(pool, auth, pre_order(pool, 100).log, now=1100)
        assert (pool.srtt, pool.rttvar) == (1000, 500)
        assert pool.resend_timeout() == 1000 + 4 * 500
        # The next log waits that timeout, not resend_ms.
        pre_order(pool, 2000)
        assert pool.resend_pre_order(4999) is None
        assert pool.resend_pre_order(5000) is not None

    def test_second_sample_follows_rfc_6298(self, auth):
        # R1 = 1000, then R2 = 1800 (RFC 6298 2.3, RTTVAR first):
        #   RTTVAR = 3/4 * 500 + 1/4 * |1000 - 1800| = 375 + 200 = 575
        #   SRTT   = 7/8 * 1000 + 1/8 * 1800 = 875 + 225 = 1100
        # then R3 = 1101, rounded down to whole ms:
        #   RTTVAR = 3/4 * 575 + 1/4 * 1 = 431.5 -> 431
        #   SRTT   = 7/8 * 1100 + 1/8 * 1101 = 1100.125 -> 1100
        # Each log is sent at the previous sample, so each is timed.
        pool = Mempool(0, auth, resend_ms=2000)
        for i in (1, 2, 3):
            pool.enqueue_command(cmd(i))
        certify(pool, auth, pre_order(pool, 0).log, now=1000)
        certify(pool, auth, pre_order(pool, 1000).log, now=2800)
        assert (pool.srtt, pool.rttvar) == (1100, 575)
        assert pool.resend_timeout() == 1100 + 4 * 575
        certify(pool, auth, pre_order(pool, 2800).log, now=3901)
        assert (pool.srtt, pool.rttvar) == (1100, 431)

    def test_logs_certified_together_give_one_sample(self, auth):
        # One vote transmission certifies three logs at 1000: only the
        # first is timed, R = 1000. The log sent at 1000
        # is timed again, R = 800:
        #   RTTVAR = (3 * 500 + |1000 - 800|) // 4 = 425
        #   SRTT = (7 * 1000 + 800) // 8 = 975
        pool = Mempool(0, auth, resend_ms=2000)
        for i in (1, 2, 3, 4):
            pool.enqueue_command(cmd(i))
        logs = [pre_order(pool, stamp).log for stamp in (0, 1, 2)]
        for log in logs:
            certify(pool, auth, log, now=1000)
        assert (pool.srtt, pool.rttvar) == (1000, 500)
        certify(pool, auth, pre_order(pool, 1000).log, now=1800)
        assert (pool.srtt, pool.rttvar) == (975, 425)

    def test_timeout_never_below_resend_ms(self, auth):
        pool = Mempool(0, auth, resend_ms=500)
        assert pool.resend_timeout() == 500  # no sample yet
        for i in (1, 2):
            pool.enqueue_command(cmd(i))
        certify(pool, auth, pre_order(pool, 0).log, now=10)
        assert pool.srtt + 4 * pool.rttvar == 30
        assert pool.resend_timeout() == 500
        pre_order(pool, 100)
        assert pool.resend_pre_order(599) is None
        assert pool.resend_pre_order(600) is not None

    def test_rebroadcast_log_samples_from_its_first_send(self, auth):
        pool = Mempool(0, auth, resend_ms=2000)
        pool.enqueue_command(cmd(1))
        log = pre_order(pool, 100).log
        assert pool.resend_pre_order(2100).log is log
        assert pool.first_due().sent == 2100
        certify(pool, auth, log, now=2700)
        assert (pool.srtt, pool.rttvar) == (2600, 1300)
        assert pool.rebroadcasts == 1


def author_chain(length, author=1, payload=b"c"):
    """``length`` chained pre-order logs of ``author``."""
    logs, prev = [], EMPTY_DIGEST
    for seq in range(1, length + 1):
        logs.append(PartialOrderLog.create(
            author, seq, 50 * seq, (cmd(seq, payload + b"%d" % seq).digest,), prev))
        prev = logs[-1].cur_digest
    return logs


class TestVote:
    def _author_pre_order(self, auth, seq=1, prev=EMPTY_DIGEST, ts=0, command=None):
        command = command or cmd(seq)
        log = PartialOrderLog.create(1, seq, ts, (command.digest,), prev)
        return PreOrderMessage(log)

    @pytest.mark.parametrize("head", [0, 1])
    def test_head_plus_window_plus_one_refused(self, pool, auth, head):
        chain = author_chain(head + PRE_ORDER_WINDOW + 1)
        for log in chain[:head]:
            assert pool.handle_order(certify_log(auth, log))
        for log in chain[head:-1]:
            assert pool.handle_pre_order(PreOrderMessage(log), 1) is not None
        assert pool.handle_pre_order(PreOrderMessage(chain[-1]), 1) is None
        assert pool.rejects[REJECT_GAP] == 1
        if head:  # at or below the certified head is refused too
            assert pool.handle_pre_order(PreOrderMessage(chain[0]), 1) is None
            assert pool.rejects[REJECT_GAP] == 2

    def test_second_digest_at_voted_seq_refused(self, pool):
        chain = author_chain(3)
        other = author_chain(3, payload=b"other")
        for log in chain:
            assert pool.handle_pre_order(PreOrderMessage(log), 1) is not None
        # Same seq, same predecessor, another command.
        fork = PartialOrderLog.create(1, 2, 100, (cmd(9).digest,), chain[0].cur_digest)
        for log in (fork, other[0], other[2]):
            assert pool.handle_pre_order(PreOrderMessage(log), 1) is None
        assert pool.rejects[REJECT_EQUIVOCATION] == 3
        assert pool.rejects[REJECT_GAP] == 0

    def test_window_counts_the_commands_of_voted_logs(self, pool, auth):
        # Logs of 10 and 10 commands voted above the head leave room for 4:
        # a log of 5 would put 25 commands above it and is refused, one of 4
        # is endorsed. Once the head passes the first log, 5 fit again.
        def log(seq, prev, size, ts):
            digests = tuple(cmd(100 * seq + k).digest for k in range(size))
            return PartialOrderLog.create(1, seq, ts, digests, prev)

        first = log(1, EMPTY_DIGEST, 10, 0)
        second = log(2, first.cur_digest, 10, 50)
        for voted in (first, second):
            assert pool.handle_pre_order(PreOrderMessage(voted), 1) is not None
        five = log(3, second.cur_digest, 5, 100)
        assert pool.handle_pre_order(PreOrderMessage(five), 1) is None
        assert pool.rejects[REJECT_GAP] == 1
        four = log(3, second.cur_digest, 4, 100)
        assert pool.handle_pre_order(PreOrderMessage(four), 1) is not None
        fresh = Mempool(0, auth)
        for voted in (first, second):
            fresh.handle_pre_order(PreOrderMessage(voted), 1)
        assert fresh.handle_order(certify_log(auth, first))
        assert fresh.handle_pre_order(PreOrderMessage(five), 1) is not None
        assert not fresh.rejects

    def test_empty_log_refused(self, pool):
        real = author_chain(1)[0]
        empty = dataclasses.replace(real, command_digests=())
        assert pool.handle_pre_order(PreOrderMessage(empty), 1) is None
        assert pool.rejects[REJECT_BAD_DIGEST] == 1
        assert pool.voted[1] == {}

    def test_logs_differing_only_in_their_digest_tuple_equivocate(self, pool):
        a, b = cmd(1).digest, cmd(2).digest
        first = PartialOrderLog.create(1, 1, 0, (a, b), EMPTY_DIGEST)
        swapped = PartialOrderLog.create(1, 1, 0, (b, a), EMPTY_DIGEST)
        shorter = PartialOrderLog.create(1, 1, 0, (a,), EMPTY_DIGEST)
        assert pool.handle_pre_order(PreOrderMessage(first), 1) is not None
        for twin in (swapped, shorter):
            assert pool.handle_pre_order(PreOrderMessage(twin), 1) is None
        assert pool.rejects[REJECT_EQUIVOCATION] == 2

    def test_rebroadcast_inside_window_revotes(self, pool):
        chain = author_chain(3)
        votes = [pool.handle_pre_order(PreOrderMessage(log), 1) for log in chain]
        assert pool.handle_pre_order(PreOrderMessage(chain[1]), 1) == votes[1]
        assert pool.handle_pre_order(PreOrderMessage(chain[0]), 1) == votes[0]

    def test_chains_on_newest_voted_log(self, pool, auth):
        chain = author_chain(4)
        for log in chain[:3]:
            assert pool.handle_pre_order(PreOrderMessage(log), 1) is not None
        # Seq 4 must follow the voted seq 3, not the certified head.
        detached = PartialOrderLog.create(1, 4, 200, (cmd(4).digest,), chain[1].cur_digest)
        assert pool.handle_pre_order(PreOrderMessage(detached), 1) is None
        assert pool.rejects[REJECT_GAP] == 1
        # Seq 3 stored above a gap: the head stays, and seq 4 still chains
        # on the voted seq 3.
        assert pool.handle_order(certify_log(auth, chain[2]))
        assert pool.latest[1] is None
        assert pool.handle_pre_order(PreOrderMessage(chain[3]), 1) is not None

    def test_author_certifying_only_the_window_top_stalls_itself(self, pool, auth):
        # A Byzantine author collects votes down a chain of w logs but
        # certifies and broadcasts only the top one. Its predecessors are
        # certified nowhere, so no honest head or order-batch may reach it.
        chain = author_chain(PRE_ORDER_WINDOW + 1)
        for log in chain[:-1]:
            assert pool.handle_pre_order(PreOrderMessage(log), 1) is not None
        assert pool.handle_order(certify_log(auth, chain[-2]))
        assert pool.fetch_log(1, PRE_ORDER_WINDOW) is not None
        assert pool.latest[1] is None
        assert Consenter(0, pool).make_order_batch() is None
        # The window does not slide past the gap, and voter state stays at w.
        assert pool.handle_pre_order(PreOrderMessage(chain[-1]), 1) is None
        assert pool.rejects[REJECT_GAP] == 1
        assert sorted(pool.voted[1]) == list(range(1, PRE_ORDER_WINDOW + 1))
        # Once the gap fills, in any order, the head reaches the top.
        for log in reversed(chain[:-2]):
            assert pool.handle_order(certify_log(auth, log))
        assert pool.latest[1].seq == PRE_ORDER_WINDOW
        assert pool.voted[1] == {}
        assert Consenter(0, pool).make_order_batch()[1].seq == PRE_ORDER_WINDOW

    def test_stored_above_gap_still_revotes_below(self, pool, auth):
        # f voters can get seq 2 certified before seq 1; a re-broadcast of
        # seq 1 must still get this voter's vote.
        chain = author_chain(2)
        votes = [pool.handle_pre_order(PreOrderMessage(log), 1) for log in chain]
        assert pool.handle_order(certify_log(auth, chain[1]))
        assert pool.latest[1] is None
        assert pool.handle_pre_order(PreOrderMessage(chain[0]), 1) == votes[0]
        assert pool.handle_order(certify_log(auth, chain[0]))
        assert pool.latest[1].seq == 2

    def test_voter_state_bounded_and_emptied_by_stores(self, pool, auth):
        # Vote down a long chain, storing the oldest voted log whenever the
        # next one lies beyond the window.
        chain = author_chain(3 * PRE_ORDER_WINDOW)
        stored = 0
        for log in chain:
            while pool.handle_pre_order(PreOrderMessage(log), 1) is None:
                assert pool.handle_order(certify_log(auth, chain[stored]))
                stored += 1
            assert len(pool.voted[1]) <= PRE_ORDER_WINDOW
        assert len(pool.voted[1]) == PRE_ORDER_WINDOW
        for log in chain[stored:]:
            assert pool.handle_order(certify_log(auth, log))
        assert pool.voted == [{} for _ in range(N)]

    def test_valid_first_log_gets_vote(self, pool, auth):
        msg = self._author_pre_order(auth)
        vote = pool.handle_pre_order(msg, sender=1)
        assert vote is not None
        assert vote.partial.event_digest == msg.log.cur_digest
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
        assert not pool.outstanding
        assert pool.latest[0] is log
        assert pool.fetch_log(0, 1) is log

    def test_duplicate_votes_not_double_counted(self, pool, auth):
        pool.enqueue_command(cmd(1))
        pre = pre_order(pool, 0)
        vote = VoteMessage(auth.partial_sign(1, pre.log.cur_digest))
        assert pool.handle_vote(vote, 1, 0) is None
        assert pool.handle_vote(vote, 1, 0) is None
        assert len(pool.outstanding[pre.log.cur_digest].shares) == 1

    def test_stale_vote_ignored(self, pool, auth):
        pool.enqueue_command(cmd(1))
        pool.enqueue_command(cmd(2))
        old = certify_own_log(pool, auth, now=0)
        stale = VoteMessage(auth.partial_sign(3, old.cur_digest))
        pre_order(pool, 50)
        assert pool.handle_vote(stale, 3, 0) is None
        assert pool.late_votes == 1
        assert not pool.rejects

    def test_votes_go_to_the_log_they_name(self, pool, auth):
        pool.enqueue_command(cmd(1))
        pool.enqueue_command(cmd(2))
        first = pre_order(pool, 0).log
        second = pre_order(pool, 50).log
        for voter in (0, 1):
            vote = VoteMessage(auth.partial_sign(voter, second.cur_digest))
            assert pool.handle_vote(vote, voter, 0) is None
        assert len(pool.outstanding[first.cur_digest].shares) == 0
        assert len(pool.outstanding[second.cur_digest].shares) == 2

    def test_out_of_order_certification_stores_both(self, pool, auth):
        for i in (1, 2, 3):
            pool.enqueue_command(cmd(i))
        first = pre_order(pool, 0).log
        second = pre_order(pool, 50).log
        done_second = certify(pool, auth, second)
        # Stored above the gap at seq 1: the certified head waits there.
        assert pool.fetch_log(0, 2) is done_second
        assert pool.latest[0] is None
        assert list(pool.outstanding) == [first.cur_digest]
        third = pre_order(pool, 100).log
        assert third.prev_digest == second.cur_digest
        done_first = certify(pool, auth, first)
        assert pool.fetch_log(0, 1) is done_first
        assert pool.latest[0] is done_second
        assert pool.rejects[CHAIN_BREAK] == 0

    def test_own_pre_order_hashed_like_a_peers(self, pool, auth, monkeypatch):
        # Every pre-order's digest is checked once on arrival, the node's own
        # included, whether it is the outstanding object or an equal copy.
        pool.enqueue_command(cmd(1))
        own = pre_order(pool, 0)
        peer = PreOrderMessage(author_chain(1)[0])
        hashed = []
        digest_log = phalanx.types.digest_log
        monkeypatch.setattr(phalanx.types, "digest_log",
                            lambda *a: hashed.append(a[:2]) or digest_log(*a))
        assert pool.handle_pre_order(own, 0) is not None
        assert hashed == [(0, 1)]
        assert pool.handle_pre_order(PreOrderMessage(dataclasses.replace(own.log)), 0)
        assert pool.handle_pre_order(peer, 1) is not None
        assert hashed == [(0, 1), (0, 1), (1, 1)]

    def test_vote_with_wrong_sender_rejected(self, pool, auth):
        pool.enqueue_command(cmd(1))
        pre = pre_order(pool, 0)
        vote = VoteMessage(auth.partial_sign(1, pre.log.cur_digest))
        assert pool.handle_vote(vote, 2, 0) is None
        assert pool.rejects[INVALID_PARTIAL] == 1

    def test_share_over_other_digest_refused(self, pool, auth):
        """A share counts toward the log whose digest it signs; one over a
        digest that no own log has counts toward none and is refused."""
        pool.enqueue_command(cmd(1))
        pre = pre_order(pool, 0)
        digest = pre.log.cur_digest
        for voter in (0, 1):
            assert pool.handle_vote(VoteMessage(auth.partial_sign(voter, digest)), voter, 0) is None
        other = cmd(9).digest
        assert pool.handle_vote(VoteMessage(auth.partial_sign(2, other)), 2, 0) is None
        assert pool.late_votes == 0
        assert pool.rejects[INVALID_PARTIAL] == 1
        assert len(pool.outstanding[digest].shares) == 2
        order = pool.handle_vote(VoteMessage(auth.partial_sign(2, digest)), 2, 0)
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
    return certify_log(auth, PartialOrderLog.create(node_id, seq, ts, (command.digest,), prev))


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
        log = PartialOrderLog.create(2, 1, 0, (cmd(1).digest,), EMPTY_DIGEST)
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
            "command_digest": (cmd(3).digest,),
            "prev_digest": b"\x07" * 32,
        }[field]
        field = {"command_digest": "command_digests"}.get(field, field)
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

    def test_voted_logs_in_flight_not_rehashed(self, pool, auth, monkeypatch):
        chain = author_chain(PRE_ORDER_WINDOW)
        for log in chain:
            assert pool.handle_pre_order(PreOrderMessage(log), 1) is not None
        hashed = []
        monkeypatch.setattr(phalanx.types, "digest_log", lambda *a: hashed.append(a))
        for log in reversed(chain):
            assert pool.handle_order(certify_log(auth, log))
        assert hashed == []
        assert [pool.fetch_log(1, seq).cur_digest for seq in range(1, len(chain) + 1)] == [
            log.cur_digest for log in chain
        ]

    def test_unknown_author_refused(self, pool, auth):
        log = make_certified(auth, N, 1, cmd(1), EMPTY_DIGEST)
        assert not pool.handle_order(log)
        assert pool.rejects[INVALID_CERT] == 1

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
