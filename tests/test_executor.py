"""Anchor selection, trusted timestamps, and commit determinism."""

import pytest

from phalanx import (
    Command, EMPTY_DIGEST, HmacAuthenticator, PartialOrderLog, ProtocolInvariantError,
    TimestampExecutor,
)
from phalanx.executor import ALTER_PATH, CommandUnavailable, Executor, NORMAL_PATH
from prop_harness import certified_chain, certify_log

N, F = 4, 1


def build_chains(assignments):
    """assignments: {node_id: [(command, timestamp), ...]} -> logs per node.

    Certificates are irrelevant below the executor; logs chain by digest only.
    """
    chains = {}
    for node_id, entries in assignments.items():
        prev = EMPTY_DIGEST
        logs = []
        for seq, (cmd, ts) in enumerate(entries, start=1):
            log = PartialOrderLog.create(node_id, seq, ts, (cmd.digest,), prev)
            logs.append(log)
            prev = log.cur_digest
        chains[node_id] = logs
    return chains


def log_set_of(*logs):
    return tuple(sorted(logs, key=lambda log: (log.seq, log.node_id)))


def make_executor(commands, n=N, f=F):
    store = {cmd.digest: cmd for cmd in commands}
    return Executor(n, f, store.get)


def drain_all(executor, log_sets):
    for log_set in log_sets:
        executor.feed(log_set)
    executor.drain()
    return [entry.digest for entry in executor.committed_order]


CMD_A = Command.create(0, 1, b"alpha")
CMD_B = Command.create(0, 2, b"bravo")
CMD_C = Command.create(0, 3, b"charlie")
CMD_D = Command.create(0, 4, b"delta")


class TestTrustedTimestamp:
    @pytest.mark.parametrize(
        "stamps,expected",
        [
            ((0, 3, 3), 3),   # the f+1-th smallest of a full quorum
            ((1, 2, 4), 2),
            ((5, 5), None),   # below 2f+1 support: undefined
            ((7,), None),
        ],
    )
    def test_values(self, stamps, expected):
        executor = make_executor([CMD_A])
        logs = [
            PartialOrderLog.create(i, 1, ts, (CMD_A.digest,), EMPTY_DIGEST)
            for i, ts in enumerate(stamps)
        ]
        executor.ingest_log_set(log_set_of(*logs))
        info = executor.command_infos[CMD_A.digest]
        assert executor.trusted_timestamp(info) == expected


class TestIngest:
    def test_support_and_queues(self):
        executor = make_executor([CMD_A])
        log = PartialOrderLog.create(1, 1, 5, (CMD_A.digest,), EMPTY_DIGEST)
        executor.ingest_log_set((log,))
        info = executor.command_infos[CMD_A.digest]
        assert info.support == 1
        assert list(executor.author_queues[1]) == [CMD_A.digest]

    def test_timestamp_multiset_tracks_support(self):
        executor = make_executor([CMD_A])
        logs = [
            PartialOrderLog.create(i, 1, ts, (CMD_A.digest,), EMPTY_DIGEST)
            for i, ts in [(0, 7), (1, 7), (2, 3)]
        ]
        executor.ingest_log_set(log_set_of(*logs))
        info = executor.command_infos[CMD_A.digest]
        assert info.timestamps() == [3, 7, 7]
        assert info.support == 3

    def test_cached_timestamps_follow_later_logs(self):
        executor = make_executor([CMD_A])
        logs = [
            PartialOrderLog.create(i, 1, ts, (CMD_A.digest,), EMPTY_DIGEST)
            for i, ts in [(0, 7), (1, 2), (2, 3)]
        ]
        executor.ingest_log_set(log_set_of(*logs[:2]))
        info = executor.command_infos[CMD_A.digest]
        assert info.timestamps() == [2, 7]
        assert executor.trusted_timestamp(info) is None
        executor.ingest_log_set((logs[2],))
        assert info.timestamps() == [2, 3, 7]
        assert executor.trusted_timestamp(info) == 3

    def test_duplicate_author_slot_at_other_seq_is_skipped(self):
        executor = make_executor([CMD_A])
        first = PartialOrderLog.create(1, 1, 5, (CMD_A.digest,), EMPTY_DIGEST)
        again = PartialOrderLog.create(1, 2, 6, (CMD_A.digest,), first.cur_digest)
        executor.ingest_log_set((first,))
        executor.ingest_log_set((again,))
        assert executor.command_infos[CMD_A.digest].stamps == {1: 5}
        assert list(executor.author_queues[1]) == [CMD_A.digest]


@pytest.mark.parametrize("strategy", [Executor, TimestampExecutor])
def test_author_certified_twice_for_one_command_commits_it_once(strategy):
    # A faulty author 1 gets command A certified at seq 1 and again at seq 2
    # (a voter endorses any command at the next seq); every node ingests both.
    auth = HmacAuthenticator(N, F)
    twice = certified_chain(auth, 1, [(CMD_A, 5), (CMD_A, 6)])
    others = [certify_log(auth, PartialOrderLog.create(j, 1, 4 + j, (CMD_A.digest,), EMPTY_DIGEST))
              for j in (0, 2)]
    executor = strategy(N, F, {CMD_A.digest: CMD_A}.get)
    executor.feed(log_set_of(*others, twice[0]))
    executor.feed(log_set_of(twice[1]))
    executor.drain()
    executor.flush()
    assert [entry.digest for entry in executor.committed_order] == [CMD_A.digest]
    assert executor.command_infos[CMD_A.digest].stamps[1] == 5


class TestFrontVector:
    def test_committed_fronts_are_popped(self):
        chains = build_chains({0: [(CMD_A, 1), (CMD_B, 2)]})
        executor = make_executor([CMD_A, CMD_B])
        executor.ingest_log_set(log_set_of(*chains[0]))
        executor.committed_digests.add(CMD_A.digest)
        fronts = executor.front_vector()
        assert fronts[0] == CMD_B.digest
        assert len(executor.author_queues[0]) == 1

    def test_empty_queues_report_absent(self):
        executor = make_executor([])
        assert executor.front_vector() == [None] * N

    def test_idempotent_without_commits(self):
        chains = build_chains({0: [(CMD_A, 1)]})
        executor = make_executor([CMD_A])
        executor.ingest_log_set(log_set_of(*chains[0]))
        first = executor.front_vector()
        second = executor.front_vector()
        assert first == second


class TestReliablePrecedes:
    def test_threshold_met(self):
        chains = build_chains({
            0: [(CMD_A, 1), (CMD_B, 2)],
            1: [(CMD_A, 1), (CMD_B, 2)],
        })
        executor = make_executor([CMD_A, CMD_B])
        executor.ingest_log_set(log_set_of(*chains[0], *chains[1]))
        assert executor.reliable_precedes(CMD_A.digest, CMD_B.digest)
        assert not executor.reliable_precedes(CMD_B.digest, CMD_A.digest)

    def test_single_believer_insufficient(self):
        chains = build_chains({0: [(CMD_A, 1), (CMD_B, 2)]})
        executor = make_executor([CMD_A, CMD_B])
        executor.ingest_log_set(log_set_of(*chains[0]))
        assert not executor.reliable_precedes(CMD_A.digest, CMD_B.digest)

    def test_split_vote_yields_both_directions(self):
        # Two nodes order A<B, two order B<A: both contexts are "reliable"
        # and the anchor mechanism is what arbitrates.
        chains = build_chains({
            0: [(CMD_A, 1), (CMD_B, 2)],
            1: [(CMD_A, 1), (CMD_B, 2)],
            2: [(CMD_B, 1), (CMD_A, 2)],
            3: [(CMD_B, 1), (CMD_A, 2)],
        })
        executor = make_executor([CMD_A, CMD_B])
        executor.ingest_log_set(log_set_of(*[log for c in chains.values() for log in c]))
        assert executor.reliable_precedes(CMD_A.digest, CMD_B.digest)
        assert executor.reliable_precedes(CMD_B.digest, CMD_A.digest)

    def test_unknown_digest_is_false(self):
        executor = make_executor([])
        assert not executor.reliable_precedes(CMD_A.digest, CMD_B.digest)

    def test_answer_follows_later_logs(self):
        chains = build_chains({
            0: [(CMD_A, 1), (CMD_B, 2)],
            1: [(CMD_A, 1), (CMD_B, 2)],
        })
        executor = make_executor([CMD_A, CMD_B])
        executor.ingest_log_set(log_set_of(*chains[0], chains[1][0]))
        assert not executor.reliable_precedes(CMD_A.digest, CMD_B.digest)
        executor.ingest_log_set((chains[1][1],))
        assert executor.reliable_precedes(CMD_A.digest, CMD_B.digest)


class TestSelectAnchorSet:
    def test_front_agreement_selects_normal_path(self):
        chains = build_chains({
            0: [(CMD_A, 1)],
            1: [(CMD_A, 2)],
            2: [(CMD_A, 3)],
        })
        executor = make_executor([CMD_A])
        executor.ingest_log_set(log_set_of(*[c[0] for c in chains.values()]))
        members, path, anchors = executor._select()
        assert path == NORMAL_PATH
        assert anchors == (CMD_A.digest,)
        assert [m.digest for m in members] == [CMD_A.digest]

    def test_insufficient_support_returns_empty(self):
        # One log total: a single front, below f+1 agreement and support.
        chains = build_chains({0: [(CMD_A, 1)]})
        executor = make_executor([CMD_A])
        executor.ingest_log_set(log_set_of(*chains[0]))
        assert executor._select()[0] == []

    def test_quorum_agreement_below_full_support_waits(self):
        # f+1 fronts agree but support is still 2 < 2f+1: defer, do not drop.
        chains = build_chains({0: [(CMD_A, 1)], 1: [(CMD_A, 2)]})
        executor = make_executor([CMD_A])
        executor.ingest_log_set(log_set_of(chains[0][0], chains[1][0]))
        assert executor._select()[0] == []

    def test_alter_path_picks_lowest_trusted_timestamp(self):
        # All four fronts disagree, so no normal-path anchor exists. B is the
        # only command with defined trusted timestamp; it anchors via the
        # alter path, and the under-supported front commands are dropped by
        # the final support check, leaving B alone in the set.
        chains = build_chains({
            0: [(CMD_A, 1), (CMD_B, 2)],
            1: [(CMD_B, 1)],
            2: [(CMD_C, 1), (CMD_B, 2)],
            3: [(CMD_D, 2), (CMD_B, 5)],
        })
        executor = make_executor([CMD_A, CMD_B, CMD_C, CMD_D])
        executor.ingest_log_set(
            log_set_of(*[log for c in chains.values() for log in c])
        )
        members, path, anchors = executor._select()
        assert path == ALTER_PATH
        assert anchors == (CMD_B.digest,)
        assert [m.digest for m in members] == [CMD_B.digest]

    def test_alter_path_defers_on_partially_supported_member(self):
        # A has f+1 <= support < 2f+1 and no reliable context after B, so the
        # whole selection must wait rather than commit around it. (A's digest
        # sorts before C's and D's, so the closure reaches it first.)
        chains = build_chains({
            0: [(CMD_A, 1), (CMD_B, 2)],
            1: [(CMD_B, 1), (CMD_A, 9)],
            2: [(CMD_C, 1), (CMD_B, 2)],
            3: [(CMD_D, 2), (CMD_B, 5)],
        })
        executor = make_executor([CMD_A, CMD_B, CMD_C, CMD_D])
        executor.ingest_log_set(
            log_set_of(*[log for c in chains.values() for log in c])
        )
        assert executor._select()[0] == []

    def test_alter_path_tie_breaks_by_digest(self):
        low, high = sorted([CMD_C, CMD_D], key=lambda c: c.digest)
        # Fronts all differ; both eligible commands share trusted timestamp 5.
        chains = build_chains({
            0: [(CMD_A, 1), (low, 5), (high, 5)],
            1: [(low, 5), (high, 5)],
            2: [(CMD_B, 1), (high, 5), (low, 5)],
            3: [(high, 5), (low, 5)],
        })
        executor = make_executor([CMD_A, CMD_B, low, high])
        executor.ingest_log_set(
            log_set_of(*[log for c in chains.values() for log in c])
        )
        members, path, anchors = executor._select()
        assert path == ALTER_PATH
        assert anchors == (low.digest,)


class TestCommitAnchorSet:
    def _ready_executor(self):
        chains = build_chains({
            0: [(CMD_A, 5), (CMD_B, 6)],
            1: [(CMD_A, 3), (CMD_B, 7)],
            2: [(CMD_A, 4), (CMD_B, 2)],
        })
        executor = make_executor([CMD_A, CMD_B])
        executor.ingest_log_set(
            log_set_of(*[log for c in chains.values() for log in c])
        )
        return executor

    def test_commit_orders_by_trusted_timestamp(self):
        executor = self._ready_executor()
        infos = [
            executor.command_infos[CMD_A.digest],
            executor.command_infos[CMD_B.digest],
        ]
        # trusted: A -> sorted(3,4,5)[1] = 4; B -> sorted(2,6,7)[1] = 6
        commands = executor.commit_anchor_set(infos, NORMAL_PATH, (CMD_A.digest,))
        assert [c.digest for c in commands] == [CMD_A.digest, CMD_B.digest]
        tags = [entry.path_tag for entry in executor.committed_order]
        assert tags == [NORMAL_PATH, "-"]

    def test_equal_timestamps_tie_break_by_digest(self):
        low, high = sorted([CMD_C, CMD_D], key=lambda c: c.digest)
        chains = build_chains({
            0: [(low, 1), (high, 1)],
            1: [(high, 1), (low, 1)],
            2: [(low, 1), (high, 1)],
        })
        executor = make_executor([low, high])
        executor.ingest_log_set(
            log_set_of(*[log for c in chains.values() for log in c])
        )
        infos = [executor.command_infos[low.digest], executor.command_infos[high.digest]]
        commands = executor.commit_anchor_set(infos, NORMAL_PATH, ())
        assert [c.digest for c in commands] == [low.digest, high.digest]

    def test_missing_command_body_blocks_atomically(self):
        executor = self._ready_executor()
        executor._resolve = {CMD_A.digest: CMD_A}.get  # B's body unavailable
        infos = [
            executor.command_infos[CMD_A.digest],
            executor.command_infos[CMD_B.digest],
        ]
        with pytest.raises(CommandUnavailable):
            executor.commit_anchor_set(infos, NORMAL_PATH, ())
        assert executor.committed_order == []  # nothing partially committed

    def test_commit_releases_index_state(self):
        executor = self._ready_executor()
        a = executor.command_infos[CMD_A.digest]
        b = executor.command_infos[CMD_B.digest]
        bit = a.bit
        assert b.levels[F] & bit  # A reliably precedes B
        executor.commit_anchor_set([a], NORMAL_PATH, (CMD_A.digest,))
        assert a.levels is None and a.bit == 0
        assert not executor._open_bits & bit
        assert not any(mask & bit for mask in executor._author_bits)
        assert not executor.reliable_precedes(CMD_A.digest, CMD_B.digest)
        assert b.levels is not None

    def test_committing_twice_raises(self):
        executor = self._ready_executor()
        infos = [executor.command_infos[CMD_A.digest]]
        executor.commit_anchor_set(infos, NORMAL_PATH, (CMD_A.digest,))
        with pytest.raises(ProtocolInvariantError):
            executor.commit_anchor_set(infos, NORMAL_PATH, (CMD_A.digest,))


class TestDrainDeterminism:
    def _stream(self):
        chains = build_chains({
            0: [(CMD_A, 1), (CMD_B, 3), (CMD_C, 5)],
            1: [(CMD_A, 2), (CMD_C, 3), (CMD_B, 6)],
            2: [(CMD_B, 1), (CMD_A, 2), (CMD_C, 7)],
            3: [(CMD_A, 1), (CMD_B, 2), (CMD_C, 3)],
        })
        first = log_set_of(*[chains[i][0] for i in range(4)])
        second = log_set_of(*[chains[i][1] for i in range(4)])
        third = log_set_of(*[chains[i][2] for i in range(4)])
        return [first, second, third]

    def test_identical_streams_identical_orders(self):
        commands = [CMD_A, CMD_B, CMD_C]
        results = [
            drain_all(make_executor(commands), self._stream()) for _ in range(3)
        ]
        assert results[0] == results[1] == results[2]
        assert set(results[0]) == {CMD_A.digest, CMD_B.digest, CMD_C.digest}

    def test_no_log_sets_is_noop(self):
        executor = make_executor([])
        executor.drain()
        assert executor.committed_order == []

    def test_every_committed_command_has_quorum_support(self):
        executor = make_executor([CMD_A, CMD_B, CMD_C])
        for log_set in self._stream():
            executor.feed(log_set)
        executor.drain()
        for entry in executor.committed_order:
            assert executor.command_infos[entry.digest].support >= 2 * F + 1

    def test_unblock_resumes_commit(self):
        commands = [CMD_A, CMD_B, CMD_C]
        store = {CMD_A.digest: CMD_A, CMD_C.digest: CMD_C}
        executor = Executor(N, F, store.get)
        for log_set in self._stream():
            executor.feed(log_set)
        executor.drain()
        assert CMD_B.digest in executor.blocked_on
        committed_before = len(executor.committed_order)
        executor.drain()  # the body is still absent: nothing moves
        assert CMD_B.digest in executor.blocked_on
        assert len(executor.committed_order) == committed_before
        store[CMD_B.digest] = CMD_B
        executor.drain()
        assert not executor.blocked_on
        assert len(executor.committed_order) > committed_before
        assert executor.idle


def count_selections(executor, monkeypatch):
    """Count front_vector calls: one per anchor-set selection."""
    calls = []
    front_vector = executor.front_vector
    monkeypatch.setattr(
        executor, "front_vector", lambda: calls.append(1) or front_vector()
    )
    return calls


class TestSettledDrain:
    def _partial(self):
        # Two of three quorum logs for A: selection comes back empty.
        chains = build_chains({i: [(CMD_A, i + 1)] for i in range(3)})
        return [chains[i][0] for i in range(3)]

    def test_second_drain_without_input_runs_no_selection(self, monkeypatch):
        executor = make_executor([CMD_A])
        calls = count_selections(executor, monkeypatch)
        executor.feed(log_set_of(*self._partial()[:2]))
        executor.drain()
        assert executor.committed_order == []
        selections = len(calls)
        assert selections > 0
        executor.drain()
        executor.drain()
        assert len(calls) == selections

    def test_new_input_wakes_selection(self, monkeypatch):
        executor = make_executor([CMD_A])
        calls = count_selections(executor, monkeypatch)
        logs = self._partial()
        executor.feed(log_set_of(*logs[:2]))
        executor.drain()
        selections = len(calls)
        executor.feed((logs[2],))
        executor.drain()
        assert len(calls) > selections
        assert [e.digest for e in executor.committed_order] == [CMD_A.digest]

    def test_unblock_then_drain_commits_deferred_set(self):
        store = {}
        executor = Executor(N, F, store.get)
        executor.feed(log_set_of(*self._partial()))
        executor.drain()
        assert executor.blocked_on == {CMD_A.digest}
        assert executor.committed_order == []
        executor.drain()  # still blocked: nothing changes
        assert executor.blocked_on == {CMD_A.digest}
        assert executor.committed_order == []
        store[CMD_A.digest] = CMD_A
        executor.drain()
        assert [e.digest for e in executor.committed_order] == [CMD_A.digest]
        assert executor.idle

    def test_blocked_drain_selects_nothing_until_the_body_resolves(self, monkeypatch):
        chains = build_chains({i: [(CMD_A, i + 1), (CMD_B, i + 5)] for i in range(3)})
        store = {}
        executor = Executor(N, F, store.get)
        calls = count_selections(executor, monkeypatch)
        for seq in (0, 1):
            executor.feed(log_set_of(*[chains[i][seq] for i in range(3)]))
        executor.drain()
        assert executor.blocked_on == {CMD_A.digest}
        selections = len(calls)
        store[CMD_B.digest] = CMD_B  # not the body the set waits on
        executor.drain()
        assert len(calls) == selections
        assert len(executor.pending_sets) == 1  # nothing ingested while blocked
        store[CMD_A.digest] = CMD_A
        executor.drain()
        assert [e.digest for e in executor.committed_order] == [CMD_A.digest, CMD_B.digest]
        assert executor.idle
