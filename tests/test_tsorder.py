"""Timestamp-baseline executor: bookkeeping, flush ordering, golden failure;
and the follow control."""

from phalanx import (
    Command,
    EMPTY_DIGEST,
    HmacAuthenticator,
    Mempool,
    PartialOrderLog,
    TimestampExecutor,
)
from phalanx.tsorder import FollowExecutor
from prop_harness import certified_chain

N, F = 4, 1


def make_logs(assignments):
    """{node: [(cmd, ts), ...]} -> flat list of chained logs."""
    logs = []
    for node_id, entries in assignments.items():
        prev = EMPTY_DIGEST
        for seq, (cmd, ts) in enumerate(entries, start=1):
            log = PartialOrderLog.create(node_id, seq, ts, (cmd.digest,), prev)
            logs.append(log)
            prev = log.cur_digest
    return logs


def make_ts_executor(commands):
    store = {c.digest: c for c in commands}
    return TimestampExecutor(N, F, store.get)


CMD_X = Command.create(0, 1, b"x-ray")
CMD_Y = Command.create(0, 2, b"yankee")


class TestIngest:
    def test_single_log_not_committable(self):
        executor = make_ts_executor([CMD_X])
        executor.ingest_log_set(tuple(make_logs({0: [(CMD_X, 1)]})))
        assert executor.flush_ready() == []
        assert executor.committed_order == []

    def test_quorum_defines_trusted_timestamp(self):
        executor = make_ts_executor([CMD_X])
        logs = make_logs({0: [(CMD_X, 1)], 1: [(CMD_X, 5)], 2: [(CMD_X, 3)]})
        executor.ingest_log_set(tuple(logs))
        info = executor.command_infos[CMD_X.digest]
        assert executor.trusted_timestamp(info) == 3

    def test_duplicate_author_slot_at_other_seq_is_skipped(self):
        executor = make_ts_executor([CMD_X])
        first = PartialOrderLog.create(2, 1, 5, (CMD_X.digest,), EMPTY_DIGEST)
        again = PartialOrderLog.create(2, 2, 6, (CMD_X.digest,), first.cur_digest)
        executor.ingest_log_set((first,))
        executor.ingest_log_set((again,))
        assert executor.command_infos[CMD_X.digest].stamps == {2: 5}


class TestFlush:
    def test_commits_by_trusted_timestamp(self):
        executor = make_ts_executor([CMD_X, CMD_Y])
        logs = make_logs({
            0: [(CMD_X, 9), (CMD_Y, 10)],
            1: [(CMD_X, 8), (CMD_Y, 2)],
            2: [(CMD_Y, 1), (CMD_X, 7)],
        })
        executor.ingest_log_set(tuple(logs))
        committed = executor.flush_ready()
        # trusted X = sorted(9,8,7)[1] = 8; trusted Y = sorted(10,2,1)[1] = 2
        assert [c.digest for c in committed] == [CMD_Y.digest, CMD_X.digest]
        assert [e.trusted_timestamp for e in executor.committed_order] == [2, 8]

    def test_equal_trusted_tie_breaks_by_digest(self):
        low, high = sorted([CMD_X, CMD_Y], key=lambda c: c.digest)
        executor = make_ts_executor([low, high])
        logs = make_logs({
            0: [(low, 4), (high, 4)],
            1: [(high, 4), (low, 4)],
            2: [(low, 4), (high, 4)],
        })
        executor.ingest_log_set(tuple(logs))
        committed = executor.flush_ready()
        assert [c.digest for c in committed] == [low.digest, high.digest]

    def test_flush_is_idempotent(self):
        executor = make_ts_executor([CMD_X])
        executor.ingest_log_set(tuple(make_logs({i: [(CMD_X, i)] for i in range(3)})))
        assert len(executor.flush_ready()) == 1
        assert executor.flush_ready() == []


class TestStreamConsistency:
    def test_identical_streams_identical_output(self):
        logs = make_logs({
            0: [(CMD_X, 3), (CMD_Y, 4)],
            1: [(CMD_Y, 1), (CMD_X, 6)],
            2: [(CMD_X, 2), (CMD_Y, 9)],
            3: [(CMD_Y, 2), (CMD_X, 5)],
        })
        log_set = tuple(sorted(logs, key=lambda log: (log.seq, log.node_id)))
        outputs = []
        for _ in range(2):
            executor = make_ts_executor([CMD_X, CMD_Y])
            executor.feed(log_set)
            executor.flush()
            outputs.append([e.digest for e in executor.committed_order])
        assert outputs[0] == outputs[1]
        assert executor.committed_order == sorted(
            executor.committed_order,
            key=lambda e: (e.trusted_timestamp, e.digest),
        )


def test_follow_commits_a_repeated_command_once():
    # The designated author 2 got command X certified at seq 1 and 3.
    auth = HmacAuthenticator(N, F)
    mempool = Mempool(0, auth)
    for cmd in (CMD_X, CMD_Y):
        mempool.enqueue_command(cmd)
    for log in certified_chain(auth, 2, [(CMD_X, 1), (CMD_Y, 2), (CMD_X, 3)]):
        assert mempool.handle_order(log)
    executor = FollowExecutor(2, mempool)
    executor.flush()
    assert [e.digest for e in executor.committed_order] == [CMD_X.digest, CMD_Y.digest]
