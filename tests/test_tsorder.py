"""Timestamp-baseline executor: bookkeeping, flush ordering, the online
commit rule against a brute-force oracle; and the follow control."""

import random

import pytest

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
            1: [(CMD_Y, 2), (CMD_X, 8)],
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


def chained(node_id, entries):
    """[(first stamp, [cmd, ...]), ...] -> one author's chain of logs."""
    logs, prev = [], EMPTY_DIGEST
    for seq, (stamp, cmds) in enumerate(entries, start=1):
        log = PartialOrderLog.create(node_id, seq, stamp, tuple(c.digest for c in cmds), prev)
        logs.append(log)
        prev = log.cur_digest
    return logs


def random_stream(rng, n, f):
    """Random log sets over a few commands: one to three commands per log,
    repeated commands, one author whose stamps jump back and forth, and up
    to f silent authors. Each author's logs keep their seq order."""
    commands = [Command.create(0, i, b"cmd-%d" % i) for i in range(1, rng.randint(3, 11))]
    silent = set(rng.sample(range(n), rng.randint(0, f)))
    erratic = rng.choice([j for j in range(n) if j not in silent])
    chains = []
    for author in sorted(set(range(n)) - silent):
        entries, stamp = [], rng.randint(0, 5)
        for index in range(rng.randint(1, 6)):
            # Later logs may reach later commands, as new commands arrive.
            cmds = [rng.choice(commands[:2 + 2 * index]) for _ in range(rng.randint(1, 3))]
            if author == erratic:
                stamp = rng.randint(0, 40)
            entries.append((stamp, cmds))
            stamp += len(cmds) + rng.randint(0, 8)
        chains.append(chained(author, entries))
    # Authors' logs reach the stream at different paces.
    pace = [rng.choice((1, 2, 8)) for _ in chains]
    stream = []
    while any(chains):
        log_set = []
        for _ in range(rng.randint(1, 4)):
            live = [i for i, chain in enumerate(chains) if chain]
            if live:
                i = rng.choices(live, [pace[i] for i in live])[0]
                log_set.append(chains[i].pop(0))
        stream.append(tuple(log_set))
    return commands, stream


def fixed_order(stream, n, f):
    """Brute force: every fixed command as (stamp, digest), sorted. A report
    is clamped to its author's latest stamp, an author's repeat is skipped,
    and a stamp is fixed at the (f+1)-th smallest of the first 2f+1 reports."""
    latest, reports, fixed = [0] * n, {}, {}
    for log_set in stream:
        for log in log_set:
            for k, digest in enumerate(log.command_digests):
                stamp = latest[log.node_id] = max(log.timestamp + k, latest[log.node_id])
                by_author = reports.setdefault(digest, {})
                if log.node_id not in by_author:
                    by_author[log.node_id] = stamp
                    if len(by_author) == 2 * f + 1:
                        fixed[digest] = sorted(by_author.values())[f]
    return sorted((stamp, digest) for digest, stamp in fixed.items())


class TestOnlineCommit:
    @pytest.mark.parametrize("n, f", [(4, 1), (7, 2)])
    def test_online_order_is_a_prefix_of_the_flush_order(self, n, f):
        online = 0
        for seed in range(150):
            rng = random.Random(seed)
            commands, stream = random_stream(rng, n, f)
            final = fixed_order(stream, n, f)
            store = {c.digest: c for c in commands}
            executor = TimestampExecutor(n, f, store.get)
            for log_set in stream:
                executor.feed(log_set)
                executor.drain()
                order = [(e.trusted_timestamp, e.digest) for e in executor.committed_order]
                assert order == final[:len(order)], seed
            online += len(executor.committed_order)
            executor.flush()
            assert [(e.trusted_timestamp, e.digest)
                    for e in executor.committed_order] == final, seed
        assert online >= 50  # the rule commits, not only the flush

    def test_partly_reported_command_holds_the_watermark(self):
        # P is logged low by two authors; X is fixed at 11; then three
        # authors log Y at 50 and up, so the second smallest latest stamp
        # is 50 > 11. Author 3's first report could still fix P at most 2,
        # so X must wait: checking the latest stamps alone commits too early.
        p, x, y = (Command.create(0, i, b"%d" % i) for i in (1, 2, 3))
        chains = {
            0: chained(0, [(1, [p]), (10, [x]), (50, [y])]),
            1: chained(1, [(2, [p]), (11, [x]), (51, [y])]),
            2: chained(2, [(12, [x]), (52, [y])]),
            3: chained(3, [(5, [p])]),
        }
        executor = make_ts_executor([p, x, y])
        executor.feed(tuple(chains[0] + chains[1] + chains[2]))
        executor.drain()
        assert executor.latest == [50, 51, 52, 0]
        assert executor.trusted_timestamp(executor.command_infos[x.digest]) == 11
        assert executor.committed_order == []
        executor.feed(tuple(chains[3]))
        executor.drain()
        assert [(e.digest, e.trusted_timestamp) for e in executor.committed_order] == [
            (p.digest, 2), (x.digest, 11)]
        executor.flush()
        assert [e.digest for e in executor.committed_order] == [p.digest, x.digest, y.digest]

    def test_unseen_command_holds_the_watermark(self):
        # X is fixed at 11 while authors 0 and 3 have logged nothing above
        # 11, so a command no one has logged yet can still be fixed below it.
        x, c = (Command.create(0, i, b"%d" % i) for i in (1, 2))
        executor = make_ts_executor([x, c])
        x0, c0 = chained(0, [(9, [x]), (10, [c])])
        x1, c1 = chained(1, [(11, [x]), (12, [c])])
        executor.feed((x0, x1, *chained(2, [(12, [x])])))
        executor.drain()
        assert executor.trusted_timestamp(executor.command_infos[x.digest]) == 11
        assert c.digest not in executor.command_infos
        assert executor.committed_order == []
        executor.feed((c0, c1, *chained(3, [(0, [c])])))
        executor.flush()
        assert [(e.digest, e.trusted_timestamp) for e in executor.committed_order] == [
            (c.digest, 10), (x.digest, 11)]

    def test_fixed_stamp_ignores_later_reports(self):
        executor = make_ts_executor([CMD_X])
        chains = [chained(j, [(10 * (j + 1), [CMD_X])]) for j in range(4)]
        executor.feed(tuple(chains[1] + chains[2] + chains[3]))
        executor.feed(tuple(chains[0]))
        executor.drain()
        info = executor.command_infos[CMD_X.digest]
        assert info.stamps[0] == 10
        assert executor.trusted_timestamp(info) == 30  # sorted(20, 30, 40)[1]

    def test_report_below_latest_reads_as_latest(self):
        executor = make_ts_executor([CMD_X, CMD_Y])
        executor.feed(tuple(chained(2, [(40, [CMD_X]), (7, [CMD_Y])])))
        executor.drain()
        assert executor.command_infos[CMD_Y.digest].stamps == {2: 40}
        assert executor.latest[2] == 40

    def test_missing_body_blocks_until_it_lands(self):
        store = {CMD_Y.digest: CMD_Y}
        executor = TimestampExecutor(N, F, store.get)
        for j in range(N):
            executor.feed(tuple(chained(j, [(1, [CMD_X]), (10 + j, [CMD_Y])])))
        executor.drain()
        assert executor.blocked_on == {CMD_X.digest}
        assert not executor.idle
        assert executor.committed_order == []
        store[CMD_X.digest] = CMD_X
        executor.drain()
        assert not executor.blocked_on
        assert [e.digest for e in executor.committed_order] == [CMD_X.digest]


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
