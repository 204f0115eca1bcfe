"""End-to-end simulation properties: FIFO links, determinism, fault handling."""

import random

import pytest

from phalanx import Command, NodeBehavior, Scenario, Simulation, run


def small(**kw):
    defaults = dict(n=4, f=1, proposers=1, commands_per_proposer=30, seed=5)
    defaults.update(kw)
    return Scenario(**defaults)


class TestHonestRuns:
    def test_all_commands_commit_in_proposal_order(self):
        result = run(small())
        assert result.committed == 30
        assert result.uncommitted == 0
        assert result.reordered_ratio == 0.0
        assert result.consistency
        assert not result.non_quiescent

    def test_honest_traces_identical_across_nodes(self):
        result = run(small(seed=9))
        digests = {
            node: [e.digest for e in trace] for node, trace in result.traces.items()
        }
        assert len(digests) == 4
        reference = digests[0]
        assert all(t == reference for t in digests.values())

    def test_wide_latency_preserves_per_link_fifo(self):
        # One proposer, huge latency variance: per-link FIFO still forces the
        # proposal order onto every honest partial order, hence zero inversions.
        result = run(small(latency=(1, 400), commands_per_proposer=40, seed=123))
        assert result.reordered_ratio == 0.0
        assert result.consistency

    def test_two_proposers_stay_consistent(self):
        result = run(small(proposers=2, commands_per_proposer=25, seed=21))
        assert result.consistency
        assert result.uncommitted == 0
        assert result.reordered_ratio == 0.0

    def test_wan_profile_commits_everything(self):
        result = run(small(latency=(40, 150), seed=33))
        assert result.uncommitted == 0
        assert result.consistency


def fixed_latencies(sim, values):
    """Make the simulation's latency draws return ``values`` in turn.

    Only for a scenario with ``latency = (0, hi)`` and every value <= hi:
    each draw is then the raw bits returned.
    """
    draws = iter(values)
    sim._latency_bits = lambda k: next(draws)


class TestLinkFifoClamp:
    def test_earlier_send_never_overtaken(self):
        # Latency draws of 10 then 3 on one link must still deliver in send
        # order: the second delivery time is clamped up to the first.
        sim = Simulation(small(latency=(0, 15)))
        fixed_latencies(sim, [10, 3])
        sim.now = 100
        first = sim._deliver_time(0, 1)
        second = sim._deliver_time(0, 1)
        assert first == 110
        assert second == 110  # clamped, not 103

    def test_independent_links_unclamped(self):
        sim = Simulation(small(latency=(0, 15)))
        fixed_latencies(sim, [10, 3])
        sim.now = 100
        assert sim._deliver_time(0, 1) == 110
        assert sim._deliver_time(0, 2) == 103

    def test_self_link_is_immediate(self):
        sim = Simulation(small())
        sim.now = 42
        assert sim._deliver_time(1, 1) == 42


class TestLatencyDraw:
    @pytest.mark.parametrize("latency", [(1, 5), (1, 1200), (10, 80), (7, 7)],
                             ids=["lan", "1-1200", "10-80", "lo-eq-hi"])
    @pytest.mark.parametrize("seed", [0, 1, 9, 401])
    def test_matches_randint(self, latency, seed):
        # Every latency, and the generator state after the last, equal
        # random.Random.randint's on the simulation's latency seed.
        sim = Simulation(small(latency=latency, seed=seed))
        drawn = []
        for _ in range(300):
            sim._link_last.clear()
            drawn.append(sim._deliver_time(0, 1))
        reference = random.Random(f"phalanx:{seed}:latency")
        assert drawn == [reference.randint(*latency) for _ in range(300)]
        assert sim.rng.getstate() == reference.getstate()


def shuffler(commands: int):
    """A shuffling node with ``commands`` queued, in arrival order."""
    node = Simulation(small(byzantine={3: NodeBehavior(shuffle=True)})).nodes[3]
    cmds = [Command.create(0, seq, b"c%d" % seq) for seq in range(1, commands + 1)]
    for cmd in cmds:
        node.on_command(cmd)
    return node, [cmd.digest for cmd in cmds]


def pre_order(node, now: int = 50) -> bytes:
    """Tick ``node`` into a pre-order; certify it at once; return its digest."""
    mempool = node.mempool
    node.on_tick(now)
    log = mempool.pending
    mempool.latest[node.node_id] = log
    mempool.pending = None
    return log.command_digest


class TestShuffleDraws:
    @pytest.mark.parametrize("length", [0, 1, 2, 3, 31, 32, 33, 64, 65, 1000])
    @pytest.mark.parametrize("seed", [0, 1, 7, "phalanx:1:byz:3"])
    def test_matches_random_shuffle(self, length, seed):
        # Draining a queue of `length` commands makes exactly the draws of
        # random.Random.shuffle on `length` items: the pre-order that finds
        # m >= 2 commands queued draws randrange(m) and takes the command at
        # that index among those still queued, in arrival order.
        node, digests = shuffler(length)
        node._shuffle_rng = random.Random(seed)
        reference = random.Random(seed)
        expected = []
        for m in range(length, 0, -1):
            expected.append(digests.pop(reference.randrange(m) if m >= 2 else 0))
        assert [pre_order(node) for _ in range(length)] == expected
        shuffled = random.Random(seed)
        shuffled.shuffle(list(range(length)))
        assert node._shuffle_rng.getstate() == reference.getstate() == shuffled.getstate()

    @pytest.mark.parametrize("queued", [0, 1, 2, 5])
    def test_tick_draws_only_for_two_or_more(self, queued):
        # A pre-order tick makes one randrange(queued) draw with two or more
        # queued, and none with fewer.
        node, _ = shuffler(queued)
        reference = random.Random()
        reference.setstate(node._shuffle_rng.getstate())
        if queued >= 2:
            reference.randrange(queued)
        node.on_tick(50)
        assert (node.mempool.pending is not None) == (queued >= 1)
        assert node._shuffle_rng.getstate() == reference.getstate()

    def test_no_draw_while_awaiting_votes(self):
        node, _ = shuffler(4)
        node.on_tick(50)
        pending, state = node.mempool.pending, node._shuffle_rng.getstate()
        for now in (100, 150, 2100):  # the last one re-sends the pending log
            node.on_tick(now)
        assert node.mempool.pending is pending
        assert len(node.mempool.inbound) == 3
        assert node._shuffle_rng.getstate() == state

    def test_front_draw_is_uniform(self):
        # 5,000 seeded draws from one 5-command queue: each command is
        # pre-ordered first 1,000 times in expectation (sd about 28).
        node, digests = shuffler(5)
        commands = list(node.mempool.inbound)
        firsts = dict.fromkeys(digests, 0)
        for seed in range(5000):
            node._shuffle_rng = random.Random(seed)
            node.mempool.inbound.clear()
            node.mempool.inbound.extend(commands)
            firsts[pre_order(node)] += 1
        assert all(abs(count - 1000) <= 120 for count in firsts.values()), firsts

    def test_undrawn_keep_arrival_order(self):
        moved = 0
        for seed in range(20):
            node, digests = shuffler(8)
            node._shuffle_rng = random.Random(seed)
            drawn = pre_order(node)
            moved += drawn != digests[0]
            digests.remove(drawn)
            assert [cmd.digest for cmd in node.mempool.inbound] == digests
        assert moved > 10


class TestDeterminism:
    def test_same_seed_byte_identical_json(self):
        a = run(small(seed=42))
        b = run(small(seed=42))
        assert a.to_json() == b.to_json()

    def test_different_seed_changes_run(self):
        a = run(small(seed=42))
        b = run(small(seed=43))
        assert a.events_processed != b.events_processed or a.sim_time_ms != b.sim_time_ms

    def test_trace_lines_reproducible(self):
        a = run(small(seed=10, byzantine={3: NodeBehavior(shuffle=True)}))
        b = run(small(seed=10, byzantine={3: NodeBehavior(shuffle=True)}))
        assert [e.line() for e in a.reference_trace] == [
            e.line() for e in b.reference_trace
        ]


class TestByzantineBehaviors:
    def test_silent_node_does_not_stop_commits(self):
        result = run(small(byzantine={3: NodeBehavior(silent=True)}))
        assert result.uncommitted == 0
        assert result.consistency
        assert result.reordered_ratio == 0.0

    def test_shuffler_cannot_reorder_below_threshold(self):
        result = run(small(byzantine={3: NodeBehavior(shuffle=True)},
                           commands_per_proposer=60, seed=17))
        assert result.reordered_ratio == 0.0
        assert result.consistency

    def test_skew_shifts_reported_timestamps(self):
        scenario = small(byzantine={3: NodeBehavior(skew=-7)}, commands_per_proposer=5)
        sim = Simulation(scenario)
        sim.run()
        skewed = sim.nodes[3].mempool
        honest = sim.nodes[1].mempool
        skewed_ts = [skewed.fetch_log(3, s).timestamp for s in range(1, 6)]
        honest_ts = [honest.fetch_log(1, s).timestamp for s in range(1, 6)]
        # Both tick on the same grid; the Byzantine one reports shifted stamps.
        assert all((h - s) % scenario.delta_o != 0 or h != s for h, s in zip(honest_ts, skewed_ts))
        assert all(ts % scenario.delta_o != 0 for ts in skewed_ts)

    def test_reverse_control_fully_inverts(self):
        result = run(small(strategy="follow", propose_interval=0,
                           commands_per_proposer=50,
                           byzantine={3: NodeBehavior(reverse=True)}))
        assert result.reordered_ratio == 1.0

    def test_two_reversers_break_ordering(self):
        result = run(small(propose_interval=0, commands_per_proposer=60,
                           byzantine={2: NodeBehavior(reverse=True),
                                      3: NodeBehavior(reverse=True)}))
        assert result.reordered_ratio > 0.005
        assert result.uncommitted == 0

    def test_over_threshold_silence_hits_duration_guard(self):
        result = run(small(commands_per_proposer=5, max_sim_ms=4000,
                           byzantine={2: NodeBehavior(silent=True),
                                      3: NodeBehavior(silent=True)}))
        assert result.non_quiescent
        assert result.uncommitted == 5


class TestTimestampStrategy:
    def test_honest_baseline_matches_proposal_order(self):
        result = run(small(strategy="timestamp", seed=14))
        assert result.reordered_ratio == 0.0
        assert result.uncommitted == 0
        assert result.consistency

    def test_baseline_traces_identical_across_nodes(self):
        result = run(small(strategy="timestamp", proposers=2, seed=15))
        digests = {n: [e.digest for e in t] for n, t in result.traces.items()}
        reference = digests[0]
        assert all(t == reference for t in digests.values())


class TestClientReplies:
    def test_every_command_reaches_quorum_acceptance(self):
        result = run(small(commands_per_proposer=10), client_replies=True)
        assert result.accepted_commands == 10

    @pytest.mark.parametrize("strategy, byzantine", [
        ("timestamp", {}), ("follow", {3: NodeBehavior(reverse=True)}),
    ], ids=["timestamp", "follow"])
    def test_commits_made_at_the_final_flush_are_replied(self, strategy, byzantine):
        # Both strategies commit only in the end-of-run flush.
        result = run(small(commands_per_proposer=10, strategy=strategy,
                           byzantine=byzantine), client_replies=True)
        assert result.committed == 10
        assert result.accepted_commands == 10

    def test_replies_survive_a_silent_node(self):
        result = run(small(commands_per_proposer=10,
                           byzantine={3: NodeBehavior(silent=True)}),
                     client_replies=True)
        assert result.accepted_commands == 10


class TestPeerRetrieval:
    """Gap recovery: a node missing state pulls it from peers and resumes."""

    def _chain(self, sim, author, commands):
        from phalanx.types import EMPTY_DIGEST, PartialOrderLog

        logs, prev = [], EMPTY_DIGEST
        for seq, cmd in enumerate(commands, start=1):
            log = PartialOrderLog.create(author, seq, 10 * seq, cmd.digest, prev)
            shares = [sim.auth.partial_sign(s, log.cur_digest) for s in range(3)]
            logs.append(log.with_certificate(sim.auth.aggregate(log.cur_digest, shares)))
            prev = logs[-1].cur_digest
        return logs

    def test_missing_log_fetched_from_peers(self):
        from phalanx import Command

        sim = Simulation(small(commands_per_proposer=0))
        commands = [Command.create(0, i, b"cmd%d" % i) for i in (1, 2)]
        chains = {author: self._chain(sim, author, commands) for author in (0, 1, 3)}
        for node in sim.nodes:
            for cmd in commands:
                node.mempool.store_command(cmd)
        all_logs = [log for chain in chains.values() for log in chain]
        for node_id in (0, 1, 3):
            for log in all_logs:
                assert sim.nodes[node_id].mempool.handle_order(log)
        # Node 2 misses author 1's first log; the delivered batch skips ahead.
        target = sim.nodes[2]
        for log in all_logs:
            if (log.node_id, log.seq) != (1, 1):
                assert target.mempool.handle_order(log)
        batch = (chains[0][1], chains[1][1], None, chains[3][1])
        target.on_batch(0, batch)
        assert target.consenter.blocked
        sim.run()  # drains the fetch round-trip to quiescence
        assert not target.consenter.blocked
        assert target.mempool.fetch_log(1, 1) is not None
        assert [e.digest for e in target.executor.committed_order] == [
            c.digest for c in commands
        ]

    def test_missing_command_body_fetched_before_commit(self):
        from phalanx import Command

        sim = Simulation(small(commands_per_proposer=0))
        secret = Command.create(0, 1, b"late body")
        logs = {
            author: self._chain(sim, author, [secret])[0] for author in (0, 1, 3)
        }
        target = sim.nodes[2]
        for author, log in logs.items():
            assert target.mempool.handle_order(log)
        # Only node 3 knows the command body.
        sim.nodes[3].mempool.store_command(secret)
        batch = (logs[0], logs[1], None, logs[3])
        target.on_batch(0, batch)
        assert target.executor.blocked_on == {secret.digest}
        sim.run()
        assert not target.executor.blocked_on
        assert [e.digest for e in target.executor.committed_order] == [secret.digest]

    def test_forged_command_body_is_dropped(self, monkeypatch):
        from dataclasses import replace

        from phalanx import Command
        from phalanx.mempool import REJECT_BAD_DIGEST
        from phalanx.wire import FetchCommandMessage, FetchCommandResponse

        sim = Simulation(small(commands_per_proposer=0))
        secret = Command.create(0, 1, b"late body")
        logs = {
            author: self._chain(sim, author, [secret])[0] for author in (0, 1, 3)
        }
        target = sim.nodes[2]
        for log in logs.values():
            assert target.mempool.handle_order(log)
        target.on_batch(0, (logs[0], logs[1], None, logs[3]))
        assert target.executor.blocked_on == {secret.digest}
        # Node 1 asks node 2 for the body too, so node 2 owes it the answer.
        target.on_message(FetchCommandMessage(secret.digest), 1)
        sent = []
        monkeypatch.setattr(sim, "send", lambda src, dst, msg: sent.append((dst, msg)))

        # A body that keeps the real digest but not the fields it hashes.
        forged = replace(secret, proposer_id=3, seq=7, payload=b"forged")
        target.on_message(FetchCommandResponse(forged), 3)
        assert target.mempool.fetch_command(secret.digest) is None
        assert target.mempool.rejects[REJECT_BAD_DIGEST] == 1
        assert sent == []
        assert target.executor.blocked_on == {secret.digest}
        assert target.executor.committed_order == []

        target.on_message(FetchCommandResponse(secret), 3)
        assert sent == [(1, FetchCommandResponse(secret))]
        assert [(e.proposer_id, e.proposer_seq) for e in target.executor.committed_order] == [
            (0, 1)
        ]


class TestAuthenticatorSchemes:
    def test_ed25519_scheme_end_to_end(self):
        result = run(small(commands_per_proposer=8, auth_scheme="ed25519"))
        assert result.uncommitted == 0
        assert result.consistency

    def test_schemes_agree_on_committed_order(self):
        hmac_run = run(small(commands_per_proposer=8, auth_scheme="hmac"))
        ed_run = run(small(commands_per_proposer=8, auth_scheme="ed25519"))
        assert [e.digest for e in hmac_run.reference_trace] == [
            e.digest for e in ed_run.reference_trace
        ]


class TestResultShape:
    def test_json_contains_schema_and_metrics(self):
        import json

        result = run(small(commands_per_proposer=5))
        payload = json.loads(result.to_json())
        for key in (
            "schema_version", "scenario", "reordered_ratio", "alter_path_ratio",
            "consistency", "prefix_consistent", "uncommitted", "non_quiescent",
            "trace_sha256",
        ):
            assert key in payload
        assert payload["scenario"]["n"] == 4

    def test_batch_trace_recording(self, monkeypatch):
        from phalanx.consensus import encode_order_batch

        sim = Simulation(small(commands_per_proposer=5), record_batches=True)
        consenter = sim.nodes[sim.reference_node].consenter
        delivered = {}
        original = consenter.on_delivered

        def on_delivered(index, batch):
            delivered[index] = batch
            return original(index, batch)

        monkeypatch.setattr(consenter, "on_delivered", on_delivered)
        result = sim.run()
        assert result.leader_faults == 0
        assert result.batch_trace == [
            encode_order_batch(delivered[index]).hex() for index in sorted(delivered)
        ]
