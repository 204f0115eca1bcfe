"""End-to-end simulation properties: FIFO links, determinism, fault handling."""

import dataclasses
import random

import pytest

import phalanx.mempool
from phalanx import Command, NodeBehavior, Scenario, Simulation, run
from phalanx.wire import PreOrderMessage, VoteMessage
from prop_harness import check_invariants, random_scenario, wide_scenario


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


def deliver_time(sim, src, dst):
    """Send one message from ``src`` to ``dst``; return when it is delivered."""
    sim._heap.clear()
    sim.send(src, dst, None)
    return sim._heap[0][0]


class TestLinkFifoClamp:
    def test_earlier_send_never_overtaken(self):
        # Latency draws of 10 then 3 on one link must still deliver in send
        # order: the second delivery time is clamped up to the first.
        sim = Simulation(small(latency=(0, 15)))
        fixed_latencies(sim, [10, 3])
        sim.now = 100
        first = deliver_time(sim, 0, 1)
        second = deliver_time(sim, 0, 1)
        assert first == 110
        assert second == 110  # clamped, not 103

    def test_independent_links_unclamped(self):
        sim = Simulation(small(latency=(0, 15)))
        fixed_latencies(sim, [10, 3])
        sim.now = 100
        assert deliver_time(sim, 0, 1) == 110
        assert deliver_time(sim, 0, 2) == 103

    def test_self_link_is_immediate(self):
        sim = Simulation(small())
        sim.now = 42
        assert deliver_time(sim, 1, 1) == 42


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
            drawn.append(deliver_time(sim, 0, 1))
        reference = random.Random(f"phalanx:{seed}:latency")
        assert drawn == [reference.randint(*latency) for _ in range(300)]
        assert sim.rng.getstate() == reference.getstate()


def queued_node(node_id: int, commands: int, **kw):
    """Node ``node_id`` of a small cluster with ``commands`` queued, in
    arrival order."""
    node = Simulation(small(**kw)).nodes[node_id]
    cmds = [Command.create(0, seq, b"c%d" % seq) for seq in range(1, commands + 1)]
    for cmd in cmds:
        node.on_command(cmd)
    return node, [cmd.digest for cmd in cmds]


def shuffler(commands: int):
    """A shuffling node with ``commands`` queued, in arrival order."""
    return queued_node(3, commands, byzantine={3: NodeBehavior(shuffle=True)})


def tick_pre_orders(node, now: int = 50) -> list[bytes]:
    """Tick ``node``; certify its new pre-orders at once; return their
    command digests in seq order."""
    mempool = node.mempool
    node.on_tick(now)
    digests = [entry.log.command_digest for entry in mempool.outstanding.values()]
    mempool.outstanding.clear()
    return digests


class TestShuffleDraws:
    @pytest.mark.parametrize("length", [0, 1, 2, 3, 31, 32, 33, 64, 65, 1000])
    @pytest.mark.parametrize("seed", [0, 1, 7, "phalanx:1:byz:3"])
    def test_matches_random_shuffle(self, length, seed):
        # Draining a queue of `length` commands through ticks makes exactly
        # the draws of random.Random.shuffle on `length` items: the pre-order
        # that finds m >= 2 commands queued draws randrange(m) and takes the
        # command at that index among those still queued, in arrival order.
        node, digests = shuffler(length)
        node._shuffle_rng = random.Random(seed)
        reference = random.Random(seed)
        expected = []
        for m in range(length, 0, -1):
            expected.append(digests.pop(reference.randrange(m) if m >= 2 else 0))
        drawn = []
        now = 50
        while node.mempool.inbound:
            drawn += tick_pre_orders(node, now)
            now += 50
        assert drawn == expected
        shuffled = random.Random(seed)
        shuffled.shuffle(list(range(length)))
        assert node._shuffle_rng.getstate() == reference.getstate() == shuffled.getstate()

    @pytest.mark.parametrize("queued", [0, 1, 2, 5, 9])
    def test_tick_draws_only_for_two_or_more(self, queued):
        # Each pre-order of a tick makes one randrange(m) draw while the
        # window has room and m >= 2 commands are queued, and none otherwise.
        window = phalanx.mempool.PRE_ORDER_WINDOW
        node, _ = shuffler(queued)
        reference = random.Random()
        reference.setstate(node._shuffle_rng.getstate())
        for m in range(queued, max(queued - window, 1), -1):
            reference.randrange(m)
        node.on_tick(50)
        assert len(node.mempool.outstanding) == min(queued, window)
        assert node._shuffle_rng.getstate() == reference.getstate()

    def test_no_draw_while_awaiting_votes(self):
        # Once the window is full, ticks draw nothing until a log certifies.
        window = phalanx.mempool.PRE_ORDER_WINDOW
        node, _ = shuffler(window + 3)
        node.on_tick(50)
        outstanding = list(node.mempool.outstanding)
        state = node._shuffle_rng.getstate()
        for now in (100, 150, 2050):  # the last one re-sends the first log
            node.on_tick(now)
        assert list(node.mempool.outstanding) == outstanding
        assert len(outstanding) == window
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
            firsts[tick_pre_orders(node)[0]] += 1
        assert all(abs(count - 1000) <= 120 for count in firsts.values()), firsts

    def test_undrawn_keep_arrival_order(self):
        moved = 0
        for seed in range(20):
            node, digests = shuffler(8)
            node._shuffle_rng = random.Random(seed)
            drawn = tick_pre_orders(node)
            moved += drawn != digests[:len(drawn)]
            for digest in drawn:
                digests.remove(digest)
            assert [cmd.digest for cmd in node.mempool.inbound] == digests
        assert moved > 10


def chain_stamps(node) -> list[int]:
    """Stamps of the node's own logs awaiting votes, in seq order."""
    return [entry.log.timestamp for entry in node.mempool.outstanding.values()]


class TestTickPreOrders:
    @pytest.mark.parametrize("earlier", [0, 1, 3])
    @pytest.mark.parametrize("queued", [0, 1, 2, 4, 7])
    def test_fills_the_window_with_increasing_stamps(self, earlier, queued):
        # One tick pre-orders min(queued, room) logs, stamped now, now + 1,
        # ...: above every stamp an earlier tick put on the chain.
        window = phalanx.mempool.PRE_ORDER_WINDOW
        node, _ = queued_node(1, earlier)
        assert node.on_tick(50) is (earlier > 0)
        for seq in range(earlier + 1, earlier + queued + 1):
            node.on_command(Command.create(0, seq, b"c%d" % seq))
        acted = node.on_tick(100)
        pre_ordered = min(queued, window - earlier)
        assert acted is (pre_ordered > 0)
        assert chain_stamps(node) == [50 + k for k in range(earlier)] + [
            100 + k for k in range(pre_ordered)]
        assert len(node.mempool.inbound) == queued - pre_ordered

    def test_skewed_stamps_increase_within_a_tick(self):
        node, _ = queued_node(3, 4, byzantine={3: NodeBehavior(skew=-7)})
        node.on_tick(50)
        assert chain_stamps(node) == [43, 44, 45, 46]

    @pytest.mark.parametrize("delta_o", [1, 2, 3])
    def test_tick_uses_at_most_delta_o_stamps(self, delta_o):
        # Below the window, a tick stops at delta_o pre-orders, so the next
        # grid tick's stamps still lie above this one's.
        window = phalanx.mempool.PRE_ORDER_WINDOW
        node, _ = queued_node(1, 9, delta_o=delta_o)
        node.on_tick(50)
        assert chain_stamps(node) == list(range(50, 50 + min(delta_o, window)))
        node.on_tick(50 + delta_o)
        assert chain_stamps(node) == list(range(50, 50 + min(2 * delta_o, window)))

    def test_reverse_takes_the_newest_at_each_pre_order(self):
        window = phalanx.mempool.PRE_ORDER_WINDOW
        node, digests = queued_node(3, window + 2, byzantine={3: NodeBehavior(reverse=True)})
        node.on_tick(50)
        logs = [entry.log for entry in node.mempool.outstanding.values()]
        assert [log.command_digest for log in logs] == digests[:1:-1]
        assert [cmd.digest for cmd in node.mempool.inbound] == digests[:2]


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


class TestTickScheduling:
    def test_silent_node_never_ticks(self):
        sim = Simulation(small(commands_per_proposer=10,
                               byzantine={3: NodeBehavior(silent=True)}))
        silent = sim.nodes[3]
        calls = []
        original = silent.on_tick

        def on_tick(now):
            calls.append(now)
            return original(now)

        silent.on_tick = on_tick
        result = sim.run()
        assert result.committed == 10
        assert calls == []

    def test_resends_survive_sleeping_between_ticks(self, monkeypatch):
        # Links slower than resend_ms: a sleeping node still re-broadcasts its
        # outstanding pre-orders as often as one that ticks every delta_o.
        # Votes return after each log's third send, at either window.
        for window in (1, 4):
            monkeypatch.setattr(phalanx.mempool, "PRE_ORDER_WINDOW", window)
            sim = Simulation(small(commands_per_proposer=10, latency=(2500, 3000), seed=3))
            pre_orders = []
            original = sim.send

            def send(src, dst, msg):
                if isinstance(msg, PreOrderMessage):
                    pre_orders.append(src)
                original(src, dst, msg)

            sim.send = send
            result = sim.run()
            assert result.committed == 10
            assert not result.non_quiescent
            assert len(pre_orders) == 480


    @pytest.mark.parametrize("resend_ms", [2000, 2010])
    def test_logs_due_at_once_rebroadcast_one_per_grid_tick(self, resend_ms):
        # Node 1 gets no votes, so the four logs of its first tick stay
        # outstanding and fall due within one grid interval. Each later tick
        # re-broadcasts one of them, on successive grid ticks; no tick of the
        # node runs twice at one time.
        sim = Simulation(small(commands_per_proposer=4, propose_interval=0,
                               resend_ms=resend_ms, max_sim_ms=7000))
        node = sim.nodes[1]
        ticks, sends = [], []
        original_tick, original_send = node.on_tick, sim.send

        def on_tick(now):
            ticks.append(now)
            return original_tick(now)

        def send(src, dst, msg):
            if isinstance(msg, VoteMessage) and dst == 1:
                return
            if isinstance(msg, PreOrderMessage) and src == dst == 1:
                sends.append((sim.now, msg.log.seq))
            original_send(src, dst, msg)

        node.on_tick, sim.send = on_tick, send
        assert sim.run().non_quiescent
        first, delta = ticks[0], sim._delta
        assert sends[:4] == [(first, seq) for seq in range(1, 5)]
        resends = sends[4:]
        assert [when for when, _ in resends] == ticks[1:]
        assert len(set(ticks)) == len(ticks)
        due = first + resend_ms
        start = due + (first - due) % delta
        assert resends[:4] == [(start + k * delta, k + 1) for k in range(4)]
        assert len(resends) > 4


def every_grid_point(sim, node_id, now):
    """``Simulation._sleep`` for a loop that ticks every node on every grid
    point: a node never sleeps once it has ticked."""
    sim._schedule_tick(node_id, now + sim._delta)


def outcome(scenario):
    """Every output of a run but ``events_processed``, which counts ticks."""
    result = run(scenario, record_batches=True)
    payload = result.to_json_dict()
    del payload["events_processed"]
    traces = {i: [entry.line() for entry in trace] for i, trace in result.traces.items()}
    return payload, traces, result.batch_trace


class TestTickElision:
    """Ticking only when a tick can act changes no output: runs match a loop
    that ticks every node on every grid point."""

    @pytest.mark.parametrize("window", [1, 4])
    @pytest.mark.parametrize("generator, base", [(random_scenario, 5000),
                                                 (wide_scenario, 6000)],
                             ids=["random", "wide"])
    def test_matches_every_grid_point_loop(self, monkeypatch, window, generator, base):
        monkeypatch.setattr(phalanx.mempool, "PRE_ORDER_WINDOW", window)
        mismatches = []
        for index in range(20):
            # Capped, so wide runs stay short and some end cut short.
            scenario = dataclasses.replace(generator(random.Random(base + index)),
                                           max_sim_ms=20_000)
            elided = outcome(scenario)
            with monkeypatch.context() as patched:
                patched.setattr(Simulation, "_sleep", every_grid_point)
                if outcome(scenario) != elided:
                    mismatches.append(index)
        assert mismatches == []


class TestDeltaOBelowTheWindow:
    """With delta_o under PRE_ORDER_WINDOW a tick stops at delta_o
    pre-orders; the invariant battery holds and honest stamps strictly
    increase along each chain."""

    @pytest.mark.parametrize("delta_o", [1, 2, 3])
    @pytest.mark.parametrize("index", range(4))
    def test_invariants_hold(self, delta_o, index):
        scenario = dataclasses.replace(random_scenario(random.Random(8100 + index)),
                                       delta_o=delta_o)
        assert check_invariants(scenario) == []
        sim = Simulation(scenario)
        sim.run()
        store = sim.nodes[sim.reference_node].mempool.log_store
        for author in scenario.honest_ids():
            stamps = [store[(author, seq)].timestamp
                      for seq in range(1, sim.nodes[author].mempool.seq + 1)]
            assert stamps == sorted(set(stamps)), (author, stamps)

    @pytest.mark.parametrize("delta_o", [1, 2, 3])
    def test_matches_every_grid_point_loop(self, delta_o, monkeypatch):
        # A tick that stopped at delta_o pre-orders with room left ticks
        # again on the next grid point, as the every-grid-point loop does.
        for index in range(4):
            scenario = dataclasses.replace(random_scenario(random.Random(8100 + index)),
                                           delta_o=delta_o)
            elided = outcome(scenario)
            with monkeypatch.context() as patched:
                patched.setattr(Simulation, "_sleep", every_grid_point)
                assert outcome(scenario) == elided, index


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
