"""End-to-end simulation properties: FIFO links, determinism, fault handling."""

import dataclasses
import json
import random
from collections import Counter

import pytest

import phalanx.mempool
from phalanx import Command, NodeBehavior, Scenario, Simulation, run, simnet
from phalanx.replica import Replica
from phalanx.scenario import parse_scenario_text
from phalanx.wire import OrderMessage, PreOrderMessage, VoteMessage
from prop_harness import certified_chain, check_invariants, random_scenario, wide_scenario
from test_determinism_pins import REVERSE_SILENT7


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
    """Send one message from ``src`` to ``dst`` as an event of its own;
    return when it is delivered."""
    sim._heap.clear()
    sim._bundles.clear()
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


def relaying(sim, relay):
    """Make node 0 handle each message by calling ``relay(msg)``, and every
    other node record each message it handles as (time, node, msg, sender);
    return that record."""
    handled = []
    for node in sim.nodes[1:]:
        node.on_message = lambda msg, sender, node=node: handled.append(
            (sim.now, node.node_id, msg, sender))
    sim.nodes[0].on_message = lambda msg, sender: relay(msg)
    return handled


class TestTransmissions:
    """What one event sends on a link is one transmission: one latency
    draw, one heap entry and one processed event, handled in send order."""

    def test_sends_on_one_link_in_one_event_share_one_transmission(self):
        sim = Simulation(small(commands_per_proposer=0, latency=(0, 15)))
        draws = []
        bits = iter([1, 10, 3])
        sim._latency_bits = lambda k: draws.append(k) or next(bits)
        entries = []

        def relay(msg):
            for part in ("a", "b", "c"):
                sim.send(0, 1, part)
            entries.append(len(sim._heap))

        handled = relaying(sim, relay)
        sim.send(3, 0, "go")
        result = sim.run()
        assert len(draws) == 2  # "go" draws 1 and "a" 10; "b" and "c" none
        assert entries == [1]
        assert handled == [(11, 1, "a", 0), (11, 1, "b", 0), (11, 1, "c", 0)]
        assert result.events_processed == 2

    def test_sends_on_one_link_in_two_events_stay_fifo(self):
        # The second relay draws 3 but lands behind the first, drawn 10.
        sim = Simulation(small(commands_per_proposer=0, latency=(0, 15)))
        fixed_latencies(sim, [1, 2, 10, 3])
        handled = relaying(sim, lambda msg: sim.send(0, 1, msg))
        sim.send(3, 0, "first")
        sim.send(2, 0, "second")
        result = sim.run()
        assert handled == [(11, 1, "first", 0), (11, 1, "second", 0)]
        assert result.events_processed == 4

    def test_sends_on_two_links_in_one_event_stay_independent(self):
        sim = Simulation(small(commands_per_proposer=0, latency=(0, 15)))
        fixed_latencies(sim, [1, 10, 3])

        def relay(msg):
            sim.send(0, 1, "x")
            sim.send(0, 2, "y")
            sim.send(0, 1, "z")

        handled = relaying(sim, relay)
        sim.send(3, 0, "go")
        result = sim.run()
        assert handled == [(4, 2, "y", 0), (11, 1, "x", 0), (11, 1, "z", 0)]
        assert result.events_processed == 3


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


def chain_commands(node) -> list[tuple[int, bytes]]:
    """(stamp, command digest) of each command of the node's own logs
    awaiting votes, in chain order."""
    return [pair for entry in node.mempool.outstanding.values() for pair in entry.log.stamped()]


def tick_pre_orders(node, now: int = 50) -> list[bytes]:
    """Tick ``node``; certify its new pre-orders at once; return their
    command digests in chain order."""
    mempool = node.mempool
    node.on_tick(now)
    digests = [digest for _, digest in chain_commands(node)]
    mempool.outstanding.clear()
    mempool.in_flight = 0
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
        assert len(chain_commands(node)) == min(queued, window)
        assert node._shuffle_rng.getstate() == reference.getstate()

    def test_no_draw_while_awaiting_votes(self):
        # Once the window is full, ticks draw nothing until a log certifies.
        window = phalanx.mempool.PRE_ORDER_WINDOW
        node, _ = shuffler(window + 3)
        node.on_tick(50)
        outstanding = chain_commands(node)
        state = node._shuffle_rng.getstate()
        for now in (100, 150, 2050):  # the last one re-sends the tick's log
            node.on_tick(now)
        assert chain_commands(node) == outstanding
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
    """Stamps of the commands of the node's own logs awaiting votes, in
    chain order."""
    return [stamp for stamp, _ in chain_commands(node)]


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
        assert [digest for _, digest in chain_commands(node)] == digests[:1:-1]
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
        def command_stamps(node_id):
            mempool, stamps, seq = sim.nodes[node_id].mempool, [], 1
            while (log := mempool.fetch_log(node_id, seq)) is not None:
                stamps += [stamp for stamp, _ in log.stamped()]
                seq += 1
            assert len(stamps) == 5
            return stamps

        skewed_ts, honest_ts = command_stamps(3), command_stamps(1)
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


class _PortSpy:
    """A node's port that records each part but ``now`` the node reads."""

    def __init__(self, sim, read: list):
        self._sim, self._read = sim, read

    def __getattr__(self, name):
        if name != "now":
            self._read.append(name)
        return getattr(self._sim, name)


def silent_handoffs(scenario) -> list[str]:
    """What the scenario's silent nodes ask of the simulator in one run:
    ``send``, ``broadcast``, ``wake`` or ``sequencer``."""
    sim = Simulation(scenario)
    read: list[str] = []
    for node_id, behavior in scenario.byzantine.items():
        if behavior.silent:
            sim.nodes[node_id].net = _PortSpy(sim, read)
    sim.run()
    return read


class TestCrashFault:
    """A silent node receives and sends nothing: a crash fault."""

    @pytest.mark.parametrize("generator, seeds", [
        (random_scenario, range(9000, 9200)),
        (random_scenario, range(10000, 10100)),
        (wide_scenario, range(9000, 9200)),
        (wide_scenario, range(7000, 7100)),
    ], ids=["random-9000", "random-10000", "wide-9000", "wide-7000"])
    def test_silent_nodes_hand_the_simulator_nothing(self, generator, seeds):
        # Silent nodes once answered fetches (wide 9085, 9137, 9152, 9198,
        # 7065) and broadcast fetch requests (wide 9175).
        handed = {}
        for seed in seeds:
            scenario = generator(random.Random(seed))
            if any(behavior.silent for behavior in scenario.byzantine.values()):
                read = silent_handoffs(scenario)
                if read:
                    handed[seed] = sorted(set(read))
        assert handed == {}

    def test_reverse_silent7_silent_node_hands_nothing(self):
        assert silent_handoffs(parse_scenario_text(REVERSE_SILENT7)) == []

    def test_silent_node_stores_nothing(self):
        sim = Simulation(small(commands_per_proposer=10,
                               byzantine={3: NodeBehavior(silent=True)}))
        result = sim.run()
        silent = sim.nodes[3]
        assert result.committed == 10 and silent.idle()
        assert not silent.mempool.command_store and not silent.mempool.log_store
        assert not silent.consenter.pending_batches and not silent.executor.command_infos

    @pytest.mark.parametrize("skew", [-120, -7, 0, 7, 120])
    def test_time_at_inverts_clock_at(self, skew):
        behaviors = {3: NodeBehavior(skew=skew)} if skew else {}
        node = Simulation(small(byzantine=behaviors)).nodes[3]
        for now in range(400):
            stamp = node.clock_at(now)
            assert stamp == max(now + skew, 0)
            if stamp > 0:
                assert node.time_at(stamp) == now


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

    def test_leader_stays_asleep_until_a_stored_log_lets_it_batch(self):
        # A certified log stored above a gap leaves the certified head where
        # it was, so the leader's tick could cut no batch and none is queued;
        # the log that fills the gap moves the head and queues the next grid
        # tick.
        sim = Simulation(small(commands_per_proposer=0))
        leader = sim.nodes[0]
        cmds = [Command.create(0, seq, b"c%d" % seq) for seq in (1, 2)]
        first, second = certified_chain(sim.auth, 1, [(cmd, 10) for cmd in cmds])
        leader.on_message(OrderMessage(second), 1)
        assert leader.mempool.latest[1] is None
        assert sim._tick_at[0] == simnet._NO_TICK
        leader.on_message(OrderMessage(first), 1)
        assert leader.mempool.latest[1] is second
        assert sim._tick_at[0] == sim._next_grid_tick(0) == sim._first_tick[0]

    def test_leader_sleeps_after_cutting_its_batch(self):
        # A tick that cuts a batch of every stored head leaves the leader
        # nothing to do, although its own consenter expands that batch only
        # after the tick: no follow-up tick is queued.
        sim = Simulation(small(commands_per_proposer=0))
        leader = sim.nodes[0]
        (log,) = certified_chain(sim.auth, 1, [(Command.create(0, 1, b"c1"), 10)])
        for node in sim.nodes:
            node.on_message(OrderMessage(log), 1)
        ticks = []
        on_tick = leader.on_tick
        leader.on_tick = lambda now: ticks.append(now) or on_tick(now)
        sim.run()
        assert ticks == [sim._first_tick[0]]
        assert leader.consenter.committed_seq[1] == 1
        assert sim._tick_at[0] == simnet._NO_TICK

    def test_resends_survive_sleeping_between_ticks(self, monkeypatch):
        # Links slower than resend_ms: a sleeping node still re-broadcasts its
        # outstanding pre-orders on time. Votes return after a log's third
        # send while the timeout is resend_ms; the first certification
        # teaches each node the 5-6 s round trip, so every later log goes out
        # once. Each log its author first sent before its own first log
        # certified is thus sent three times, and every other log once.
        for window in (1, 4, 12, 24):
            monkeypatch.setattr(phalanx.mempool, "PRE_ORDER_WINDOW", window)
            sim = Simulation(small(commands_per_proposer=10, latency=(2500, 3000), seed=3))
            sends, first_sent, certified = Counter(), {}, {}
            original = sim.send

            def send(src, dst, msg):
                if isinstance(msg, PreOrderMessage) and dst == src:
                    key = (src, msg.log.seq)
                    sends[key] += 1
                    first_sent.setdefault(key, sim.now)
                elif isinstance(msg, OrderMessage) and msg.log.node_id == src:
                    certified.setdefault(src, sim.now)
                original(src, dst, msg)

            sim.send = send
            result = sim.run()
            assert result.committed == 10
            assert not result.non_quiescent
            assert dict(sends) == {
                key: 3 if first_sent[key] < certified[key[0]] else 1 for key in sends}
            assert 3 in sends.values()

    def test_certification_that_lowers_the_timeout_rearms_a_sleeping_node(self):
        # Commands reach node 1 at 1, 501 and 1001, so it pre-orders one log
        # at each of its grid ticks 62, 512 and 1012, and every peer votes
        # for each in an event of its own; every vote to it takes 1 ms but
        # those named below. Seq 1's votes land at 463, R = 401: SRTT 401,
        # RTTVAR 200, timeout 1201. Seq 2, sent after that sample, is timed
        # too; seq 3 is sent before seq 2's sample and is not. After seq 3's
        # pre-order, seq 2 falls due first, at 1713, so the node sleeps
        # until grid tick 1762. Seq 2's votes land at 1043, R = 531:
        #   RTTVAR = (3 * 200 + |401 - 531|) // 4 = 182
        #   SRTT = (7 * 401 + 531) // 8 = 417
        # so the timeout falls to 417 + 4 * 182 = 1145. Seq 3, still without
        # votes, is due at 1012 + 1145 = 2157, not 2213: woken by the
        # certification, the node re-broadcasts it at grid tick 2162, not
        # 2262, as a node ticking every grid point does.
        delays = {1: 400, 2: 530, 3: 2000}

        def pre_order_sends(next_tick=None):
            sim = Simulation(small(commands_per_proposer=3, propose_interval=500,
                                   latency=(0, 2000), resend_ms=500))
            if next_tick is not None:
                sim._next_tick = lambda node_id, grid: next_tick(sim, node_id, grid)
            seqs, sends, delay = {}, [], [1]
            sim._latency_bits = lambda k: delay[0]
            original = sim.send

            def send(src, dst, msg):
                if isinstance(msg, PreOrderMessage) and src == dst == 1:
                    seqs[msg.log.cur_digest] = msg.log.seq
                    sends.append((sim.now, msg.log.seq))
                if isinstance(msg, VoteMessage) and dst == 1 != src:
                    delay[0] = delays[seqs[msg.partial.event_digest]]
                original(src, dst, msg)
                delay[0] = 1

            sim.send = send
            assert sim.run().committed == 3
            mempool = sim.nodes[1].mempool
            return sends, (mempool.srtt, mempool.rttvar)

        sends, estimate = pre_order_sends()
        assert sends == [(62, 1), (512, 2), (1012, 3), (2162, 3)]
        assert estimate == (417, 182)
        assert pre_order_sends(every_grid_point) == (sends, estimate)

    def test_certification_drops_the_queued_rebroadcast_tick(self):
        # Each node's log certifies within milliseconds, long before its
        # re-broadcast falls due at resend_ms. The tick queued for that due
        # time would do nothing, so the certification's wake drops it and
        # every tick of the run acts, although the second command keeps the
        # run going past that time.
        sim = Simulation(small(commands_per_proposer=2, propose_interval=3000))
        idle = []
        for node in sim.nodes:
            def on_tick(now, node=node, original=node.on_tick):
                acted = original(now)
                if not acted:
                    idle.append((node.node_id, now))
                return acted

            node.on_tick = on_tick
        assert sim.run().committed == 2
        assert idle == []

    @pytest.mark.parametrize("resend_ms", [2000, 2010])
    def test_logs_due_at_once_rebroadcast_one_per_grid_tick(self, resend_ms):
        # Node 1 gets no votes. A command arrives for each of its grid ticks
        # (two for the first), and a tick that pre-orders re-broadcasts
        # nothing, so it pre-orders one log per tick until 24 commands fill
        # the window, while its first logs fall due. Each later tick
        # re-broadcasts one of them, oldest first, on successive grid ticks;
        # no tick of the node runs twice at one time.
        sim = Simulation(small(commands_per_proposer=40, delta_o=100, propose_interval=100,
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
        delta = sim._delta
        logs = max(seq for _, seq in sends)
        assert logs == 23 and node.mempool.in_flight == phalanx.mempool.PRE_ORDER_WINDOW
        assert sends[:logs] == [(ticks[k], k + 1) for k in range(logs)]
        resends = sends[logs:]
        assert [when for when, _ in resends] == ticks[logs:]
        assert len(set(ticks)) == len(ticks)
        start = resends[0][0]
        assert sum(when + resend_ms <= start for when, _ in sends[:logs]) > 1
        assert resends[:logs] == [(start + k * delta, k + 1) for k in range(logs)]


def every_grid_point(sim, node_id, grid):
    """``Simulation._next_tick`` for a loop that ticks every node on every
    grid point: every grid tick can act."""
    return grid


def outcome(scenario):
    """Every output of a run but ``events_processed``, which counts ticks."""
    result = run(scenario, record_batches=True)
    payload = result.to_json_dict()
    del payload["events_processed"]
    traces = {i: [entry.line() for entry in trace] for i, trace in result.traces.items()}
    return payload, traces, result.batch_trace


def record_handlers(monkeypatch):
    """Record each handler call of every node as (time, the node's id for a
    tick, None for any other handler)."""
    calls = []

    def recording(cls, name, tick):
        original = getattr(cls, name)

        def handler(node, *args):
            calls.append((node.net.now, node.node_id if tick else None))
            return original(node, *args)

        monkeypatch.setattr(cls, name, handler)

    recording(simnet._Node, "on_tick", True)
    for name in ("on_message", "on_batch", "on_command"):
        recording(Replica, name, False)
    return calls


class TestEventOrder:
    """At one simulated time every tick runs first, in node-id order, and
    every other event follows."""

    @pytest.mark.parametrize("generator, base", [(random_scenario, 5000),
                                                 (wide_scenario, 6000)],
                             ids=["random", "wide"])
    def test_ticks_run_first_in_node_id_order(self, monkeypatch, generator, base):
        calls = record_handlers(monkeypatch)
        shared = 0  # times at which a tick meets another handler call
        for index in range(3):
            calls.clear()
            run(dataclasses.replace(generator(random.Random(base + index)),
                                    max_sim_ms=20_000))
            at = {}
            for time, tick in calls:
                at.setdefault(time, []).append(tick)
            for time, handled in at.items():
                ticks = [node_id for node_id in handled if node_id is not None]
                assert handled[:len(ticks)] == sorted(ticks), (index, time, handled)
                shared += 0 < len(ticks) < len(handled)
        assert shared


class TestTickElision:
    """Ticking only when a tick can act changes no output: runs match a loop
    that ticks every node on every grid point."""

    @pytest.mark.parametrize("window", [1, 4, 12, 24])
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
                patched.setattr(Simulation, "_next_tick", every_grid_point)
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
                patched.setattr(Simulation, "_next_tick", every_grid_point)
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

    def test_commits_online_with_a_silent_node(self):
        # The silent node's watermark stays 0 and uses up the one author the
        # rule may leave behind; the others' watermarks still pass each stamp.
        sim = Simulation(small(strategy="timestamp", latency=(1, 300),
                               byzantine={3: NodeBehavior(silent=True)}))
        result = sim.run()
        assert result.uncommitted == 0
        assert result.consistency
        times = sim.nodes[result.reference_node].commit_times
        assert len(times) == 30
        online = [t for t in times if t < result.sim_time_ms]
        assert len(online) >= 20
        assert result.commit_latency_ms["p50"] < result.sim_time_ms // 2


class TestPeerRetrieval:
    """Gap recovery: a node missing a certified log pulls it from peers, one
    missing a command body waits for its proposer's copy; both then resume."""

    def _chain(self, sim, author, commands):
        return certified_chain(
            sim.auth, author, [(cmd, 10 * seq) for seq, cmd in enumerate(commands, start=1)])

    def test_missing_log_fetched_from_peers(self):
        from phalanx import Command

        sim = Simulation(small(commands_per_proposer=0))
        commands = [Command.create(0, i, b"cmd%d" % i) for i in (1, 2)]
        chains = {author: self._chain(sim, author, commands) for author in (0, 1, 3)}
        for node in sim.nodes:
            for cmd in commands:
                node.mempool.command_store[cmd.digest] = cmd
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

    def test_missing_command_body_awaited_before_commit(self, monkeypatch):
        from phalanx import Command

        sim = Simulation(small(commands_per_proposer=0))
        secret = Command.create(0, 1, b"late body")
        logs = {
            author: self._chain(sim, author, [secret])[0] for author in (0, 1, 3)
        }
        target = sim.nodes[2]
        for log in logs.values():
            assert target.mempool.handle_order(log)
        sent = []
        monkeypatch.setattr(sim, "send", lambda src, dst, msg: sent.append((dst, msg)))
        target.on_batch(0, (logs[0], logs[1], None, logs[3]))
        assert target.executor.blocked_on == {secret.digest}
        assert target.executor.committed_order == []
        assert sent == []  # no peer is asked for the body
        # The proposer's copy lands and the blocked set commits.
        target.on_command(secret)
        assert not target.executor.blocked_on
        assert [e.digest for e in target.executor.committed_order] == [secret.digest]


    def test_missing_command_body_awaited_before_commit_timestamp(self):
        sim = Simulation(small(strategy="timestamp", commands_per_proposer=0))
        secret = Command.create(0, 1, b"late body")
        later = Command.create(0, 2, b"stored body")
        chains = {author: self._chain(sim, author, [secret, later]) for author in (0, 1, 3)}
        target = sim.nodes[2]
        target.mempool.command_store[later.digest] = later
        for chain in chains.values():
            for log in chain:
                assert target.mempool.handle_order(log)
        target.on_batch(0, tuple(chains[j][1] if j in chains else None for j in range(4)))
        # Secret, fixed at 10, is below every watermark but node 2's: it
        # waits for its body, and the node is not idle meanwhile.
        assert target.executor.blocked_on == {secret.digest}
        assert not target.executor.idle
        assert target.executor.committed_order == []
        target.on_command(secret)
        assert not target.executor.blocked_on
        assert [e.digest for e in target.executor.committed_order] == [secret.digest]
        assert target.commit_times == [sim.now]


class TestResultShape:
    def test_commit_latency_is_propose_to_commit(self):
        sim = Simulation(small(commands_per_proposer=12, propose_interval=30))
        result = sim.run()
        times = sim.nodes[result.reference_node].commit_times
        latencies = sorted(at - 30 * (entry.proposer_seq - 1)
                           for entry, at in zip(result.reference_trace, times))
        assert len(latencies) == 12 and latencies[0] > 0
        assert times[-1] <= result.sim_time_ms
        assert result.commit_latency_ms == {"p50": latencies[5], "p99": latencies[11]}
        assert json.loads(result.to_json())["commit_latency_ms"] == result.commit_latency_ms

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
