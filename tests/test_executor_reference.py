"""The executor against a brute-force reference model.

``ReferenceExecutor`` runs selection again after every log set, reads the
queue fronts as each author's first uncommitted logged command, answers
``reliable_precedes`` by scanning every author's command positions, and
closes each alter-path set by rescanning every open command against every
member until nothing changes. It uses neither the queue-front tally, the
bit-parallel index nor the re-selection rules, so on the same log-set
stream it must commit the same trace as ``Executor``. The streams are
random sets of one to three logs, which keep the rules apart, burst-shaped
streams with one shuffling author, and the streams that simulated reference
nodes received. A re-selection rule that misses a log which could un-defer
a set, or a tally that miscounts a front, shows up here as a different
trace.
"""

import hashlib
import random
from collections import Counter
from functools import partial

import pytest

from phalanx import Command, EMPTY_DIGEST, NodeBehavior, PartialOrderLog, Scenario, Simulation
from phalanx.executor import ALTER_PATH, Executor, NORMAL_PATH

from prop_harness import wide_scenario


class ReferenceExecutor(Executor):
    def __init__(self, n, f, resolve):
        super().__init__(n, f, resolve)
        # Per author, each command's position in the author's logged order.
        self.positions = [{} for _ in range(n)]

    def ingest_log_set(self, log_set):
        super().ingest_log_set(log_set)
        for log in log_set:
            position = self.positions[log.node_id]
            for _, digest in log.stamped():
                position.setdefault(digest, len(position))

    def front_vector(self):
        fronts = []
        for position in self.positions:
            open_digests = (d for d in position if d not in self.committed_digests)
            fronts.append(next(open_digests, None))
        return fronts

    def _select(self):
        counts = Counter(d for d in self.front_vector() if d is not None)
        agreed = tuple(sorted(d for d, c in counts.items() if c > self.f))
        if agreed:
            members, path, anchors = [self.command_infos[d] for d in agreed], NORMAL_PATH, agreed
        else:
            members = self._alter_path()
            path, anchors = ALTER_PATH, (members[0].digest,) if members else ()
        kept = [info for info in members if len(info.stamps) > self.f]
        if any(len(info.stamps) < self.quorum for info in kept):
            return [], path, anchors
        return kept, path, anchors

    def reliable_precedes(self, first, second):
        if first not in self.command_infos or second not in self.command_infos:
            return False
        believers = 0
        for position in self.positions:
            a, b = position.get(first), position.get(second)
            if a is not None and b is not None and a < b:
                believers += 1
        return believers > self.f

    def _alter_path(self):
        open_infos = {
            d: info for d, info in self.command_infos.items()
            if d not in self.committed_digests
        }
        eligible = {d: info for d, info in open_infos.items() if len(info.stamps) >= self.quorum}
        if not eligible:
            return []
        anchor = min(eligible.values(), key=lambda i: (self.trusted_timestamp(i), i.digest))
        members = [anchor]
        for digest in sorted(eligible):
            if digest != anchor.digest and not self.reliable_precedes(anchor.digest, digest):
                members.append(eligible[digest])
        for digest in sorted(d for d in open_infos if d not in eligible):
            if not self.reliable_precedes(anchor.digest, digest):
                members.append(open_infos[digest])
                break
        joined = {info.digest for info in members}
        grown = True
        while grown:
            grown = False
            for digest, info in open_infos.items():
                if digest not in joined and any(
                    self.reliable_precedes(digest, m) for m in joined
                ):
                    members.append(info)
                    joined.add(digest)
                    grown = True
        return members

    def drain(self):
        while self.pending_sets:
            self.ingest_log_set(self.pending_sets.popleft())
            while True:
                members, path, anchors = self._select()
                if not members:
                    break
                self.commit_anchor_set(members, path, anchors)


def replay_matches(scenario: Scenario) -> tuple[str, str]:
    """(executor trace hash, reference-model trace hash) on the reference node."""
    sim = Simulation(scenario)
    executor = sim.nodes[sim.reference_node].executor
    stream = []
    feed = executor.feed

    def recording_feed(log_set):
        stream.append(log_set)
        feed(log_set)

    executor.feed = recording_feed
    result = sim.run()
    bodies = {}
    for node in sim.nodes:
        bodies.update(node.mempool.command_store)
    reference = ReferenceExecutor(scenario.n, scenario.f, bodies.get)
    for log_set in stream:
        reference.feed(log_set)
        reference.drain()
    joined = "\n".join(entry.line() for entry in reference.committed_order)
    return result.trace_sha256(), hashlib.sha256(joined.encode()).hexdigest()


def random_stream(rng: random.Random, n: int, commands: list[Command]):
    """Per-author chains over jittered FIFO orders, one to three commands a
    log, interleaved into small log sets.

    Sets of one to three logs keep the re-selection rules apart: a set
    rarely carries two logs that wake the executor for different reasons.
    """
    spread = rng.choice([2, 5, 10])
    chains = []
    for author in range(n):
        jitter = {cmd: i + rng.uniform(0, spread) for i, cmd in enumerate(commands)}
        order = sorted(commands, key=jitter.get)
        if rng.random() < 0.3:
            order = order[: rng.randint(len(order) // 2, len(order))]
        prev, chain = EMPTY_DIGEST, []
        while order:
            size = rng.choice([1, 1, 2, 3])
            digests = tuple(cmd.digest for cmd in order[:size])
            order = order[size:]
            log = PartialOrderLog.create(author, len(chain) + 1, rng.randint(0, 50),
                                         digests, prev)
            chain.append(log)
            prev = log.cur_digest
        chains.append(chain)
    # Uneven author rates: a slow author's queue empties as the others'
    # commands commit, so its next log starts a new front.
    rates = [rng.choice([1, 2, 6]) for _ in range(n)]
    logs = []
    while any(chains):
        active = [a for a in range(n) if chains[a]]
        author = rng.choices(active, [rates[a] for a in active])[0]
        logs.append(chains[author].pop(0))
    sets = []
    while logs:
        size = rng.randint(1, 3)
        sets.append(tuple(logs[:size]))
        logs = logs[size:]
    return sets


def random_streams(chunk):
    """Fifty random streams: (label, n, f, commands, log sets) each."""
    for index in range(50 * chunk, 50 * chunk + 50):
        rng = random.Random(index)
        n = rng.choice([4, 7, 10])
        commands = [Command.create(0, i, b"%d" % index) for i in range(1, rng.randint(5, 30))]
        yield f"stream {index}", n, (n - 1) // 3, commands, random_stream(rng, n, commands)


def burst_streams():
    """Burst-shaped streams on n = 4, f = 1, each of 240 commands.

    Authors 0-2 log one FIFO order; author 3 shuffles what it holds before
    every log. A log carries up to 24 commands, so f+1 FIFO fronts agree
    on a run of commands per log set, heads advance many times per set,
    and commands commit from the middle of the shuffler's queue.
    """
    for index in range(4):
        rng = random.Random(f"burst:{index}")
        commands = [Command.create(0, i, b"burst %d" % index) for i in range(1, 241)]
        chains = []
        for author in range(4):
            pending, prev, chain, clock = list(commands), EMPTY_DIGEST, [], 0
            while pending:
                if author == 3:
                    window = pending[:48]
                    rng.shuffle(window)
                    pending[:48] = window
                size = rng.randint(1, 24)
                digests = tuple(cmd.digest for cmd in pending[:size])
                pending = pending[size:]
                clock += rng.randint(1, 30)
                log = PartialOrderLog.create(author, len(chain) + 1, clock, digests, prev)
                chain.append(log)
                prev = log.cur_digest
            chains.append(chain)
        sets = []
        while any(chains):
            active = [author for author in range(4) if chains[author]]
            picked = rng.sample(active, rng.randint(1, len(active)))
            sets.append(tuple(chains[author].pop(0) for author in sorted(picked)))
        yield f"burst {index}", 4, 1, commands, sets


STREAMS = {str(chunk): partial(random_streams, chunk) for chunk in range(25)}
STREAMS["burst"] = burst_streams


@pytest.mark.parametrize("streams", STREAMS.values(), ids=STREAMS.keys())
def test_random_log_streams_match_reference(streams):
    for label, n, f, commands, log_sets in streams():
        bodies = {cmd.digest: cmd for cmd in commands}
        executor = Executor(n, f, bodies.get)
        reference = ReferenceExecutor(n, f, bodies.get)
        for log_set in log_sets:
            for strategy in (executor, reference):
                strategy.feed(log_set)
                strategy.drain()
        assert [e.line() for e in executor.committed_order] == [
            e.line() for e in reference.committed_order
        ], label
        assert len(executor.committed_order) > 0, label


@pytest.mark.parametrize("index", range(40))
def test_wide_scenarios_match_reference(index):
    scenario = wide_scenario(random.Random(7000 + index))
    actual, expected = replay_matches(scenario)
    assert actual == expected, scenario.to_dict()


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("behaviors", [
    {2: NodeBehavior(reverse=True), 3: NodeBehavior(reverse=True)},
    {1: NodeBehavior(shuffle=True), 3: NodeBehavior(reverse=True)},
])
def test_beyond_f_runs_match_reference(behaviors, seed):
    scenario = Scenario(
        n=4, f=1, proposers=4, commands_per_proposer=12, delta_o=20,
        latency=(1, 1200), propose_interval=5, seed=seed, byzantine=behaviors,
    )
    actual, expected = replay_matches(scenario)
    assert actual == expected


@pytest.mark.parametrize("seed", range(3))
def test_single_node_runs_match_reference(seed):
    scenario = Scenario(
        n=1, f=0, proposers=2, commands_per_proposer=10, latency=(1, 1200),
        propose_interval=5, seed=seed,
    )
    actual, expected = replay_matches(scenario)
    assert actual == expected
