"""The replica pipeline, driven with no simulator, and the interface every
ordering strategy offers."""

import ast
import dataclasses
from pathlib import Path

import pytest

import phalanx
from phalanx import Command, HmacAuthenticator, NodeBehavior, simnet
from phalanx.golden import FifoPort
from phalanx.mempool import REJECT_EQUIVOCATION
from phalanx.replica import Replica
from phalanx.scenario import ANCHOR, FOLLOW, STRATEGIES
from phalanx.types import EMPTY_DIGEST, PartialOrderLog
from phalanx.wire import FetchLogMessage, OrderMessage, PreOrderMessage, VoteMessage

INTERFACE = ("feed", "drain", "flush", "blocked_on", "idle", "committed_order",
             "alter_path_ratio", "uses_consensus")
# Handlers the benchmark's tracer wraps: it patches on_tick on the node
# class itself and finds the others through the node class's MRO.
NODE_HANDLERS = ("on_tick", "on_message", "on_batch", "on_command")
# The only modules that may read a node's Byzantine behaviour.
BEHAVIOUR_READERS = {"simnet.py", "scenario.py"}
# All a replica may use of its port; when a node ticks is the port's call.
PORT = {"send", "broadcast", "wake", "sequencer", "now"}
# The mempool's certified-log check and store: a received certified log
# enters the store only through Mempool.handle_order.
STORE_INTERNALS = {"is_certified", "_store_log", "log_store"}
RESEND_MS = 100


class Loopback(FifoPort):
    """The golden port over four anchor replicas, whose ``run`` can hold
    messages back."""

    def __init__(self):
        super().__init__(HmacAuthenticator(4, 1, cluster_seed=b"replica-test"), ANCHOR,
                         resend_ms=RESEND_MS, tick_ms=1)

    def run(self, hold=lambda src, dst, msg: False) -> list:
        """Deliver until nothing is queued; return what ``hold`` kept back."""
        held = []
        while self.queue:
            item = self.queue.popleft()
            if item[1] is not None and hold(*item):
                held.append(item)
            else:
                self.deliver(*item)
        return held


def command(seq: int) -> Command:
    return Command.create(0, seq, b"cmd%d" % seq)


def test_one_pre_order_certifies_on_every_replica():
    net = Loopback()
    author = net.replicas[1]
    author.on_command(command(1))
    assert author.tick(10)
    net.run()
    (log,) = {replica.mempool.fetch_log(1, 1) for replica in net.replicas}
    assert log.command_digests == (command(1).digest,) and log.timestamp == 10
    assert net.replicas[0].mempool.is_certified(log)
    assert all(replica.mempool.latest[1] is not None for replica in net.replicas)
    assert not author.mempool.outstanding
    assert author.idle() and not author.tick(20)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_a_tick_makes_one_log_read_at_timestamp_plus_k(strategy):
    # Every replica takes the same three commands in one tick, stamped 40:
    # one log each, whose i-th command every strategy reads at 40 + i.
    net = FifoPort(HmacAuthenticator(4, 1, cluster_seed=b"replica-test"), strategy,
                   tick_ms=3, designated=2)
    commands = [command(seq) for seq in (1, 2, 3)]
    for replica in net.replicas:
        for cmd in commands:
            replica.on_command(cmd)
        assert replica.tick(40)
    net.run()
    net.replicas[0].tick(50)  # the leader cuts the batch, if there is one
    net.run()
    for replica in net.replicas:
        replica.executor.flush()
        assert replica.mempool.seq == 1
        for author in range(4):
            log = replica.mempool.fetch_log(author, 1)
            assert log.command_digests == tuple(cmd.digest for cmd in commands)
            assert replica.mempool.fetch_log(author, 2) is None
        assert [(entry.digest, entry.trusted_timestamp)
                for entry in replica.executor.committed_order] == [
            (cmd.digest, 40 + i) for i, cmd in enumerate(commands)]
    if strategy != FOLLOW:
        assert [[slot.seq for slot in batch] for batch in net.batches] == [[1, 1, 1, 1]]
        stamps = net.replicas[1].executor.command_infos[commands[2].digest].stamps
        assert stamps == {author: 42 for author in range(4)}


def test_equivocation_is_refused_at_vote_time():
    net = Loopback()
    author = net.replicas[1]
    author.on_command(command(1))
    author.tick(10)
    # A second log of author 1 at the same seq, sent right behind the first.
    twin = PartialOrderLog.create(1, 1, 10, (command(2).digest,), EMPTY_DIGEST)
    net.broadcast(1, PreOrderMessage(twin), include_self=False)
    net.run()
    assert [r.mempool.rejects[REJECT_EQUIVOCATION] for r in net.replicas] == [1, 0, 1, 1]
    (log,) = {replica.mempool.fetch_log(1, 1) for replica in net.replicas}
    assert log.command_digests == (command(1).digest,)


def test_rebroadcast_gets_an_identical_vote():
    net = Loopback()
    author = net.replicas[1]
    author.on_command(command(1))
    author.tick(10)
    is_vote = lambda src, dst, msg: isinstance(msg, VoteMessage)  # noqa: E731
    first = net.run(hold=is_vote)
    assert len(first) == 4 and author.mempool.outstanding
    assert not author.tick(10 + RESEND_MS - 1)
    assert author.tick(10 + RESEND_MS)
    assert net.run(hold=is_vote) == first
    assert not any(replica.mempool.rejects for replica in net.replicas)


def test_batch_missing_a_log_fetches_it_and_resumes():
    net = Loopback()
    commands = [command(1), command(2)]
    for replica in net.replicas:
        for cmd in commands:
            replica.on_command(cmd)
    for author in (0, 1, 3):
        net.replicas[author].tick(10)
        net.replicas[author].tick(20)
    # Replica 2 never receives author 1's certified logs; the batch carries
    # author 1's seq 2, so replica 2 lacks seq 1 below it.
    net.run(hold=lambda src, dst, msg: (
        dst == 2 and isinstance(msg, OrderMessage) and msg.log.node_id == 1))
    target = net.replicas[2]
    assert target.mempool.fetch_log(1, 1) is None
    assert net.replicas[0].tick(30)  # the leader submits its batch
    _, _, (index, batch) = net.queue.popleft()
    assert batch[1].seq == 2
    target.on_batch(index, batch)
    assert target.consenter.blocked and target.executor.committed_order == []
    assert list(net.queue) == [(2, dst, FetchLogMessage(1, 1)) for dst in (0, 1, 3)]
    net.run()
    assert not target.consenter.blocked
    assert [e.digest for e in target.executor.committed_order] == [c.digest for c in commands]


def test_fetch_for_a_log_the_peer_lacks_is_ignored():
    # Replica 1 is asked for author 2's seq 1 before it has it: it sends
    # nothing, then or once the log lands, and keeps no record of the ask.
    net = Loopback()
    peer = net.replicas[1]
    state = dict(vars(peer))
    peer.on_message(FetchLogMessage(2, 1), 3)
    assert not net.queue and vars(peer) == state
    author = net.replicas[2]
    author.on_command(command(1))
    author.tick(10)
    sent = []
    send = net.send
    net.send = lambda src, dst, msg: sent.append((src, dst)) or send(src, dst, msg)
    net.run()
    assert peer.mempool.fetch_log(2, 1) is not None
    assert (1, 3) not in sent


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_strategy_offers_the_interface(strategy):
    executor = Replica(0, HmacAuthenticator(4, 1), strategy, designated=3).executor
    assert [name for name in INTERFACE if not hasattr(executor, name)] == []
    assert type(executor).uses_consensus is (strategy != FOLLOW)
    assert executor.idle and not executor.blocked_on and executor.committed_order == []
    assert executor.alter_path_ratio() == 0.0


def test_node_handlers_resolve_as_the_tracer_needs():
    assert [name for name in NODE_HANDLERS if not hasattr(simnet._Node, name)] == []
    assert "on_tick" in vars(simnet._Node)


def test_only_the_simulator_reads_behaviour_flags():
    flags = {"behavior"} | {field.name for field in dataclasses.fields(NodeBehavior)}
    readers = []
    for path in sorted(Path(phalanx.__file__).parent.glob("*.py")):
        if path.name in BEHAVIOUR_READERS:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in flags:
                readers.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert readers == []


def test_scheduler_reads_no_behaviour():
    # The simulator's nodes read their behaviour; the scheduler reads it only
    # to build them.
    flags = {"behavior"} | {field.name for field in dataclasses.fields(NodeBehavior)}
    tree = ast.parse(Path(simnet.__file__).read_text())
    (simulation,) = [node for node in tree.body
                     if isinstance(node, ast.ClassDef) and node.name == "Simulation"]
    readers = [f"{method.name}:{node.lineno} .{node.attr}"
               for method in simulation.body
               if isinstance(method, ast.FunctionDef) and method.name != "__init__"
               for node in ast.walk(method)
               if isinstance(node, ast.Attribute) and node.attr in flags]
    assert readers == []


def test_only_the_mempool_checks_and_stores_certified_logs():
    touched = []
    for path in sorted(Path(phalanx.__file__).parent.glob("*.py")):
        if path.name == "mempool.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in STORE_INTERNALS:
                touched.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert touched == []


def test_replica_reads_only_the_port_contract():
    source = Path(phalanx.__file__).parent / "replica.py"
    read = {node.attr for node in ast.walk(ast.parse(source.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
            and node.value.attr == "net"}
    assert read == PORT
