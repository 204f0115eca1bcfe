"""Built-in micro-scenarios with frozen expected outcomes.

Two hand-scripted 4-node traces exercise the ordering pipeline end to end
without the network simulator:

* anchor handoff: three batches drive the executor through a normal-path
  commit, an alter-path commit, and a second normal-path commit, in that
  order, with one under-supported command correctly left uncommitted;
* median inversion: a single Byzantine timestamp report makes the
  timestamp baseline invert a same-proposer pair that the anchor executor
  commits in proposal order.

Every replica is the simulator's :class:`~phalanx.replica.Replica`, four
to a :class:`FifoPort`. A scenario runs in phases: in each, every node
receives its scripted commands through ``on_command`` and ticks once; with
``tick_ms = 3`` that tick pre-orders the node's whole phase as one log,
whose commands read as stamped ``stamp, stamp + 1, ...``. The port then
delivers the pre-orders, votes, certified logs and the batch the leader's
tick cut, until nothing is queued. After its last tick each replica
receives every body it never logged from the proposer; a strategy waiting
on one commits once it lands. The leader's batch slot seqs and the
committed sequences are asserted; a batch fills only the slots whose head
moved since the leader's last batch, so the handoff's third batch reads
``[-,-,2,1]``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .authenticators import Authenticator, HmacAuthenticator
from .consensus import OrderBatch, SequencerBroadcast
from .executor import ALTER_PATH, NORMAL_PATH
from .replica import Replica
from .scenario import ANCHOR, TIMESTAMP
from .types import Command, Digest

@dataclass
class GoldenOutcome:
    name: str
    passed: bool
    details: list[str] = field(default_factory=list)

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}"


class FifoPort:
    """A replica port with no network: it queues every message and batch and
    delivers them one at a time, in the order they were sent. Its clock
    ``now`` stays 0."""

    now = 0

    def __init__(self, auth: Authenticator, strategy: str, **options):
        # (src, dst, message); a batch for every replica is (0, None, (index, batch)).
        self.queue: deque = deque()
        self.batches: list[OrderBatch] = []
        self.sequencer = SequencerBroadcast(self._submit)
        self.replicas = [Replica(i, auth, strategy, net=self, **options) for i in range(auth.n)]

    def _submit(self, index: int, batch: OrderBatch) -> None:
        self.batches.append(batch)
        self.queue.append((0, None, (index, batch)))

    def send(self, src: int, dst: int, msg) -> None:
        self.queue.append((src, dst, msg))

    def broadcast(self, src: int, msg, include_self: bool) -> None:
        for dst in range(len(self.replicas)):
            if dst != src or include_self:
                self.send(src, dst, msg)

    def wake(self, node_id: int) -> None:
        """Nothing to schedule: the caller ticks each replica by hand."""

    def run(self) -> None:
        """Deliver until nothing is queued."""
        while self.queue:
            self.deliver(*self.queue.popleft())

    def deliver(self, src: int, dst, msg) -> None:
        if dst is None:
            for replica in self.replicas:
                replica.on_batch(*msg)
        else:
            self.replicas[dst].on_message(msg, src)


def _committed(replica: Replica) -> list[Digest]:
    return [entry.digest for entry in replica.executor.committed_order]


def _play(auth: Authenticator, strategy: str, phases: list[dict]):
    """Run the phases, each {node: (first stamp, commands)}, on a fresh port;
    return it, the leader's batch slot seqs and replica 0's committed
    digests after each phase."""
    port = FifoPort(auth, strategy, tick_ms=3)
    after = []
    for phase in phases:
        for replica in port.replicas:
            stamp, commands = phase.get(replica.node_id, (0, []))
            for cmd in commands:
                replica.on_command(cmd)
            replica.tick(stamp)
        port.run()
        after.append(_committed(port.replicas[0]))
    seqs = [[slot and slot.seq for slot in batch] for batch in port.batches]
    return port, seqs, after


def _hand_over(port: FifoPort, commands: list[Command]) -> None:
    """Each replica receives from the proposer every body it lacks."""
    for replica in port.replicas:
        for cmd in commands:
            if replica.mempool.fetch_command(cmd.digest) is None:
                replica.on_command(cmd)


def _check(details: list[str], ok: bool, label: str) -> bool:
    details.append(f"{'ok' if ok else 'FAIL'}: {label}")
    return ok


def run_anchor_handoff() -> GoldenOutcome:
    """Normal -> alter -> normal anchor progression over three batches."""
    auth = HmacAuthenticator(4, 1, cluster_seed=b"golden-handoff")
    red = Command.create(0, 1, b"red")
    yellow = Command.create(0, 2, b"yellow")
    green = Command.create(0, 3, b"green")
    white = Command.create(0, 4, b"white")
    # Chains n0 red green yellow, n1 white red yellow, n2 red yellow green,
    # n3 yellow green; the last phase is the leader's tick that cuts batch 3.
    port, seqs, after = _play(auth, ANCHOR, [
        {0: (1, [red]), 1: (1, [white])},
        {0: (2, [green, yellow]), 1: (2, [red, yellow]), 2: (1, [red, yellow])},
        {2: (3, [green]), 3: (1, [yellow, green])},
        {},
    ])
    details: list[str] = []
    passed = _check(details, seqs == [[1, 1, None, None], [2, 2, 1, None], [None, None, 2, 1]],
                    "leader's batches carry slot seqs [1,1,-,-] [2,2,1,-] [-,-,2,1]")
    passed &= _check(details, after[1] == [], "no anchor after the first batch")
    passed &= _check(details, after[2] == [red.digest, yellow.digest],
                     "second batch commits red then yellow")
    expected = [red.digest, yellow.digest, green.digest]
    passed &= _check(details, after[3] == expected, "third batch commits green")
    tags = [entry.path_tag for entry in port.replicas[0].executor.committed_order]
    passed &= _check(details, tags == [NORMAL_PATH, ALTER_PATH, NORMAL_PATH],
                     "trace tags normal/alter/normal: yellow is the alter-path anchor")
    passed &= _check(details, white.digest not in after[3],
                     "under-supported command stays uncommitted")
    blocked = [replica.executor.blocked_on for replica in port.replicas]
    passed &= _check(details, blocked == [set(), {green.digest}, set(), {red.digest}],
                     "replicas 1 and 3 wait on the one body each never logged")
    _hand_over(port, [red, yellow, green, white])
    for replica in port.replicas[1:]:
        passed &= _check(details, _committed(replica) == expected,
                         f"replica {replica.node_id} commits the identical order")
    return GoldenOutcome("anchor-handoff", passed, details)


def run_median_inversion() -> GoldenOutcome:
    """One skewed reporter flips the timestamp baseline but not the anchors."""
    auth = HmacAuthenticator(4, 1, cluster_seed=b"golden-median")
    early = Command.create(0, 1, b"first")
    late = Command.create(0, 2, b"second")
    details: list[str] = []
    passed = True
    traces = {}
    for strategy in (ANCHOR, TIMESTAMP):
        # Node 2 reports the pair inverted, node 3 logs nothing; the second
        # phase is the leader's tick that cuts the batch.
        port, seqs, _ = _play(auth, strategy, [
            {0: (0, [early, late]), 1: (3, [early, late]), 2: (2, [late, early])},
            {},
        ])
        passed &= _check(details, seqs == [[1, 1, 1, None]],
                         f"{strategy}: the leader's batch carries slot seqs [1,1,1,-]")
        _hand_over(port, [early, late])
        for replica in port.replicas:
            replica.flush()
        traces[strategy] = [_committed(replica) for replica in port.replicas]
    # The port left from the loop is the timestamp baseline's.
    trusted = {entry.digest: entry.trusted_timestamp
               for entry in port.replicas[0].executor.committed_order}
    passed &= _check(details, trusted.get(early.digest) == 3,
                     "trusted timestamp of the earlier command is 3")
    passed &= _check(details, trusted.get(late.digest) == 2,
                     "trusted timestamp of the later command is 2")
    passed &= _check(details, all(t == [early.digest, late.digest] for t in traces[ANCHOR]),
                     "anchor strategy preserves proposal order on every node")
    passed &= _check(details, all(t == [late.digest, early.digest] for t in traces[TIMESTAMP]),
                     "timestamp baseline inverts the pair on every node")
    return GoldenOutcome("median-inversion", passed, details)


def run_all() -> list[GoldenOutcome]:
    return [run_anchor_handoff(), run_median_inversion()]
