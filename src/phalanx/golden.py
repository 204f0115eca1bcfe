"""Built-in micro-scenarios with frozen expected outcomes.

Two hand-scripted 4-node traces exercise the ordering pipeline end to end
without the network simulator:

* anchor handoff: three batches drive the executor through a normal-path
  commit, an alter-path commit, and a second normal-path commit, in that
  order, with one under-supported command correctly left uncommitted;
* median inversion: a single Byzantine timestamp report makes the
  timestamp baseline invert a same-proposer pair that the anchor executor
  commits in proposal order.

Every replica is the simulator's :class:`~phalanx.replica.Replica`, and
each batch is delivered through :meth:`~phalanx.replica.Replica.on_batch`
as the simulator delivers it; the expected committed sequences are
asserted on all of them. A golden replica holds every log and command
body its batches need, so its port refuses the fetch broadcast that a
gap would make.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .authenticators import HmacAuthenticator
from .executor import ALTER_PATH, NORMAL_PATH
from .replica import Replica
from .scenario import ANCHOR, TIMESTAMP
from .types import Command, Digest, EMPTY_DIGEST, PartialOrderLog, ProtocolInvariantError


@dataclass
class GoldenOutcome:
    name: str
    passed: bool
    details: list[str] = field(default_factory=list)

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}"


def _certified(auth: HmacAuthenticator, node_id: int, seq: int, ts: int,
               cmd_digest: Digest, prev: Digest) -> PartialOrderLog:
    log = PartialOrderLog.create(node_id, seq, ts, cmd_digest, prev)
    partials = [auth.partial_sign(s, log.cur_digest) for s in range(auth.quorum)]
    return log.with_certificate(auth.aggregate(log.cur_digest, partials))


def _chain(auth: HmacAuthenticator, node_id: int,
           entries: list[tuple[Command, int]]) -> list[PartialOrderLog]:
    """Certified logs for one node: [(command, timestamp), ...] in local order."""
    logs = []
    prev = EMPTY_DIGEST
    for seq, (cmd, ts) in enumerate(entries, start=1):
        log = _certified(auth, node_id, seq, ts, cmd.digest, prev)
        logs.append(log)
        prev = log.cur_digest
    return logs


class _NoPeers:
    """The port of a golden replica, which has no peer to fetch from."""

    def broadcast(self, src: int, msg, include_self: bool) -> None:
        raise ProtocolInvariantError(f"harness replica {src} had to fetch: {msg}")


def _replica(node_id: int, auth: HmacAuthenticator, strategy: str,
             commands: list[Command], logs: list[PartialOrderLog]) -> Replica:
    """A replica whose mempool already holds every command body and log."""
    replica = Replica(node_id, auth, strategy, net=_NoPeers())
    for cmd in commands:
        replica.mempool.store_command(cmd)
    for log in logs:
        if not replica.mempool.handle_order(log):
            raise ProtocolInvariantError(f"harness log rejected: {log}")
    return replica


def _committed(replica: Replica) -> list[Digest]:
    if replica.consenter.leader_faults:
        raise ProtocolInvariantError(f"replica {replica.node_id} refused a harness batch")
    return [entry.digest for entry in replica.executor.committed_order]


def _check(details: list[str], ok: bool, label: str) -> bool:
    details.append(f"{'ok' if ok else 'FAIL'}: {label}")
    return ok


def run_anchor_handoff() -> GoldenOutcome:
    """Normal -> alter -> normal anchor progression over three batches."""
    n, f = 4, 1
    auth = HmacAuthenticator(n, f, cluster_seed=b"golden-handoff")
    red = Command.create(0, 1, b"red")
    yellow = Command.create(0, 2, b"yellow")
    green = Command.create(0, 3, b"green")
    white = Command.create(0, 4, b"white")
    commands = [red, yellow, green, white]

    chains = {
        0: _chain(auth, 0, [(red, 1), (green, 2), (yellow, 3)]),
        1: _chain(auth, 1, [(white, 1), (red, 2), (yellow, 3)]),
        2: _chain(auth, 2, [(red, 1), (yellow, 2), (green, 3)]),
        3: _chain(auth, 3, [(yellow, 1), (green, 2)]),
    }
    all_logs = [log for chain in chains.values() for log in chain]

    batches = [
        (chains[0][0], chains[1][0], None, None),
        (chains[0][2], chains[1][2], chains[2][1], None),
        (chains[0][2], chains[1][2], chains[2][2], chains[3][1]),
    ]

    replicas = [_replica(i, auth, ANCHOR, commands, all_logs) for i in range(n)]
    details: list[str] = []
    passed = True

    first = replicas[0]
    first.on_batch(0, batches[0])
    passed &= _check(details, _committed(first) == [],
                     "no anchor after the first batch")
    first.on_batch(1, batches[1])
    passed &= _check(details, _committed(first) == [red.digest, yellow.digest],
                     "second batch commits red then yellow")
    first.on_batch(2, batches[2])
    expected = [red.digest, yellow.digest, green.digest]
    passed &= _check(details, _committed(first) == expected,
                     "third batch commits green")
    tags = [entry.path_tag for entry in first.executor.committed_order]
    passed &= _check(details, tags == [NORMAL_PATH, ALTER_PATH, NORMAL_PATH],
                     "trace tags normal/alter/normal: yellow is the alter-path anchor")
    passed &= _check(details, white.digest not in _committed(first),
                     "under-supported command stays uncommitted")

    for replica in replicas[1:]:
        for index, batch in enumerate(batches):
            replica.on_batch(index, batch)
        passed &= _check(
            details,
            _committed(replica) == expected,
            f"replica {replica.node_id} commits the identical order",
        )
    return GoldenOutcome("anchor-handoff", passed, details)


def run_median_inversion() -> GoldenOutcome:
    """One skewed reporter flips the timestamp baseline but not the anchors."""
    n, f = 4, 1
    auth = HmacAuthenticator(n, f, cluster_seed=b"golden-median")
    early = Command.create(0, 1, b"first")
    late = Command.create(0, 2, b"second")
    commands = [early, late]

    chains = {
        0: _chain(auth, 0, [(early, 0), (late, 1)]),
        1: _chain(auth, 1, [(early, 3), (late, 4)]),
        2: _chain(auth, 2, [(late, 2), (early, 3)]),
    }
    all_logs = [log for chain in chains.values() for log in chain]
    batch = (chains[0][1], chains[1][1], chains[2][1], None)

    details: list[str] = []
    passed = True

    anchor_traces = []
    ts_traces = []
    for node_id in range(n):
        anchor = _replica(node_id, auth, ANCHOR, commands, all_logs)
        anchor.on_batch(0, batch)
        anchor.executor.flush()
        anchor_traces.append(_committed(anchor))
        baseline = _replica(node_id, auth, TIMESTAMP, commands, all_logs)
        baseline.on_batch(0, batch)
        baseline.executor.flush()
        ts_traces.append(_committed(baseline))
        if node_id == 0:
            trusted = {
                entry.digest: entry.trusted_timestamp
                for entry in baseline.executor.committed_order
            }
            passed &= _check(details, trusted[early.digest] == 3,
                             "trusted timestamp of the earlier command is 3")
            passed &= _check(details, trusted[late.digest] == 2,
                             "trusted timestamp of the later command is 2")

    passed &= _check(details, all(t == [early.digest, late.digest] for t in anchor_traces),
                     "anchor strategy preserves proposal order on every node")
    passed &= _check(details, all(t == [late.digest, early.digest] for t in ts_traces),
                     "timestamp baseline inverts the pair on every node")
    return GoldenOutcome("median-inversion", passed, details)


def run_all() -> list[GoldenOutcome]:
    return [run_anchor_handoff(), run_median_inversion()]
