"""Deterministic discrete-event simulation of a full cluster.

Hosts n protocol nodes plus p proposers over seeded per-link latencies.
Per-link delivery is FIFO: a message sent earlier on a link is never
overtaken, even when the sampled latencies would invert it. Every source
of randomness derives from the scenario seed, so a scenario reruns to a
byte-identical result.

Each node is a :class:`~phalanx.replica.Replica` wired to the event loop,
so this module never branches on the ordering strategy: node 0 leads when
the strategy uses consensus, and every strategy is flushed at the end.

Nodes tick every ``delta_o`` simulated milliseconds (phase-shifted per
node): a tick starts at most one new pre-order, re-broadcasts a starved
one, and, on the leader, snapshots an order-batch. Byzantine behaviors
reorder a node's inbound queue, skew its reported log timestamps, or
silence it entirely. A ``shuffle`` node makes one uniform draw over its
queue on each tick that pre-orders with two or more commands queued, and
pre-orders the drawn command; the rest keep their arrival order. A
``reverse`` node moves its newest queued command to the front on each
tick that pre-orders, so it always pre-orders newest-first.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import random
from dataclasses import dataclass, field

from .authenticators import make_authenticator
from .consensus import OrderBatch, SequencerBroadcast
from .executor import TraceEntry
from .metrics import reordered_ratio, traces_consistent, traces_prefix_consistent
from .replica import Replica
from .scenario import Scenario
from .types import Command
from .wire import (
    FetchCommandMessage,
    FetchCommandResponse,
    FetchLogMessage,
    FetchLogResponse,
    OrderMessage,
    PreOrderMessage,
    VoteMessage,
)

RESULT_SCHEMA_VERSION = 1

# Event kinds (dispatch tags inside the loop).
_EV_TICK = 0
_EV_MSG = 1
_EV_PROPOSE = 2
_EV_REPLY = 3
_EV_CMD = 4
_EV_BATCH = 5


@dataclass
class ExperimentResult:
    """Metrics and traces measured from one simulation run."""

    scenario: Scenario
    traces: dict[int, list[TraceEntry]]
    reference_node: int
    reordered_ratio: float
    alter_path_ratio: float
    consistency: bool
    # Honest traces are prefixes of one order: equal once the run quiesces,
    # and also true for a run cut short before every node caught up.
    prefix_consistent: bool
    uncommitted: int
    committed: int
    total_proposed: int
    non_quiescent: bool
    leader_faults: int
    accepted_commands: int
    sim_time_ms: int
    events_processed: int
    batch_trace: list[str] = field(default_factory=list)

    @property
    def reference_trace(self) -> list[TraceEntry]:
        return self.traces.get(self.reference_node, [])

    def trace_sha256(self) -> str:
        joined = "\n".join(entry.line() for entry in self.reference_trace)
        return hashlib.sha256(joined.encode()).hexdigest()

    def to_json_dict(self) -> dict:
        return {
            "schema_version": RESULT_SCHEMA_VERSION,
            "scenario": self.scenario.to_dict(),
            "reference_node": self.reference_node,
            "reordered_ratio": self.reordered_ratio,
            "alter_path_ratio": self.alter_path_ratio,
            "consistency": self.consistency,
            "prefix_consistent": self.prefix_consistent,
            "uncommitted": self.uncommitted,
            "committed": self.committed,
            "total_proposed": self.total_proposed,
            "non_quiescent": self.non_quiescent,
            "leader_faults": self.leader_faults,
            "accepted_commands": self.accepted_commands,
            "sim_time_ms": self.sim_time_ms,
            "events_processed": self.events_processed,
            "trace_sha256": self.trace_sha256(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":")) + "\n"


class _Proposer:
    """Client stub: emits numbered commands and tallies f+1 matching replies."""

    def __init__(self, proposer_id: int, scenario: Scenario):
        self.proposer_id = proposer_id
        self.scenario = scenario
        self._replies: dict[bytes, set[int]] = {}
        self.accepted = 0

    def build_command(self, seq: int) -> Command:
        requests = b";".join(
            b"req:%d:%d:%d" % (self.proposer_id, seq, i)
            for i in range(self.scenario.batch_size)
        )
        return Command.create(self.proposer_id, seq, requests)

    def on_reply(self, digest: bytes, node_id: int, f: int) -> None:
        seen = self._replies.setdefault(digest, set())
        if len(seen) <= f:
            seen.add(node_id)
            if len(seen) == f + 1:
                self.accepted += 1


class _Node(Replica):
    """A replica on the simulated network: event handlers, peer fetches and
    Byzantine behavior around the :class:`Replica` pipeline."""

    def __init__(self, node_id: int, scenario: Scenario, sim: "Simulation"):
        super().__init__(
            node_id, sim.auth, scenario.strategy,
            designated=min(scenario.byzantine, default=0),
            record_batches=sim.record_batches and node_id == sim.reference_node,
        )
        self.scenario = scenario
        self.sim = sim
        self.behavior = scenario.behavior(node_id)
        self.is_leader = node_id == 0 and self.executor.uses_consensus
        self._shuffle_rng = random.Random(f"phalanx:{scenario.seed}:byz:{node_id}")
        self._log_promises: dict[tuple[int, int], list[int]] = {}
        self._cmd_promises: dict[bytes, list[int]] = {}
        self._requested_cmds: set[bytes] = set()
        self._replied_upto = 0

    # -- event handlers -------------------------------------------------

    def on_command(self, cmd: Command) -> None:
        self.mempool.enqueue_command(cmd)
        self._answer_cmd_promises(cmd)
        self._maybe_unblock_executor(cmd.digest)

    def on_tick(self, now: int) -> None:
        if self.behavior.silent:
            return
        self._apply_queue_behavior()
        stamp = now + self.behavior.skew
        if stamp < 0:
            stamp = 0
        msg = self.mempool.try_pre_order(stamp)
        if msg is not None:
            self.sim.broadcast(self.node_id, msg, include_self=True)
        else:
            resend = self.mempool.resend_pre_order(stamp, self.scenario.resend_ms)
            if resend is not None:
                self.sim.broadcast(self.node_id, resend, include_self=True)
        if self.is_leader:
            batch = self.consenter.make_order_batch()
            if batch is not None:
                self.sim.sequencer.submit(batch)

    def on_message(self, msg, sender: int) -> None:
        if isinstance(msg, PreOrderMessage):
            if self.behavior.silent:
                return
            vote = self.mempool.handle_pre_order(msg, sender)
            if vote is not None:
                self.sim.send(self.node_id, sender, vote)
        elif isinstance(msg, VoteMessage):
            order = self.mempool.handle_vote(msg, sender)
            if order is not None:
                self.sim.broadcast(self.node_id, order, include_self=False)
                self._log_stored(order.log.node_id, order.log.seq)
        elif isinstance(msg, OrderMessage):
            if self.mempool.handle_order(msg.log):
                self._log_stored(msg.log.node_id, msg.log.seq)
        elif isinstance(msg, FetchLogMessage):
            log = self.mempool.fetch_log(msg.author, msg.seq)
            if log is not None:
                self.sim.send(self.node_id, sender, FetchLogResponse(log))
            else:
                self._log_promises.setdefault((msg.author, msg.seq), []).append(sender)
        elif isinstance(msg, FetchLogResponse):
            if self.mempool.handle_order(msg.log):
                self._log_stored(msg.log.node_id, msg.log.seq)
        elif isinstance(msg, FetchCommandMessage):
            cmd = self.mempool.fetch_command(msg.digest)
            if cmd is not None:
                self.sim.send(self.node_id, sender, FetchCommandResponse(cmd))
            else:
                self._cmd_promises.setdefault(msg.digest, []).append(sender)
        elif isinstance(msg, FetchCommandResponse):
            if self.mempool.store_command(msg.command):
                self._answer_cmd_promises(msg.command)
                self._maybe_unblock_executor(msg.command.digest)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unhandled message {type(msg).__name__}")

    # -- internals -------------------------------------------------------

    def _apply_queue_behavior(self) -> None:
        mempool = self.mempool
        queue = mempool.inbound
        if len(queue) < 2:
            return
        if self.behavior.shuffle:
            # Pre-order a uniformly drawn queued command. Only a tick that
            # pre-orders draws, so there is one draw per pre-order, not per tick.
            if mempool.pending is None:
                j = self._shuffle_rng.randrange(len(queue))
                if j:
                    cmd = queue[j]
                    del queue[j]
                    queue.appendleft(cmd)
        elif self.behavior.reverse and mempool.pending is None:
            # Serve the local FIFO from the back: the newest command is
            # pre-ordered first, inverting the declared partial order. Only a
            # tick that pre-orders rotates, so every pre-order takes the newest.
            queue.rotate(1)

    def _log_stored(self, author: int, seq: int) -> None:
        waiting = self._log_promises.pop((author, seq), None)
        if waiting:
            log = self.mempool.fetch_log(author, seq)
            for requester in waiting:
                self.sim.send(self.node_id, requester, FetchLogResponse(log))
        self._resume(self.consenter.on_log_stored(author, seq))

    def on_batch(self, index: int, batch: OrderBatch) -> None:
        self._resume(self.consenter.on_delivered(index, batch))

    def _resume(self, missing: list[tuple[int, int]]) -> None:
        """Fetch the logs the consenter still lacks, then pump the strategy."""
        for author, seq in missing:
            self.sim.broadcast(
                self.node_id, FetchLogMessage(author, seq), include_self=False
            )
        if self.pump():
            self._after_drain()

    def _after_drain(self) -> None:
        blocked = self.executor.blocked_on
        if blocked:
            for digest in sorted(blocked):
                if digest not in self._requested_cmds:
                    self._requested_cmds.add(digest)
                    self.sim.broadcast(
                        self.node_id, FetchCommandMessage(digest), include_self=False
                    )
        elif self.sim.client_replies:
            self._send_replies(self.sim.send_reply)

    def _send_replies(self, send) -> None:
        """Reply to the proposer of each command committed since the last call."""
        order = self.executor.committed_order
        while self._replied_upto < len(order):
            entry = order[self._replied_upto]
            self._replied_upto += 1
            send(self.node_id, entry.proposer_id, entry.digest)

    def _maybe_unblock_executor(self, digest: bytes) -> None:
        executor = self.executor
        if digest in executor.blocked_on and executor.unblock(digest):
            executor.drain()
            self._after_drain()

    def _answer_cmd_promises(self, cmd: Command) -> None:
        waiting = self._cmd_promises.pop(cmd.digest, None)
        if waiting:
            for requester in waiting:
                self.sim.send(self.node_id, requester, FetchCommandResponse(cmd))

    # -- idleness ---------------------------------------------------------

    def idle(self) -> bool:
        if self.behavior.silent:
            return True
        mp = self.mempool
        if mp.inbound or mp.pending is not None:
            return False
        if self.consenter.pending_batches:
            return False
        if not self.executor.idle:
            return False
        if self.is_leader and self.consenter.make_order_batch() is not None:
            return False
        return True


class Simulation:
    """Seeded event loop driving proposers and nodes to quiescence."""

    def __init__(self, scenario: Scenario, record_batches: bool = False,
                 client_replies: bool = False):
        self.scenario = scenario
        self.record_batches = record_batches
        self.client_replies = client_replies
        self.auth = make_authenticator(
            scenario.auth_scheme, scenario.n, scenario.f,
            cluster_seed=b"phalanx:%d" % scenario.seed,
        )
        self.rng = random.Random(f"phalanx:{scenario.seed}:latency")
        # Latency draws are rng.randint(lo, hi) inlined: CPython draws
        # width.bit_length() bits and redraws while the result is >= width,
        # so the latencies and the generator state match randint's exactly.
        self._latency_bits = self.rng.getrandbits
        lo, hi = scenario.latency
        self._latency_lo = lo
        self._latency_width = hi - lo + 1
        self._latency_k = self._latency_width.bit_length()
        honest = scenario.honest_ids()
        self.reference_node = honest[0] if honest else 0
        self.nodes = [_Node(i, scenario, self) for i in range(scenario.n)]
        self.proposers = [_Proposer(p, scenario) for p in range(scenario.proposers)]
        self.sequencer = SequencerBroadcast(self._transport_batch)
        self.now = 0
        self._heap: list = []
        self._seqno = 0
        self._nontick_pending = 0
        self._link_last: dict[tuple[int, int], int] = {}
        self.events_processed = 0
        # Proposers occupy ranks n..n+p-1 in link keys and tie-breaks.
        self._proposer_rank = scenario.n

    # -- scheduling -------------------------------------------------------

    def _push(self, time: int, src: int, kind: int, a, b) -> None:
        self._seqno += 1
        if kind != _EV_TICK:
            self._nontick_pending += 1
        heapq.heappush(self._heap, (time, src, self._seqno, kind, a, b))

    def _deliver_time(self, src: int, dst: int) -> int:
        when = self.now
        if src != dst:
            getrandbits, k, width = self._latency_bits, self._latency_k, self._latency_width
            r = getrandbits(k)
            while r >= width:
                r = getrandbits(k)
            when += self._latency_lo + r
        link = (src, dst)
        last = self._link_last.get(link, 0)
        if when < last:
            when = last
        self._link_last[link] = when
        return when

    def send(self, src: int, dst: int, msg) -> None:
        self._push(self._deliver_time(src, dst), src, _EV_MSG, dst, msg)

    def broadcast(self, src: int, msg, include_self: bool) -> None:
        for dst in range(self.scenario.n):
            if dst == src and not include_self:
                continue
            self.send(src, dst, msg)

    def send_reply(self, node_id: int, proposer_id: int, digest: bytes) -> None:
        dst_rank = self._proposer_rank + proposer_id
        when = self._deliver_time(node_id, dst_rank)
        self._push(when, node_id, _EV_REPLY, proposer_id, (digest, node_id))

    def _deliver_reply(self, node_id: int, proposer_id: int, digest: bytes) -> None:
        self.proposers[proposer_id].on_reply(digest, node_id, self.scenario.f)

    def _transport_batch(self, index: int, batch: OrderBatch) -> None:
        leader = 0
        for dst in range(self.scenario.n):
            when = self._deliver_time(leader, dst)
            self._push(when, leader, _EV_BATCH, dst, (index, batch))

    # -- run --------------------------------------------------------------

    def run(self) -> ExperimentResult:
        scenario = self.scenario
        for proposer in self.proposers:
            rank = self._proposer_rank + proposer.proposer_id
            for k in range(scenario.commands_per_proposer):
                when = scenario.propose_interval * k
                self._push(when, rank, _EV_PROPOSE, proposer.proposer_id, k + 1)
        for node in self.nodes:
            phase = (node.node_id * scenario.delta_o) // scenario.n
            self._push(phase + scenario.delta_o, node.node_id, _EV_TICK, node.node_id, None)

        non_quiescent = False
        while self._heap:
            time, src, _seqno, kind, a, b = heapq.heappop(self._heap)
            if time > scenario.max_sim_ms:
                non_quiescent = True
                break
            self.now = time
            self.events_processed += 1
            if kind == _EV_TICK:
                node = self.nodes[a]
                node.on_tick(time)
                if self._finished():
                    break
                self._push(time + scenario.delta_o, a, _EV_TICK, a, None)
            elif kind == _EV_MSG:
                self._nontick_pending -= 1
                self.nodes[a].on_message(b, src)
                if self._finished():
                    break
            elif kind == _EV_CMD:
                self._nontick_pending -= 1
                self.nodes[a].on_command(b)
                if self._finished():
                    break
            elif kind == _EV_BATCH:
                self._nontick_pending -= 1
                self.nodes[a].on_batch(b[0], b[1])
                if self._finished():
                    break
            elif kind == _EV_PROPOSE:
                self._nontick_pending -= 1
                proposer = self.proposers[a]
                cmd = proposer.build_command(b)
                for dst in range(scenario.n):
                    when = self._deliver_time(self._proposer_rank + a, dst)
                    self._push(when, self._proposer_rank + a, _EV_CMD, dst, cmd)
            else:  # _EV_REPLY
                self._nontick_pending -= 1
                digest, node_id = b
                self._deliver_reply(node_id, a, digest)

        return self._collect(non_quiescent)

    def _finished(self) -> bool:
        if self._nontick_pending > 0:
            return False
        return all(node.idle() for node in self.nodes)

    # -- result assembly ----------------------------------------------------

    def _collect(self, non_quiescent: bool) -> ExperimentResult:
        scenario = self.scenario
        for node in self.nodes:
            node.executor.flush()
            # The timestamp and follow strategies commit only in this flush,
            # after the event loop, so their replies are delivered here, at once.
            if self.client_replies:
                node._send_replies(self._deliver_reply)
        # With no honest node, the reference node's trace stands in.
        reporting = scenario.honest_ids() or [self.reference_node]
        traces = {i: list(self.nodes[i].executor.committed_order) for i in reporting}
        honest_traces = [traces[i] for i in sorted(traces)]
        reference = traces.get(self.reference_node, [])
        total = scenario.proposers * scenario.commands_per_proposer
        leader_faults = sum(
            node.consenter.leader_faults
            for node in self.nodes
            if node.node_id in scenario.honest_ids()
        )
        ref_node = self.nodes[self.reference_node]
        return ExperimentResult(
            scenario=scenario,
            traces=traces,
            reference_node=self.reference_node,
            reordered_ratio=reordered_ratio(reference),
            alter_path_ratio=ref_node.executor.alter_path_ratio(),
            consistency=traces_consistent(honest_traces),
            prefix_consistent=traces_prefix_consistent(honest_traces),
            uncommitted=total - len(reference),
            committed=len(reference),
            total_proposed=total,
            non_quiescent=non_quiescent,
            leader_faults=leader_faults,
            accepted_commands=sum(p.accepted for p in self.proposers),
            sim_time_ms=self.now,
            events_processed=self.events_processed,
            batch_trace=list(ref_node.consenter.batch_trace),
        )


def run(scenario: Scenario, record_batches: bool = False,
        client_replies: bool = False) -> ExperimentResult:
    """Execute one scenario to quiescence and measure it."""
    return Simulation(scenario, record_batches, client_replies).run()
