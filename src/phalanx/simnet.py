"""Deterministic discrete-event simulation of a full cluster.

Hosts n protocol nodes plus p proposers over seeded per-link latencies.
Each event the loop handles (a tick, a delivered transmission, a batch or a
command) makes at most one transmission per link: the messages it sends to
one peer travel together, like one write on a connection, and the peer
handles them in send order inside one event. The scenario's ``latency``
range is thus the delay of one transmission, drawn uniformly once, however
many messages it carries. Order-batches travel apart from protocol
messages, so a leader's tick may put one of each on a link. Per-link
delivery is FIFO: a transmission sent earlier on a link is never
overtaken, even when the sampled latencies would invert it. Every source
of randomness derives from the scenario seed, so a scenario reruns to a
byte-identical result.

Each node is a :class:`~phalanx.replica.Replica` whose port is the
:class:`Simulation` itself (``send``, ``broadcast``, ``wake``,
``sequencer`` and ``now``), so this module never branches on the ordering
strategy and holds no protocol handler: it carries messages and batches,
schedules ticks, and flushes every strategy at the end. ``send`` counts
the protocol messages by class for ``result.json``'s ``messages``.
``result.json``'s ``commit_latency_ms`` holds the p50 and p99, by nearest
rank, of the reference node's commit latencies: from a command's
scheduled propose, ``propose_interval * (seq - 1)``, to the time the
drain or end-of-run flush that committed it ran (``Replica.commit_times``).

Each node ticks on its own grid, ``phase + k * delta_o`` for k >= 1 with
``phase = node_id * delta_o // n``. A tick takes queued commands until
the mempool's pre-order window is full, the queue is empty or it has taken
``delta_o`` of them, and pre-orders them as one log (its k-th command, from
0, reads as stamped ``stamp + k``, so stamps stay below the next tick's);
if it takes none, it re-broadcasts the starved log that fell due first.
On the leader it also cuts an order-batch of the heads that moved. One rule,
:meth:`Simulation._next_tick`, decides when a node ticks: its first grid
tick at or after a given one at which its tick can act. That is the given tick itself if commands are queued while the
pre-order window has room, or if the node leads and some author's
certified head moved since the last order-batch it cut
(:meth:`~phalanx.consensus.Consenter.has_batch`: the batch just cut counts,
though the leader's consenter only expands it after the tick); otherwise
the first grid tick at or after the earliest
re-broadcast due time among its logs awaiting votes: the time at which the
node's clock (:meth:`_Node.clock_at`) reads ``sent + timeout`` for the log
last sent earliest, where ``timeout`` is the mempool's re-broadcast
timeout, ``max(resend_ms, SRTT + 4 * RTTVAR)`` of the node's
measured vote round trips, one timed log per round trip; otherwise none,
and the node sleeps with no timer. The rule is applied from the next grid
point after each tick, and from the first grid tick after the current time
whenever the replica calls ``wake``: when a command is queued, when an own
log certifies, and, on the leader, when a log is stored. Those are the
only events that can move the rule's answer earlier. A wake puts the
rule's answer in place of the queued tick, earlier, later or none, so a
tick queued for a log's re-broadcast is dropped when that log certifies
first. A silent node never has a tick to run.

Events are ordered by time. At one time every tick runs first, in node-id
order (a tick's heap key is ``node_id - n``), then every other event, by
source rank (proposers rank after the nodes) and push sequence number. The
loop never queues a tick at the current time, and anything posted at the
current time sorts after every tick at that time, so no tick ever sorts
before an event already handled: a tick runs at the same place whether it
was queued long before or by the last wake. Ranking ticks last would let a
tick's zero-latency self-delivery sort before the ticks still pending at
that time. Skipping a tick that would have done nothing thus leaves the
events and their order those of a loop that ticks every node on every grid
point.

A run ends where that every-grid-point loop would have ended: at the first
event after which nothing is pending and every node is idle; at the next
grid tick of any node when that holds before the first event; otherwise,
cut short, at the last grid tick of any node at or before ``max_sim_ms``.

Byzantine behaviors live here and in :mod:`~phalanx.scenario` only, never
in the replica, and only the nodes read them: the scheduler asks a node's
clock when a re-broadcast falls due. They reorder a node's inbound queue,
skew its clock, or crash it. A node's clock is one function,
:meth:`_Node.clock_at`, read by each tick for its stamp, by the vote
round-trip samples and, through its inverse :meth:`_Node.time_at`, by the
scheduler; ``skew`` shifts it. The queue behaviour runs before a tick
takes each command for its log. A ``silent`` node is a crash fault, a
:class:`_SilentNode`: it drops whatever it is handed, so it receives and
sends nothing. A ``shuffle`` node makes one uniform draw
over its queue before each command taken while the window has room and
two or more commands are queued, and takes the drawn command; the rest
keep their arrival order. A ``reverse`` node moves its newest queued
command to the front before each command taken, so it always pre-orders
newest-first.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import random
from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Optional, get_args

from .authenticators import HmacAuthenticator
from .consensus import LEADER, OrderBatch, SequencerBroadcast
from .executor import TraceEntry
from .mempool import REJECT_REASONS
from .metrics import (
    nearest_rank,
    reordered_ratio,
    traces_consistent,
    traces_prefix_consistent,
)
from .replica import Replica
from .scenario import Scenario
from .types import Command
from .wire import Message

RESULT_SCHEMA_VERSION = 1

# A time no run reaches: the next tick of a node asleep with no timer, and
# the first tick of a proposer, which has none.
_NO_TICK = 1 << 62

# Event kinds (dispatch tags inside the loop).
_EV_TICK = 0
_EV_MSG = 1
_EV_PROPOSE = 2
_EV_CMD = 3
_EV_BATCH = 4


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
    sim_time_ms: int
    events_processed: int
    # Pre-order re-broadcasts, summed over honest nodes.
    rebroadcasts: int
    # Mempool.rejects of the honest nodes summed, by reason, zeros included.
    rejects: dict[str, int]
    # Votes that arrived after their log certified, summed over honest nodes.
    late_votes: int
    # Protocol messages sent by every node, by wire kind, zeros included.
    messages: dict[str, int]
    # p50 and p99 of the reference node's propose-to-commit times, in ms.
    commit_latency_ms: dict[str, Optional[int]]
    # The reference node's committed order-batches as hex lines
    # (``consensus.encode_order_batch``), kept when ``record_batches`` is set;
    # a slot holds a head only where it moved since the leader's last batch.
    batch_trace: list[str] = field(default_factory=list)

    @property
    def reference_trace(self) -> list[TraceEntry]:
        return self.traces.get(self.reference_node, [])

    def trace_sha256(self) -> str:
        joined = "\n".join(entry.line() for entry in self.reference_trace)
        return hashlib.sha256(joined.encode()).hexdigest()

    def to_json_dict(self) -> dict:
        """Every field but the traces, the scenario as its echo, the schema
        version and the reference trace's sha256."""
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name not in ("traces", "batch_trace")}
        out.update(schema_version=RESULT_SCHEMA_VERSION, scenario=self.scenario.to_dict(),
                   trace_sha256=self.trace_sha256())
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":")) + "\n"


def _build_command(scenario: Scenario, proposer_id: int, seq: int) -> Command:
    """The client stub's command ``seq``: ``batch_size`` numbered requests."""
    requests = b";".join(
        b"req:%d:%d:%d" % (proposer_id, seq, i) for i in range(scenario.batch_size)
    )
    return Command.create(proposer_id, seq, requests)


class _Node(Replica):
    """A replica on the simulated network with its node's Byzantine
    behaviour: a queue behaviour and a skewed clock."""

    def __init__(self, node_id: int, scenario: Scenario, sim: "Simulation"):
        super().__init__(
            node_id, sim.auth, scenario.strategy,
            designated=min(scenario.byzantine, default=0),
            record_batches=sim.record_batches and node_id == sim.reference_node,
            net=sim, resend_ms=scenario.resend_ms, tick_ms=scenario.delta_o,
        )
        self.behavior = scenario.behavior(node_id)
        self._shuffle_rng = random.Random(f"phalanx:{scenario.seed}:byz:{node_id}")

    def on_tick(self, now: int) -> bool:
        """Tick at the clock's stamp; the queue behaviour runs before the
        tick takes each command."""
        return self.tick(self.clock_at(now))

    def clock(self) -> int:
        return self.clock_at(self.net.now)

    def clock_at(self, now: int) -> int:
        """The node's clock at simulated time ``now``: skewed, never below 0."""
        stamp = now + self.behavior.skew
        return stamp if stamp > 0 else 0

    def time_at(self, stamp: int) -> int:
        """The simulated time at which the clock reads ``stamp``: the inverse
        of :meth:`clock_at` wherever the clock is above 0."""
        return stamp - self.behavior.skew

    def before_pre_order(self) -> None:
        queue = self.mempool.inbound
        if len(queue) < 2:
            return
        if self.behavior.shuffle:
            # Take a uniformly drawn queued command. Only a command taken
            # draws, so there is one draw per command, not per tick.
            j = self._shuffle_rng.randrange(len(queue))
            if j:
                cmd = queue[j]
                del queue[j]
                queue.appendleft(cmd)
        elif self.behavior.reverse:
            # Serve the local FIFO from the back: the newest command is
            # pre-ordered first, inverting the declared partial order. Only a
            # command taken rotates, so each one taken is the newest.
            queue.rotate(1)


class _SilentNode(_Node):
    """A crashed node: it drops every command, message and batch handed to
    it, so it sends and stores nothing, is never woken and stays idle."""

    def on_command(self, cmd: Command) -> None:
        pass

    def on_message(self, msg, sender: int) -> None:
        pass

    def on_batch(self, index: int, batch: OrderBatch) -> None:
        pass


class Simulation:
    """Seeded event loop driving proposers and nodes to quiescence."""

    def __init__(self, scenario: Scenario, record_batches: bool = False):
        self.scenario = scenario
        self.record_batches = record_batches
        self.auth = HmacAuthenticator(
            scenario.n, scenario.f, cluster_seed=b"phalanx:%d" % scenario.seed
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
        self.nodes = [
            (_SilentNode if scenario.behavior(i).silent else _Node)(i, scenario, self)
            for i in range(scenario.n)
        ]
        self.sequencer = SequencerBroadcast(self._transport_batch)
        self.now = 0
        self._heap: list = []
        self._seqno = 0
        # Tick entries in the heap, superseded ones included: every other
        # entry is an event still pending.
        self._tick_entries = 0
        self._link_last: dict[tuple[int, int], int] = {}
        # The transmission each (src, dst, kind) opened in the current event.
        self._bundles: dict[tuple[int, int, int], list] = {}
        self.events_processed = 0
        # Protocol messages sent, by message class.
        self._sent: Counter[type] = Counter()
        # Proposers occupy ranks n..n+p-1 in link keys and tie-breaks; a
        # node's tick takes key ``node_id - n``, below every rank.
        self._proposer_rank = scenario.n
        delta = scenario.delta_o
        self._delta = delta
        # Each node's first grid tick and next queued tick.
        self._first_tick = [(i * delta) // scenario.n + delta for i in range(scenario.n)]
        self._tick_at = [_NO_TICK] * scenario.n

    # -- scheduling -------------------------------------------------------

    def _post(self, src: int, dst: int, kind: int, item) -> None:
        """Queue ``item`` from rank ``src`` over the link to rank ``dst``.

        Everything one event sends on a link, of one kind, is one
        transmission: the first item draws the latency (none on a
        self-link) and the rest join it, to be handled in send order. A
        transmission is delivered never before one sent earlier on its link.
        """
        bundles, opened = self._bundles, (src, dst, kind)
        bundle = bundles.get(opened)
        if bundle is not None:
            bundle.append(item)
            return
        when = self.now
        if src != dst:
            getrandbits, k, width = self._latency_bits, self._latency_k, self._latency_width
            r = getrandbits(k)
            while r >= width:
                r = getrandbits(k)
            when += self._latency_lo + r
        link = (src, dst)
        link_last = self._link_last
        last = link_last.get(link, 0)
        if when < last:
            when = last
        link_last[link] = when
        self._seqno += 1
        bundles[opened] = bundle = [item]
        heapq.heappush(self._heap, (when, src, self._seqno, kind, dst, bundle))

    def _next_grid_tick(self, node_id: int) -> int:
        """The node's first grid tick after the current time."""
        now = self.now
        first = self._first_tick[node_id]
        return first if now < first else now + self._delta - (now - first) % self._delta

    def wake(self, node_id: int) -> None:
        """Queue ``node_id``'s first tick that can act, from its next grid
        tick on, in place of the one queued: earlier, later or none."""
        when = self._next_tick(node_id, self._next_grid_tick(node_id))
        if when != self._tick_at[node_id]:
            self._schedule_tick(node_id, when)

    def _schedule_tick(self, node_id: int, when: int) -> None:
        # Any other entry queued for the node is left to be skipped.
        self._tick_at[node_id] = when
        if when != _NO_TICK:
            self._tick_entries += 1
            heapq.heappush(self._heap,
                           (when, node_id - self.scenario.n, 0, _EV_TICK, node_id, None))

    def _next_tick(self, node_id: int, grid: int) -> int:
        """The node's first grid tick at or after its grid tick ``grid`` at
        which its tick can act; ``_NO_TICK`` if none can until its state
        changes."""
        node = self.nodes[node_id]
        mempool = node.mempool
        if ((mempool.inbound and mempool.has_room())
                or (node.is_leader and node.consenter.has_batch())):
            return grid
        # A tick re-broadcasts one log, so another may be due by ``grid``.
        first = mempool.first_due()
        if first is None:
            return _NO_TICK
        due = node.time_at(first.sent + mempool.resend_timeout())
        if due <= grid:
            return grid
        return due + (grid - due) % self._delta

    def send(self, src: int, dst: int, msg) -> None:
        self._sent[type(msg)] += 1
        self._post(src, dst, _EV_MSG, msg)

    def broadcast(self, src: int, msg, include_self: bool) -> None:
        for dst in range(self.scenario.n):
            if dst == src and not include_self:
                continue
            self.send(src, dst, msg)

    def _transport_batch(self, index: int, batch: OrderBatch) -> None:
        for dst in range(self.scenario.n):
            self._post(LEADER, dst, _EV_BATCH, (index, batch))

    # -- run --------------------------------------------------------------

    def run(self) -> ExperimentResult:
        scenario = self.scenario
        heap = self._heap
        for p in range(scenario.proposers):
            rank = self._proposer_rank + p
            for k in range(scenario.commands_per_proposer):
                self._seqno += 1
                heapq.heappush(heap, (scenario.propose_interval * k, rank, self._seqno,
                                      _EV_PROPOSE, p, k + 1))
        for node_id in range(scenario.n):  # state may be set up before the run
            self.wake(node_id)
        if len(heap) == self._tick_entries and self._all_idle():
            non_quiescent = self._end_at_next_tick()
        else:
            non_quiescent = self._loop()
        if non_quiescent:
            self.now = max(self.now, self._last_grid_tick(scenario.max_sim_ms))
        return self._collect(non_quiescent)

    def _loop(self) -> bool:
        """Process events until the run ends; True if it ends non-quiescent."""
        heap, nodes, tick_at, delta = self._heap, self.nodes, self._tick_at, self._delta
        bundles = self._bundles
        heappop = heapq.heappop
        max_sim_ms = self.scenario.max_sim_ms
        processed = self.events_processed
        try:
            while heap:
                # ``src`` is the source rank, or ``node_id - n`` for a tick.
                time, src, _seqno, kind, a, b = heappop(heap)
                if time > max_sim_ms:
                    return True
                bundles.clear()
                # A superseded tick entry marks a grid tick at which its node
                # had nothing to do, so it moves the clock as that tick would.
                self.now = time
                processed += 1
                if kind == _EV_MSG:
                    node = nodes[a]
                    for msg in b:
                        node.on_message(msg, src)
                elif kind == _EV_TICK:
                    if tick_at[a] != time:  # superseded by a wake
                        processed -= 1
                        self._tick_entries -= 1
                        continue
                    nodes[a].on_tick(time)
                    self._tick_entries -= 1
                    self._schedule_tick(a, self._next_tick(a, time + delta))
                    # A tick that did nothing leaves the run as unfinished as
                    # the event before it; one that acted queued events.
                    continue
                elif kind == _EV_CMD:
                    for cmd in b:
                        nodes[a].on_command(cmd)
                elif kind == _EV_BATCH:
                    for index, batch in b:
                        nodes[a].on_batch(index, batch)
                else:  # _EV_PROPOSE
                    cmd = _build_command(self.scenario, a, b)
                    for dst in range(self.scenario.n):
                        self._post(src, dst, _EV_CMD, cmd)
                    continue
                if len(heap) == self._tick_entries and self._all_idle():
                    return False
            return True
        finally:
            self.events_processed = processed

    def _all_idle(self) -> bool:
        return all(node.idle() for node in self.nodes)

    def _end_at_next_tick(self) -> bool:
        """Quiescent before the first event: the run ends at the next grid
        tick of any node. Returns True if that is past ``max_sim_ms``."""
        when = min(self._next_grid_tick(i) for i in range(self.scenario.n))
        if when > self.scenario.max_sim_ms:
            return True
        self.now = when
        return False

    def _last_grid_tick(self, limit: int) -> int:
        """The last grid tick of any node at or before ``limit`` (0 if none)."""
        last = 0
        for first in self._first_tick:
            if first <= limit:
                last = max(last, limit - (limit - first) % self._delta)
        return last

    # -- result assembly ----------------------------------------------------

    def _collect(self, non_quiescent: bool) -> ExperimentResult:
        scenario = self.scenario
        for node in self.nodes:
            node.flush()
        # With no honest node, the reference node's trace stands in.
        reporting = scenario.honest_ids() or [self.reference_node]
        traces = {i: list(self.nodes[i].executor.committed_order) for i in reporting}
        honest_traces = [traces[i] for i in sorted(traces)]
        reference = traces.get(self.reference_node, [])
        total = scenario.proposers * scenario.commands_per_proposer
        honest = [self.nodes[i] for i in scenario.honest_ids()]
        leader_faults = sum(node.consenter.leader_faults for node in honest)
        rebroadcasts = sum(node.mempool.rebroadcasts for node in honest)
        rejects = {reason: sum(node.mempool.rejects[reason] for node in honest)
                   for reason in REJECT_REASONS}
        late_votes = sum(node.mempool.late_votes for node in honest)
        ref_node = self.nodes[self.reference_node]
        interval = scenario.propose_interval
        latencies = sorted(at - interval * (entry.proposer_seq - 1)
                           for entry, at in zip(reference, ref_node.commit_times))
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
            sim_time_ms=self.now,
            events_processed=self.events_processed,
            rebroadcasts=rebroadcasts,
            rejects=rejects,
            late_votes=late_votes,
            messages={kind.kind: self._sent[kind] for kind in get_args(Message)},
            commit_latency_ms={"p50": nearest_rank(latencies, 50),
                               "p99": nearest_rank(latencies, 99)},
            batch_trace=list(ref_node.consenter.batch_trace),
        )


def run(scenario: Scenario, record_batches: bool = False) -> ExperimentResult:
    """Execute one scenario to quiescence and measure it."""
    return Simulation(scenario, record_batches).run()
