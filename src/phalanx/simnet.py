"""Deterministic discrete-event simulation of a full cluster.

Hosts n protocol nodes plus p proposers over seeded per-link latencies.
Per-link delivery is FIFO: a message sent earlier on a link is never
overtaken, even when the sampled latencies would invert it. Every source
of randomness derives from the scenario seed, so a scenario reruns to a
byte-identical result.

Each node is a :class:`~phalanx.replica.Replica` whose port is the
:class:`Simulation` itself (``send``, ``broadcast``, ``wake`` and
``sequencer``), so this module never branches on the ordering strategy and
holds no protocol handler: it carries messages and batches, schedules
ticks, and flushes every strategy at the end.

Each node ticks on its own grid, ``phase + k * delta_o`` for k >= 1 with
``phase = node_id * delta_o // n``. A tick pre-orders queued commands until
the mempool's pre-order window is full, the queue is empty or it has
started ``delta_o`` pre-orders (the k-th, from 0, is stamped ``stamp + k``,
so stamps stay below the next tick's); if it starts none, it re-broadcasts
the starved log that fell due first. On the leader it also snapshots an
order-batch. A tick is scheduled only when it can act:

* after a tick that acted, the leader ticks again ``delta_o`` later;
* after any other tick, a node that stopped at ``delta_o`` pre-orders with
  room left ticks again ``delta_o`` later; otherwise a node with logs
  awaiting votes sleeps until the first grid tick after this one at or
  after the earliest re-broadcast due time among them, ``sent + resend_ms
  - skew`` for the log last sent earliest (a tick re-broadcasts one log,
  so another may be due already); any other node sleeps with no timer;
* a sleeping node wakes at its next grid tick after the current event when
  a command is queued while the window has room, when a vote completes a
  certificate while commands are queued, or, on the leader, when a stored
  log advances its latest-log vector;
* a silent node never ticks.

This skips only ticks that would have done nothing, so a run processes the
same events in the same order as a loop that ticks every node on every grid
point. Events are ordered by time, then by source id (proposers rank after
the nodes), then by push sequence number. An event from node ``a``
delivered at time ``t`` on ``a``'s grid comes before ``a``'s tick at ``t``
exactly when it was sent before ``a``'s tick at ``t - delta_o`` would have
run: sent before ``t - delta_o``, or at ``t - delta_o`` by an event handled
before that tick (one whose source id is below ``a``, unless links have no
latency), or by that tick itself. Everything else from ``a`` at ``t``, a
self-delivery sent at ``t`` included, comes after it, and nothing comes
before a node's first tick. That class is folded into the second field of
the heap key: ``4 * src`` before, ``+ 1`` the tick, ``+ 2`` after, which is
also where an event that meets no tick of its source goes.

A run ends where that every-grid-point loop would have ended: at the first
event after which nothing is pending and every node is idle; at the next
grid tick of any node when that holds before the first event; otherwise,
cut short, at the last grid tick of any node at or before ``max_sim_ms``.

Byzantine behaviors live here and in :mod:`~phalanx.scenario` only, never
in the replica. They reorder a node's inbound queue, skew its reported log
timestamps, or silence it entirely. :class:`_Node` applies the skewed stamp
on each tick and the queue behaviour before each pre-order of a tick; a
silent node is a :class:`_SilentNode`. A ``shuffle`` node makes one uniform
draw over its queue before each pre-order that finds the window with room
and two or more commands queued, and pre-orders the drawn command; the rest
keep their arrival order. A ``reverse`` node moves its newest queued
command to the front before each pre-order, so it always pre-orders
newest-first.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import random
from dataclasses import dataclass, field

from .authenticators import HmacAuthenticator
from .consensus import OrderBatch, SequencerBroadcast
from .executor import TraceEntry
from .metrics import reordered_ratio, traces_consistent, traces_prefix_consistent
from .replica import Replica
from .scenario import Scenario
from .types import Command
from .wire import PreOrderMessage

RESULT_SCHEMA_VERSION = 1

# A time no run reaches: the next tick of a node asleep with no timer, and
# the first tick of a proposer, which has none.
_NO_TICK = 1 << 62
# The next tick of a silent node: no wake finds an earlier time to move it to.
_SILENT = -1

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
            "sim_time_ms": self.sim_time_ms,
            "events_processed": self.events_processed,
            "trace_sha256": self.trace_sha256(),
        }

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
    behaviour: a queue behaviour and a skewed stamp on each tick."""

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
        """Tick at the skewed stamp; the queue behaviour runs before each
        pre-order of the tick."""
        stamp = now + self.behavior.skew
        if stamp < 0:
            stamp = 0
        return self.tick(stamp)

    def before_pre_order(self) -> None:
        mempool = self.mempool
        queue = mempool.inbound
        if len(queue) < 2:
            return
        if self.behavior.shuffle:
            # Pre-order a uniformly drawn queued command. Only a pre-order
            # draws, so there is one draw per pre-order, not per tick.
            if mempool.has_room():
                j = self._shuffle_rng.randrange(len(queue))
                if j:
                    cmd = queue[j]
                    del queue[j]
                    queue.appendleft(cmd)
        elif self.behavior.reverse and mempool.has_room():
            # Serve the local FIFO from the back: the newest command is
            # pre-ordered first, inverting the declared partial order. Only a
            # pre-order rotates, so every pre-order takes the newest.
            queue.rotate(1)


class _SilentNode(_Node):
    """A silent node: it drops every pre-order it receives, so it never
    votes, and counts as idle, so no run waits on it. It is never ticked."""

    def on_message(self, msg, sender: int) -> None:
        if not isinstance(msg, PreOrderMessage):
            super().on_message(msg, sender)

    def idle(self) -> bool:
        return True


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
        # The node whose tick is running (-1 outside ticks), and the largest
        # heap key (second field) processed at the current time. A node's tick
        # at that time has run, or had nothing to do, once the largest passes
        # its key: the heap pops in key order, but an event sent with no
        # latency can carry a smaller key than the one that sent it.
        self._ticking = -1
        self._high_key = -1
        self._heap: list = []
        self._seqno = 0
        # Tick entries in the heap, superseded ones included: every other
        # entry is an event still pending.
        self._tick_entries = 0
        self._link_last: dict[tuple[int, int], int] = {}
        self.events_processed = 0
        # Proposers occupy ranks n..n+p-1 in link keys and tie-breaks.
        self._proposer_rank = scenario.n
        delta = scenario.delta_o
        self._delta = delta
        # First grid tick per rank, and each node's next queued tick.
        self._first_tick = [
            (i * delta) // scenario.n + delta for i in range(scenario.n)
        ] + [_NO_TICK] * scenario.proposers
        self._tick_at = [
            _SILENT if node.behavior.silent else _NO_TICK for node in self.nodes
        ]

    # -- scheduling -------------------------------------------------------

    def _post(self, src: int, dst: int, kind: int, a, b) -> None:
        """Queue an event from rank ``src`` over the link to rank ``dst``.

        It is delivered after the sampled latency (none on a self-link), but
        never before an event sent earlier on the same link.
        """
        now = self.now
        when = now
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
        # The event comes after src's tick at ``when``, if there is one,
        # unless it was sent before src's previous grid tick would have run:
        # only a delay of delta_o or more allows that.
        key = src * 4 + 2
        delta = self._delta
        if when - now >= delta:
            off = when - self._first_tick[src]
            if off > 0 and not off % delta and (
                    now < when - delta or self._ticking == src
                    or self._high_key < key - 1):
                key -= 2
        self._seqno += 1
        heapq.heappush(self._heap, (when, key, self._seqno, kind, a, b))

    def _next_grid_tick(self, node_id: int) -> int:
        """The node's first grid tick after the current event."""
        now = self.now
        first = self._first_tick[node_id]
        when = first if now < first else now + (first - now) % self._delta
        if when == now and self._high_key >= node_id * 4 + 1:
            when += self._delta
        return when

    def wake(self, node_id: int) -> None:
        """Tick ``node_id`` at its next grid tick unless one as early is queued."""
        at = self._tick_at[node_id]
        if at - self.now < self._delta:
            # A tick queued under delta_o from now is the next grid tick
            # already, as grid ticks are delta_o apart; _SILENT passes too.
            return
        when = self._next_grid_tick(node_id)
        if when < at:
            self._schedule_tick(node_id, when)

    def _schedule_tick(self, node_id: int, when: int) -> None:
        # A later entry already queued for the node is left to be skipped.
        self._tick_at[node_id] = when
        self._tick_entries += 1
        heapq.heappush(self._heap, (when, node_id * 4 + 1, 0, _EV_TICK, node_id, None))

    def _sleep(self, node_id: int, now: int) -> None:
        """Schedule a non-leader node after its tick at ``now``, or any node
        after a tick that did nothing."""
        node = self.nodes[node_id]
        mempool = node.mempool
        if mempool.inbound and mempool.has_room():
            # The tick used all its stamps: the next one pre-orders on.
            self._schedule_tick(node_id, now + self._delta)
            return
        first = mempool.first_due()
        if first is None:
            self._tick_at[node_id] = _NO_TICK
            return
        # The first grid tick after ``now`` whose stamp makes a log due a
        # re-broadcast. A tick re-broadcasts one log, so another may have
        # fallen due by ``now`` too.
        due = first.sent + self.scenario.resend_ms - node.behavior.skew
        if due <= now:
            due = now + 1
        self._schedule_tick(node_id, due + (now - due) % self._delta)

    def send(self, src: int, dst: int, msg) -> None:
        self._post(src, dst, _EV_MSG, dst, msg)

    def broadcast(self, src: int, msg, include_self: bool) -> None:
        for dst in range(self.scenario.n):
            if dst == src and not include_self:
                continue
            self.send(src, dst, msg)

    def _transport_batch(self, index: int, batch: OrderBatch) -> None:
        leader = 0
        for dst in range(self.scenario.n):
            self._post(leader, dst, _EV_BATCH, dst, (index, batch))

    # -- run --------------------------------------------------------------

    def run(self) -> ExperimentResult:
        scenario = self.scenario
        heap = self._heap
        for p in range(scenario.proposers):
            key = (self._proposer_rank + p) * 4
            for k in range(scenario.commands_per_proposer):
                self._seqno += 1
                heapq.heappush(heap, (scenario.propose_interval * k, key, self._seqno,
                                      _EV_PROPOSE, p, k + 1))
        for node in self.nodes:
            if not node.idle():  # state set up before the run
                self.wake(node.node_id)
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
        heappop, heappush = heapq.heappop, heapq.heappush
        max_sim_ms = self.scenario.max_sim_ms
        now, high = self.now, self._high_key
        processed = self.events_processed
        # The node that keeps a follow-up tick after one that acted.
        leader = 0 if nodes[0].is_leader else -1
        try:
            while heap:
                time, key, _seqno, kind, a, b = heappop(heap)
                if time > max_sim_ms:
                    return True
                # A superseded tick entry marks a grid tick at which its node
                # had nothing to do, so it moves the clock as that tick would.
                if time != now:
                    now = self.now = time
                    high = self._high_key = key
                elif key > high:
                    high = self._high_key = key
                processed += 1
                if kind == _EV_MSG:
                    nodes[a].on_message(b, key >> 2)
                elif kind == _EV_TICK:
                    if tick_at[a] != time:  # superseded by an earlier wake
                        processed -= 1
                        self._tick_entries -= 1
                        continue
                    self._ticking = a
                    acted = nodes[a].on_tick(time)
                    self._ticking = -1
                    # A tick that did nothing leaves the run as unfinished as
                    # the event before it; one that acted queued events.
                    if acted and a == leader:
                        tick_at[a] = time + delta
                        heappush(heap, (time + delta, key, 0, kind, a, None))
                    else:
                        self._tick_entries -= 1
                        self._sleep(a, time)
                    continue
                elif kind == _EV_CMD:
                    nodes[a].on_command(b)
                elif kind == _EV_BATCH:
                    nodes[a].on_batch(b[0], b[1])
                else:  # _EV_PROPOSE
                    cmd = _build_command(self.scenario, a, b)
                    rank = self._proposer_rank + a
                    for dst in range(self.scenario.n):
                        self._post(rank, dst, _EV_CMD, dst, cmd)
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
        for first in self._first_tick[:self.scenario.n]:
            if first <= limit:
                last = max(last, limit - (limit - first) % self._delta)
        return last

    # -- result assembly ----------------------------------------------------

    def _collect(self, non_quiescent: bool) -> ExperimentResult:
        scenario = self.scenario
        for node in self.nodes:
            node.executor.flush()
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
            sim_time_ms=self.now,
            events_processed=self.events_processed,
            batch_trace=list(ref_node.consenter.batch_trace),
        )


def run(scenario: Scenario, record_batches: bool = False) -> ExperimentResult:
    """Execute one scenario to quiescence and measure it."""
    return Simulation(scenario, record_batches).run()
