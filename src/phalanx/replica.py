"""One node's protocol state machine: mempool, consenter, ordering strategy.

The simulator's nodes and the golden micro-scenarios both run it; golden
wires its replicas through :class:`~phalanx.golden.FifoPort`. A replica
pre-orders, votes and orders through its mempool, expands each
delivered order-batch into log sets through its consenter, feeds those to
the strategy and drains it, and fetches from peers the certified logs it
lacks. It answers a peer's fetch with the log itself, as an
:class:`~phalanx.wire.OrderMessage`, and ignores a fetch for a log it
lacks: the stalled node asks every peer, the leader among them, and the
leader stores every log its batches commit. Command bodies come only
from their proposers, which send each one to every node: a strategy
waiting on a body drains again when :meth:`Replica.on_command` brings it.

It reaches its peers only through a port, ``net``, looked up at each call
so that a test may replace a method on the port object:

* ``net.send(src, dst, msg)`` and ``net.broadcast(src, msg, include_self)``
  carry protocol messages, which arrive at ``on_message`` of each peer;
* ``net.wake(node_id)`` says the node's state changed so that its tick may
  act sooner: a command was queued, an own log certified or, on the
  leader, a log was stored. When the node ticks is the port's call;
* ``net.sequencer.submit(batch)`` hands an order-batch to the total-order
  broadcast, which delivers it to every node's ``on_batch``;
* ``net.now`` is the current time, read by :meth:`Replica.clock` and
  to stamp commits.

The caller drives :meth:`Replica.tick` with the stamp to put on new logs.
A tick takes queued commands until the pre-order window is full, the
queue is empty or it has taken ``tick_ms``, and pre-orders them as one log
stamped ``stamp``, whose k-th command (k from 0) reads as stamped
``stamp + k``. A caller whose successive ticks' stamps lie at least
``tick_ms`` apart thus gets strictly increasing stamps along the node's
chain. A tick that pre-orders nothing re-broadcasts an own log once
it has waited the mempool's re-broadcast timeout for votes: ``resend_ms``
until a vote round trip is measured, then the RFC 6298 estimate, never
below ``resend_ms``.

A vote that completes a certificate samples the log's round trip at
:meth:`Replica.clock`, a hook like :meth:`Replica.before_pre_order`, not
at ``net.now``: the sample is the clock at the 2f+1-th share less the
log's first-send stamp, and a node's stamps are its skewed, clamped clock,
which only the simulator's node knows. Reading ``net.now`` would offset a
skewed node's every sample by its skew.

Node ``consensus.LEADER`` (0) leads when the strategy uses consensus. No
Byzantine behaviour is read here: the simulator's node wraps this class
with the behaviour, through the hooks :meth:`Replica.before_pre_order` and
:meth:`Replica.clock`.

The strategy is picked once, by name: ``anchor`` (:class:`Executor`),
``timestamp`` (:class:`TimestampExecutor`, the Pompē-style baseline) or
``follow`` (:class:`FollowExecutor`, the unprotected control). All three
offer ``feed``, ``drain``, ``flush`` (end of run), ``blocked_on`` (the
bodies it waits on), ``idle``, ``committed_order``, ``alter_path_ratio`` and
the class constant ``uses_consensus`` (False: no order-batches, no leader),
so no caller branches on the strategy.

``commit_times[i]`` is ``net.now`` at the drain or end-of-run
:meth:`Replica.flush` that committed the strategy's i-th command.
"""

from __future__ import annotations

from .authenticators import Authenticator
from .consensus import LEADER, Consenter, OrderBatch
from .executor import Executor
from .mempool import Mempool
from .scenario import FOLLOW, TIMESTAMP
from .tsorder import FollowExecutor, TimestampExecutor
from .types import Command
from .wire import FetchLogMessage, OrderMessage, PreOrderMessage, VoteMessage


class Replica:
    """Mempool, consenter and ordering strategy of one node, and the
    handlers that drive them from ticks, commands, messages and batches."""

    def __init__(self, node_id: int, auth: Authenticator, strategy: str,
                 designated: int = 0, record_batches: bool = False,
                 net=None, resend_ms: int = 0, tick_ms: int = 1):
        self.node_id = node_id
        self.mempool = Mempool(node_id, auth, resend_ms)
        self.consenter = Consenter(node_id, self.mempool, record_batches)
        self.executor: Executor | TimestampExecutor | FollowExecutor
        if strategy == FOLLOW:
            self.executor = FollowExecutor(designated, self.mempool)
        elif strategy == TIMESTAMP:
            self.executor = TimestampExecutor(auth.n, auth.f, self.mempool.fetch_command)
        else:
            self.executor = Executor(auth.n, auth.f, self.mempool.fetch_command)
        self.net = net
        self.tick_ms = tick_ms
        self.commit_times: list[int] = []
        self.is_leader = node_id == LEADER and self.executor.uses_consensus

    # -- handlers -----------------------------------------------------------

    def on_command(self, cmd: Command) -> None:
        if self.mempool.enqueue_command(cmd):
            self.net.wake(self.node_id)
        if cmd.digest in self.executor.blocked_on:
            self._drain()

    def tick(self, stamp: int) -> bool:
        """Pre-order, re-broadcast or cut a batch; False if it did none."""
        mempool = self.mempool
        k = 0
        while k < self.tick_ms and mempool.inbound and mempool.has_room():
            self.before_pre_order()
            mempool.stage()
            k += 1
        msg = mempool.try_pre_order(stamp) if k else mempool.resend_pre_order(stamp)
        if msg is not None:
            self.net.broadcast(self.node_id, msg, include_self=True)
        if self.is_leader:
            batch = self.consenter.make_order_batch()
            if batch is not None:
                self.net.sequencer.submit(batch)
                return True
        return msg is not None

    def before_pre_order(self) -> None:
        """Called before a tick takes each command for its log, with a
        command queued and room in the pre-order window; a subclass may
        reorder the inbound queue here."""

    def clock(self) -> int:
        """The stamp a tick would put on a log now; a subclass may skew it."""
        return self.net.now

    def on_message(self, msg, sender: int) -> None:
        if isinstance(msg, PreOrderMessage):
            vote = self.mempool.handle_pre_order(msg, sender)
            if vote is not None:
                self.net.send(self.node_id, sender, vote)
        elif isinstance(msg, VoteMessage):
            order = self.mempool.handle_vote(msg, sender, self.clock())
            if order is not None:
                self.net.broadcast(self.node_id, order, include_self=False)
                self.net.wake(self.node_id)
                self._log_stored(order.log.node_id, order.log.seq)
        elif isinstance(msg, OrderMessage):
            if self.mempool.handle_order(msg.log):
                self._log_stored(msg.log.node_id, msg.log.seq)
        elif isinstance(msg, FetchLogMessage):
            log = self.mempool.fetch_log(msg.author, msg.seq)
            if log is not None:
                self.net.send(self.node_id, sender, OrderMessage(log))
        else:  # pragma: no cover - defensive
            raise TypeError(f"unhandled message {type(msg).__name__}")

    def on_batch(self, index: int, batch: OrderBatch) -> None:
        self._resume(self.consenter.on_delivered(index, batch))

    def flush(self) -> None:
        """End of run: the strategy commits what it still holds."""
        self.executor.flush()
        self._stamp_commits()

    # -- internals ------------------------------------------------------------

    def _log_stored(self, author: int, seq: int) -> None:
        if self.is_leader:
            # The leader's own batches hold only logs it stores, so only the
            # handlers that call this can advance its latest-log vector.
            self.net.wake(self.node_id)
        self._resume(self.consenter.on_log_stored(author, seq))

    def _resume(self, missing: list[tuple[int, int]]) -> None:
        """Fetch the logs the consenter still lacks, then feed the queued log
        sets to the strategy and drain it."""
        for author, seq in missing:
            self.net.broadcast(self.node_id, FetchLogMessage(author, seq), include_self=False)
        log_sets = self.consenter.log_sets
        if log_sets:
            executor = self.executor
            while log_sets:
                executor.feed(log_sets.popleft())
            self._drain()

    def _drain(self) -> None:
        self.executor.drain()
        self._stamp_commits()

    def _stamp_commits(self) -> None:
        times = self.commit_times
        new = len(self.executor.committed_order) - len(times)
        if new:
            times.extend([self.net.now] * new)

    def idle(self) -> bool:
        mp = self.mempool
        if mp.inbound or mp.outstanding:
            return False
        if self.consenter.pending_batches:
            return False
        if not self.executor.idle:
            return False
        return not (self.is_leader and self.consenter.has_batch())
