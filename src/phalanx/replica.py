"""One node's protocol state machine: mempool, consenter, ordering strategy.

The simulator's nodes and the golden micro-scenarios both run it. A
replica pre-orders, votes and orders through its mempool, expands each
delivered order-batch into log sets through its consenter, feeds those to
the strategy and drains it, and fetches from peers the logs and command
bodies it lacks, answering the same fetches from peers.

It reaches its peers only through a port, ``net``, looked up at each call
so that a test may replace a method on the port object:

* ``net.send(src, dst, msg)`` and ``net.broadcast(src, msg, include_self)``
  carry protocol messages, which arrive at ``on_message`` of each peer;
* ``net.wake(node_id)`` asks for a tick at the node's next tick time, for
  when state changed so that a sleeping node's tick can act;
* ``net.sequencer.submit(batch)`` hands an order-batch to the total-order
  broadcast, which delivers it to every node's ``on_batch``.

The caller drives :meth:`Replica.tick` with the stamp to put on new logs.
A tick pre-orders queued commands until the pre-order window is full, the
queue is empty or it has used ``tick_ms`` stamps, stamping the k-th
(k from 0) ``stamp + k``. A caller whose successive ticks' stamps lie at
least ``tick_ms`` apart thus gets strictly increasing stamps along the
node's chain. A tick that pre-orders nothing re-broadcasts an own log once
it has waited ``resend_ms`` for votes. Node 0 leads when the strategy uses
consensus. No Byzantine behaviour is read here: the simulator's node wraps
this class with the behaviour, through the hook
:meth:`Replica.before_pre_order`.

The strategy is picked once, by name: ``anchor`` (:class:`Executor`),
``timestamp`` (:class:`TimestampExecutor`, the Pompē-style baseline) or
``follow`` (:class:`FollowExecutor`, the unprotected control). All three
offer ``feed``, ``drain``, ``flush`` (end of run), ``blocked_on``,
``unblock``, ``idle``, ``committed_order``, ``alter_path_ratio`` and the
class constant ``uses_consensus`` (False: no order-batches, no leader),
so no caller branches on the strategy.
"""

from __future__ import annotations

from .authenticators import Authenticator
from .consensus import Consenter, OrderBatch
from .executor import Executor
from .mempool import Mempool
from .scenario import FOLLOW, TIMESTAMP
from .tsorder import FollowExecutor, TimestampExecutor
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


class Replica:
    """Mempool, consenter and ordering strategy of one node, and the
    handlers that drive them from ticks, commands, messages and batches."""

    def __init__(self, node_id: int, auth: Authenticator, strategy: str,
                 designated: int = 0, record_batches: bool = False,
                 net=None, resend_ms: int = 0, tick_ms: int = 1):
        self.node_id = node_id
        self.mempool = Mempool(node_id, auth)
        self.consenter = Consenter(node_id, self.mempool, record_batches)
        self.executor: Executor | TimestampExecutor | FollowExecutor
        if strategy == FOLLOW:
            self.executor = FollowExecutor(designated, self.mempool)
        elif strategy == TIMESTAMP:
            self.executor = TimestampExecutor(auth.n, auth.f, self.mempool.fetch_command)
        else:
            self.executor = Executor(auth.n, auth.f, self.mempool.fetch_command)
        self.net = net
        self.resend_ms = resend_ms
        self.tick_ms = tick_ms
        self.is_leader = node_id == 0 and self.executor.uses_consensus
        self._log_promises: dict[tuple[int, int], list[int]] = {}
        self._cmd_promises: dict[bytes, list[int]] = {}
        self._requested_cmds: set[bytes] = set()

    # -- handlers -----------------------------------------------------------

    def on_command(self, cmd: Command) -> None:
        mempool = self.mempool
        # With an earlier command still queued, the node woke for that one.
        if (mempool.enqueue_command(cmd) and len(mempool.inbound) == 1
                and mempool.has_room()):
            self.net.wake(self.node_id)
        self._answer_cmd_promises(cmd)
        self._maybe_unblock_executor(cmd.digest)

    def tick(self, stamp: int) -> bool:
        """Pre-order, re-broadcast or snapshot a batch; False if it did none."""
        mempool = self.mempool
        k = 0
        while k < self.tick_ms:
            self.before_pre_order()
            msg = mempool.try_pre_order(stamp + k)
            if msg is None:
                break
            self.net.broadcast(self.node_id, msg, include_self=True)
            k += 1
        if not k:
            msg = mempool.resend_pre_order(stamp, self.resend_ms)
            if msg is not None:
                self.net.broadcast(self.node_id, msg, include_self=True)
                k = 1
        if self.is_leader:
            batch = self.consenter.make_order_batch()
            if batch is not None:
                self.net.sequencer.submit(batch)
                return True
        return k > 0

    def before_pre_order(self) -> None:
        """Called before each pre-order attempt of a tick; a subclass may
        reorder the inbound queue here."""

    def on_message(self, msg, sender: int) -> None:
        if isinstance(msg, PreOrderMessage):
            vote = self.mempool.handle_pre_order(msg, sender)
            if vote is not None:
                self.net.send(self.node_id, sender, vote)
        elif isinstance(msg, VoteMessage):
            order = self.mempool.handle_vote(msg, sender)
            if order is not None:
                self.net.broadcast(self.node_id, order, include_self=False)
                if self.mempool.inbound:
                    self.net.wake(self.node_id)
                self._log_stored(order.log.node_id, order.log.seq)
        elif isinstance(msg, (OrderMessage, FetchLogResponse)):
            if self.mempool.handle_order(msg.log):
                self._log_stored(msg.log.node_id, msg.log.seq)
        elif isinstance(msg, FetchLogMessage):
            log = self.mempool.fetch_log(msg.author, msg.seq)
            if log is not None:
                self.net.send(self.node_id, sender, FetchLogResponse(log))
            else:
                self._log_promises.setdefault((msg.author, msg.seq), []).append(sender)
        elif isinstance(msg, FetchCommandMessage):
            cmd = self.mempool.fetch_command(msg.digest)
            if cmd is not None:
                self.net.send(self.node_id, sender, FetchCommandResponse(cmd))
            else:
                self._cmd_promises.setdefault(msg.digest, []).append(sender)
        elif isinstance(msg, FetchCommandResponse):
            if self.mempool.store_command(msg.command):
                self._answer_cmd_promises(msg.command)
                self._maybe_unblock_executor(msg.command.digest)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unhandled message {type(msg).__name__}")

    def on_batch(self, index: int, batch: OrderBatch) -> None:
        self._resume(self.consenter.on_delivered(index, batch))

    # -- internals ------------------------------------------------------------

    def _log_stored(self, author: int, seq: int) -> None:
        if self.is_leader:
            # The leader's own batches hold only logs it stores, so only the
            # handlers that call this can advance its latest-log vector.
            self.net.wake(self.node_id)
        waiting = self._log_promises.pop((author, seq), None)
        if waiting:
            log = self.mempool.fetch_log(author, seq)
            for requester in waiting:
                self.net.send(self.node_id, requester, FetchLogResponse(log))
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
            executor.drain()
            self._fetch_blocked()

    def _fetch_blocked(self) -> None:
        """Ask peers once for each command body the strategy waits on."""
        blocked = self.executor.blocked_on
        if blocked:
            for digest in sorted(blocked):
                if digest not in self._requested_cmds:
                    self._requested_cmds.add(digest)
                    self.net.broadcast(
                        self.node_id, FetchCommandMessage(digest), include_self=False
                    )

    def _maybe_unblock_executor(self, digest: bytes) -> None:
        executor = self.executor
        if digest in executor.blocked_on and executor.unblock(digest):
            executor.drain()
            self._fetch_blocked()

    def _answer_cmd_promises(self, cmd: Command) -> None:
        waiting = self._cmd_promises.pop(cmd.digest, None)
        if waiting:
            for requester in waiting:
                self.net.send(self.node_id, requester, FetchCommandResponse(cmd))

    def idle(self) -> bool:
        mp = self.mempool
        if mp.inbound or mp.outstanding:
            return False
        if self.consenter.pending_batches:
            return False
        if not self.executor.idle:
            return False
        if self.is_leader and self.consenter.make_order_batch() is not None:
            return False
        return True
