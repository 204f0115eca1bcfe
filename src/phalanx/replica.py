"""One node's ordering pipeline: mempool, consenter, ordering strategy.

The simulator's nodes and the golden micro-scenarios both run it. The
consenter expands each delivered order-batch into a log set, and
:meth:`Replica.pump` feeds the queued sets to the strategy and drains it.

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
from .consensus import Consenter
from .executor import Executor
from .mempool import Mempool
from .scenario import FOLLOW, TIMESTAMP
from .tsorder import FollowExecutor, TimestampExecutor


class Replica:
    """Mempool, consenter and ordering strategy of one node."""

    def __init__(self, node_id: int, auth: Authenticator, strategy: str,
                 designated: int = 0, record_batches: bool = False):
        self.node_id = node_id
        self.mempool = Mempool(node_id, auth)
        self.consenter = Consenter(node_id, auth, self.mempool, record_batches)
        self.executor: Executor | TimestampExecutor | FollowExecutor
        if strategy == FOLLOW:
            self.executor = FollowExecutor(designated, self.mempool)
        elif strategy == TIMESTAMP:
            self.executor = TimestampExecutor(auth.n, auth.f, self.mempool.fetch_command)
        else:
            self.executor = Executor(auth.n, auth.f, self.mempool.fetch_command)

    def pump(self) -> bool:
        """Feed the queued log sets to the strategy and drain it; False if none."""
        log_sets = self.consenter.log_sets
        if not log_sets:
            return False
        while log_sets:
            self.executor.feed(log_sets.popleft())
        self.executor.drain()
        return True
