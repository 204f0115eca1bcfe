"""The two comparison strategies over the same certified-log stream.

:class:`TimestampExecutor` is the timestamp baseline (after Pompē): commit
purely by ascending trusted timestamp (the (f+1)-th smallest of at least
2f+1 reported log timestamps), ties broken by digest, in one epoch flush
at the end of the run, when no pending command can still acquire a
smaller trusted timestamp. Its weakness to timestamp manipulation is the
point of the comparison.

:class:`FollowExecutor` is the unprotected control: every node adopts one
designated node's declared order as the total order.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from .consensus import LogSet
from .executor import CommandInfo, TraceEntry, record_command
from .mempool import Mempool
from .types import Command, Digest


class TimestampExecutor:
    """Trusted-timestamp total ordering (no anchor machinery)."""

    uses_consensus = True
    # A command whose body is absent is skipped, never waited for.
    blocked_on: frozenset[Digest] = frozenset()

    def __init__(self, n: int, f: int, resolve_command: Callable[[Digest], Optional[Command]]):
        self.n = n
        self.f = f
        self._resolve = resolve_command
        self.command_infos: dict[Digest, CommandInfo] = {}
        self.committed_digests: set[Digest] = set()
        self.committed_order: list[TraceEntry] = []
        self.pending_sets: deque[LogSet] = deque()

    def feed(self, log_set: LogSet) -> None:
        self.pending_sets.append(log_set)

    def drain(self) -> None:
        while self.pending_sets:
            self.ingest_log_set(self.pending_sets.popleft())

    def ingest_log_set(self, log_set: LogSet) -> None:
        infos = self.command_infos
        for log in log_set:
            author = log.node_id
            for stamp, digest in log.stamped():
                record_command(infos, author, stamp, digest)

    def trusted_timestamp(self, info: CommandInfo) -> Optional[int]:
        return info.trusted_timestamp(self.f)

    def flush(self) -> None:
        """End of run: ingest what is queued, then commit everything ready."""
        self.drain()
        self.flush_ready()

    def flush_ready(self) -> list[Command]:
        """Commit every quorum-supported command, by trusted timestamp."""
        ready: list[tuple[int, Digest, CommandInfo]] = []
        for digest, info in self.command_infos.items():
            if digest in self.committed_digests:
                continue
            ts = self.trusted_timestamp(info)
            if ts is None:
                continue
            ready.append((ts, digest, info))
        ready.sort(key=lambda item: (item[0], item[1]))
        committed: list[Command] = []
        order = self.committed_order
        for ts, digest, info in ready:
            cmd = self._resolve(digest)
            if cmd is None:
                # Proposers send every body to every node; one absent is skipped.
                continue
            order.append(TraceEntry(len(order), cmd.proposer_id, cmd.seq, digest, ts, "-"))
            self.committed_digests.add(digest)
            info.drop_cache()
            committed.append(cmd)
        return committed

    @property
    def idle(self) -> bool:
        return not self.pending_sets

    def alter_path_ratio(self) -> float:
        return 0.0


class FollowExecutor:
    """Commits the designated node's certified chain, in chain order.

    It needs no log sets: at the end of the run it reads the chain from this
    node's own log store, each log's commands in order, the k-th (k from 0)
    stamped ``timestamp + k``, skipping a command whose body never arrived
    or that the chain logged before.
    """

    uses_consensus = False
    blocked_on: frozenset[Digest] = frozenset()
    idle = True

    def __init__(self, designated: int, mempool: Mempool):
        self.designated = designated
        self.mempool = mempool
        self._next_seq = 1
        self.committed_order: list[TraceEntry] = []
        self._committed: set[Digest] = set()

    def feed(self, log_set: LogSet) -> None:
        pass

    def drain(self) -> None:
        pass

    def flush(self) -> None:
        mempool, order = self.mempool, self.committed_order
        while (log := mempool.fetch_log(self.designated, self._next_seq)) is not None:
            self._next_seq += 1
            for stamp, digest in log.stamped():
                cmd = mempool.fetch_command(digest)
                if cmd is not None and digest not in self._committed:
                    self._committed.add(digest)
                    order.append(TraceEntry(len(order), cmd.proposer_id, cmd.seq,
                                            digest, stamp, "-"))

    def alter_path_ratio(self) -> float:
        return 0.0
