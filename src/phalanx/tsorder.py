"""Timestamp-baseline ordering strategy over the same certified-log stream.

Commands are committed purely by ascending trusted timestamp (the
(f+1)-th smallest of at least 2f+1 reported log timestamps), ties broken
by digest. Buffering is approximated by an epoch flush: the harness calls
:meth:`flush_ready` at quiescence boundaries, when no pending command can
still acquire a smaller trusted timestamp. Consuming the identical stream
on every node keeps the baseline's output consistent; its weakness to
timestamp manipulation is the point of the comparison.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from .consensus import LogSet
from .executor import CommandInfo, TraceEntry, record_log
from .types import Command, Digest


class TimestampExecutor:
    """Trusted-timestamp total ordering (no anchor machinery)."""

    def __init__(self, n: int, f: int, resolve_command: Callable[[Digest], Optional[Command]]):
        self.n = n
        self.f = f
        self._resolve = resolve_command
        self.command_infos: dict[Digest, CommandInfo] = {}
        self.committed_digests: set[Digest] = set()
        self.committed_order: list[TraceEntry] = []
        self.low_watermark: Optional[int] = None
        self.pending_sets: deque[LogSet] = deque()

    def feed(self, log_set: LogSet) -> None:
        self.pending_sets.append(log_set)

    def drain(self) -> None:
        while self.pending_sets:
            self.ingest_log_set(self.pending_sets.popleft())

    def ingest_log_set(self, log_set: LogSet) -> None:
        for log in log_set:
            record_log(self.command_infos, log)

    def trusted_timestamp(self, info: CommandInfo) -> Optional[int]:
        return info.trusted_timestamp(self.f)

    def flush_ready(self, bound: Optional[int] = None) -> list[Command]:
        """Commit every quorum-supported command whose trusted timestamp is
        at most ``bound`` (no bound: epoch flush of everything ready)."""
        ready: list[tuple[int, Digest, CommandInfo]] = []
        for digest, info in self.command_infos.items():
            if digest in self.committed_digests:
                continue
            ts = self.trusted_timestamp(info)
            if ts is None:
                continue
            if bound is not None and ts > bound:
                continue
            ready.append((ts, digest, info))
        ready.sort(key=lambda item: (item[0], item[1]))
        committed: list[Command] = []
        for ts, digest, info in ready:
            cmd = self._resolve(digest)
            if cmd is None:
                # Bodies arrive from proposers or peer fetch before quiescence.
                continue
            self.committed_order.append(
                TraceEntry(
                    index=len(self.committed_order),
                    proposer_id=cmd.proposer_id,
                    proposer_seq=cmd.seq,
                    digest=digest,
                    trusted_timestamp=ts,
                    path_tag="-",
                )
            )
            self.committed_digests.add(digest)
            info.drop_cache()
            self.low_watermark = ts
            committed.append(cmd)
        return committed

    @property
    def idle(self) -> bool:
        return not self.pending_sets

    def alter_path_ratio(self) -> float:
        return 0.0

    def trace_lines(self) -> list[str]:
        return [entry.line() for entry in self.committed_order]
