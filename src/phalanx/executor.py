"""Executor: turns the common log-set stream into the total command order.

Each node replays the same stream, so the whole module is a deterministic
function of its input. Per command it tracks which nodes logged it and at
what timestamps; per author it keeps a FIFO queue of that author's logs.

Commit proceeds by anchor sets:

* normal path: if at least f+1 queue fronts point at the same command,
  every such command anchors the next set;
* alter path: otherwise the uncommitted command with the lowest trusted
  timestamp anchors, together with every command that is not reliably
  ordered after it;
* a final support check drops members below f+1 logs and defers the whole
  set while any member sits between f+1 and 2f+1 logs.

Members of an accepted set are committed in ascending trusted-timestamp
order (ties broken by digest), which keeps every replica's output equal.

Selection is a pure function of the ingested logs and the committed set,
and only :meth:`Executor.ingest_log_set` and :meth:`Executor.commit_anchor_set`
change either. :meth:`Executor.drain` therefore keeps a *settled* flag: it
is set when a selection comes back empty and cleared by those two methods,
and while it is set ``drain`` skips selection, which would return the same
empty set. For the same reason each :class:`CommandInfo` caches its sorted
timestamps until its next log arrives, ``reliable_precedes`` remembers each
answer until either command gains a log, and the alter path ranks an index
of uncommitted commands instead of every command ever seen.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from .consensus import LogSet
from .types import Command, Digest, PartialOrderLog, ProtocolInvariantError

NORMAL_PATH = "normal"
ALTER_PATH = "alter"


class CommandUnavailable(Exception):
    """Commit needs command bodies that are not in the local store."""

    def __init__(self, digests: list[Digest]):
        super().__init__(f"missing {len(digests)} command bodies")
        self.digests = digests


@dataclass(slots=True)
class CommandInfo:
    """Aggregated per-command view: one log slot per node plus their timestamps."""

    digest: Digest
    logs: dict[int, PartialOrderLog] = field(default_factory=dict)
    _sorted: Optional[list[int]] = field(default=None, repr=False, compare=False)

    @property
    def support(self) -> int:
        return len(self.logs)

    def timestamps(self) -> list[int]:
        """Reported timestamps in ascending order (cached; do not mutate)."""
        if self._sorted is None:
            self._sorted = sorted(log.timestamp for log in self.logs.values())
        return self._sorted

    def trusted_timestamp(self, f: int) -> Optional[int]:
        """The (f+1)-th smallest reported timestamp, defined at 2f+1 support."""
        if len(self.logs) < 2 * f + 1:
            return None
        return self.timestamps()[f]

    def add_log(self, log: PartialOrderLog) -> None:
        self.logs[log.node_id] = log
        self._sorted = None

    def drop_cache(self) -> None:
        """Free the sorted timestamps once committed; rebuilt if asked again."""
        self._sorted = None


def record_log(infos: dict[Digest, CommandInfo], log: PartialOrderLog) -> CommandInfo:
    """File ``log`` under its command's entry, creating it on first sight.

    Delivery upstream is exactly-once, so one author never logs a command
    at two sequence numbers.
    """
    info = infos.get(log.command_digest)
    if info is None:
        info = infos[log.command_digest] = CommandInfo(log.command_digest)
    else:
        prior = info.logs.get(log.node_id)
        if prior is not None and prior.seq != log.seq:
            raise ProtocolInvariantError(
                f"author {log.node_id} logged {log.command_digest.hex()[:8]} "
                f"at seq {prior.seq} and {log.seq}"
            )
    info.add_log(log)
    return info


@dataclass(frozen=True, slots=True)
class TraceEntry:
    """One committed command in the final order."""

    index: int
    proposer_id: int
    proposer_seq: int
    digest: Digest
    trusted_timestamp: int
    path_tag: str  # "normal"/"alter" for the anchor commands, "-" otherwise

    def line(self) -> str:
        return (
            f"{self.index}\t{self.proposer_id}\t{self.proposer_seq}\t"
            f"{self.digest.hex()}\t{self.trusted_timestamp}\t{self.path_tag}"
        )


@dataclass(frozen=True, slots=True)
class AnchorEvent:
    path: str
    anchors: tuple[Digest, ...]
    committed: tuple[Digest, ...]


class Executor:
    """Anchor-based total ordering over the consensus log-set stream."""

    uses_consensus = True

    def __init__(self, n: int, f: int, resolve_command: Callable[[Digest], Optional[Command]]):
        self.n = n
        self.f = f
        self.quorum = 2 * f + 1
        self._resolve = resolve_command
        self.committed_digests: set[Digest] = set()
        self.command_infos: dict[Digest, CommandInfo] = {}
        self.author_queues: list[deque[PartialOrderLog]] = [deque() for _ in range(n)]
        self.committed_order: list[TraceEntry] = []
        self.anchor_events: list[AnchorEvent] = []
        self.pending_sets: deque[LogSet] = deque()
        self.blocked_on: set[Digest] = set()
        # Commands not committed yet, and the subset whose trusted timestamp
        # is defined (support >= 2f+1).
        self._uncommitted: dict[Digest, CommandInfo] = {}
        self._eligible: dict[Digest, CommandInfo] = {}
        # reliable_precedes memo: first -> second -> ((both supports), answer).
        # Logs are only added, at a fixed seq per author, so equal supports
        # mean equal inputs. A row is dropped once its first command commits.
        self._precedes: dict[Digest, dict[Digest, tuple[tuple[int, int], bool]]] = {}
        # True while the last selection came back empty and no log was
        # ingested or set committed since.
        self._settled = False

    # ------------------------------------------------------------------
    # ingestion

    def ingest_log_set(self, log_set: LogSet) -> None:
        self._settled = False
        for log in log_set:
            info = record_log(self.command_infos, log)
            self.author_queues[log.node_id].append(log)
            digest = log.command_digest
            if digest not in self.committed_digests:
                self._uncommitted[digest] = info
                if info.support >= self.quorum:
                    self._eligible[digest] = info

    # ------------------------------------------------------------------
    # selection machinery

    def trusted_timestamp(self, info: CommandInfo) -> Optional[int]:
        """The (f+1)-th smallest reported timestamp, defined at 2f+1 support."""
        return info.trusted_timestamp(self.f)

    def front_vector(self) -> list[Optional[PartialOrderLog]]:
        """Pop committed fronts off every author queue and report the rest."""
        fronts: list[Optional[PartialOrderLog]] = [None] * self.n
        for j, queue in enumerate(self.author_queues):
            while queue and queue[0].command_digest in self.committed_digests:
                queue.popleft()
            if queue:
                fronts[j] = queue[0]
        return fronts

    def reliable_precedes(self, first: Digest, second: Digest) -> bool:
        """True iff at least f+1 nodes logged both commands with `first` earlier.

        The answer changes only when either command gains a log, so it is
        memoised per pair against both support counts.
        """
        a = self.command_infos.get(first)
        b = self.command_infos.get(second)
        if a is None or b is None:
            return False
        stamp = (len(a.logs), len(b.logs))
        row = self._precedes.get(first)
        if row is None:
            row = self._precedes[first] = {}
        else:
            hit = row.get(second)
            if hit is not None and hit[0] == stamp:
                return hit[1]
        believers = 0
        logs_b = b.logs
        for node_id, log_a in a.logs.items():
            log_b = logs_b.get(node_id)
            if log_b is not None and log_a.seq < log_b.seq:
                believers += 1
                if believers > self.f:
                    break
        result = believers > self.f
        row[second] = (stamp, result)
        return result

    def select_anchor_set(self) -> list[CommandInfo]:
        members, _path, _anchors = self._select()
        return members

    def _select(self) -> tuple[list[CommandInfo], str, tuple[Digest, ...]]:
        fronts = self.front_vector()
        counts: dict[Digest, int] = {}
        for front in fronts:
            if front is not None:
                counts[front.command_digest] = counts.get(front.command_digest, 0) + 1
        agreed = sorted(d for d, c in counts.items() if c >= self.f + 1)
        if agreed:
            candidates = [self.command_infos[d] for d in agreed]
            return self._front_set_check(candidates), NORMAL_PATH, tuple(agreed)
        members = self._alter_path()
        anchors = (members[0].digest,) if members else ()
        return self._front_set_check(members), ALTER_PATH, anchors

    def _alter_path(self) -> list[CommandInfo]:
        eligible = self._eligible
        anchor: Optional[CommandInfo] = None
        anchor_ts = 0
        for digest, info in eligible.items():
            ts = self.trusted_timestamp(info)
            if anchor is None or (ts, digest) < (anchor_ts, anchor.digest):
                anchor, anchor_ts = info, ts
        if anchor is None:
            return []
        first = anchor.digest
        members = [anchor]
        # Commands not reliably ordered after the anchor join its set. Fully
        # supported candidates are absorbed first, in digest order; the first
        # under-supported addition ends the expansion (the support check
        # below then defers).
        for digest in sorted(d for d in eligible if d != first):
            if not self.reliable_precedes(first, digest):
                members.append(eligible[digest])
        uncommitted = self._uncommitted
        for digest in sorted(d for d in uncommitted if d not in eligible):
            if not self.reliable_precedes(first, digest):
                members.append(uncommitted[digest])
                break
        return members

    def _front_set_check(self, members: list[CommandInfo]) -> list[CommandInfo]:
        kept = [info for info in members if info.support >= self.f + 1]
        for info in kept:
            if info.support < self.quorum:
                return []
        return kept

    # ------------------------------------------------------------------
    # commitment

    def commit_anchor_set(self, members: list[CommandInfo], path: str,
                          anchors: tuple[Digest, ...]) -> list[Command]:
        ordered = sorted(
            members, key=lambda info: (self.trusted_timestamp(info), info.digest)
        )
        resolved: list[Command] = []
        missing: list[Digest] = []
        for info in ordered:
            cmd = self._resolve(info.digest)
            if cmd is None:
                missing.append(info.digest)
            else:
                resolved.append(cmd)
        if missing:
            raise CommandUnavailable(missing)
        self._settled = False
        committed: list[Digest] = []
        for info, cmd in zip(ordered, resolved):
            if info.digest in self.committed_digests:
                raise ProtocolInvariantError(
                    f"command {info.digest.hex()[:8]} committed twice"
                )
            tag = path if info.digest in anchors else "-"
            self.committed_order.append(
                TraceEntry(
                    index=len(self.committed_order),
                    proposer_id=cmd.proposer_id,
                    proposer_seq=cmd.seq,
                    digest=info.digest,
                    trusted_timestamp=self.trusted_timestamp(info),
                    path_tag=tag,
                )
            )
            info.drop_cache()
            self.committed_digests.add(info.digest)
            self._uncommitted.pop(info.digest, None)
            self._eligible.pop(info.digest, None)
            self._precedes.pop(info.digest, None)
            committed.append(info.digest)
        self.anchor_events.append(AnchorEvent(path, anchors, tuple(committed)))
        return resolved

    # ------------------------------------------------------------------
    # pipeline driver

    def feed(self, log_set: LogSet) -> None:
        self.pending_sets.append(log_set)

    def drain(self) -> None:
        """Ingest pending log sets and commit anchor sets until quiescent.

        Leaves ``blocked_on`` non-empty when command bodies must be fetched;
        call :meth:`unblock` once they are stored locally. Selection is
        skipped while the state is settled (see the module docstring).
        """
        while not self.blocked_on:
            if not self._settled:
                members, path, anchors = self._select()
                if members:
                    try:
                        self.commit_anchor_set(members, path, anchors)
                    except CommandUnavailable as exc:
                        self.blocked_on = set(exc.digests)
                        return
                    continue
                self._settled = True
            if not self.pending_sets:
                return
            self.ingest_log_set(self.pending_sets.popleft())

    def unblock(self, digest: Digest) -> bool:
        """Clear one awaited command body; returns True when fully unblocked."""
        self.blocked_on.discard(digest)
        return not self.blocked_on

    def flush(self) -> None:
        """Nothing is held back for the end of a run: sets commit as they form."""

    # ------------------------------------------------------------------
    # inspection

    @property
    def idle(self) -> bool:
        return not self.pending_sets and not self.blocked_on

    def alter_path_ratio(self) -> float:
        if not self.anchor_events:
            return 0.0
        alters = sum(1 for ev in self.anchor_events if ev.path == ALTER_PATH)
        return alters / len(self.anchor_events)
