"""Executor: turns the common log-set stream into the total command order.

Each node replays the same stream, so the whole module is a deterministic
function of its input. Per command it tracks which nodes logged it and at
what timestamps; per author it keeps a FIFO queue of that author's logs.

Commit proceeds by anchor sets:

* normal path: if at least f+1 queue fronts point at the same command,
  every such command anchors the next set;
* alter path: otherwise the uncommitted command with the lowest trusted
  timestamp anchors, together with every eligible (2f+1-supported)
  command that is not reliably ordered after it and the lowest-digest
  under-supported command that is not either; the set is then closed
  under reliable order, by adding every uncommitted command that reliably
  precedes a member until nothing changes;
* a final support check drops members below f+1 logs and defers the whole
  set while any member sits between f+1 and 2f+1 logs.

Members of an accepted set are committed in ascending trusted-timestamp
order (ties broken by digest), which keeps every replica's output equal.

**Reliable-order index.** ``a`` reliably precedes ``b`` when at least f+1
authors logged both with ``a`` earlier. The executor answers this for
open (uncommitted) commands from bit masks. Every open command gets a
bit; each author keeps the mask of open commands it has logged so far;
each open command keeps f+1 masks, where ``levels[k]`` holds the open
commands that at least k+1 authors logged before it. Each author's logs
arrive in seq order, so when author j logs c, j's mask is exactly the
open commands j logged before c, and f+1 AND/OR operations move each of
them up one level. ``levels[f]`` is then c's set of reliable
predecessors. A commit clears the command's bit from the author masks and
drops its levels; stale bits of committed commands left in other levels
are masked off with the set of open bits. No successor map is kept.

The alter path's closure ORs the top levels of the set's members until
no new open bit appears. That is not the strongly-connected-component
detection of batch-based protocols such as Themis: it reads the
predecessor masks of one chosen set's members only, and searches no
component of the whole reliable-order graph.

**Re-selection.** Selection is a pure function of the ingested logs and
the committed set, so :meth:`Executor.drain` keeps a *settled* flag: set
when a selection comes back empty, cleared by a commit, and cleared at
ingest only by a log that can turn that empty result into a set:

* a log that brings the last of the members that deferred it (those
  between f+1 and 2f+1 logs) to 2f+1 support;
* on the alter path only:

  - a log that orders a direct member (the anchor's eligible members and
    its under-supported pick) after the anchor, unless the pick is
    another member and still defers the set;
  - a log that becomes a new queue front, after which f+1 fronts agree
    on its command;
  - a new command that could become the under-supported pick;
  - a log for an eligible command whose (trusted timestamp, digest) now
    beats the anchor's, or any eligible command when there is no anchor.

Without a commit, levels, supports, eligibility and queue fronts only
grow and trusted timestamps only fall. So until one of these logs
arrives, the last set can only gain members and keeps a deferring one: a
member leaves only when the anchor, the pick or a direct member's place
changes, and a normal-path set never loses a candidate.
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


@dataclass(slots=True)
class IndexedInfo(CommandInfo):
    """A command with its reliable-order index entry (see the module docstring).

    ``bit`` is the command's bit and ``levels[k]`` the open commands that at
    least k+1 authors logged before it; both are cleared when it commits.
    """

    bit: int = field(default=0, repr=False, compare=False)
    levels: Optional[list[int]] = field(default=None, repr=False, compare=False)


def record_log(infos: dict[Digest, CommandInfo], log: PartialOrderLog,
               kind: type[CommandInfo] = CommandInfo) -> CommandInfo:
    """File ``log`` under its command's entry, creating a ``kind`` on first sight.

    Delivery upstream is exactly-once, so one author never logs a command
    at two sequence numbers.
    """
    info = infos.get(log.command_digest)
    if info is None:
        info = infos[log.command_digest] = kind(log.command_digest)
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


class Executor:
    """Anchor-based total ordering over the consensus log-set stream."""

    uses_consensus = True

    def __init__(self, n: int, f: int, resolve_command: Callable[[Digest], Optional[Command]]):
        self.n = n
        self.f = f
        self.quorum = 2 * f + 1
        self._resolve = resolve_command
        self.committed_digests: set[Digest] = set()
        self.command_infos: dict[Digest, IndexedInfo] = {}
        self.author_queues: list[deque[PartialOrderLog]] = [deque() for _ in range(n)]
        self.committed_order: list[TraceEntry] = []
        # Anchor sets committed, and how many of them took the alter path.
        self.anchor_sets = 0
        self.alter_sets = 0
        self.pending_sets: deque[LogSet] = deque()
        self.blocked_on: set[Digest] = set()
        # Commands not committed yet, and the subset whose trusted timestamp
        # is defined (support >= 2f+1).
        self._open: dict[Digest, IndexedInfo] = {}
        self._eligible: dict[Digest, IndexedInfo] = {}
        # Reliable-order index (module docstring): bit position -> open
        # command, the mask of open bits, and each author's logged mask.
        self._by_index: dict[int, IndexedInfo] = {}
        self._next_index = 0
        self._open_bits = 0
        self._author_bits = [0] * n
        # True while the last selection came back empty and no log that can
        # change it was ingested since. What that selection depended on: the
        # members that deferred it, and on the alter path the queue fronts
        # (counted per command), the direct members, the anchor and the pick.
        self._settled = False
        self._deferring = 0
        self._front_counts: dict[Digest, int] = {}
        self._direct_bits = 0
        self._watch_alter = False
        self._anchor_key: Optional[tuple[int, Digest]] = None
        self._anchor_bit = 0
        self._pick: Optional[IndexedInfo] = None

    # ------------------------------------------------------------------
    # ingestion

    def ingest_log_set(self, log_set: LogSet) -> None:
        wake = not self._settled
        top = self.f
        committed = self.committed_digests
        author_bits = self._author_bits
        for log in log_set:
            info = record_log(self.command_infos, log, IndexedInfo)
            digest = log.command_digest
            if digest in committed:
                continue  # a queue entry for it would only be popped
            author = log.node_id
            queue = self.author_queues[author]
            new_front = not queue
            queue.append(log)
            levels = info.levels
            new = levels is None
            if new:
                bit = info.bit = 1 << self._next_index
                self._by_index[self._next_index] = info
                self._next_index += 1
                self._open_bits |= bit
                self._open[digest] = info
                levels = info.levels = [0] * (top + 1)
            else:
                bit = info.bit
            before = author_bits[author]
            if before:
                carry = before  # this author's predecessors, one level up
                for k in range(top + 1):
                    level = levels[k]
                    levels[k] = level | carry
                    carry = level & before
                    if not carry:
                        break
            author_bits[author] = before | bit
            if info.support >= self.quorum:
                self._eligible[digest] = info
            if not wake:
                wake = self._wakes(info, new, new_front)
        if wake:
            self._settled = False

    def _wakes(self, info: IndexedInfo, new: bool, new_front: bool) -> bool:
        """Whether a log just filed for open ``info`` can change the last empty selection."""
        if info.bit & self._deferring and info.support == self.quorum:
            self._deferring ^= info.bit
            if not self._deferring:
                return True
        if not self._watch_alter:
            return False
        if new_front:
            counts = self._front_counts
            fronts = counts[info.digest] = counts.get(info.digest, 0) + 1
            if fronts > self.f:
                return True
        top = info.levels[self.f]
        pick = self._pick
        if (info.bit & self._direct_bits and top & self._anchor_bit
                and (pick is None or pick is info or not pick.bit & self._deferring)):
            return True
        key = self._anchor_key
        if info.support >= self.quorum:
            return key is None or (self.trusted_timestamp(info), info.digest) < key
        return (new and key is not None and not top & self._anchor_bit
                and (pick is None or info.digest < pick.digest))

    # ------------------------------------------------------------------
    # selection machinery

    def trusted_timestamp(self, info: IndexedInfo) -> Optional[int]:
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
        """True iff at least f+1 nodes logged both open commands with `first` earlier.

        Read from the index, which holds open commands only: a command that
        has committed, or was never logged, precedes and follows nothing.
        """
        a = self._open.get(first)
        b = self._open.get(second)
        if a is None or b is None:
            return False
        return bool(b.levels[self.f] & a.bit)

    def _select(self) -> tuple[list[IndexedInfo], str, tuple[Digest, ...]]:
        fronts = self.front_vector()
        counts: dict[Digest, int] = {}
        for front in fronts:
            if front is not None:
                counts[front.command_digest] = counts.get(front.command_digest, 0) + 1
        self._front_counts = counts
        agreed = sorted(d for d, c in counts.items() if c >= self.f + 1)
        if agreed:
            candidates = [self.command_infos[d] for d in agreed]
            self._watch_alter = False
            return self._front_set_check(candidates), NORMAL_PATH, tuple(agreed)
        members = self._alter_path()
        anchors = (members[0].digest,) if members else ()
        return self._front_set_check(members), ALTER_PATH, anchors

    def _alter_path(self) -> list[IndexedInfo]:
        self._watch_alter = True
        self._direct_bits = 0
        self._pick = None
        anchor: Optional[IndexedInfo] = None
        key: Optional[tuple[int, Digest]] = None
        for digest, info in self._eligible.items():
            candidate = (self.trusted_timestamp(info), digest)
            if key is None or candidate < key:
                anchor, key = info, candidate
        self._anchor_key = key
        if anchor is None:
            return []
        top = self.f
        after = self._anchor_bit = anchor.bit
        members = [anchor]
        member_bits = after
        preds = anchor.levels[top]
        # Eligible commands not reliably ordered after the anchor join it.
        for info in self._eligible.values():
            if info is not anchor and not info.levels[top] & after:
                members.append(info)
                member_bits |= info.bit
                preds |= info.levels[top]
        # So does the lowest-digest under-supported one (the support check
        # below then defers).
        pick: Optional[IndexedInfo] = None
        for digest, info in self._open.items():
            if (info.support < self.quorum and not info.levels[top] & after
                    and (pick is None or digest < pick.digest)):
                pick = info
        self._pick = pick
        if pick is not None:
            members.append(pick)
            member_bits |= pick.bit
            preds |= pick.levels[top]
        self._direct_bits = member_bits
        # Close the set under reliable order.
        open_bits = self._open_bits
        fresh = preds & open_bits & ~member_bits
        while fresh:
            member_bits |= fresh
            while fresh:
                low = fresh & -fresh
                info = self._by_index[low.bit_length() - 1]
                members.append(info)
                preds |= info.levels[top]
                fresh ^= low
            fresh = preds & open_bits & ~member_bits
        return members

    def _front_set_check(self, members: list[IndexedInfo]) -> list[IndexedInfo]:
        kept = [info for info in members if info.support >= self.f + 1]
        deferring = 0
        for info in kept:
            if info.support < self.quorum:
                deferring |= info.bit
        self._deferring = deferring
        return [] if deferring else kept

    # ------------------------------------------------------------------
    # commitment

    def commit_anchor_set(self, members: list[IndexedInfo], path: str,
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
            self._release(info)
        self.anchor_sets += 1
        if path == ALTER_PATH:
            self.alter_sets += 1
        return resolved

    def _release(self, info: IndexedInfo) -> None:
        """Drop a committed command's index entry and clear its bit."""
        del self._open[info.digest]
        self._eligible.pop(info.digest, None)
        bit = info.bit
        del self._by_index[bit.bit_length() - 1]
        # Every author that logged it did so while it was open, so holds its bit.
        self._open_bits ^= bit
        for author in info.logs:
            self._author_bits[author] ^= bit
        info.bit = 0
        info.levels = None

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
        if not self.anchor_sets:
            return 0.0
        return self.alter_sets / self.anchor_sets
