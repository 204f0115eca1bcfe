"""Executor: turns the common log-set stream into the total command order.

Each node replays the same stream, so the whole module is a deterministic
function of its input. A log carries the commands one tick of its author
pre-ordered, and the executor reads it as one entry per command, the k-th
(k from 0) stamped ``timestamp + k``. Per command it tracks which nodes
logged it and at what stamps; per author it keeps a FIFO queue of the
digests of that author's logged commands.

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
from .types import Command, Digest, ProtocolInvariantError

NORMAL_PATH = "normal"
ALTER_PATH = "alter"


class CommandUnavailable(Exception):
    """Commit needs command bodies that are not in the local store."""

    def __init__(self, digests: list[Digest]):
        super().__init__(f"missing {len(digests)} command bodies")
        self.digests = digests


@dataclass(slots=True)
class CommandInfo:
    """Aggregated per-command view: the stamp each author's log gave it, by
    author, the k-th command (k from 0) of a log stamped ``timestamp + k``,
    and its reliable-order index entry (see the module docstring).

    ``bit`` is the command's bit and ``levels[k]`` the open commands that at
    least k+1 authors logged before it; both are cleared when it commits.
    """

    digest: Digest
    stamps: dict[int, int] = field(default_factory=dict)
    _sorted: Optional[list[int]] = field(default=None, repr=False, compare=False)
    bit: int = field(default=0, repr=False, compare=False)
    levels: Optional[list[int]] = field(default=None, repr=False, compare=False)

    @property
    def support(self) -> int:
        return len(self.stamps)

    def timestamps(self) -> list[int]:
        """Reported timestamps in ascending order (cached; do not mutate)."""
        if self._sorted is None:
            self._sorted = sorted(self.stamps.values())
        return self._sorted

    def trusted_timestamp(self, f: int) -> Optional[int]:
        """The (f+1)-th smallest reported timestamp, defined at 2f+1 support."""
        if len(self.stamps) < 2 * f + 1:
            return None
        return self.timestamps()[f]

    def add_stamp(self, author: int, stamp: int) -> None:
        self.stamps[author] = stamp
        self._sorted = None

    def drop_cache(self) -> None:
        """Free the sorted timestamps once committed; rebuilt if asked again."""
        self._sorted = None


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
        self.command_infos: dict[Digest, CommandInfo] = {}
        # Per author, the digests of its logged open commands, in log order.
        self.author_queues: list[deque[Digest]] = [deque() for _ in range(n)]
        self.committed_order: list[TraceEntry] = []
        # Anchor sets committed, and how many of them took the alter path.
        self.anchor_sets = 0
        self.alter_sets = 0
        self.pending_sets: deque[LogSet] = deque()
        self.blocked_on: set[Digest] = set()
        # Open commands whose trusted timestamp is defined (support >= 2f+1).
        self._eligible: dict[Digest, CommandInfo] = {}
        # Reliable-order index (module docstring): bit position -> open
        # command (every logged command not committed yet, in logging
        # order), the mask of open bits, and each author's logged mask.
        self._by_index: dict[int, CommandInfo] = {}
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
        self._pick: Optional[CommandInfo] = None

    # ------------------------------------------------------------------
    # ingestion

    def ingest_log_set(self, log_set: LogSet) -> None:
        wake = not self._settled
        top = self.f
        committed = self.committed_digests
        infos = self.command_infos
        author_bits = self._author_bits
        for log in log_set:
            author = log.node_id
            queue = self.author_queues[author]
            for stamp, digest in log.stamped():
                # A faulty author can get a command certified twice, in one
                # log or at two seqs (an honest one logs it once:
                # ``Mempool.enqueue_command`` drops a repeated digest). Every
                # node keeps the first stamp and skips the repeats, as the
                # timestamp baseline (``tsorder.py``) does.
                info = infos.get(digest)
                if info is None:
                    info = infos[digest] = CommandInfo(digest)
                elif author in info.stamps:
                    continue
                info.add_stamp(author, stamp)
                if digest in committed:
                    continue  # a queue entry that would only be popped
                new_front = not queue
                queue.append(digest)
                levels = info.levels
                new = levels is None
                if new:
                    bit = info.bit = 1 << self._next_index
                    self._by_index[self._next_index] = info
                    self._next_index += 1
                    self._open_bits |= bit
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

    def _wakes(self, info: CommandInfo, new: bool, new_front: bool) -> bool:
        """Whether a command just logged, open ``info``, can change the last empty selection."""
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

    def trusted_timestamp(self, info: CommandInfo) -> Optional[int]:
        """The (f+1)-th smallest reported timestamp, defined at 2f+1 support."""
        return info.trusted_timestamp(self.f)

    def front_vector(self) -> list[Optional[Digest]]:
        """Pop committed fronts off every author queue and report the rest."""
        fronts: list[Optional[Digest]] = [None] * self.n
        for j, queue in enumerate(self.author_queues):
            while queue and queue[0] in self.committed_digests:
                queue.popleft()
            if queue:
                fronts[j] = queue[0]
        return fronts

    def reliable_precedes(self, first: Digest, second: Digest) -> bool:
        """True iff at least f+1 nodes logged both open commands with `first` earlier.

        Read from the index, which holds open commands only: a command that
        has committed (its bit is cleared), or was never logged, precedes and
        follows nothing.
        """
        a = self.command_infos.get(first)
        b = self.command_infos.get(second)
        if a is None or b is None or not b.bit:
            return False
        return bool(b.levels[self.f] & a.bit)

    def _select(self) -> tuple[list[CommandInfo], str, tuple[Digest, ...]]:
        fronts = self.front_vector()
        counts: dict[Digest, int] = {}
        for front in fronts:
            if front is not None:
                counts[front] = counts.get(front, 0) + 1
        self._front_counts = counts
        agreed = sorted(d for d, c in counts.items() if c >= self.f + 1)
        if agreed:
            candidates = [self.command_infos[d] for d in agreed]
            self._watch_alter = False
            return self._front_set_check(candidates), NORMAL_PATH, tuple(agreed)
        members = self._alter_path()
        anchors = (members[0].digest,) if members else ()
        return self._front_set_check(members), ALTER_PATH, anchors

    def _alter_path(self) -> list[CommandInfo]:
        self._watch_alter = True
        self._direct_bits = 0
        self._pick = None
        anchor: Optional[CommandInfo] = None
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
        pick: Optional[CommandInfo] = None
        for info in self._by_index.values():
            if (info.support < self.quorum and not info.levels[top] & after
                    and (pick is None or info.digest < pick.digest)):
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

    def _front_set_check(self, members: list[CommandInfo]) -> list[CommandInfo]:
        kept = [info for info in members if info.support >= self.f + 1]
        deferring = 0
        for info in kept:
            if info.support < self.quorum:
                deferring |= info.bit
        self._deferring = deferring
        return [] if deferring else kept

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

    def _release(self, info: CommandInfo) -> None:
        """Drop a committed command's index entry and clear its bit."""
        self._eligible.pop(info.digest, None)
        bit = info.bit
        del self._by_index[bit.bit_length() - 1]
        # Every author that logged it did so while it was open, so holds its bit.
        self._open_bits ^= bit
        for author in info.stamps:
            self._author_bits[author] ^= bit
        info.bit = 0
        info.levels = None

    # ------------------------------------------------------------------
    # pipeline driver

    def feed(self, log_set: LogSet) -> None:
        self.pending_sets.append(log_set)

    def drain(self) -> None:
        """Ingest pending log sets and commit anchor sets until quiescent.

        A set whose command bodies are not all stored is not committed: its
        missing digests go to ``blocked_on``, and until every one of them
        resolves, ``drain`` returns at once. Bodies arrive from their
        proposers; the first ``drain`` after the last of them lands selects
        again and commits the set. Selection is skipped while the state is
        settled (see the module docstring).
        """
        blocked = self.blocked_on
        if blocked:
            if any(self._resolve(digest) is None for digest in blocked):
                return
            blocked.clear()
        while True:
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
