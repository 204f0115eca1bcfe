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

**Queue fronts.** After every commit, each author queue's head is open,
and a tally counts the heads by digest, with the digests at least f+1
heads agree on. Ingest counts a log's command when it lands in an empty
queue. A commit pops only the queues its command heads, then every entry
behind that committed earlier, and counts each new head; the committed
digest leaves the tally. Nothing else moves it, so the normal path reads
its candidates from the tally without scanning the queues.

**Reliable-order index.** ``a`` reliably precedes ``b`` when at least f+1
authors logged both with ``a`` earlier. The executor answers this for
open (uncommitted) commands from bit masks. A filed command has a bit;
each author keeps the mask of filed open commands it has logged so far;
each filed command keeps f+1 masks, where ``levels[k]`` holds the open
commands that at least k+1 authors logged before it. Filing an author's
entry for c ORs that author's mask into c's levels as a saturating count,
f+1 AND/OR operations that move each bit up one level, then adds c's bit
to the mask. ``levels[f]`` is then c's set of reliable predecessors. A
commit clears the command's bit from the author masks and drops its
levels; stale bits of committed commands left in other levels are masked
off with the set of open bits. No successor map is kept.

The index is built once, on its first read: when the alter path has found
an anchor, or when :meth:`Executor.reliable_precedes` is asked. The build
files every open entry of each author's queue, in queue order; from then
on ingest files each entry as it arrives. A normal path reads no index,
so where f+1 fronts keep agreeing the index is never built and no bit is
spent. When it is built cannot change the trace: on open commands it
holds what filing every entry at ingest would. The levels are saturating
per-author counts, one per bit position, so the order authors are filed
in does not matter; each author's entries are filed in its logged order,
so its mask holds exactly the open commands it logged earlier; and a
command that committed before the build would have had its bit cleared
by now. Bit positions never reach the output: a set commits sorted by
(trusted timestamp, digest), and the anchor and the pick are strict
minima over unique keys.

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
  - a log that lands in an empty queue, after which the tally has f+1
    fronts agreeing on its command;
  - a new command that could become the under-supported pick;
  - a log for an eligible command whose (trusted timestamp, digest) now
    beats the anchor's, or any eligible command when there is no anchor.

Without a commit, supports, eligibility and queue fronts only grow,
trusted timestamps only fall, and the reliable-order relation, whether
built yet or not, only gains pairs. So until one of these logs arrives,
the last set can only gain members and keeps a deferring one: a member
leaves only when the anchor, the pick or a direct member's place changes,
and a normal-path set never loses a candidate.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

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
    least k+1 of the authors filed so far logged before it. Both are set when
    the first of its entries is filed, which is never if it commits before
    the index is built. Both are cleared when it commits.
    """

    digest: Digest
    stamps: dict[int, int] = field(default_factory=dict)
    _sorted: Optional[list[int]] = field(default=None, repr=False, compare=False)
    bit: int = field(default=0, repr=False, compare=False)
    levels: Optional[list[int]] = field(default=None, repr=False, compare=False)

    def timestamps(self) -> list[int]:
        """Reported timestamps in ascending order (cached; do not mutate).

        Stamps are only ever added, so a cache as long as ``stamps`` is current.
        """
        cached = self._sorted
        if cached is None or len(cached) != len(self.stamps):
            cached = self._sorted = sorted(self.stamps.values())
        return cached

    def drop_cache(self) -> None:
        """Free the sorted timestamps once committed; rebuilt if asked again."""
        self._sorted = None


class TraceEntry(NamedTuple):
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
        # Reliable-order index (module docstring): whether it is built, bit
        # position -> filed open command, in filing order, the mask of open
        # bits, and each author's filed mask.
        self._indexed = False
        self._by_index: dict[int, CommandInfo] = {}
        self._next_index = 0
        self._open_bits = 0
        self._author_bits = [0] * n
        # The queue-front tally (module docstring): how many queues each open
        # command heads, and the commands at least f+1 of them head.
        self._front_counts: dict[Digest, int] = {}
        self._agreed: set[Digest] = set()
        # True while the last selection came back empty and no log that can
        # change it was ingested since. What that selection depended on: the
        # members that deferred it, and on the alter path the direct
        # members, the anchor and the pick.
        self._settled = False
        self._deferring: set[Digest] = set()
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
        quorum = self.quorum
        committed = self.committed_digests
        infos = self.command_infos
        counts = self._front_counts
        indexed = self._indexed
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
                new = info is None
                if new:
                    info = infos[digest] = CommandInfo(digest)
                elif author in info.stamps:
                    continue
                info.stamps[author] = stamp
                if digest in committed:
                    continue  # a queue entry that would only be popped
                agreed_front = False
                if not queue:  # a new head
                    fronts = counts[digest] = counts.get(digest, 0) + 1
                    agreed_front = fronts > top
                    if agreed_front:
                        self._agreed.add(digest)
                queue.append(digest)
                if indexed:
                    self._file_entry(author, info)
                if len(info.stamps) >= quorum:
                    self._eligible[digest] = info
                if not wake:
                    wake = self._wakes(info, new, agreed_front)
        if wake:
            self._settled = False

    def _wakes(self, info: CommandInfo, new: bool, agreed_front: bool) -> bool:
        """Whether a command just logged, open ``info``, can change the last empty selection."""
        support = len(info.stamps)
        deferring = self._deferring
        if support == self.quorum and info.digest in deferring:
            deferring.discard(info.digest)
            if not deferring:
                return True
        if not self._watch_alter:
            return False
        if agreed_front:
            return True
        key = self._anchor_key
        if key is None:
            return support >= self.quorum
        # Anchored: the index is built, and ingest has filed ``info``.
        pick = self._pick
        if (info.bit & self._direct_bits and info.levels[self.f] & self._anchor_bit
                and (pick is None or pick is info or pick.digest not in deferring)):
            return True
        if support >= self.quorum:
            return (self.trusted_timestamp(info), info.digest) < key
        # A new command has one author, so no reliable predecessor when f >= 1
        # (with f = 0 it is eligible, above).
        return new and (pick is None or info.digest < pick.digest)

    # ------------------------------------------------------------------
    # reliable-order index

    def _file(self) -> None:
        """Build the index, once: file every open entry, each author's in its
        logged order. Ingest files every later entry."""
        if self._indexed:
            return
        self._indexed = True
        committed = self.committed_digests
        infos = self.command_infos
        for author, queue in enumerate(self.author_queues):
            for digest in queue:
                if digest not in committed:
                    self._file_entry(author, infos[digest])

    def _file_entry(self, author: int, info: CommandInfo) -> None:
        """File ``author``'s entry for open ``info``: its filed predecessors
        move up one level, and ``info`` joins the author's mask."""
        levels = info.levels
        if levels is None:
            bit = info.bit = 1 << self._next_index
            self._by_index[self._next_index] = info
            self._next_index += 1
            self._open_bits |= bit
            levels = info.levels = [0] * (self.f + 1)
        else:
            bit = info.bit
        before = self._author_bits[author]
        if before:
            carry = before  # this author's predecessors, one level up
            for k in range(self.f + 1):
                level = levels[k]
                levels[k] = level | carry
                carry = level & before
                if not carry:
                    break
        self._author_bits[author] = before | bit

    # ------------------------------------------------------------------
    # selection machinery

    def trusted_timestamp(self, info: CommandInfo) -> Optional[int]:
        """The (f+1)-th smallest reported timestamp, defined at 2f+1 support."""
        if len(info.stamps) < self.quorum:
            return None
        return info.timestamps()[self.f]

    def front_vector(self) -> list[Optional[Digest]]:
        """Each author queue's head, an open command, or None if it is empty."""
        return [queue[0] if queue else None for queue in self.author_queues]

    def reliable_precedes(self, first: Digest, second: Digest) -> bool:
        """True iff at least f+1 nodes logged both open commands with `first` earlier.

        Read from the index, which holds open commands only: a command that
        has committed (its bit is cleared), or was never logged, precedes and
        follows nothing. Builds the index if it is not built yet.
        """
        self._file()
        a = self.command_infos.get(first)
        b = self.command_infos.get(second)
        if a is None or b is None or not b.bit:
            return False
        return bool(b.levels[self.f] & a.bit)

    def _select(self) -> tuple[list[CommandInfo], str, tuple[Digest, ...]]:
        # The tally already holds the fronts; this call marks one selection
        # for the tests and perfbench, which count selections by it.
        self.front_vector()
        agreed = tuple(self._agreed)
        if agreed:
            self._watch_alter = False
            infos = self.command_infos
            return self._front_set_check([infos[d] for d in agreed]), NORMAL_PATH, agreed
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
        self._file()
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
            if (len(info.stamps) < self.quorum and not info.levels[top] & after
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
        kept = []
        deferring = self._deferring
        deferring.clear()
        for info in members:
            support = len(info.stamps)
            if support > self.f:
                kept.append(info)
                if support < self.quorum:
                    deferring.add(info.digest)
        return [] if deferring else kept

    # ------------------------------------------------------------------
    # commitment

    def commit_anchor_set(self, members: list[CommandInfo], path: str,
                          anchors: tuple[Digest, ...]) -> list[Command]:
        """Commit a set whose members all have 2f+1 support, in ascending
        (trusted timestamp, digest) order.

        Each member's index entry and bit, if it has one, are dropped, and it
        is popped off every queue it heads (module docstring).
        """
        f = self.f
        keyed = []
        missing = []
        for info in members:
            cmd = self._resolve(info.digest)
            if cmd is None:
                missing.append(info.digest)
            keyed.append((sorted(info.stamps.values())[f], info.digest, cmd, info))
        if missing:
            raise CommandUnavailable(missing)
        if len(keyed) > 1:
            keyed.sort()  # digests are unique, so no two keys tie
        self._settled = False
        committed = self.committed_digests
        order = self.committed_order
        counts = self._front_counts
        agreed = self._agreed
        queues = self.author_queues
        author_bits = self._author_bits
        resolved = []
        for stamp, digest, cmd, info in keyed:
            resolved.append(cmd)
            if digest in committed:
                raise ProtocolInvariantError(f"command {digest.hex()[:8]} committed twice")
            order.append(TraceEntry(len(order), cmd.proposer_id, cmd.seq, digest, stamp,
                                    path if digest in anchors else "-"))
            committed.add(digest)
            self._eligible.pop(digest, None)
            counts.pop(digest, None)
            agreed.discard(digest)
            bit = info.bit
            if bit:
                del self._by_index[bit.bit_length() - 1]
                self._open_bits ^= bit
                clear = ~bit
                for author in info.stamps:
                    author_bits[author] &= clear
                info.bit = 0
                info.levels = None
            # Every author that logged it did so while it was open, so
            # queues it once.
            for author in info.stamps:
                queue = queues[author]
                if queue[0] == digest:
                    queue.popleft()
                    while queue and queue[0] in committed:
                        queue.popleft()
                    if queue:
                        head = queue[0]
                        fronts = counts[head] = counts.get(head, 0) + 1
                        if fronts > f:
                            agreed.add(head)
            info.drop_cache()
        self.anchor_sets += 1
        if path == ALTER_PATH:
            self.alter_sets += 1
        return resolved

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
