"""The two comparison strategies over the same certified-log stream.

:class:`TimestampExecutor` is the timestamp baseline, after Pompē (Zhang
et al., OSDI 2020). It orders commands by a stamp fixed once per command,
ties broken by digest, and commits online, below a watermark that no
future stamp can undercut. Its weakness to timestamp manipulation is the
point of the comparison. The stream is read in log-set order, each log's
k-th command (k from 0) as stamped ``timestamp + k``:

* **Watermark.** ``L_j`` is the latest stamp author j has logged, 0
  before its first. A report below ``L_j`` is read as ``L_j``. An honest
  author stamps strictly increasing values along its chain, so the clamp
  only ever touches a faulty author, and every report j makes from now on
  is at least today's ``L_j``.
* **Fixed stamp.** An author's first report on a command counts; a
  repeat is skipped, on every node alike. When a command's 2f+1-th
  report arrives, its stamp is fixed at the (f+1)-th smallest of those
  2f+1 reports, and later reports never move it. (The (f+1)-th smallest
  of *all* reports would fall whenever a lower one arrived, and a silent
  author can always still send one, so no order by it commits online.)
* **Commit rule.** Let h be the fixed, uncommitted command with the
  smallest (stamp, digest) and s its stamp. Commit h when both hold:

  - at most f authors have ``L_j <= s``;
  - every seen, unfixed command c has at most f authors j with
    ``v_j <= s``, where ``v_j`` is j's report on c, or ``L_j`` if j has
    not reported c. Equivalently c's *bound*, the (f+1)-th smallest
    ``v_j``, is above s.

  Then repeat with the next h.

**Soundness.** Every command fixed after h is committed has a stamp above
s, so the online order is a prefix of the order the end-of-run flush
gives: all fixed commands by (stamp, digest). A command c fixed later takes
the (f+1)-th smallest of its first 2f+1 reports, so its stamp is at most s
only if f+1 of those reports are at most s. A report j has made on c is
``v_j``; a report j makes later is at least today's ``L_j``, which is
``v_j`` for an author that has not reported c. So only an author with
``v_j <= s`` can give c a report at most s. For a command no one has
reported yet, ``v_j`` is ``L_j`` for every j and the first condition
leaves at most f such authors; for a seen one the second condition does.
Fixed, uncommitted commands other than h come after h by its choice. So
each committed command precedes, in (stamp, digest) order, every command
that commits after it.

**Liveness.** A silent author's ``L_j`` stays 0 and its reports never
come: it uses up one of the f allowed authors in each condition, so up to
f silent authors leave the rule committing as the others log on. Nothing
commits past the last stamps the authors logged; the end-of-run
:meth:`TimestampExecutor.flush` commits the fixed commands left, in the
same order.

**Cost.** Each command's bound only rises: ``L_j`` does, and a report is
at least the ``L_j`` it replaces. So the executor keeps a heap of lower
bounds over the unfixed commands, recomputes a bound only when the heap's
smallest is at most s, and runs the check only while a fixed command
waits, once per :meth:`TimestampExecutor.drain`. A command enters the
heap at the (f+1)-th smallest ``L_j`` of its first sight, which its bound
is at least, since each of its ``v_j`` was at least that ``L_j``.

A command whose body has not arrived waits: h goes to ``blocked_on``, and
:meth:`~phalanx.replica.Replica.on_command` drains again when the
proposer's copy lands.

:class:`FollowExecutor` is the unprotected control: every node adopts one
designated node's declared order as the total order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush, heapreplace
from typing import Callable, Optional

from .consensus import LogSet
from .executor import TraceEntry
from .mempool import Mempool
from .types import Command, Digest


@dataclass(slots=True)
class StampedInfo:
    """A command's clamped reports, by author, and its stamp, fixed at its
    2f+1-th report (None before)."""

    stamps: dict[int, int] = field(default_factory=dict)
    fixed: Optional[int] = None


class TimestampExecutor:
    """Fixed-stamp total ordering, committed below the watermark (see the
    module docstring)."""

    uses_consensus = True

    def __init__(self, n: int, f: int, resolve_command: Callable[[Digest], Optional[Command]]):
        self.n = n
        self.f = f
        self.quorum = 2 * f + 1
        self._resolve = resolve_command
        self.command_infos: dict[Digest, StampedInfo] = {}
        self.committed_digests: set[Digest] = set()
        self.committed_order: list[TraceEntry] = []
        self.pending_sets: deque[LogSet] = deque()
        # The body h waits on, if any.
        self.blocked_on: set[Digest] = set()
        # L_j: the latest stamp each author has logged.
        self.latest = [0] * n
        # Fixed, uncommitted commands, a heap of (stamp, digest).
        self._fixed: list[tuple[int, Digest]] = []
        # Seen, unfixed commands, and a heap of (lower bound on the bound,
        # digest) over them; an entry of a command since fixed is stale.
        self._unfixed: dict[Digest, StampedInfo] = {}
        self._bounds: list[tuple[int, Digest]] = []

    def feed(self, log_set: LogSet) -> None:
        self.pending_sets.append(log_set)

    def drain(self) -> None:
        """Ingest pending log sets, then commit while the rule allows."""
        while self.pending_sets:
            self.ingest_log_set(self.pending_sets.popleft())
        blocked = self.blocked_on
        if blocked:
            if any(self._resolve(digest) is None for digest in blocked):
                return
            blocked.clear()
        fixed = self._fixed
        if not fixed:
            return
        f, latest = self.f, self.latest
        bounds, unfixed = self._bounds, self._unfixed
        # The commit rule of the module docstring, h at the top of ``fixed``.
        watermark = sorted(latest)[f]
        while fixed:
            stamp, digest = fixed[0]
            if stamp >= watermark:
                return  # f+1 authors may still log a command at or below it
            while bounds and bounds[0][0] <= stamp:
                info = unfixed.get(bounds[0][1])
                if info is None:
                    heappop(bounds)  # fixed since
                    continue
                v = latest.copy()
                for j, report in info.stamps.items():
                    v[j] = report
                v.sort()
                heapreplace(bounds, (v[f], bounds[0][1]))
                if v[f] <= stamp:
                    return  # this command may still be fixed at or below it
            cmd = self._resolve(digest)
            if cmd is None:
                self.blocked_on = {digest}
                return
            heappop(fixed)
            self._commit(cmd, stamp)

    def ingest_log_set(self, log_set: LogSet) -> None:
        infos, latest, quorum, f = self.command_infos, self.latest, self.quorum, self.f
        unfixed = self._unfixed
        # A new command's bound is at least today's (f+1)-th smallest L_j.
        floor = None
        for log in log_set:
            author = log.node_id
            last = latest[author]
            for stamp, digest in log.stamped():
                if stamp < last:
                    stamp = last  # only a faulty author goes back
                else:
                    last = stamp
                info = infos.get(digest)
                if info is None:
                    if floor is None:
                        floor = sorted(latest)[f]
                    info = infos[digest] = unfixed[digest] = StampedInfo()
                    heappush(self._bounds, (floor, digest))
                elif author in info.stamps:
                    continue  # the author's repeat, skipped as in Executor.ingest_log_set
                reports = info.stamps
                reports[author] = stamp
                if len(reports) == quorum:
                    info.fixed = sorted(reports.values())[f]
                    del unfixed[digest]
                    heappush(self._fixed, (info.fixed, digest))
            latest[author] = last

    def _commit(self, cmd: Command, stamp: int) -> None:
        order = self.committed_order
        order.append(TraceEntry(len(order), cmd.proposer_id, cmd.seq, cmd.digest, stamp, "-"))
        self.committed_digests.add(cmd.digest)

    def trusted_timestamp(self, info: StampedInfo) -> Optional[int]:
        """The command's fixed stamp, None below 2f+1 reports."""
        return info.fixed

    def flush(self) -> None:
        """End of run: ingest what is queued, then commit every fixed command."""
        self.drain()
        self.flush_ready()

    def flush_ready(self) -> list[Command]:
        """Commit every fixed command, by (stamp, digest); one whose body is
        absent stays fixed and uncommitted."""
        fixed, absent = self._fixed, []
        committed: list[Command] = []
        while fixed:
            stamp, digest = heappop(fixed)
            cmd = self._resolve(digest)
            if cmd is None:
                # Proposers send every body to every node; one absent is skipped.
                absent.append((stamp, digest))
                continue
            self._commit(cmd, stamp)
            committed.append(cmd)
        self._fixed = absent  # popped in order, so still a heap
        return committed

    @property
    def idle(self) -> bool:
        return not self.pending_sets and not self.blocked_on

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
