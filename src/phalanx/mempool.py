"""Per-node mempool: FIFO command intake and the ordering protocol.

The mempool turns received commands into certified, hash-chained
partial-order logs through three steps:

1. pre-order: :meth:`Mempool.try_pre_order` packs the commands a tick
   staged (:meth:`Mempool.stage`) into one log stamped with the caller's
   clock value, chains it on this node's newest own log, certified or
   not, and broadcasts the uncertified log. Its k-th command (k from 0)
   reads as stamped ``timestamp + k``, below the next tick's stamp, so an
   honest author's stamps strictly increase along its chain: equal stamps
   would leave the order of its commands to the digest tie-break of
   trusted timestamps. Up to ``PRE_ORDER_WINDOW`` own commands may be
   staged or await votes at once (PBFT's low/high watermarks), which caps
   throughput at a window of commands per vote round trip. A log starved
   of votes is re-broadcast, the one whose re-broadcast fell due first. A
   log falls due once it has waited the re-broadcast timeout since its
   last send: ``resend_ms`` until a round trip is measured, then
   ``max(resend_ms, SRTT + 4 * RTTVAR)`` (:meth:`Mempool.resend_timeout`).
   A certification samples the own log's vote round trip, from its first
   send to the 2f+1-th share, into SRTT and RTTVAR with RFC 6298's gains
   (1/8 and 1/4), in integer ms, if the log was first sent at or after
   the previous sample. That times one log per round trip, as TCP times
   one segment per round trip: the logs one vote transmission certifies
   together give one sample, not a run of correlated ones that would pull
   RTTVAR down. A fixed timer fires before most votes return once many
   logs are in flight, as link delays clamped behind earlier messages
   push the round trip past ``resend_ms``;
2. vote: a peer votes for an author's log whose seq lies above the
   author's certified head h, that chains on the higher of that head and
   the newest log it voted for, and that keeps the commands of the
   author's voted logs above h, this one counted, within
   ``PRE_ORDER_WINDOW``. It repeats its vote for a re-broadcast and
   refuses to endorse two different logs at the same (author, seq);
3. order: once 2f+1 shares for one outstanding log arrive, the author
   combines them into a certificate and broadcasts the completed log. Logs
   may complete out of seq order, but an author's certified head h, which
   the order-batches carry, only moves over a prefix 1..h stored without a
   gap; a log stored above a gap waits there. A vote that arrives after
   its log certified counts in ``late_votes``, not as a reject; a vote
   over any other digest that no outstanding own log has is refused as
   ``invalid_partial``.

Each node checks each vote share and each log digest once. A share is
verified when its vote arrives and combined into the certificate without
a second check. A log's digest is hashed when it is pre-ordered to this
node, its own logs included; its certified copy reuses that check
(:meth:`Mempool.is_certified`).

A certified log received from a peer, in an order message or in an
order-batch slot, enters the store only through
:meth:`Mempool.handle_order`: a copy equal to the stored log passes
unchecked, any other copy is verified and stored, and a copy that forks
the stored hash chain is refused. The store holds those logs and the own
logs this node certified; it also keeps every command, for later
retrieval by the consensus and executor layers.
"""

from __future__ import annotations

from collections import Counter, deque
from operator import attrgetter
from typing import Optional

from .authenticators import Authenticator
from .types import Command, Digest, EMPTY_DIGEST, PartialOrderLog, PartialSignature
from .wire import OrderMessage, PreOrderMessage, VoteMessage

# Rejection / anomaly reasons, tallied in Mempool.rejects for metrics.
DUPLICATE_COMMAND = "duplicate_command"
REJECT_BAD_DIGEST = "reject_bad_digest"
REJECT_BAD_AUTHOR = "reject_bad_author"
REJECT_GAP = "reject_gap"
REJECT_EQUIVOCATION = "reject_equivocation"
INVALID_PARTIAL = "invalid_partial"
INVALID_CERT = "invalid_cert"
CHAIN_BREAK = "chain_break"
REJECT_REASONS = (DUPLICATE_COMMAND, REJECT_BAD_DIGEST, REJECT_BAD_AUTHOR, REJECT_GAP,
                  REJECT_EQUIVOCATION, INVALID_PARTIAL, INVALID_CERT, CHAIN_BREAK)

# Own commands a node may have staged or awaiting votes at once, and how
# many commands of an author's voted logs above its certified head a voter
# endorses. The simulator's peak memory grows with the messages in flight.
# With each message sent on its own, raising the window from 12 to 24
# raised perfbench's median peak RSS by 4.9% on sweep16_timestamp and 4.3%
# on alter16, near the benchmark's 5% bound. With what one step sends to a
# peer carried as one transmission, window 24 peaks at +0.1% / +0.6% /
# +1.0% (burst4 / sweep16_timestamp / alter16, medians of ten runs) over
# window 12 sent message by message. Counted in commands, so one log per
# tick keeps the flow control of one log per command.
PRE_ORDER_WINDOW = 24


class Outstanding:
    """One own log awaiting votes: the log, its verified vote shares by
    signer, and the stamp it was last broadcast at. The stamp of its first
    send is the log's own timestamp."""

    __slots__ = ("log", "shares", "sent")

    def __init__(self, log: PartialOrderLog, sent: int):
        self.log = log
        self.shares: dict[int, PartialSignature] = {}
        self.sent = sent


_SENT = attrgetter("sent")


class Mempool:
    """Single-threaded ordering state machine for one node."""

    def __init__(self, node_id: int, authenticator: Authenticator, resend_ms: int = 0):
        self.node_id = node_id
        self.auth = authenticator
        self.resend_ms = resend_ms
        self.n = authenticator.n
        self.seq = 0
        # Digest of this node's newest own log, certified or not.
        self.tip = EMPTY_DIGEST
        # Own logs awaiting votes, by digest, in seq order, and the commands
        # they carry.
        self.outstanding: dict[Digest, Outstanding] = {}
        self.in_flight = 0
        # Per author, the newest log of the prefix stored without a gap: the
        # certified head.
        self.latest: list[Optional[PartialOrderLog]] = [None] * self.n
        self.inbound: deque[Command] = deque()
        # Commands the current tick took from ``inbound`` for its log.
        self.staged: list[Command] = []
        # Per author, the pre-order logs this node hashed and voted for, by
        # seq, until the certified head passes that seq: blocks equivocation
        # and spares is_certified a second hash.
        self.voted: list[dict[int, PartialOrderLog]] = [{} for _ in range(self.n)]
        self.command_store: dict[Digest, Command] = {}
        self.log_store: dict[tuple[int, int], PartialOrderLog] = {}
        self.rejects: Counter[str] = Counter()
        # Votes for an own log that had already certified, and the digests
        # of own certified logs that tell them from misfiled votes.
        self.late_votes = 0
        self.certified_own: set[Digest] = set()
        self.chain_break_evidence: list[tuple[PartialOrderLog, PartialOrderLog]] = []
        # Vote round-trip estimator (RFC 6298), in ms: SRTT (None before the
        # first sample), RTTVAR, and SRTT + 4 * RTTVAR (0 before the first
        # sample, so the timeout starts at resend_ms).
        self.srtt: Optional[int] = None
        self.rttvar = 0
        self.rto = 0
        # The clock at the latest sample: only a log first sent at or after
        # it is timed.
        self.sampled_at = 0
        self.rebroadcasts = 0

    # ------------------------------------------------------------------
    # command intake

    def enqueue_command(self, cmd: Command) -> bool:
        """Append to the inbound FIFO; duplicate digests are dropped."""
        if cmd.digest in self.command_store:
            self.rejects[DUPLICATE_COMMAND] += 1
            return False
        self.command_store[cmd.digest] = cmd
        self.inbound.append(cmd)
        return True

    # ------------------------------------------------------------------
    # step 1: pre-order

    def has_room(self) -> bool:
        """True if fewer than ``PRE_ORDER_WINDOW`` own commands are staged
        or await votes."""
        return len(self.staged) + self.in_flight < PRE_ORDER_WINDOW

    def stage(self) -> None:
        """Move the front queued command into the log the tick is building."""
        self.staged.append(self.inbound.popleft())

    def try_pre_order(self, now: int) -> Optional[PreOrderMessage]:
        """Pack the staged commands into one log stamped ``now``; None if
        none is staged."""
        staged = self.staged
        if not staged:
            return None
        digests = tuple(cmd.digest for cmd in staged)
        staged.clear()
        self.seq += 1
        log = PartialOrderLog.create(self.node_id, self.seq, now, digests, self.tip)
        self.tip = log.cur_digest
        self.outstanding[log.cur_digest] = Outstanding(log, now)
        self.in_flight += len(digests)
        return PreOrderMessage(log)

    def first_due(self) -> Optional[Outstanding]:
        """The outstanding log whose re-broadcast falls due first: the one
        last sent earliest, the lowest seq among equals; None if none."""
        return min(self.outstanding.values(), key=_SENT, default=None)

    def resend_timeout(self) -> int:
        """How long an own log waits for votes before it is re-broadcast:
        ``resend_ms`` before the first round-trip sample, then
        ``max(resend_ms, SRTT + 4 * RTTVAR)``."""
        return max(self.resend_ms, self.rto)

    def resend_pre_order(self, now: int) -> Optional[PreOrderMessage]:
        """Re-broadcast the outstanding log that fell due first, if one is due."""
        entry = self.first_due()
        if entry is None or now - entry.sent < self.resend_timeout():
            return None
        entry.sent = now
        self.rebroadcasts += 1
        return PreOrderMessage(entry.log)

    def _sample_round_trip(self, rtt: int) -> None:
        """Fold one vote round trip into SRTT and RTTVAR (RFC 6298 2.2-2.3):
        the first sets SRTT = R and RTTVAR = R / 2; each later one sets
        RTTVAR = 3/4 RTTVAR + 1/4 |SRTT - R|, then SRTT = 7/8 SRTT + 1/8 R,
        rounded down to whole ms."""
        srtt = self.srtt
        if srtt is None:
            srtt, rttvar = rtt, rtt // 2
        else:
            rttvar = (3 * self.rttvar + abs(srtt - rtt)) // 4
            srtt = (7 * srtt + rtt) // 8
        self.srtt, self.rttvar = srtt, rttvar
        self.rto = srtt + 4 * rttvar

    # ------------------------------------------------------------------
    # step 2: vote

    def handle_pre_order(self, msg: PreOrderMessage, sender: int) -> Optional[VoteMessage]:
        log = msg.log
        if log.node_id != sender:
            self.rejects[REJECT_BAD_AUTHOR] += 1
            return None
        if not log.verify_digest():
            self.rejects[REJECT_BAD_DIGEST] += 1
            return None
        head = self.latest[sender]
        head_seq = 0 if head is None else head.seq
        seq = log.seq
        if seq <= head_seq:
            self.rejects[REJECT_GAP] += 1
            return None
        voted = self.voted[sender]
        prior = voted.get(seq)
        if prior is not None:
            if prior.cur_digest != log.cur_digest:
                self.rejects[REJECT_EQUIVOCATION] += 1
                return None
            # Same log re-broadcast: repeat the identical vote.
        else:
            # Chain on the higher of the certified head and the newest voted
            # log. Voted seqs above the head run without a gap up to the
            # newest (an entry goes only once the head passes its seq), so
            # that is the head at head + 1 and the log voted at seq - 1
            # above it.
            if seq == head_seq + 1:
                prev = EMPTY_DIGEST if head is None else head.cur_digest
            else:
                below = voted.get(seq - 1)
                prev = None if below is None else below.cur_digest
            # The window counts the commands of this log and of every voted
            # log above the head.
            commands = len(log.command_digests) + sum(
                len(above.command_digests) for above in voted.values())
            if log.prev_digest != prev or commands > PRE_ORDER_WINDOW:
                self.rejects[REJECT_GAP] += 1
                return None
            voted[seq] = log
        return VoteMessage(self.auth.partial_sign(self.node_id, log.cur_digest))

    # ------------------------------------------------------------------
    # step 3: order

    def handle_vote(self, vote: VoteMessage, sender: int, now: int) -> Optional[OrderMessage]:
        """Keep a verified vote share toward the outstanding log whose digest
        it signs; at 2f+1 distinct signers, combine that log's kept shares
        unchecked and, if the log was first sent at or after the previous
        sample, sample its round trip: ``now`` less that first stamp."""
        partial = vote.partial
        digest = partial.event_digest
        entry = self.outstanding.get(digest)
        if entry is None:
            if digest in self.certified_own:
                self.late_votes += 1
            else:
                self.rejects[INVALID_PARTIAL] += 1
            return None
        if partial.signer != sender or not self.auth.verify_partial(partial):
            self.rejects[INVALID_PARTIAL] += 1
            return None
        shares = entry.shares
        shares[partial.signer] = partial
        if len(shares) < self.auth.quorum:
            return None
        log = entry.log
        completed = log.with_certificate(self.auth.combine(digest, shares.values()))
        del self.outstanding[digest]
        self.certified_own.add(digest)
        self.in_flight -= len(log.command_digests)
        if log.timestamp >= self.sampled_at:
            self.sampled_at = now
            # A caller may stamp a tick ahead of the clock it samples at, so
            # the round trip can read below 0.
            self._sample_round_trip(max(0, now - log.timestamp))
        self._store_log(completed)
        return OrderMessage(completed)

    def handle_order(self, log: PartialOrderLog) -> bool:
        """Validate and store a certified log, from an order message or an
        order-batch slot; returns True if accepted.

        A log equal to the one stored at its (author, seq) is accepted
        without a check, by the rule in :meth:`is_certified`'s docstring. Any
        other log must pass :meth:`is_certified` (else ``invalid_cert``) and
        must not fork the stored hash chain (else ``chain_break``).
        """
        store = self.log_store
        author, seq = log.node_id, log.seq
        existing = store.get((author, seq))
        if existing is not None and (existing is log or existing == log):
            return True
        if not self.is_certified(log):
            self.rejects[INVALID_CERT] += 1
            return False
        if existing is not None:
            if existing.cur_digest != log.cur_digest:
                self._flag_chain_break(existing, log)
                return False
            return True
        prev = store.get((author, seq - 1))
        if prev is not None and seq > 1 and log.prev_digest != prev.cur_digest:
            self._flag_chain_break(prev, log)
            return False
        succ = store.get((author, seq + 1))
        if succ is not None and succ.prev_digest != log.cur_digest:
            self._flag_chain_break(log, succ)
            return False
        self._store_log(log)
        return True

    def is_certified(self, log: PartialOrderLog) -> bool:
        """The one certified-log check: a certificate is present, covers this
        log's digest, the digest matches the log's fields, and the certificate
        verifies.

        The log store only ever holds logs that passed this check, or that
        this node combined itself from verified vote shares in
        :meth:`handle_vote`. So a log equal to the stored one at its (author,
        seq) need not be checked again; a copy that differs in any field
        (timestamp, certificate signers or aggregate, ...) must be, so a
        tampered copy of a stored log is still rejected.

        The digest is not hashed again when the log's six uncertified fields
        (author, seq, timestamp, command digests, previous digest and digest)
        equal those of the pre-order log in ``voted`` at its (author, seq).
        :meth:`handle_pre_order` hashed that log and found its digest
        matching before voting, and the digest is a function of the other
        five fields, so hashing equal fields again gives the same answer. Any
        other log is hashed, and the certificate is verified in every case.
        A log naming no node of the cluster as author is refused.
        """
        cert = log.certificate
        author = log.node_id
        if cert is None or cert.event_digest != log.cur_digest or not 0 <= author < self.n:
            return False
        voted = self.voted[author].get(log.seq)
        if (
            voted is None
            or voted.cur_digest != log.cur_digest
            or voted.timestamp != log.timestamp
            or voted.command_digests != log.command_digests
            or voted.prev_digest != log.prev_digest
        ) and not log.verify_digest():
            return False
        return self.auth.verify_certificate(cert)

    def _store_log(self, log: PartialOrderLog) -> None:
        """Store a log and advance its author's certified head over the
        stored prefix without a gap; a log stored above a gap waits there.

        A voter endorses a log before its predecessor is certified, so an
        author can get a log certified above seqs that never will be. The
        head, which the leader's order-batches carry and the voter's window
        starts from, thus moves only over seqs 1..h all stored here: every
        log a batch commits can be fetched, and a seq at or below the head is
        stored. Voted entries are dropped as the head passes them.
        """
        author = log.node_id
        seq = log.seq
        store = self.log_store
        store[(author, seq)] = log
        head = self.latest[author]
        if seq != (0 if head is None else head.seq) + 1:
            return
        voted = self.voted[author]
        while True:
            voted.pop(seq, None)
            above = store.get((author, seq + 1))
            if above is None:
                break
            log = above
            seq += 1
        self.latest[author] = log

    def _flag_chain_break(self, a: PartialOrderLog, b: PartialOrderLog) -> None:
        # Cannot happen with <= f faults; recorded as Byzantine evidence only.
        self.rejects[CHAIN_BREAK] += 1
        self.chain_break_evidence.append((a, b))

    # ------------------------------------------------------------------
    # lookups

    def fetch_log(self, author: int, seq: int) -> Optional[PartialOrderLog]:
        return self.log_store.get((author, seq))

    def fetch_command(self, digest: Digest) -> Optional[Command]:
        return self.command_store.get(digest)
