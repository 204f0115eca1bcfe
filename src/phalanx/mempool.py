"""Per-node mempool: FIFO command intake and the ordering protocol.

The mempool turns received commands into certified, hash-chained
partial-order logs through three steps:

1. pre-order: pop the front command, stamp it with the next logical-clock
   value, and broadcast the uncertified log;
2. vote: peers validate the chain linkage and return a signature share,
   refusing to endorse two different logs at the same (author, seq);
3. order: once 2f+1 shares arrive the author aggregates them into a
   certificate and broadcasts the completed log.

It also stores every command and verified log for later retrieval by the
consensus and executor layers.
"""

from __future__ import annotations

import logging
from collections import Counter, deque
from typing import Optional

from .authenticators import Authenticator
from .types import Command, Digest, EMPTY_DIGEST, PartialOrderLog
from .wire import OrderMessage, PreOrderMessage, VoteMessage

logger = logging.getLogger(__name__)

# Rejection / anomaly reasons, tallied in Mempool.rejects for metrics.
DUPLICATE_COMMAND = "duplicate_command"
REJECT_BAD_DIGEST = "reject_bad_digest"
REJECT_BAD_AUTHOR = "reject_bad_author"
REJECT_GAP = "reject_gap"
REJECT_EQUIVOCATION = "reject_equivocation"
STALE_VOTE = "stale_vote"
INVALID_PARTIAL = "invalid_partial"
INVALID_CERT = "invalid_cert"
CHAIN_BREAK = "chain_break"


class Mempool:
    """Single-threaded ordering state machine for one node."""

    def __init__(self, node_id: int, authenticator: Authenticator):
        self.node_id = node_id
        self.auth = authenticator
        self.n = authenticator.n
        self.seq = 0
        self.pending: Optional[PartialOrderLog] = None
        self.pending_since: Optional[int] = None
        self.latest: list[Optional[PartialOrderLog]] = [None] * self.n
        self.inbound: deque[Command] = deque()
        self.votes_for_pending: dict[int, object] = {}
        # Highest (seq, digest) this node has voted per author; blocks equivocation.
        self.voted: dict[int, tuple[int, Digest]] = {}
        self.command_store: dict[Digest, Command] = {}
        self.log_store: dict[tuple[int, int], PartialOrderLog] = {}
        self.rejects: Counter[str] = Counter()
        self.chain_break_evidence: list[tuple[PartialOrderLog, PartialOrderLog]] = []

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

    def store_command(self, cmd: Command) -> bool:
        """Store a command body without queueing it for ordering (fetch path).

        A body that does not hash to its digest is dropped and returns False:
        it would otherwise commit under the real command's digest.
        """
        if not cmd.verify_digest():
            self.rejects[REJECT_BAD_DIGEST] += 1
            return False
        self.command_store.setdefault(cmd.digest, cmd)
        return True

    # ------------------------------------------------------------------
    # step 1: pre-order

    def try_pre_order(self, now: int) -> Optional[PreOrderMessage]:
        """Start ordering the front command if no log is awaiting votes."""
        if self.pending is not None or not self.inbound:
            return None
        cmd = self.inbound.popleft()
        self.seq += 1
        prev = EMPTY_DIGEST
        if self.seq > 1:
            prev = self.latest[self.node_id].cur_digest
        log = PartialOrderLog.create(self.node_id, self.seq, now, cmd.digest, prev)
        self.pending = log
        self.pending_since = now
        self.votes_for_pending = {}
        return PreOrderMessage(log)

    def resend_pre_order(self, now: int, resend_ms: int) -> Optional[PreOrderMessage]:
        """Re-broadcast the pending log if it has been starved of votes."""
        if self.pending is None or self.pending_since is None:
            return None
        if now - self.pending_since < resend_ms:
            return None
        self.pending_since = now
        return PreOrderMessage(self.pending)

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
        if head is None:
            if log.seq != 1:
                self.rejects[REJECT_GAP] += 1
                return None
        else:
            if log.seq != head.seq + 1 or log.prev_digest != head.cur_digest:
                self.rejects[REJECT_GAP] += 1
                return None
        prior = self.voted.get(sender)
        if prior is not None and prior[0] == log.seq:
            if prior[1] != log.cur_digest:
                self.rejects[REJECT_EQUIVOCATION] += 1
                logger.debug(
                    "node %d: equivocation by %d at seq %d", self.node_id, sender, log.seq
                )
                return None
            # Same log re-broadcast: repeat the identical vote.
        self.voted[sender] = (log.seq, log.cur_digest)
        partial = self.auth.partial_sign(self.node_id, log.cur_digest)
        return VoteMessage(log.cur_digest, partial)

    # ------------------------------------------------------------------
    # step 3: order

    def handle_vote(self, vote: VoteMessage, sender: int) -> Optional[OrderMessage]:
        if self.pending is None or vote.digest != self.pending.cur_digest:
            self.rejects[STALE_VOTE] += 1
            return None
        if vote.partial.signer != sender or not self.auth.verify_partial(vote.partial):
            self.rejects[INVALID_PARTIAL] += 1
            return None
        self.votes_for_pending[vote.partial.signer] = vote.partial
        if len(self.votes_for_pending) < self.auth.quorum:
            return None
        cert = self.auth.aggregate(
            self.pending.cur_digest, list(self.votes_for_pending.values())
        )
        completed = self.pending.with_certificate(cert)
        self.pending = None
        self.pending_since = None
        self.votes_for_pending = {}
        self._store_log(completed)
        return OrderMessage(completed)

    def handle_order(self, log: PartialOrderLog) -> bool:
        """Validate and store a certified log; returns True if accepted."""
        if not self.is_certified(log):
            self.rejects[INVALID_CERT] += 1
            return False
        return self.store_certified(log)

    def is_certified(self, log: PartialOrderLog) -> bool:
        """The one certified-log check: a certificate is present, covers this
        log's digest, the digest matches the log's fields, and the certificate
        verifies.

        The log store only ever holds logs that passed this check, or that
        this node aggregated itself from verified vote shares in
        :meth:`handle_vote`. So a log equal to the stored one at its (author,
        seq) need not be checked again; a copy that differs in any field
        (timestamp, certificate signers or aggregate, ...) must be, so a
        tampered copy of a stored log is still rejected.
        """
        cert = log.certificate
        return (
            cert is not None
            and cert.event_digest == log.cur_digest
            and log.verify_digest()
            and self.auth.verify_certificate(cert)
        )

    def store_certified(self, log: PartialOrderLog) -> bool:
        """Store a log that passed :meth:`is_certified`, without verifying it
        again; returns False if it forks the stored hash chain."""
        existing = self.log_store.get((log.node_id, log.seq))
        if existing is not None:
            if existing.cur_digest != log.cur_digest:
                self._flag_chain_break(existing, log)
                return False
            return True
        prev = self.log_store.get((log.node_id, log.seq - 1))
        if prev is not None and log.seq > 1 and log.prev_digest != prev.cur_digest:
            self._flag_chain_break(prev, log)
            return False
        succ = self.log_store.get((log.node_id, log.seq + 1))
        if succ is not None and succ.prev_digest != log.cur_digest:
            self._flag_chain_break(log, succ)
            return False
        self._store_log(log)
        return True

    def _store_log(self, log: PartialOrderLog) -> None:
        self.log_store[(log.node_id, log.seq)] = log
        head = self.latest[log.node_id]
        if head is None or log.seq > head.seq:
            self.latest[log.node_id] = log

    def _flag_chain_break(self, a: PartialOrderLog, b: PartialOrderLog) -> None:
        # Cannot happen with <= f faults; recorded as Byzantine evidence only.
        self.rejects[CHAIN_BREAK] += 1
        self.chain_break_evidence.append((a, b))
        logger.warning(
            "node %d: conflicting certified logs for author %d", self.node_id, b.node_id
        )

    # ------------------------------------------------------------------
    # lookups

    def fetch_log(self, author: int, seq: int) -> Optional[PartialOrderLog]:
        return self.log_store.get((author, seq))

    def fetch_command(self, digest: Digest) -> Optional[Command]:
        return self.command_store.get(digest)
