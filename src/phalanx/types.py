"""Core data types: commands, partial-order logs, and quorum certificates.

All types are immutable values; digests are computed over a canonical
big-endian, length-prefixed encoding so they are bit-exact across
processes.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Iterator, Optional

Digest = bytes

DIGEST_SIZE = 32

# Placeholder for "no previous log" (sequence number 1).
EMPTY_DIGEST: Digest = b"\x00" * DIGEST_SIZE


class PreconditionViolation(ValueError):
    """A structural precondition on a type or operation was violated."""


class ProtocolInvariantError(RuntimeError):
    """A protocol invariant that correct upstream layers guarantee was broken.

    Raised instead of ``assert`` so the checks also hold under ``python -O``.
    """


def digest_command(proposer_id: int, seq: int, payload: bytes) -> Digest:
    """Digest of a command: sha256 over u16 proposer || u64 seq || u32 len || payload."""
    if seq < 1:
        raise PreconditionViolation(f"command seq must be >= 1, got {seq}")
    return hashlib.sha256(
        struct.pack(">HQI", proposer_id, seq, len(payload)) + payload
    ).digest()


def digest_log(
    node_id: int,
    seq: int,
    timestamp: int,
    command_digests: tuple[Digest, ...],
    prev_digest: Digest,
) -> Digest:
    """Digest of a log: sha256 over u16 node || u64 seq || u64 ts || u32 count
    || the command digests in order || prev digest.

    A log carries at least one command. The first log of a node (seq 1) must
    chain from EMPTY_DIGEST; every later log must carry a real predecessor
    digest.
    """
    if seq < 1:
        raise PreconditionViolation(f"log seq must be >= 1, got {seq}")
    if not command_digests:
        raise PreconditionViolation(f"a log must carry a command (seq={seq})")
    if (seq == 1) != (prev_digest == EMPTY_DIGEST):
        raise PreconditionViolation(
            f"prev_digest must be empty iff seq == 1 (seq={seq})"
        )
    return hashlib.sha256(
        struct.pack(">HQQI", node_id, seq, timestamp, len(command_digests))
        + b"".join(command_digests)
        + prev_digest
    ).digest()


@dataclass(frozen=True, slots=True)
class Command:
    """Atomic ordering unit proposed by a proposer.

    ``seq`` is the proposer-local sending order; ``payload`` may pack several
    client requests into one command.
    """

    proposer_id: int
    seq: int
    payload: bytes
    digest: Digest

    @classmethod
    def create(cls, proposer_id: int, seq: int, payload: bytes) -> "Command":
        return cls(proposer_id, seq, payload, digest_command(proposer_id, seq, payload))


@dataclass(frozen=True, slots=True)
class PartialSignature:
    """One node's signature share over an event digest."""

    signer: int
    event_digest: Digest
    sig: bytes


@dataclass(frozen=True, slots=True)
class Certificate:
    """Aggregate of exactly 2f+1 distinct signature shares over one event digest."""

    event_digest: Digest
    signer_set: frozenset[int]
    aggregate: bytes

    def signers_sorted(self) -> tuple[int, ...]:
        return tuple(sorted(self.signer_set))


@dataclass(frozen=True, slots=True)
class PartialOrderLog:
    """A node's hash-chained declaration of the commands one of its ticks
    pre-ordered, in order, at position ``seq`` of its local order.

    The k-th command (k from 0) reads as stamped ``timestamp + k``
    (:meth:`stamped`), so the digest authenticates every command's stamp.
    ``certificate`` is None while the log is still gathering votes (pre-order
    stage) and present once 2f+1 nodes endorsed it.
    """

    node_id: int
    seq: int
    timestamp: int
    command_digests: tuple[Digest, ...]
    prev_digest: Digest
    cur_digest: Digest
    certificate: Optional[Certificate] = None

    @classmethod
    def create(
        cls,
        node_id: int,
        seq: int,
        timestamp: int,
        command_digests: tuple[Digest, ...],
        prev_digest: Digest,
    ) -> "PartialOrderLog":
        cur = digest_log(node_id, seq, timestamp, command_digests, prev_digest)
        return cls(node_id, seq, timestamp, command_digests, prev_digest, cur)

    def stamped(self) -> Iterator[tuple[int, Digest]]:
        """(stamp, command digest) of each command in order: the k-th (k
        from 0) is stamped ``timestamp + k``."""
        return enumerate(self.command_digests, self.timestamp)

    def verify_digest(self) -> bool:
        try:
            expected = digest_log(
                self.node_id, self.seq, self.timestamp,
                self.command_digests, self.prev_digest,
            )
        except PreconditionViolation:
            return False
        return self.cur_digest == expected

    def with_certificate(self, cert: Certificate) -> "PartialOrderLog":
        return PartialOrderLog(
            self.node_id, self.seq, self.timestamp,
            self.command_digests, self.prev_digest, self.cur_digest, cert,
        )

    def without_certificate(self) -> "PartialOrderLog":
        return PartialOrderLog(
            self.node_id, self.seq, self.timestamp,
            self.command_digests, self.prev_digest, self.cur_digest,
        )
