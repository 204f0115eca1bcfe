"""Protocol messages and their canonical wire encoding.

Kinds carried on the simulated wire, each encoded as a one-byte tag
followed by the payload in the canonical big-endian encoding:

    1 PRE_ORDER   uncertified log, asking peers to vote for every command
                  it carries at once
    2 VOTE        signature share, which names the log digest it signs
    3 ORDER       certified log, broadcast by its author or sent to a peer
                  that asked for it with a FETCH_LOG
    4 FETCH_LOG   request for a certified log by (author, seq)

A log carries the digests of the commands one tick of its author
pre-ordered, in order, so one vote and one certificate cover them all.
Each message class names its kind in ``kind``, the key under which
``result.json`` counts the messages sent.

No kind carries a command body: each proposer sends its commands to every
node itself, so no node needs to fetch one from a peer.

The simulator passes message objects by reference; the byte form is the
stable external interface, written to batch dumps and counted by
perfbench's wire-byte metrics. Nothing decodes it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Union

from .types import Certificate, PartialOrderLog, PartialSignature

PRE_ORDER = 1
VOTE = 2
ORDER = 3
FETCH_LOG = 4


@dataclass(frozen=True, slots=True)
class PreOrderMessage:
    kind = "pre_order"
    log: PartialOrderLog  # certificate absent


@dataclass(frozen=True, slots=True)
class VoteMessage:
    kind = "vote"
    partial: PartialSignature  # signs partial.event_digest, the log's digest


@dataclass(frozen=True, slots=True)
class OrderMessage:
    kind = "order"
    log: PartialOrderLog  # certificate present


@dataclass(frozen=True, slots=True)
class FetchLogMessage:
    kind = "fetch_log"
    author: int
    seq: int


Message = Union[PreOrderMessage, VoteMessage, OrderMessage, FetchLogMessage]


class WireError(ValueError):
    """A value the wire encoding has no form for."""


def encode_certificate(cert: Certificate) -> bytes:
    signers = cert.signers_sorted()
    return (
        cert.event_digest
        + struct.pack(">H", len(signers))
        + b"".join(struct.pack(">H", s) for s in signers)
        + struct.pack(">I", len(cert.aggregate))
        + cert.aggregate
    )


def encode_partial(ps: PartialSignature) -> bytes:
    return (
        struct.pack(">H", ps.signer)
        + ps.event_digest
        + struct.pack(">I", len(ps.sig))
        + ps.sig
    )


def encode_log(log: PartialOrderLog) -> bytes:
    """The log's fields, its command digests prefixed by their count, then
    a certificate flag and the certificate, if present."""
    head = (
        struct.pack(">HQQI", log.node_id, log.seq, log.timestamp, len(log.command_digests))
        + b"".join(log.command_digests)
        + log.prev_digest
    )
    if log.certificate is None:
        return head + b"\x00"
    return head + b"\x01" + encode_certificate(log.certificate)


def encode_message(msg: Message) -> bytes:
    if isinstance(msg, PreOrderMessage):
        return bytes([PRE_ORDER]) + encode_log(msg.log.without_certificate())
    if isinstance(msg, VoteMessage):
        return bytes([VOTE]) + encode_partial(msg.partial)
    if isinstance(msg, OrderMessage):
        return bytes([ORDER]) + encode_log(msg.log)
    if isinstance(msg, FetchLogMessage):
        return bytes([FETCH_LOG]) + struct.pack(">HQ", msg.author, msg.seq)
    raise WireError(f"unknown message type {type(msg).__name__}")
