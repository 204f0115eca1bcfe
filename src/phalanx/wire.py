"""Protocol messages and their canonical wire encoding.

Kinds carried on the simulated wire, each encoded as a one-byte tag
followed by the payload in the canonical big-endian encoding:

    1 PRE_ORDER   uncertified log, asking peers to vote
    2 VOTE        signature share over the log digest
    3 ORDER       certified log broadcast
    4 FETCH_LOG   request for a certified log by (author, seq)
    5 FETCH_RESP  certified log answering a FETCH_LOG
    6 FETCH_CMD   request for a command body by digest
    7 FETCH_CMD_RESP  command body answering a FETCH_CMD

The simulator passes message objects by reference; the byte form is the
stable external interface, written to batch dumps and counted by
perfbench's wire-byte metrics. Nothing decodes it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Union

from .types import Certificate, Command, Digest, PartialOrderLog, PartialSignature

PRE_ORDER = 1
VOTE = 2
ORDER = 3
FETCH_LOG = 4
FETCH_RESP = 5
FETCH_CMD = 6
FETCH_CMD_RESP = 7


@dataclass(frozen=True, slots=True)
class PreOrderMessage:
    log: PartialOrderLog  # certificate absent


@dataclass(frozen=True, slots=True)
class VoteMessage:
    digest: Digest
    partial: PartialSignature


@dataclass(frozen=True, slots=True)
class OrderMessage:
    log: PartialOrderLog  # certificate present


@dataclass(frozen=True, slots=True)
class FetchLogMessage:
    author: int
    seq: int


@dataclass(frozen=True, slots=True)
class FetchLogResponse:
    log: PartialOrderLog


@dataclass(frozen=True, slots=True)
class FetchCommandMessage:
    digest: Digest


@dataclass(frozen=True, slots=True)
class FetchCommandResponse:
    command: Command


Message = Union[
    PreOrderMessage,
    VoteMessage,
    OrderMessage,
    FetchLogMessage,
    FetchLogResponse,
    FetchCommandMessage,
    FetchCommandResponse,
]


class WireError(ValueError):
    """A value the wire encoding has no form for."""


def encode_command(cmd: Command) -> bytes:
    return struct.pack(">HQI", cmd.proposer_id, cmd.seq, len(cmd.payload)) + cmd.payload


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
    head = (
        struct.pack(">HQQ", log.node_id, log.seq, log.timestamp)
        + log.command_digest
        + log.prev_digest
    )
    if log.certificate is None:
        return head + b"\x00"
    return head + b"\x01" + encode_certificate(log.certificate)


def encode_message(msg: Message) -> bytes:
    if isinstance(msg, PreOrderMessage):
        return bytes([PRE_ORDER]) + encode_log(msg.log.without_certificate())
    if isinstance(msg, VoteMessage):
        return bytes([VOTE]) + msg.digest + encode_partial(msg.partial)
    if isinstance(msg, OrderMessage):
        return bytes([ORDER]) + encode_log(msg.log)
    if isinstance(msg, FetchLogMessage):
        return bytes([FETCH_LOG]) + struct.pack(">HQ", msg.author, msg.seq)
    if isinstance(msg, FetchLogResponse):
        return bytes([FETCH_RESP]) + encode_log(msg.log)
    if isinstance(msg, FetchCommandMessage):
        return bytes([FETCH_CMD]) + msg.digest
    if isinstance(msg, FetchCommandResponse):
        return bytes([FETCH_CMD_RESP]) + encode_command(msg.command)
    raise WireError(f"unknown message type {type(msg).__name__}")
