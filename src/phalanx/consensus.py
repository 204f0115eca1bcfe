"""Consensus layer: order-batch generation and deterministic expansion.

Once some author's head (its latest certified log in the leader's mempool)
moved since the last batch the leader cut, the leader cuts an order-batch
carrying each moved head in its author's slot and None in every other slot,
and submits it to a total-order broadcast. Every node expands the delivered
batch stream, in index order, into a common FIFO queue of log sets: for each
slot that advances an author's committed frontier, the node pulls the
intervening logs from its mempool (fetching any gap from peers), bumps its
frontier vector, and appends the collected logs sorted by (seq, author). A
head only moves up, so on every node the moving slots of the leader's
batches are exactly the filled ones. A slot at or below the frontier, such
as an unchanged head in a full snapshot, adds nothing.

Each filled slot must sit at its author's position and enter the store
through ``Mempool.handle_order``, the node's one door for a received
certified log: a copy equal to the stored log passes unchecked, any other
copy is verified and stored, and a fork of the stored chain is refused. A
refused slot makes the batch invalid, a leader fault; the slots stored
before it stay stored, as their order messages would have left them. Only
a faulty leader sends such a batch.

A batch whose committed range has a gap stalls: it stays at the head of the
buffer, and the consenter remembers the missing (author, seq) pairs. When
the last of them lands, the batch is committed again from the top. The
stalled attempt stored its slots, so the retry verifies nothing again; it
repeats the range walk's log lookups.

A harness sequencer stands in for the total-order broadcast: it assigns
consecutive batch indices and every node consumes them in index order.
"""

from __future__ import annotations

import struct
from collections import deque
from typing import Callable, Optional

from .mempool import Mempool
from .types import PartialOrderLog
from .wire import encode_log

OrderBatch = tuple[Optional[PartialOrderLog], ...]
LogSet = tuple[PartialOrderLog, ...]

# The node that cuts the order-batches, when the strategy uses consensus.
# There are no views, so it never changes.
LEADER = 0


class BatchInvalid(ValueError):
    """A delivered batch carried an entry that fails verification."""


class MissingLogs(Exception):
    """Commit needs logs not present locally; carries the gap list."""

    def __init__(self, missing: list[tuple[int, int]]):
        super().__init__(f"missing logs: {missing}")
        self.missing = missing


def encode_order_batch(batch: OrderBatch) -> bytes:
    out = [struct.pack(">H", len(batch))]
    for slot in batch:
        if slot is None:
            out.append(b"\x00")
        else:
            out.append(b"\x01" + encode_log(slot))
    return b"".join(out)


class SequencerBroadcast:
    """Harness stand-in for a BFT engine: the designated sequencer assigns
    consecutive indices and a transport callback carries (index, batch) out."""

    def __init__(self, transport: Callable[[int, OrderBatch], None]):
        self._next_index = 0
        self._transport = transport

    def submit(self, batch: OrderBatch) -> None:
        index = self._next_index
        self._next_index += 1
        self._transport(index, batch)


class Consenter:
    """Per-node consensus state: frontier vector and the outbound log-set queue."""

    def __init__(self, node_id: int, mempool: Mempool, record_batches: bool = False):
        self.node_id = node_id
        self.mempool = mempool
        self.n = mempool.n
        self.committed_seq = [0] * self.n
        self.log_sets: deque[LogSet] = deque()
        self.leader_faults = 0
        self.record_batches = record_batches
        self.batch_trace: list[str] = []
        self._buffer: dict[int, OrderBatch] = {}
        self._next_index = 0
        # Logs the batch at the head of the buffer waits on.
        self._missing: set[tuple[int, int]] = set()
        # The heads as of the last batch this node cut as leader.
        self._cut: OrderBatch = (None,) * self.n

    # ------------------------------------------------------------------
    # leader side

    def has_batch(self) -> bool:
        """True if some author's head moved since the last batch this node
        cut: a head only moves up, to a new object."""
        return any(head is not cut for head, cut in zip(self.mempool.latest, self._cut))

    def make_order_batch(self) -> Optional[OrderBatch]:
        """The heads that moved since the last batch this node cut, None in
        every other slot; None if no head moved (:meth:`has_batch`)."""
        if not self.has_batch():
            return None
        latest, cut = self.mempool.latest, self._cut
        self._cut = tuple(latest)
        return tuple(None if head is old else head for head, old in zip(latest, cut))

    # ------------------------------------------------------------------
    # delivery side

    def on_delivered(self, index: int, batch: OrderBatch) -> list[tuple[int, int]]:
        """Buffer a delivered batch and commit as far as possible in index order.

        Returns the list of (author, seq) gaps that must be fetched from
        peers before the pipeline can continue (empty when none is missing).
        """
        self._buffer[index] = batch
        return self._advance()

    def on_log_stored(self, author: int, seq: int) -> list[tuple[int, int]]:
        """Notify that a certified log landed in the mempool; retry if it was
        the last one the stalled batch waits on."""
        if not self._missing:
            return []
        self._missing.discard((author, seq))
        return self._advance()

    def _advance(self) -> list[tuple[int, int]]:
        buffer = self._buffer
        while not self._missing and self._next_index in buffer:
            try:
                self.commit_order_batch(buffer[self._next_index])
            except BatchInvalid:
                self.leader_faults += 1
            except MissingLogs as gap:
                self._missing = set(gap.missing)
                return gap.missing
            del buffer[self._next_index]
            self._next_index += 1
        return []

    def commit_order_batch(self, batch: OrderBatch) -> LogSet:
        """Store, gap-check and expand one batch into a sorted log set.

        Raises BatchInvalid when a slot sits at another author's position or
        ``Mempool.handle_order`` refuses it, and MissingLogs when the mempool
        lacks part of a committed range.
        """
        if len(batch) != self.n:
            raise BatchInvalid(f"batch has {len(batch)} slots, expected {self.n}")
        mempool = self.mempool
        committed = self.committed_seq
        moving: list[int] = []  # slots that move an author's frontier
        for j, slot in enumerate(batch):
            if slot is None:
                continue
            if slot.node_id != j:
                raise BatchInvalid(f"slot {j} authored by {slot.node_id}")
            if not mempool.handle_order(slot):
                raise BatchInvalid(f"slot {j} fails verification or forks the stored chain")
            if slot.seq > committed[j]:
                moving.append(j)
        collected: list[PartialOrderLog] = []
        missing: list[tuple[int, int]] = []
        for j in moving:
            for seq in range(committed[j] + 1, batch[j].seq + 1):
                log = mempool.fetch_log(j, seq)
                if log is None:
                    missing.append((j, seq))
                else:
                    collected.append(log)
        if missing:
            raise MissingLogs(missing)
        for j in moving:
            committed[j] = batch[j].seq
        if len(moving) > 1:  # one author's logs are already in seq order
            collected.sort(key=lambda log: (log.seq, log.node_id))
        log_set = tuple(collected)
        self.log_sets.append(log_set)
        if self.record_batches:
            self.batch_trace.append(encode_order_batch(batch).hex())
        return log_set

    @property
    def blocked(self) -> bool:
        return bool(self._missing)

    @property
    def pending_batches(self) -> int:
        return len(self._buffer)
