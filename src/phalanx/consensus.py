"""Consensus layer: order-batch generation and deterministic expansion.

The leader snapshots its mempool's latest certified log per node into an
order-batch, once some head moved since the last batch it cut, and submits
it to a total-order broadcast. Every node expands
the delivered batch stream into a common FIFO queue of log sets: for each
batch entry that advances an author's committed frontier, the node pulls
the intervening logs from its mempool (fetching any gap from peers),
bumps its frontier vector, and appends the collected logs sorted by
(seq, author).

A delivered batch is checked against its reference, the last batch the
node expanded. A slot that is the very object at the same position of the
reference passed the position and certificate checks then, and after that
expansion its seq is at or below the author's committed frontier, which
never falls: it can neither advance nor leave a gap, so it is skipped. The
leader snapshots unchanged heads as the same objects, so most slots of a
batch are skipped this way. Every other slot is checked before any of the
batch is used: its author position, then ``Mempool.is_certified``, unless it
equals the log the node already stores at that (author, seq) (see
``Mempool.is_certified`` for why). Only the slots that move an author's
frontier are stored with ``Mempool.store_certified`` (a fresh slot is thus
verified once), gap-checked and expanded. A refused batch never becomes the
reference.

A batch whose committed range has a gap stalls: it stays at the head of the
buffer, and the consenter remembers the missing (author, seq) pairs. When
the last of them lands, the batch is committed again from the top. The
stalled attempt stored its moving slots, so the retry does not verify them
again; it repeats the gap check's log lookups.

A harness sequencer stands in for the total-order broadcast: it assigns
consecutive batch indices and every node consumes them in index order.
"""

from __future__ import annotations

import struct
from collections import deque
from typing import Callable, Optional

from .mempool import Mempool
from .types import PartialOrderLog, ProtocolInvariantError
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
        # The last expanded batch: its slots were checked and are committed.
        self._expanded: OrderBatch = (None,) * self.n
        # Logs the batch at the head of the buffer waits on.
        self._missing: set[tuple[int, int]] = set()
        # The last batch this node cut as leader.
        self._cut: OrderBatch = (None,) * self.n

    # ------------------------------------------------------------------
    # leader side

    def has_batch(self) -> bool:
        """True if some author's head moved since the last batch this node
        cut: a head only moves up, to a new object."""
        return any(head is not cut for head, cut in zip(self.mempool.latest, self._cut))

    def make_order_batch(self) -> Optional[OrderBatch]:
        """Snapshot the mempool's latest-log vector if :meth:`has_batch`."""
        if not self.has_batch():
            return None
        self._cut = tuple(self.mempool.latest)
        return self._cut

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
        """Verify, gap-check, and expand one batch into a sorted log set.

        Raises BatchInvalid on certificate failure or when the mempool refuses
        a fresh frontier slot, and MissingLogs when the mempool lacks part of
        a committed range.
        """
        if len(batch) != self.n:
            raise BatchInvalid(f"batch has {len(batch)} slots, expected {self.n}")
        stored = self.mempool.log_store
        committed = self.committed_seq
        expanded = self._expanded
        moving: list[int] = []  # slots that move an author's frontier
        fresh: set[int] = set()  # slots not already in the log store
        for j, slot in enumerate(batch):
            if slot is expanded[j] or slot is None:
                continue  # checked when the last expanded batch carried it
            if slot.node_id != j:
                raise BatchInvalid(f"slot {j} authored by {slot.node_id}")
            known = stored.get((j, slot.seq))
            if known is not slot and known != slot:
                if not self.mempool.is_certified(slot):
                    raise BatchInvalid(f"slot {j} fails certificate verification")
                fresh.add(j)
            if slot.seq > committed[j]:
                moving.append(j)
        missing: list[tuple[int, int]] = []
        for j in moving:
            slot = batch[j]
            if j in fresh and not self.mempool.store_certified(slot):
                # A certified slot that forks the stored chain: possible only
                # beyond f faults, and expansion could not find it.
                raise BatchInvalid(f"slot {j} forks the stored chain")
            for seq in range(committed[j] + 1, slot.seq):
                if self.mempool.fetch_log(j, seq) is None:
                    missing.append((j, seq))
        if missing:
            raise MissingLogs(missing)
        log_set = self._expand(batch, moving)
        self._expanded = batch
        self.log_sets.append(log_set)
        if self.record_batches:
            self.batch_trace.append(encode_order_batch(batch).hex())
        return log_set

    def _expand(self, batch: OrderBatch, moving: list[int]) -> LogSet:
        collected: list[PartialOrderLog] = []
        for j in moving:
            top = batch[j].seq
            for seq in range(self.committed_seq[j] + 1, top + 1):
                log = self.mempool.fetch_log(j, seq)
                if log is None:
                    raise ProtocolInvariantError(
                        f"log ({j}, {seq}) missing after the gap check passed"
                    )
                collected.append(log)
            self.committed_seq[j] = top
        if len(moving) > 1:  # one author's logs are already in seq order
            collected.sort(key=lambda log: (log.seq, log.node_id))
        return tuple(collected)

    @property
    def blocked(self) -> bool:
        return bool(self._missing)

    @property
    def pending_batches(self) -> int:
        return len(self._buffer)
