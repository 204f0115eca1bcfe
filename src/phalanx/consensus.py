"""Consensus layer: order-batch generation and deterministic expansion.

The leader snapshots its mempool's latest certified log per node into an
order-batch and submits it to a total-order broadcast. Every node expands
the delivered batch stream into a common FIFO queue of log sets: for each
batch entry that advances an author's committed frontier, the node pulls
the intervening logs from its mempool (fetching any gap from peers),
bumps its frontier vector, and appends the collected logs sorted by
(seq, author).

Every slot of a delivered batch is checked before any of it is used: its
author position, then ``Mempool.is_certified``. A slot equal to the log the
node already stores at that (author, seq) skips that check (see
``Mempool.is_certified`` for why), and a fresh slot that advances an
author's frontier is stored with ``Mempool.store_certified``, so it is
verified once.

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
        self._stalled: Optional[OrderBatch] = None
        self._missing: set[tuple[int, int]] = set()

    # ------------------------------------------------------------------
    # leader side

    def make_order_batch(self) -> Optional[OrderBatch]:
        """Snapshot the mempool's latest-log vector if any author advanced."""
        latest = self.mempool.latest
        for j in range(self.n):
            head = latest[j]
            if head is not None and head.seq > self.committed_seq[j]:
                return tuple(latest)
        return None

    # ------------------------------------------------------------------
    # delivery side

    def on_delivered(self, index: int, batch: OrderBatch) -> list[tuple[int, int]]:
        """Buffer a delivered batch and commit as far as possible in index order.

        Returns the list of (author, seq) gaps that must be fetched from
        peers before the pipeline can continue (empty when unblocked).
        """
        self._buffer[index] = batch
        return self._advance()

    def on_log_stored(self, author: int, seq: int) -> list[tuple[int, int]]:
        """Notify that a certified log landed in the mempool; resume if stalled."""
        if not self._missing:
            return []
        self._missing.discard((author, seq))
        if self._missing:
            return []
        batch, self._stalled = self._stalled, None
        self._finish(batch)
        self._next_index += 1
        return self._advance()

    def _advance(self) -> list[tuple[int, int]]:
        while self._stalled is None and self._next_index in self._buffer:
            batch = self._buffer.pop(self._next_index)
            try:
                self.commit_order_batch(batch)
            except BatchInvalid:
                self.leader_faults += 1
            except MissingLogs as gap:
                self._stalled = batch
                self._missing = set(gap.missing)
                return gap.missing
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
        fresh: set[int] = set()  # slots not already in the log store
        for j, slot in enumerate(batch):
            if slot is None:
                continue
            if slot.node_id != j:
                raise BatchInvalid(f"slot {j} authored by {slot.node_id}")
            known = stored.get((j, slot.seq))
            if known is slot or known == slot:
                continue  # verified when it was stored
            if not self.mempool.is_certified(slot):
                raise BatchInvalid(f"slot {j} fails certificate verification")
            fresh.add(j)
        missing: list[tuple[int, int]] = []
        for j, slot in enumerate(batch):
            if slot is None or slot.seq <= self.committed_seq[j]:
                continue
            if j in fresh and not self.mempool.store_certified(slot):
                # A certified slot that forks the stored chain: possible only
                # beyond f faults, and expansion could not find it.
                raise BatchInvalid(f"slot {j} forks the stored chain")
            for seq in range(self.committed_seq[j] + 1, slot.seq):
                if self.mempool.fetch_log(j, seq) is None:
                    missing.append((j, seq))
        if missing:
            raise MissingLogs(missing)
        return self._finish(batch)

    def _finish(self, batch: OrderBatch) -> LogSet:
        log_set = self._expand(batch)
        self.log_sets.append(log_set)
        if self.record_batches:
            self.batch_trace.append(encode_order_batch(batch).hex())
        return log_set

    def _expand(self, batch: OrderBatch) -> LogSet:
        collected: list[PartialOrderLog] = []
        for j, slot in enumerate(batch):
            if slot is None or slot.seq <= self.committed_seq[j]:
                continue
            for seq in range(self.committed_seq[j] + 1, slot.seq + 1):
                log = self.mempool.fetch_log(j, seq)
                if log is None:
                    raise ProtocolInvariantError(
                        f"log ({j}, {seq}) missing after the gap check passed"
                    )
                collected.append(log)
            self.committed_seq[j] = slot.seq
        collected.sort(key=lambda log: (log.seq, log.node_id))
        return tuple(collected)

    @property
    def blocked(self) -> bool:
        return self._stalled is not None

    @property
    def pending_batches(self) -> int:
        return len(self._buffer) + (1 if self._stalled is not None else 0)
