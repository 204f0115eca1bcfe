"""Ordering-manipulation metrics over committed traces, and the
nearest-rank percentile ``result.json`` reports commit latency with.

The reordered-command ratio is a Kendall-tau style statistic: over all
pairs of commands from the same proposer, the fraction committed against
their proposal order. Inversions are counted per proposer by inserting
each value into a sorted list with ``bisect``; tests cross-check against a
quadratic counter.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Optional

from .executor import TraceEntry


def count_inversions(values: list[int]) -> int:
    """Number of index pairs (i, j) with i < j and values[i] > values[j]."""
    seen: list[int] = []  # the values so far, sorted
    count = 0
    for value in values:
        at = bisect_right(seen, value)
        count += len(seen) - at  # earlier values above this one
        seen.insert(at, value)
    return count


def per_proposer_sequences(trace: list[TraceEntry]) -> dict[int, list[int]]:
    """Proposer sequence numbers in committed order, grouped by proposer."""
    out: dict[int, list[int]] = {}
    for entry in trace:
        out.setdefault(entry.proposer_id, []).append(entry.proposer_seq)
    return out


def reordered_ratio(trace: list[TraceEntry]) -> float:
    """Inverted same-proposer pairs / all same-proposer pairs (0.0 if none)."""
    inversions = 0
    pairs = 0
    for seqs in per_proposer_sequences(trace).values():
        k = len(seqs)
        pairs += k * (k - 1) // 2
        inversions += count_inversions(seqs)
    if pairs == 0:
        return 0.0
    return inversions / pairs


def nearest_rank(ordered: list[int], pct: float) -> Optional[int]:
    """The ``pct``-th percentile of ascending ``ordered`` by nearest rank
    (None if empty)."""
    if not ordered:
        return None
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def traces_consistent(traces: list[list[TraceEntry]]) -> bool:
    """True iff every trace commits the identical digest sequence."""
    if not traces:
        return True
    reference = [entry.digest for entry in traces[0]]
    return all([entry.digest for entry in trace] == reference for trace in traces[1:])


def traces_prefix_consistent(traces: list[list[TraceEntry]]) -> bool:
    """True iff every trace's digest sequence is a prefix of the longest one's."""
    longest = [entry.digest for entry in max(traces, key=len, default=[])]
    return all(
        [entry.digest for entry in trace] == longest[: len(trace)] for trace in traces
    )


def first_divergence(a: list[bytes], b: list[bytes]) -> int | None:
    """Index of the first differing position, or None when identical."""
    for idx, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return idx
    if len(a) != len(b):
        return min(len(a), len(b))
    return None
