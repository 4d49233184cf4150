"""Prime power enumeration with von Mangoldt weights.

Every n = p^a <= limit is an event (n, log p).  ``sieve_blocks(lo, hi)``
sieves just [lo, hi) against the base primes up to sqrt(hi) and yields its
events as a stream of ascending blocks (ns, ws); ``sieve_range(lo, hi)``
joins them into two arrays.  Memory is bounded by the span a caller asks
for, or by one segment's mask and one block for a caller that reads the
stream.  Adjacent spans tile the full table bit for bit, whatever the cut
points, so a single pass sieves its own spans and never holds the table: a
sweep given no event source reads each chunk's span block by block, and
psi and the first-moment oracle read the blocks of [2, limit].
``EventSource`` is one sieved table up to a limit, for callers that share
it across several passes; past PRELOAD_LIMIT it holds no table, and only
a sweep takes such a source, to check its coverage.

A span is sieved in segments of _SEGMENT odd numbers (a 1 MB mask, after
Bays and Hudson, BIT 17, 1977), so the strided writes of every base prime
stay in cache; each base prime carries the position of its next odd
multiple from one segment to the next.  A marked segment is handed on in
blocks of at most _BLOCK odd slots, the primes of one slice of its mask at
a time, so a block holds about as many events as a sweep's sub-chunk
reads.  The events no odd slot holds, 2, its powers and the higher powers
of the odd primes, are then inserted among each block's primes, which
leaves the events of a block in ascending order.  The stream is one chain
of stages, each a function of its input: the segments' primes with the
numbers [start, end) each block covers, then the block's events (the
other events in [start, end) inserted), then their weights.  No stage
keeps a block once it is handed on, so a consumer that lets a block go
frees it.

The weight of p^a reuses the float computed for p itself, so a prime and
all its powers carry bitwise identical weights: the log of every event is
taken in place, and the inserted slots are overwritten by their base
primes' weights.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from .errors import CoverageError, RangeLimitError

# beyond this limit an event source holds no table: a sweep sieves each span
PRELOAD_LIMIT = 1 << 28
# the sweep's int64 keys n*K stay below this, and so does every event n
KEY_LIMIT = 1 << 62
# odd slots sieved at a time: a 1 MB mask stays in cache
_SEGMENT = 1 << 20
# odd slots per block handed on: about 7k events near 1e8, a sub-chunk's 2^13
_BLOCK = 1 << 16


def _simple_primes(limit: int) -> np.ndarray:
    """All primes <= limit: 2 and the segments of [3, limit], sieved by the
    odd primes up to sqrt(limit) from a recursive call."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    base_odd = _simple_primes(math.isqrt(limit))[1:]
    return np.concatenate([[2], *(p for p, _, _ in _segments(3, limit + 1, base_odd))])


def _unsieved(base: np.ndarray, base_logs: np.ndarray, lo: int, hi: int):
    """The events in [lo, hi) that no odd prime slot holds, ascending, with
    their base prime's log: 2 and its powers, and p^a for odd p, a >= 2.

    Every base prime p other than 2 satisfies p * p < hi.
    """
    vals = []
    logs = []
    for p, lp in zip(base.tolist(), base_logs.tolist()):
        v = p if p == 2 else p * p
        while v < hi:
            if v >= lo:
                vals.append(v)
                logs.append(lp)
            v *= p
    order = np.argsort(np.asarray(vals, dtype=np.int64), kind="stable")
    return (
        np.asarray(vals, dtype=np.int64)[order],
        np.asarray(logs, dtype=np.float64)[order],
    )


def _segments(lo: int, hi: int, base_odd: np.ndarray):
    """The odd primes in [lo, hi), 2 <= lo < hi, given the odd primes up to
    sqrt(hi - 1), marked a segment of _SEGMENT odd slots at a time: one
    ascending array per block of at most _BLOCK of those slots, each with
    the numbers [start, end) its block covers (lo for the first start, hi
    for the last end)."""
    first_odd = lo | 1
    n_slots = (hi - first_odd + 1) // 2
    ps = base_odd
    # slot of each base prime's first odd multiple at or past max(p*p, lo)
    start = np.maximum(ps * ps, -(-lo // ps) * ps)
    offsets = (start + ps * (1 - start % 2) - first_odd) // 2
    buffer = np.empty(min(n_slots, _SEGMENT), dtype=bool)
    # a span holding no odd number, [2, 3) or [4, 5), is one empty segment
    for s0 in range(0, max(n_slots, 1), _SEGMENT):
        s1 = min(s0 + _SEGMENT, n_slots)
        mask = buffer[: s1 - s0]
        mask[:] = True
        for off, p in zip((offsets - s0).tolist(), ps.tolist()):
            mask[off::p] = False
        # advance each offset past s1; one already past it stays
        offsets += np.maximum(s1 - offsets + ps - 1, 0) // ps * ps
        # this frame keeps no reference to the primes it hands on
        for b0 in range(s0, max(s1, 1), _BLOCK):
            b1, first = min(b0 + _BLOCK, s1), first_odd + 2 * b0
            end = hi if b1 == n_slots else first_odd + 2 * b1
            yield 2 * np.flatnonzero(mask[b0 - s0 : b1 - s0]) + first, first if b0 else lo, end


def _blocks(lo: int, hi: int):
    """Per block of [lo, hi): its events ns, ascending, the positions in
    ns of the events no odd slot holds, and those events' weights."""
    lo = max(lo, 2)
    if hi <= lo:
        return iter(())
    base = _simple_primes(max(math.isqrt(hi - 1), 2))
    base_logs = np.log(base.astype(np.float64))
    other_n, other_w = _unsieved(base, base_logs, lo, hi)

    def insert(primes, start, end):
        # the other events in [start, end); none of them is an odd prime,
        # so each goes before the first larger prime
        i, j = np.searchsorted(other_n, [start, end])
        at = np.searchsorted(primes, other_n[i:j])
        return np.insert(primes, at, other_n[i:j]), at + np.arange(at.size), other_w[i:j]

    return itertools.starmap(insert, _segments(lo, hi, base[1:]))


def _weights(ns: np.ndarray, at: np.ndarray, w: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The events ns and their weights: the log of every event, taken in
    place, then the events at ``at`` take their prime's float, w."""
    ws = ns.astype(np.float64)
    np.log(ws, out=ws)
    ws[at] = w
    return ns, ws


def sieve_blocks(lo: int, hi: int):
    """Event blocks (ns, ws) for lo <= n < hi, one per _BLOCK odd slots:
    each block ascending, and each past the one before it."""
    return itertools.starmap(_weights, _blocks(lo, hi))


def sieve_range(lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray]:
    """Event arrays (n, weight) for lo <= n < hi, ascending: the blocks of
    ``sieve_blocks(lo, hi)`` joined.  The weights are taken once, over the
    joined events, once the blocks are let go; the log is elementwise, so
    they are bit for bit the blocks' weights."""
    parts = list(_blocks(lo, hi))
    starts = np.cumsum([0] + [ns.size for ns, _, _ in parts])
    at = np.concatenate([np.empty(0, dtype=np.int64)] + [a + i for (_, a, _), i in zip(parts, starts)])
    w = np.concatenate([np.empty(0)] + [w for _, _, w in parts])
    ns = np.concatenate([np.empty(0, dtype=np.int64)] + [ns for ns, _, _ in parts])
    del parts
    return _weights(ns, at, w)


@dataclass
class EventSource:
    """The events up to ``limit``, sieved once into one table, for callers
    that share it across several passes; range requests slice it.

    A single pass needs no source: given none, it sieves each span itself,
    which costs no more than slicing the table and never holds it.  Past
    PRELOAD_LIMIT the table is not built: ``arrays`` and ``range`` raise
    RangeLimitError, and a sweep given such a source only checks its
    coverage, then sieves each chunk's span as with no source.
    """

    limit: int
    _arrays: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.limit > KEY_LIMIT:
            raise RangeLimitError(f"limit {self.limit} exceeds 64-bit key range")

    @property
    def preload(self) -> bool:
        """Whether the table fits: the limit is at most PRELOAD_LIMIT."""
        return self.limit <= PRELOAD_LIMIT

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        if not self.preload:
            raise RangeLimitError(
                f"a source up to {self.limit} holds no table: its limit is past {PRELOAD_LIMIT}"
            )
        if self._arrays is None:
            self._arrays = sieve_range(2, self.limit + 1)
        return self._arrays

    def check(self, hi: int):
        """Raise CoverageError unless the source covers every n < hi."""
        if hi > self.limit + 1:
            raise CoverageError(
                f"event source covers n <= {self.limit}, requested up to {hi - 1}"
            )

    def range(self, lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray]:
        """Events with lo <= n < hi: a slice of the table."""
        self.check(hi)
        ns, ws = self.arrays()
        i = np.searchsorted(ns, lo, side="left")
        j = np.searchsorted(ns, hi, side="left")
        return ns[i:j], ws[i:j]


def psi(x: float) -> float:
    """Chebyshev psi: the correctly rounded sum of weights over n <= x.

    The weights of [2, x] stream block by block from the sieve into one
    math.fsum, so the result does not depend on how the blocks are cut.
    """
    if x < 2:
        return 0.0
    n_max = int(math.floor(x))
    if n_max > KEY_LIMIT:
        raise RangeLimitError(f"psi({x}) needs events past the 64-bit key range")
    return math.fsum(w for _, ws in sieve_blocks(2, n_max + 1) for w in ws.tolist())
