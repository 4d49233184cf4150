"""Prime power enumeration with von Mangoldt weights.

Every n = p^a <= limit is an event (n, log p).  Events reach the rest of
the package through range requests: ``sieve_range(lo, hi)`` sieves just
[lo, hi) against the base primes up to sqrt(hi), so memory is bounded by
the span a caller asks for.  ``EventSource`` answers range requests up to
a limit, slicing one sieved table for small limits and re-sieving each
span past PRELOAD_LIMIT.  Adjacent spans tile the full table bit for bit,
whatever the cut points.

A span is sieved in segments of _SEGMENT odd numbers (a 1 MB mask, after
Bays and Hudson, BIT 17, 1977), so the strided writes of every base prime
stay in cache; each base prime carries the position of its next odd
multiple from one segment to the next.  The higher prime powers are then
inserted among the primes, which leaves the events in ascending order.

The weight of p^a reuses the float computed for p itself, so a prime and
all its powers carry bitwise identical weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from .errors import CoverageError, RangeLimitError

# beyond this limit events are re-sieved per range instead of held in memory
PRELOAD_LIMIT = 1 << 28
# key arithmetic in the sweep must stay inside int64
MAX_LIMIT = 1 << 62
# psi streams its weights in range requests of this width
PSI_SPAN = 1 << 20
# odd slots sieved at a time: a 1 MB mask stays in cache
_SEGMENT = 1 << 20


def _simple_primes(limit: int) -> np.ndarray:
    """All primes <= limit: one segment [2, limit], sieved by the primes up
    to sqrt(limit) from a recursive call."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    return _sieve_segment(2, limit + 1, _simple_primes(math.isqrt(limit))[1:])


def _higher_powers(base: np.ndarray, base_logs: np.ndarray, lo: int, hi: int):
    """Prime powers p^a with a >= 2 in [lo, hi), with the base prime's log.

    Every base prime p satisfies p * p < hi.
    """
    vals = []
    logs = []
    for p, lp in zip(base.tolist(), base_logs.tolist()):
        v = p * p
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


def _sieve_segment(lo: int, hi: int, base_odd: np.ndarray) -> np.ndarray:
    """Primes in [lo, hi), 2 <= lo < hi, given the odd primes up to
    sqrt(hi - 1), in segments of _SEGMENT odd slots."""
    first_odd = lo | 1
    n_slots = (hi - first_odd + 1) // 2
    ps = base_odd
    # slot of each base prime's first odd multiple at or past max(p*p, lo)
    start = np.maximum(ps * ps, -(-lo // ps) * ps)
    offsets = (start + ps * (1 - start % 2) - first_odd) // 2
    buffer = np.empty(min(n_slots, _SEGMENT), dtype=bool)
    parts = []
    for s0 in range(0, n_slots, _SEGMENT):
        s1 = min(s0 + _SEGMENT, n_slots)
        mask = buffer[: s1 - s0]
        mask[:] = True
        for off, p in zip((offsets - s0).tolist(), ps.tolist()):
            mask[off::p] = False
        # advance each offset past s1; one already past it stays
        offsets += np.maximum(s1 - offsets + ps - 1, 0) // ps * ps
        parts.append(first_odd + 2 * (s0 + np.flatnonzero(mask)))
    if lo == 2:
        parts.insert(0, np.array([2], dtype=np.int64))
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


def sieve_range(lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray]:
    """Event arrays (n, weight) for lo <= n < hi, ascending."""
    lo = max(lo, 2)
    if hi <= lo:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    base = _simple_primes(math.isqrt(hi - 1))
    base_logs = np.log(base.astype(np.float64))
    primes = _sieve_segment(lo, hi, base[1:])
    pw_n, pw_w = _higher_powers(base, base_logs, lo, hi)
    # no prime power is prime, so each goes before the first larger prime
    at = np.searchsorted(primes, pw_n)
    ws = np.insert(np.log(primes.astype(np.float64)), at, pw_w)
    return np.insert(primes, at, pw_n), ws


@dataclass
class EventSource:
    """Random access view of the events up to ``limit``.

    Small limits are materialised once; past PRELOAD_LIMIT each range
    request re-sieves just the span it needs, so huge limits never hold
    the full event list in memory.
    """

    limit: int
    _arrays: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.limit > MAX_LIMIT:
            raise RangeLimitError(f"limit {self.limit} exceeds 64-bit key range")

    @property
    def preload(self) -> bool:
        """Whether range requests slice one table sieved up front."""
        return self.limit <= PRELOAD_LIMIT

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        if self._arrays is None:
            self._arrays = sieve_range(2, self.limit + 1)
        return self._arrays

    def range(self, lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray]:
        """Events with lo <= n < hi."""
        if hi > self.limit + 1:
            raise CoverageError(
                f"event source covers n <= {self.limit}, requested up to {hi - 1}"
            )
        if self.preload or self._arrays is not None:
            ns, ws = self.arrays()
            i = np.searchsorted(ns, lo, side="left")
            j = np.searchsorted(ns, hi, side="left")
            return ns[i:j], ws[i:j]
        return sieve_range(lo, hi)


def psi(x: float, events: EventSource | None = None) -> float:
    """Chebyshev psi: the correctly rounded sum of weights over n <= x.

    Weights stream from consecutive PSI_SPAN-wide range requests into one
    math.fsum, so the result does not depend on how the events are held.
    """
    if x < 2:
        return 0.0
    n_max = int(math.floor(x))
    if events is None:
        events = EventSource(n_max)
    elif events.limit < n_max:
        raise CoverageError(f"event source covers n <= {events.limit}, psi needs {n_max}")
    return math.fsum(
        w
        for lo in range(2, n_max + 1, PSI_SPAN)
        for w in events.range(lo, min(lo + PSI_SPAN, n_max + 1))[1].tolist()
    )
