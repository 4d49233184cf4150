"""Prime power enumeration with von Mangoldt weights.

Every n = p^a <= limit is an event (n, log p).  Events reach the rest of
the package through range requests: ``sieve_range(lo, hi)`` sieves just
[lo, hi) against the base primes up to sqrt(hi), so memory is bounded by
the span a caller asks for.  ``EventSource`` answers range requests up to
a limit, slicing one sieved table for small limits and re-sieving each
span past PRELOAD_LIMIT.  Adjacent spans tile the full table bit for bit,
whatever the cut points.

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


def _simple_primes(limit: int) -> np.ndarray:
    """All primes <= limit by a plain odd-only sieve.  Used for the base
    table and as an independent cross-check in tests."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    if limit < 3:
        return np.array([2], dtype=np.int64)
    half = (limit - 1) // 2  # odds 3, 5, ..., indexed by (n - 3) // 2
    mask = np.ones(half, dtype=bool)
    for i in range((math.isqrt(limit) - 1) // 2):  # p = 2i + 3 <= sqrt(limit)
        if mask[i]:
            p = 2 * i + 3
            start = (p * p - 3) // 2
            mask[start::p] = False
    odds = 2 * np.flatnonzero(mask).astype(np.int64) + 3
    return np.concatenate([np.array([2], dtype=np.int64), odds])


def _higher_powers(base: np.ndarray, base_logs: np.ndarray, lo: int, hi: int):
    """Prime powers p^a with a >= 2 in [lo, hi), with the base prime's log."""
    vals = []
    logs = []
    for p, lp in zip(base.tolist(), base_logs.tolist()):
        v = p * p
        if v >= hi:
            break
        while v < hi:
            if v >= lo:
                vals.append(v)
                logs.append(lp)
            v *= p
    if not vals:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    order = np.argsort(np.asarray(vals, dtype=np.int64), kind="stable")
    return (
        np.asarray(vals, dtype=np.int64)[order],
        np.asarray(logs, dtype=np.float64)[order],
    )


def _sieve_segment(lo: int, hi: int, base_odd: np.ndarray) -> np.ndarray:
    """Primes in [lo, hi) given odd base primes up to sqrt(hi)."""
    lo = max(lo, 2)
    if hi <= lo:
        return np.empty(0, dtype=np.int64)
    first_odd = lo | 1
    count = max(0, (hi - first_odd + 1) // 2)
    mask = np.ones(count, dtype=bool)
    for p in base_odd.tolist():
        if p * p >= hi:
            break
        start = max(p * p, ((lo + p - 1) // p) * p)
        if start % 2 == 0:
            start += p
        if start < hi:
            mask[(start - first_odd) // 2 :: p] = False
    primes = first_odd + 2 * np.flatnonzero(mask).astype(np.int64)
    if lo <= 2 < hi:
        primes = np.concatenate([np.array([2], dtype=np.int64), primes])
    elif count and first_odd == 1:
        primes = primes[primes != 1]
    return primes


def sieve_range(lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray]:
    """Event arrays (n, weight) for lo <= n < hi, ascending."""
    lo = max(lo, 2)
    if hi <= lo:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    base = _simple_primes(math.isqrt(hi - 1))
    base_logs = np.log(base.astype(np.float64)) if base.size else np.empty(0)
    primes = _sieve_segment(lo, hi, base[base != 2])
    pw_n, pw_w = _higher_powers(base, base_logs, lo, hi)
    ns = np.concatenate([primes, pw_n])
    ws = np.concatenate([np.log(primes.astype(np.float64)), pw_w])
    order = np.argsort(ns, kind="stable")
    return ns[order], ws[order]


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
