"""Exact piecewise evaluation of moments of psi(x + width) - psi(x) - width.

The integrand is driven by the step function
    S(x) = sum of weights of prime powers n inside the window at x,
which only changes where an event enters or leaves.  For a fixed window of
width h the event n is inside iff x < n <= x + h, so it enters at n - h and
leaves at n.  For a scaled window the event is inside iff x < n <= x(1+delta),
entering at n/(1+delta) and leaving at n.

With h and delta rational, every breakpoint is a multiple of 1/K: Fixed and
Scaled give the key denominator K and the key entry_key(n) at which event n
enters, and it leaves at key n*K.  The keys are int64 and ordered by integer
comparison; floats only enter when a piece is integrated.

On a piece [a, b) the residual u(x) = S - h is constant (fixed) or
u(x) = S - delta x falls linearly (scaled).  One kernel (_Midpoints)
integrates both.  A piece of length L is described by its midpoint
residual c and its half-fall d: u runs from c + d down to c - d, and the
piece integral is L times the mean of g over that interval.  A scaled
piece reads c off the exact doubled midpoint key a + b, and its exact
half-fall is d = delta L / 2.  A fixed piece is a midpoint piece with
d = 0, the t = 0 end of the forms below: its mean is g(c), L c^n or
L |c|^l = L exp(l log|c|) at every order, and it forms nothing else.
The orders are those in (0, 1/_SERIES_T] = (0, 1024], as integers for
every kind but the absolute; the sweep refuses any other.  With t = d/|c|:
    integer n, every kind, where u keeps its sign:
        L c^(n%2) sum_j C(n,2j) c^(n-n%2-2j) d^(2j) / (2j+1),
        e.g. L c (c^2 + d^2) for n = 3; a positive or negative part is
        that or 0.  Every term has the sign of c^n, so nothing cancels,
        and for u^n of odd n (signed) the sum holds on every piece: the
        closed form below would cancel there.  A signed moment of even
        order is the absolute one;
    real absolute order l, t <= _SERIES_T = 2^-10:
        L |c|^l (1 + sum_k C(l,2k) t^(2k) / (2k+1)), |c|^l = exp(l log|c|),
        with one log per piece shared by all orders and as many terms as
        keep the truncation below 1e-16, a few at every l <= 1/_SERIES_T;
    real absolute order l, 2^-10 < t < 1: the closed form
        L |c|^l ((1+t)^m - (1-t)^m) / (2 m t), m = l + 1, with the
        difference factored out as (1+t)^m (-expm1(-m (log1p(t) - log1p(-t))));
    a piece that changes sign (t >= 1), every kind but the odd signed
        one: the closed form at c + d and c - d, L (|c+d|^m + |c-d|^m) /
        (2 m d), or one of its terms for a part.  There its terms add, so
        it is exact too, and it does not overflow where the sum's terms
        b_j d^(2j) would at the top of the order domain.
No piece is integrated as a difference G(u_a) - G(u_b) of antiderivatives,
which would cancel: u_a - u_b = 2d is tiny next to |u| on most pieces.
No ``**`` takes a negative base: numpy's power leaves its vectorised path
there and costs an order of magnitude more per element.

Piece lengths are exact integer key differences divided by K once.  Keys
that several events share leave pieces of length 0 between them (h an
integer with n and n - h both events, or n q = n' (p + q) scaled); they
stay in place, with d = 0, add exactly 0 and are not counted.  Moving the
other pieces to the front would cost a gather and a copy of each array on
nearly every sub-chunk of an integer h.

The key range [K, ceil(X K)] is cut at two levels.  Outer chunks hold
about _CHUNK_EVENTS events each; a window that needs more than _MAX_CHUNKS
of them raises RangeLimitError before any is planned.  Each is one task:
one call of _sweep_chunk, a module-level function of picklable arguments,
whose _Chunk record holds, for each pair and for the length, the exact
sum of its sub-chunks' values as a few floats (_partials), and the chunk's
piece count; a record so does not grow with the sub-chunks.  A task
carries its chunk's events or nothing:
    no source               the task streams its own span (_chunk_span)
                            from the sieve in blocks of events
                            (sieve_blocks), so the sweep holds
                            neither the event table nor a chunk's events;
    a preloaded source      the task carries the table's slice (ns, ws) for
                            that span, not the source, which would carry the
                            whole table to every worker; it is read as one
                            block;
    a source past           it holds no table, so its coverage is checked
    PRELOAD_LIMIT           once, up front, and the sweep runs as with no
                            source.
A table pays off only when a caller shares one source across several
sweeps.  The tasks run in one pool of min(threads, chunks) worker
processes, forked where the platform can fork, as the sieve's Python loops
and the short numpy calls between sub-chunks hold the interpreter lock; a
sweep of one chunk, or on one worker, runs in the calling process.

Inside an outer chunk the sweep integrates sub-chunks, cut at the exit key
of every _SUB_EVENTS-th event of the chunk, so the keys and the setup and
kernel temporaries of a sub-chunk (about 2 _SUB_EVENTS pieces) stay in
cache.  An exit key inside the chunk is already a breakpoint, so the cuts
add no piece.  The events overlapping a sub-chunk are a contiguous run of
the chunk's events, as entry and exit keys both rise with n, and it is
found on the events themselves: n*K <= e exactly when n <= e // K, and
entry_key(n) < e exactly when n < first_entering(e), so no chunk-wide key
array is formed.  Those already inside the window at its left end only set
the starting value of S, and those leaving at its right end or later never
step it, so a window wider than a sub-chunk costs one sum, not a larger
sort.  One generator, _sub_chunks, cuts the chunk's block stream into
sub-chunks: its docstring sets out the cut rule and when it pulls and joins
blocks into the one run of events it holds.  Each sub-chunk's events are
the very slice a single array of the chunk's events would give, so the
values do not depend on the blocks, and no stage keeps a block it has
handed on.

Both levels of cuts depend only on the window, _CHUNK_EVENTS and the
events, never on the worker count or the sieve's blocks, and the results
are combined in a fixed order, so they do not depend on either.  Within a
sub-chunk S is carried exactly in float64 alone, by an error-free split
(Dekker 1971): each weight is the sum of a high part, a multiple of 2^-g,
and a low part below 2^-(g+1), and two running sums, of the high and of the
low parts, start at S less an anchor, the linear part at ka (h, or
delta ka / K), split the same way.  The running sum of the high parts is
exact while it stays below 2^(53-g): the sweep takes g from a bound on
|S - anchor|, the weight of the integers in a closed window at X + 1, and a
window that leaves no g >= 0 raises RangeLimitError.  A fixed residual is
the high plus the low sum, one rounding of their exact value.  A scaled one
also takes away the drift of delta x since ka at the piece's midpoint,
p (mid - 2 ka) / (2 q K) from the exact doubled midpoint key mid, with
p / (2 q K) split so that its high part times mid - 2 ka is exact.  So each
residual is within one ulp of max(|u|, drift) of the exact one.  What is
the same on every platform is the keys and the piece counts, which are
exact integers, and each length, one correctly rounded division.  The
values are not: numpy picks its float64 log and exp by CPU feature, so the
last bits of the sieve's weights, and of the exp, log, log1p and expm1 of
the real-order kernels, may differ between machines, and the length sums
rest on the order of numpy's pairwise sum, which the tests check against
stored sums on each platform they run on.  No step uses a type wider than
float64.  The per-piece contributions are summed pairwise (``np.sum``),
all but the series corrections, which are below 1e-6 of them; a chunk
carries the exact sum of its sub-chunks' sums, and the sweep combines them
with ``math.fsum``, which rounds that exact sum once however the sweep is
cut into chunks.  A moment that is not finite in float64 raises
RangeLimitError.

Each thread of each process writes the per-piece arrays of its sub-chunks
with ``out=`` into one workspace of named, grow-only slots, so a sub-chunk
maps no fresh memory.  Allocated afresh, they would be handed back to the
system and faulted in again, zeroed, on every sub-chunk, which cost a
third of the time of many short sweeps.  The calling thread keeps its
workspace across sweeps; a pool worker's goes when the pool closes at the
end of a sweep.  A slot is a private anonymous memory map, copied on write
across fork: any forked process, the pool's or the caller's own, starts on
a copy of the forking thread's slots and writes only that copy.  A
workspace view never outlives the sub-chunk that took it: the next one
overwrites it.
Arrays whose lifetimes do not overlap share a slot, as every slot adds to
the peak memory and the cache footprint.  What one thread holds while it
sweeps a chunk, sieve and sweep together, in bytes per event of the
sieve's block or the held run, or per piece of the sub-chunk:
    sieve     the base primes and their offsets, the powers      < 1 MB
              of 2 and the higher prime powers of the span
    mask      the segment mask, one byte per odd slot            _SEGMENT
    block     the odd primes of _BLOCK slots of the segment,     24 / event
              then its events (ns, ws) with those powers
              merged in
    run       the held run (ns, ws); while a pull joins it, the  16 / event
              blocks pulled and one array of the new run too
    keys      event keys, then the running sums of the high and  16 / piece
              the low parts, then the piece lengths
    deltas    event deltas, then the key steps; scaled, then r2   8 / piece
    points    sorted keys, then the float64 residual (scaled,     8 / piece
              the drift's high part first)
    sorted    scaled: the doubled midpoint keys less 2 ka; then   8 / piece
              the kernel's q in either geometry
    d         scaled: the exact half-falls                        8 / piece
    midpoints scaled: the low sum less the drift's low part;      8 / piece
              then the kernel's temporaries term, a part's sign
              mask and beyond (fixed: the mask alone)
    kernel    _Midpoints' own slots, as the pairs need them:      8 / piece
              scratch, a, log_top, Lc and c2; scaled also t (top   each
              lives in log_top's slot until its log replaces it),
              d2, one running power d2^j and series^k
The first four are the sieve's and the held run's, allocated per block;
the rest are workspace slots.  The desk table's sweep (X = 1e8, nine
scaled pairs) takes 16 slots, 2.5 MB, and its blocks hold about 7k events
each, where a segment holds about 110k; a fixed window's, 6 slots,
1.0 MB, for |u|^2 and u, and 9, 1.3 MB, for the four kinds of order 3 and
|u|^2.1.  What a sub-chunk still allocates is argsort's indices, the split
of the weights already inside the window at its start, flatnonzero
results and the scaled kernel's arrays over the few pieces outside the
series regime, one row per real order.  A sub-chunk's fixed cost, the
Python and the short numpy calls around its arrays, is about 60 us of
setup and 95 us of kernel for the desk's pairs on a 2-vCPU VM: the real
orders share one pass over the middle regime and the pieces that change
sign, and the per-sweep splits are integer arithmetic.
"""

from __future__ import annotations

import functools
import math
import mmap
import os
import threading
import time
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence, Tuple

import numpy as np

from .errors import (
    ConfigError,
    InvalidOrderError,
    InvalidWindowError,
    RangeLimitError,
    ResourceError,
)
from .sieve import KEY_LIMIT, EventSource, sieve_blocks, sieve_range

MAX_DELTA_DENOMINATOR = 10**9
# most worker processes a sweep takes: a fork pool starts all of its workers
# at once, so a count is refused before any pool starts
MAX_THREADS = 64
# events per outer chunk: one pool task each
_CHUNK_EVENTS = 1 << 20
# most outer chunks a sweep plans: their bounds and tasks are lists, built
# before any work starts (the full-scale table takes 415)
_MAX_CHUNKS = 1 << 20
# events per integration sub-chunk, so that its setup temporaries stay in cache
_SUB_EVENTS = 1 << 13
# t = d/|c| up to which the scaled kernel sums the binomial series in t^2 for
# real absolute orders: at 2^-10 a few terms bound the truncation by 1e-16
_SERIES_T = 2.0**-10
# the least positive float64, 2^-1074
_SUBNORMAL = math.ulp(0.0)
# the finest grid 2^-g of the weights' high parts: weights are logs of numbers
# below 2^63, so below 2^6, and _grid_split rounds exactly while |x| < 2^(51-g)
_GRID_MAX = 45


def _brief(x) -> str:
    """A rational for a message: as written while it is short, else to six
    digits, as its decimal digits could run to thousands."""
    x = Fraction(x)
    if x.numerator.bit_length() + x.denominator.bit_length() <= 128:
        return str(x)
    exponent = math.log10(abs(x.numerator)) - math.log10(x.denominator)
    return f"{'-' if x < 0 else ''}{10 ** (exponent % 1):.6g}e{math.floor(exponent):+d}"


class Kind(str, Enum):
    ABSOLUTE = "absolute"
    SIGNED = "signed"
    POSITIVE_PART = "positive_part"
    NEGATIVE_PART = "negative_part"


@dataclass(frozen=True)
class Fixed:
    h: Fraction

    def __post_init__(self):
        object.__setattr__(self, "h", Fraction(self.h))
        if self.h <= 0:
            raise InvalidWindowError(f"window width must be positive, got {_brief(self.h)}")

    @property
    def width(self) -> Fraction:
        return self.h

    @property
    def K(self) -> int:
        return self.h.denominator

    def entry_key(self, n):
        return n * self.K - self.h.numerator

    def first_entering(self, e: int) -> int:
        """Least n with entry_key(n) >= e: ceil((e + h.numerator) / K)."""
        return -(-(e + self.h.numerator) // self.K)

    def right_end(self, x: Fraction) -> Fraction:
        return x + self.h


@dataclass(frozen=True)
class Scaled:
    delta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "delta", Fraction(self.delta))
        if not 0 < self.delta < 1:
            raise InvalidWindowError(f"delta must lie in (0, 1), got {_brief(self.delta)}")
        if self.delta.denominator > MAX_DELTA_DENOMINATOR:
            raise InvalidWindowError(
                f"delta denominator {_brief(self.delta.denominator)} exceeds "
                f"{MAX_DELTA_DENOMINATOR}"
            )

    @property
    def width(self) -> Fraction:
        return self.delta

    @property
    def K(self) -> int:
        return self.delta.numerator + self.delta.denominator

    def entry_key(self, n):
        return n * self.delta.denominator

    def first_entering(self, e: int) -> int:
        """Least n with entry_key(n) >= e: ceil(e / q)."""
        return -(-e // self.delta.denominator)

    def right_end(self, x: Fraction) -> Fraction:
        return x * (1 + self.delta)


@dataclass(frozen=True)
class WindowSpec:
    X: float
    geometry: Fixed | Scaled

    def __post_init__(self):
        if not 1 <= self.X < math.inf:
            raise InvalidWindowError(f"X must be finite and at least 1, got {self.X}")
        if isinstance(self.geometry, Fixed) and 1 < self.X <= self.geometry.h:
            raise InvalidWindowError(
                f"fixed width h={_brief(self.geometry.h)} must be below X={self.X}"
            )

    def limit(self) -> int:
        """Largest n any window position can contain; n*K must be below KEY_LIMIT."""
        limit = math.floor(self.geometry.right_end(Fraction(self.X)))
        if limit * self.geometry.K >= KEY_LIMIT:
            raise RangeLimitError(
                f"keys for X={self.X} with denominator {_brief(self.geometry.K)} overflow 64-bit range"
            )
        return limit


@dataclass(frozen=True)
class MomentResult:
    order: float
    kind: Kind
    value: float


@dataclass
class SweepDiagnostics:
    piece_count: int = 0
    length_sum: float = 0.0
    wall_seconds: float = 0.0
    chunks: int = 0


def _validate_pairs(pairs: Sequence[Tuple[float, Kind]]):
    """Refuse an order outside (0, 1 / _SERIES_T] = (0, 1024], or a kind
    other than absolute at an order that is not an integer."""
    for order, kind in pairs:
        if not 0 < order <= 1 / _SERIES_T:
            raise InvalidOrderError(f"order must lie in (0, {1 / _SERIES_T:g}], got {order:g}")
        if kind != Kind.ABSOLUTE and not float(order).is_integer():
            raise InvalidOrderError(
                f"kind {kind.value} needs an integer order, got {order}"
            )


def _grid(bound: float) -> int:
    """g such that running sums of high parts on the grid 2^-g are exact
    while their size stays below ``bound``: a multiple of 2^-g below
    2^(53-g) is a float64, and g leaves a factor 2 to spare."""
    g = min(52 - math.frexp(bound)[1], _GRID_MAX)
    if g < 0:
        raise RangeLimitError(
            f"window sums up to {bound:.3g} leave no exact float64 running sum"
        )
    return g


def _grid_split(x: np.ndarray, g: int, high=None, low=None):
    """x = high + low exactly, high the multiple of 2^-g nearest x and
    |low| <= 2^-(g+1); |x| < 2^(51-g).  Adding and taking away 1.5 2^(52-g)
    rounds to that grid.  ``low`` may be ``x`` itself."""
    shift = 1.5 * 2.0 ** (52 - g)
    high = np.add(x, shift, out=high)
    np.subtract(high, shift, out=high)
    return high, np.subtract(x, high, out=low)


def _split(num: int, den: int, s: int) -> Tuple[float, float]:
    """num / den = high + low, high = floor(num 2^s / den) 2^-s exactly, low
    rounded once; high is a float64 while floor(num 2^s / den) < 2^53.  The
    integers need not be in lowest terms: an integer quotient rounds
    correctly, so only the value counts."""
    num <<= s
    whole = num // den
    return math.ldexp(whole, -s), (num - whole * den) / (den << s)


@functools.lru_cache(maxsize=256)
def _series_terms(order: float) -> tuple:
    """b_k = C(order, 2k) / (2k+1) * T^(2k) for k >= 1, T = _SERIES_T.

    The mean of |c + s d|^order over s in [-1, 1] is
    |c|^order (1 + sum_k b_k r^(2k)) with r = t / T, t = d/|c| < 1.  Over
    the order domain (0, 1/T] = (0, 1024] that _validate_pairs enforces,
    order * T <= 1, so each term is at most 1/20 of the one before when
    r <= 1, and stopping at the first term below 1e-17 keeps the dropped
    tail below 1e-16.  Cached, as every sub-chunk of a sweep asks for them.
    """
    terms, binom, j = [], 1.0, 0  # binom = C(order, j) T^j
    while True:
        binom *= (order - j) * (order - j - 1) / ((j + 1) * (j + 2)) * _SERIES_T**2
        j += 2
        term = binom / (j + 1)
        if abs(term) < 1e-17:
            return tuple(terms)
        terms.append(term)


class _Workspace(threading.local):
    """One thread's grow-only work arrays, by slot name.

    ``take`` returns the first n elements of a slot as the given dtype; the
    view stays valid until the next take of that slot.  A slot that is too
    small is replaced by one an eighth larger than asked for, so sub-chunks
    that differ a little in size do not replace it each time.  Each slot is
    an anonymous memory map of its own, not a malloc block: a long-lived
    block inside a malloc heap keeps the heap from shrinking once a chunk's
    event arrays are freed, about 8 MB more resident at the peak of a
    two-thread streaming sweep.  The maps are private: a process forked
    from the thread writes its own copy of them, never the thread's.  A
    view of a whole slot as each dtype it is taken as is kept, so a take
    is one slice of it.
    """

    def __init__(self):
        self._slots = {}
        self._views = {}  # (name, dtype) -> the whole slot as that dtype

    def take(self, name: str, n: int, dtype=np.float64) -> np.ndarray:
        view = self._views.get((name, dtype))
        if view is None or view.size < n:
            view = self._view(name, n, dtype)
        return view[:n]

    def _view(self, name: str, n: int, dtype) -> np.ndarray:
        itemsize = np.dtype(dtype).itemsize
        nbytes = n * itemsize
        slot = self._slots.get(name)
        if slot is None or slot.size < nbytes:
            size = max(nbytes + nbytes // 8, 1)
            slot = self._slots[name] = np.frombuffer(
                mmap.mmap(-1, size, access=mmap.ACCESS_COPY), np.uint8
            )
            self._views = {key: v for key, v in self._views.items() if key[0] != name}
        view = self._views[name, dtype] = slot[: slot.size // itemsize * itemsize].view(dtype)
        return view


_WORK = _Workspace()


class _cached:
    """functools.cached_property without the class-wide lock that Python
    3.10 and 3.11 hold while computing: a worker forked while another
    thread holds it would wait for it forever."""

    def __init__(self, func):
        self.func = func

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        # the instance attribute shadows this non-data descriptor from now on
        value = instance.__dict__[self.func.__name__] = self.func(instance)
        return value


class _Midpoints:
    """Pieces by midpoint residual c, half-fall d and length L: on each the
    residual falls linearly from c + d to c - d, so the integral of g over
    it is L times the mean of g over [c - d, c + d].  d is None for flat
    pieces, a fixed window's or grid cells, whose mean is g(c): the t = 0
    end of the series regime.  They form none of t, top, the d^2 powers,
    the crossing and middle sets or the series weights, and every order
    takes the leading term L |c|^order alone.

    Quantities that several (order, kind) pairs share are computed once, on
    first use, into the thread's workspace: one instance per thread is in
    use at a time.  The orders lie in (0, 1/_SERIES_T] = (0, 1024], which
    the sweep enforces, and an integer order n takes d^2 and one running
    power d^(2j) whatever n, so the workspace holds the same slots at every
    order.  With t = d/|c|, every real absolute order takes one of
    three forms: the binomial series (t <= _SERIES_T), the closed form with
    the small difference factored out (_SERIES_T < t < 1), and the closed
    form at c + d and c - d on pieces that change sign, where its terms add
    (t = 1, as t is computed as d / max(|c|, d)).  A sum over all pieces
    zeroes the pieces another form integrates in the array it sums, so the
    lengths are never copied per regime.

    The arrays that die young take no slot of their own: top lives in
    log_top's slot until its log replaces it, and the setup slots that no
    array of the sub-chunk reads any more by the time a kernel runs host
    r2 (deltas), q (sorted) and the loop temporaries term, a part's sign
    mask and the beyond mask (midpoints).
    """

    def __init__(self, c: np.ndarray, d: np.ndarray | None, lengths: np.ndarray):
        self.c, self.d, self.L = c, d, lengths
        self._scratch = self._work("scratch")
        self._series_weights = {}

    def _work(self, name: str, dtype=np.float64) -> np.ndarray:
        return _WORK.take(name, self.c.size, dtype)

    @_cached
    def a(self) -> np.ndarray:
        return np.abs(self.c, out=self._work("a"))

    @_cached
    def top(self) -> np.ndarray:
        """|c|, or d on a piece that changes sign; never 0.  Read only by t
        and log_top, whose log overwrites it.  An empty piece with c = 0
        (d = 0) takes the least subnormal, so its t is 0, not 0/0; a piece
        that is not empty has d > 0, far above it."""
        top = np.maximum(self.a, self.d, out=self._work("log_top"))
        return np.maximum(top, _SUBNORMAL, out=top)

    @_cached
    def t(self) -> np.ndarray:
        return np.divide(self.d, self.top, out=self._work("t"))

    @_cached
    def log_top(self) -> np.ndarray:
        if self.d is None:  # log|c| in a slot of its own; exp(order log 0) = 0
            with np.errstate(divide="ignore"):
                return np.log(self.a, out=self._work("log_top"))
        self.t  # t reads top before its log takes the slot
        return np.log(self.top, out=self.top)

    @_cached
    def beyond_series(self) -> np.ndarray:
        return np.flatnonzero(np.greater(self.t, _SERIES_T, out=self._work("midpoints", bool)))

    @_cached
    def crossing(self) -> np.ndarray:
        i = self.beyond_series
        return i[self.t[i] == 1.0]

    @_cached
    def middle(self) -> np.ndarray:
        i = self.beyond_series
        return i[self.t[i] < 1.0]

    @_cached
    def Lc(self) -> np.ndarray:
        return np.multiply(self.L, self.c, out=self._work("Lc"))

    @_cached
    def c2(self) -> np.ndarray:
        return np.multiply(self.c, self.c, out=self._work("c2"))

    @_cached
    def d2(self) -> np.ndarray:
        return np.multiply(self.d, self.d, out=self._work("d2"))

    @_cached
    def r2(self) -> np.ndarray:
        r2 = np.multiply(self.t, 1.0 / _SERIES_T, out=self._work("deltas"))
        return np.multiply(r2, r2, out=r2)

    def _series_weight(self, k: int) -> np.ndarray:
        """L * r^(2k), r = t / _SERIES_T: at most 1 in the series regime."""
        if k not in self._series_weights:
            prev = self.L if k == 1 else self._series_weight(k - 1)
            weight = np.multiply(prev, self.r2, out=self._work(f"series^{k}"))
            self._series_weights[k] = weight
        return self._series_weights[k]

    def _even_part(self, n: int):
        """Q_n = sum_j C(n, 2j)/(2j+1) c^(n-n%2-2j) d^(2j), or None for Q_n = 1;
        on flat pieces its j = 0 term c^(n-n%2) alone.

        The mean of u^n over the piece is c^(n%2) Q_n, every term of which
        has the sign of c^n, so nothing cancels.
        """
        if n < 2:
            return None
        if self.d is None:
            q = self.c2
            for _ in range(n // 2 - 1):
                q = np.multiply(q, self.c2, out=self._work("sorted"))
        else:
            power = self.d2
            for j in range(1, n // 2 + 1):
                if j > 1:  # d^(2j) in one slot, by one product on d^(2j-2)
                    power = np.multiply(power, self.d2, out=self._work("d2^j"))
                b = math.comb(n, 2 * j) / (2 * j + 1)
                term = power if b == 1 else np.multiply(b, power, out=self._work("midpoints"))
                if j == 1:
                    q = np.add(self.c2, term, out=self._work("sorted"))
                else:
                    q *= self.c2
                    q += term
        return q

    @_cached
    def crossing_ends(self) -> tuple:
        """On the pieces that change sign: c + d and d - c, the ends' |u|,
        then L and d."""
        i = self.crossing
        c, d = self.c[i], self.d[i]
        # both >= 0 up to rounding where t rounded to 1 on a piece that keeps its sign
        return np.maximum(c + d, 0.0), np.maximum(d - c, 0.0), self.L[i], d

    def _crossing_sum(self, m, kind: Kind):
        """The pieces that change sign, by the closed form at c + d and c - d:
        for |u|^(m-1) the two terms add, and a part takes one of them.  m is
        one exponent, or a column of them for the real absolute orders, one
        sum each."""
        if not self.crossing.size:
            return 0.0
        hi, lo, L, d = self.crossing_ends
        if kind == Kind.ABSOLUTE:
            g = hi**m + lo**m
        elif kind == Kind.POSITIVE_PART:
            g = hi**m
        else:  # min(u, 0)^(m-1) integrates to -(c - d)^m / m
            g = lo**m if int(m) % 2 else -(lo**m)
        return (L * g / (2.0 * m * d)).sum(axis=-1)

    def integrals(self, pairs: Sequence[Tuple[float, Kind]]) -> list:
        """The integral of g(u) summed over the pieces, for each (order,
        kind) pair; the real absolute orders are integrated together."""
        real = iter(self._real_absolute([o for o, _ in pairs if o != int(o)]))
        return [next(real) if o != int(o) else self._integer(int(o), k) for o, k in pairs]

    def _integer(self, n: int, kind: Kind) -> float:
        if kind == Kind.SIGNED and n % 2 == 0:
            kind = Kind.ABSOLUTE  # u^n = |u|^n
        if kind == Kind.SIGNED:
            # u^n of odd n on every piece: at a sign change its closed form
            # would cancel, where the polynomial does not
            weighted = self.Lc
        elif kind == Kind.ABSOLUTE:
            weighted = np.multiply(self.L, self.a, out=self._scratch) if n % 2 else self.L
        else:  # 1 where c has the part's sign, 0 elsewhere
            compare = np.greater if kind == Kind.POSITIVE_PART else np.less
            factor = compare(self.c, 0.0, out=self._work("midpoints", bool))
            weighted = np.multiply(self.L, factor, out=self._scratch)
            if n % 2:
                np.multiply(weighted, self.c, out=weighted)
        q = self._even_part(n)
        if q is not None:
            weighted = np.multiply(weighted, q, out=self._scratch)
        rest = 0.0
        if kind != Kind.SIGNED and self.d is not None:
            # the pieces that change sign, where Q_n may have overflowed
            # though their closed form has not, are summed by _crossing_sum
            weighted[self.crossing] = 0.0
            rest = float(self._crossing_sum(n + 1.0, kind))
        return float(weighted.sum()) + rest

    def _real_absolute(self, orders: list) -> list:
        """The real absolute orders, in one (orders x pieces) pass over each
        regime beyond the series; each row is one order's, bit for bit."""
        totals = []
        for order in orders:
            # series regime: L |c|^order (1 + sum_k b_k r^(2k)); the corrections
            # are below 1e-6 of the leading sum, which alone is summed pairwise
            p = np.multiply(self.log_top, order, out=self._scratch)
            np.exp(p, out=p)
            if self.d is None:  # flat: the leading term alone, at every order
                totals.append(float(np.multiply(p, self.L, out=p).sum()))
                continue
            p[self.beyond_series] = 0.0
            corrections = [
                b * float(np.einsum("i,i->", p, self._series_weight(k)))
                for k, b in enumerate(_series_terms(order), 1)
            ]
            totals.append(float(np.multiply(p, self.L, out=p).sum()) + sum(corrections))
        if self.d is None or not orders:
            return totals
        order = np.array(orders)[:, None]
        m = order + 1.0
        middle, i = np.zeros(len(orders)), self.middle
        if i.size:
            # ((1+t)^m - (1-t)^m) / (2 m t) with the difference factored out:
            # (1+t)^m (1 - ((1-t)/(1+t))^m), the bracket by expm1
            t = self.t[i]
            log_rise = np.log1p(t)
            x = m * (log_rise - np.log1p(-t))
            g = np.exp(order * self.log_top[i] + m * log_rise) * -np.expm1(-x) / (2.0 * m * t)
            middle = (self.L[i] * g).sum(axis=1)
        crossing = np.broadcast_to(self._crossing_sum(m, Kind.ABSOLUTE), middle.shape)
        return [total + float(a) + float(b) for total, a, b in zip(totals, middle, crossing)]


def _chunk_moments(
    geom: Fixed | Scaled, ns: np.ndarray, weights: np.ndarray, ka: int, kb: int,
    pairs: Sequence[Tuple[float, Kind]], x_end: float | None, grid: int,
):
    """Integrate all requested (order, kind) pairs over x in [ka/K, kb/K):
    returns their values and then the length sum, and the piece count.

    ns/weights hold exactly the events overlapping [ka, kb).  On each piece
    S less the linear part at ka is carried as a high part on the grid
    2^-grid and a low part: every weight and the linear part are split into
    a multiple of 2^-grid and a remainder (_grid_split, _split), so the
    running sum of the high parts is exact (the sweep's grid bounds it) and
    only the tiny low parts round.  x_end, when given, replaces the right
    endpoint of the final piece, so the sweep ends at X itself even when
    X*K is not an integer.
    """
    K = geom.K
    # events entered by ka only set the starting value of S, and events
    # leaving at kb or later never step it, so only the keys strictly
    # inside are sorted; a window wider than the chunk costs one sum.  Both
    # counts are read off the ascending ns exactly: entry_key(n) <= ka
    # exactly when n < first_entering(ka + 1), and n*K < kb when n <= (kb-1) // K
    inside = int(np.searchsorted(ns, geom.first_entering(ka + 1), side="left"))
    leaving = int(np.searchsorted(ns, (kb - 1) // K, side="right"))
    head_high, head_low = _grid_split(weights[:inside], grid)
    if isinstance(geom, Fixed):
        anchor = geom.h.numerator, geom.h.denominator
    else:  # delta ka / K
        anchor = geom.delta.numerator * ka, geom.delta.denominator * K
    anchor_high, anchor_low = _split(*anchor, grid)
    entering = ns.size - inside
    n_keys = entering + leaving
    keys = _WORK.take("keys", n_keys, np.int64)
    # entry_key is affine in n, so it is written in place from its values
    # at 0 and 1; no product passes the final key
    base = geom.entry_key(0)
    np.multiply(ns[inside:], geom.entry_key(1) - base, out=keys[:entering])
    keys[:entering] += base
    np.multiply(ns[:leaving], K, out=keys[entering:])
    deltas = _WORK.take("deltas", n_keys)
    deltas[:entering] = weights[inside:]
    np.negative(weights[:leaving], out=deltas[entering:])
    order = np.argsort(keys, kind="stable")
    # pieces [points[i], points[i+1]) between ka, the sorted keys and kb,
    # on which S less the linear part at ka is high[i] + low[i]; take's
    # default mode="raise" would buffer a copy of its output.  Keys that
    # several events share leave empty pieces between them; they stay in
    # place, with length 0 and so adding 0, as moving the rest to the front
    # costs more than integrating them
    size = n_keys + 1
    points = _WORK.take("points", size + 1, np.int64)
    points[0], points[-1] = ka, kb
    np.take(keys, order, out=points[1:-1], mode="wrap")
    running = _WORK.take("keys", 2 * size)
    high, low = running[:size], running[size:]
    np.take(deltas, order, out=low[1:], mode="wrap")
    _grid_split(low[1:], grid, high[1:], low[1:])
    high[0] = head_high.sum() - anchor_high
    low[0] = head_low.sum() - anchor_low
    np.cumsum(high, out=high)
    np.cumsum(low, out=low)
    # the keys strictly inside are past ka and below kb: the final piece,
    # as the first, is not empty
    left = int(points[-2])  # where the final piece starts

    # exact integer differences, rounded once; slots are reused as what they
    # held dies (see the module docstring)
    steps = np.subtract(points[1:], points[:-1], out=_WORK.take("deltas", size, np.int64))
    piece_count = int(np.count_nonzero(steps))
    u = _WORK.take("points", size)
    p, q = geom.width.numerator, geom.width.denominator
    if isinstance(geom, Fixed):
        # S - h is high + low, one rounding of their exact sum
        np.add(high, low, out=u)
    else:
        # the residual at each midpoint: S - delta x less the drift of delta
        # x since ka, p (mid - 2 ka) / (2 q K) from the exact doubled
        # midpoint key mid, with p / (2 q K) split so that its high part
        # times mid - 2 ka < 2 (kb - ka) is exact
        den = 2 * q * K
        bits = max(53 - (2 * (kb - ka)).bit_length(), 0)
        drift_high, drift_low = _split(p, den, max(bits + den.bit_length() - p.bit_length() - 1, 0))
        off = np.add(points[:-1], points[1:], out=_WORK.take("sorted", size, np.int64))
        off -= 2 * ka
        rest = np.multiply(off, drift_low, out=_WORK.take("midpoints", size))
        np.subtract(low, rest, out=rest)
        np.subtract(rest, np.multiply(off, drift_high, out=u), out=rest)
        np.add(high, rest, out=u)
    if x_end is not None:
        last = Fraction(x_end) - Fraction(left, K)
        if isinstance(geom, Scaled):  # its midpoint (left / K + X) / 2 is no key
            drift = Fraction(p, den) * (left - 2 * ka + Fraction(x_end) * K)
            u[-1] = float(Fraction(high[-1]) + Fraction(low[-1]) - drift)
    lengths = np.divide(steps, K, out=_WORK.take("keys", size))
    if x_end is not None:
        lengths[-1] = float(last)
    length_sum = float(lengths.sum())

    d = None  # a fixed window's pieces do not fall
    if isinstance(geom, Scaled):  # the exact half-fall
        d = np.multiply(steps, p / den, out=_WORK.take("d", size))
        if x_end is not None:
            d[-1] = float(last * Fraction(p, 2 * q))
    with np.errstate(over="ignore", invalid="ignore"):  # sweep_moments rejects inf and nan
        values = _Midpoints(u, d, lengths).integrals(pairs)
    return values + [length_sum], piece_count


def _partials(values: list) -> tuple:
    """Floats, largest first, whose exact sum is that of ``values``: each
    is the math.fsum, correctly rounded, of the values less the floats
    before it, so each is below half an ulp of the one before, and they
    stop at the first remainder of 0.  The fsum of the partials of several
    lists is thus the fsum of all their values.  A sum past float64, or
    inf - inf, gives (nan,), and an inf (inf,)."""
    partials = []
    while True:
        try:
            partial = math.fsum(values + [-x for x in partials])
        except (OverflowError, ValueError):
            partial = math.nan
        if not math.isfinite(partial):
            return (partial,)
        if not partial:
            return tuple(partials)
        partials.append(partial)


@dataclass
class _Chunk:
    """An outer chunk's sums over its sub-chunks, one column each as exact
    partials (_partials): each pair's values, then the length sums; and its
    piece count.  A record so stays the same size however many sub-chunks
    its chunk holds."""

    sums: tuple
    pieces: int


def _chunk_span(geom: Fixed | Scaled, limit: int, ka: int, kb: int) -> Tuple[int, int]:
    """[lo, hi): the n whose events overlap [ka, kb), n*K > ka and entry key
    below kb; hi, as _sub_chunks reads it, is ceil(right_end(kb/K))."""
    return ka // geom.K + 1, min(geom.first_entering(kb), limit + 1)


def _join(parts: list) -> np.ndarray:
    """The parts that are not empty joined into one array; a lone one as it is."""
    parts = [part for part in parts if part.size] or parts[:1]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _sub_chunks(geom: Fixed | Scaled, ka: int, kb: int, blocks):
    """The sub-chunks [ca, cb) of [ka, kb) in turn, each as (ca, cb, ns, ws)
    with its events, read from a stream of event blocks (ns, ws), ascending
    within and across blocks, that starts at the chunk's span.

    A sub-chunk ends at the exit key n K of the held event _SUB_EVENTS - 1,
    or at kb, and holds the events with exit key > ca and entry key < cb:
    the held ones below first_entering(cb).  The events that have left by
    cb are those with n' <= cb // K = n: as the n ascend and are distinct,
    exactly the first _SUB_EVENTS held.  None has left by ka, as the span
    starts at ka // K + 1.  So after each sub-chunk the first _SUB_EVENTS
    events are let go, and the held event _SUB_EVENTS - 1 sets every cut.

    One run of events is held, and each sub-chunk's events are a view of
    it.  A pull joins the run and the blocks it pulls into a new run, and
    pulls until the new events outnumber the held ones or the stream ends:
    each join but the last copies fewer than twice the events it adds, so
    the joins copy fewer than three times the stream's events, however wide
    the window.  A lone block, such as a preloaded slice, is held as it is;
    the n are joined, and the old ones let go, before the weights.
    """
    blocks = iter(blocks)
    ns, ws = np.empty(0, dtype=np.int64), np.empty(0)

    def pull() -> bool:
        """Pull and join; False once the stream has ended."""
        nonlocal ns, ws
        n_parts, w_parts, new, block = [ns], [ws], 0, None
        for block in blocks:
            n_parts.append(block[0])
            w_parts.append(block[1])
            new += block[0].size
            if new > ns.size:
                break
        del block  # the blocks go before the sieve builds the next
        ns = _join(n_parts)
        del n_parts
        ws = _join(w_parts)
        return new > 0

    ca = ka
    while ca < kb:
        while ns.size < _SUB_EVENTS and pull():
            pass
        cb = min(int(ns[_SUB_EVENTS - 1]) * geom.K, kb) if ns.size >= _SUB_EVENTS else kb
        entering = geom.first_entering(cb)
        while not (ns.size and ns[-1] >= entering) and pull():
            pass
        k = int(np.searchsorted(ns, entering))
        yield ca, cb, ns[:k], ws[:k]
        ns, ws = ns[_SUB_EVENTS:], ws[_SUB_EVENTS:]
        ca = cb


def _sweep_chunk(
    geom: Fixed | Scaled, pairs: Sequence[Tuple[float, Kind]], limit: int, grid: int,
    b_key: int, X: float, ka: int, kb: int, events: Tuple[np.ndarray, np.ndarray] | None,
) -> _Chunk:
    """Integrate [ka, kb) sub-chunk by sub-chunk (_sub_chunks), over its
    events (ns, ws), or the sieve's block stream of their span when
    ``events`` is None; the sub-chunk ending at b_key ends at X."""
    blocks = sieve_blocks(*_chunk_span(geom, limit, ka, kb)) if events is None else [events]
    rows, pieces = [], 0
    for ca, cb, ns, ws in _sub_chunks(geom, ka, kb, blocks):
        x_end = X if cb == b_key else None
        row, count = _chunk_moments(geom, ns, ws, ca, cb, pairs, x_end, grid)
        del ns, ws  # the run's views go before the next pull joins it
        rows.append(row)
        pieces += count
    # a chunk is not empty, so it holds at least one sub-chunk
    return _Chunk(tuple(_partials(list(column)) for column in zip(*rows)), pieces)


def sweep_moments(
    window: WindowSpec,
    pairs: Sequence[Tuple[float, Kind]],
    *,
    events: EventSource | None = None,
    threads: int = 1,
) -> Tuple[list, SweepDiagnostics]:
    """All requested (order, kind) moments in one pass over the pieces.

    Returns (results, diagnostics); results align with ``pairs``.
    ``threads`` is the number of worker processes, at most MAX_THREADS;
    <= 0 means one per core, up to 8.  A sweep of one chunk, or on one
    worker, runs in the calling process.
    """
    pairs = [(float(o), Kind(k)) for o, k in pairs]
    _validate_pairs(pairs)
    if threads > MAX_THREADS:
        raise ConfigError(f"threads must be at most {MAX_THREADS}, got {threads}")
    if threads <= 0:
        threads = default_threads()
    start = time.monotonic()
    geom = window.geometry
    limit = window.limit()
    # S - (the linear part at a sub-chunk's start) is at most the weight of
    # the integers in the closed window at X + 1, at most log(limit) each
    reach = geom.right_end(Fraction(window.X) + 1) - Fraction(window.X) - 1
    grid = _grid((float(reach) + 1.0) * math.log(max(limit, 2)))

    a_key = geom.K
    # no breakpoint falls strictly between floor and ceil of X*K, so rounding
    # up and trimming the final piece to X keeps the sweep exact
    b_key = math.ceil(Fraction(window.X) * geom.K)

    est_events = max(64, int(limit / max(math.log(max(limit, 3)), 1.0)))
    n_chunks = max(1, math.ceil(est_events / _CHUNK_EVENTS))
    if n_chunks > _MAX_CHUNKS:
        raise RangeLimitError(
            f"a sweep up to {limit} reads about {est_events:.3g} events in "
            f"{n_chunks} chunks, past the {_MAX_CHUNKS} a sweep can plan"
        )
    span = max(1, (b_key - a_key + n_chunks - 1) // n_chunks)
    bounds = [*range(a_key, b_key, span), b_key]  # no empty chunk

    if events is not None:
        # checked once for the whole sweep; a source past PRELOAD_LIMIT
        # would only re-sieve each span, as no source does
        events.check(_chunk_span(geom, limit, a_key, b_key)[1])
        if not events.preload:
            events = None
    # a task carries its chunk's slice of the table, or None to sieve its span
    tasks = [
        None if events is None else events.range(*_chunk_span(geom, limit, ka, kb))
        for ka, kb in zip(bounds[:-1], bounds[1:])
    ]
    chunk = functools.partial(_sweep_chunk, geom, pairs, limit, grid, b_key, float(window.X))
    if threads > 1 and n_chunks > 1:
        import multiprocessing
        from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

        method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
        try:
            with ProcessPoolExecutor(
                min(threads, n_chunks), mp_context=multiprocessing.get_context(method)
            ) as pool:
                chunks = list(pool.map(chunk, bounds[:-1], bounds[1:], tasks))
        except BrokenProcessPool as exc:  # a worker was killed, say for memory
            raise ResourceError(f"a sweep worker process died: {exc}") from exc
    else:
        chunks = list(map(chunk, bounds[:-1], bounds[1:], tasks))

    results = []
    for j, (order, kind) in enumerate(pairs):
        try:
            value = math.fsum(x for c in chunks for x in c.sums[j])
        except (OverflowError, ValueError):  # a sum past float64, or inf - inf
            value = math.nan
        if not math.isfinite(value):
            raise RangeLimitError(
                f"the {kind.value} moment of order {order:g} is not finite in float64"
            )
        results.append(MomentResult(order, kind, value))
    diag = SweepDiagnostics(
        piece_count=sum(c.pieces for c in chunks),
        length_sum=math.fsum(x for c in chunks for x in c.sums[-1]),
        wall_seconds=time.monotonic() - start,
        chunks=n_chunks,
    )
    return results, diag


def first_moment_exact(window: WindowSpec) -> float:
    """Signed first moment by direct per-event accounting.

    Each event n contributes weight(n) times the measure of x in [1, X]
    whose window contains n, and the linear part integrates in closed form.
    Overlaps are exact integer key differences, plus the fraction of a key
    that X*K may leave past floor(X*K); each weighted overlap is rounded
    once, and the sum is carried exactly (an fsum and its remainder per
    sieve block) until the exact linear part is subtracted.  Events stream
    block by block from the sieve, like psi's.  Shares nothing with the
    sweep except the event list, so it serves as an independent oracle for
    it.
    """
    geom = window.geometry
    limit = window.limit()
    xf = Fraction(window.X)
    b_key, tail = divmod(xf * geom.K, 1)

    positive = Fraction(0)  # in key units
    for ns, ws in sieve_blocks(2, limit + 1):
        entry = geom.entry_key(ns)
        exit_ = ns * geom.K
        overlap = np.minimum(exit_, b_key) - np.maximum(entry, geom.K)
        products = (ws * np.maximum(overlap, 0)).tolist()
        total = math.fsum(products)
        positive += Fraction(total) + Fraction(math.fsum(products + [-total]))
        straddle = ws[(entry <= b_key) & (exit_ > b_key)].tolist()
        positive += tail * sum(Fraction(w) for w in straddle)
    # the window width right_end(x) - x is affine in x: one exact trapezoid
    linear = (xf - 1) * (geom.right_end(xf) - xf + geom.right_end(1) - 1) / 2
    return float(positive / geom.K - linear)


def grid_oracle(
    window: WindowSpec,
    orders: Sequence[float],
    kind: Kind,
    step: float,
) -> list:
    """Midpoint-rule approximation sampling psi directly, one value per
    order; converges to the sweep value as step -> 0.  Slow, only for
    modest X.

    The residual u(x) = S(x) - width at a sample point reads S(x) off
    prefix sums of the weights by binary search, so S and the breakpoints
    are checked independently of the sweep's piece machinery.  The prefix
    sum of the weights' high parts on a grid 2^-g is exact, so a difference
    of two is too.  Each cell, with u at its centre, is a flat piece of the
    sweep's kernel: the integrand is shared, and checked on its own by the
    40-digit oracles in the tests.
    """
    X = float(window.X)
    orders = [float(o) for o in orders]
    kind = Kind(kind)
    _validate_pairs([(o, kind) for o in orders])
    if X <= 1.0:
        return [0.0] * len(orders)
    if not 0 < step <= (X - 1.0) / 10.0:
        raise InvalidWindowError(f"step must lie in (0, (X-1)/10], got {step}")
    d = float(window.geometry.width)
    ns, ws = sieve_range(2, window.limit() + 1)
    # a prefix sum of the high parts is at most the sum of all weights
    # and 2^-(g+1) a weight, which _grid's spare factor 2 covers
    high, low = _grid_split(ws, _grid(float(np.sum(ws)) + 1.0))
    prefix_high, prefix_low = (np.concatenate([[0.0], np.cumsum(part)]) for part in (high, low))
    n_cells = int(math.ceil((X - 1.0) / step))
    width = (X - 1.0) / n_cells
    # cells are flat midpoint pieces, in blocks no larger than a sub-chunk's
    # pieces, so they grow no workspace slot past a sweep's size
    block = 2 * _SUB_EVENTS
    blocks = []
    for start_idx in range(0, n_cells, block):
        count = min(block, n_cells - start_idx)
        x = 1.0 + (start_idx + np.arange(count) + 0.5) * width
        if isinstance(window.geometry, Fixed):
            hi, lin = x + d, d
        else:
            hi, lin = x * (1.0 + d), d * x
        top, bottom = np.searchsorted(ns, hi, side="right"), np.searchsorted(ns, x, side="right")
        S = (prefix_high[top] - prefix_high[bottom]) + (prefix_low[top] - prefix_low[bottom])
        cells = _Midpoints(S - lin, None, np.full(count, width))
        blocks.append(cells.integrals([(o, kind) for o in orders]))
    return [math.fsum(column) for column in zip(*blocks)]


def default_threads() -> int:
    """One worker per core this process may run on, at most 8."""
    if hasattr(os, "sched_getaffinity"):
        return min(8, len(os.sched_getaffinity(0)))
    return min(8, os.cpu_count() or 1)
