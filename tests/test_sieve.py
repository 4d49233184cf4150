import math
import os
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psimoments import sieve
from psimoments.errors import CoverageError, RangeLimitError
from psimoments.sieve import EventSource, _simple_primes, psi, sieve_blocks, sieve_range


def brute_prime_powers(limit):
    """Trial division oracle: (n, log p) for every prime power n <= limit."""
    out = []
    for n in range(2, limit + 1):
        for p in range(2, n + 1):
            if p * p > n:
                # n itself is prime
                out.append((n, math.log(n)))
                break
            if n % p == 0:
                m = n
                while m % p == 0:
                    m //= p
                if m == 1:
                    out.append((n, math.log(p)))
                break
    return out


# the 12 prime bases up to 37 make Miller-Rabin exact below 3.3e24
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Deterministic Miller-Rabin, exact for n below 3.3e24."""
    if n < 2:
        return False
    for a in MILLER_RABIN_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def integer_root(n, k):
    """floor(n^(1/k)) for n >= 0, exact: the float guess is corrected in integers."""
    r = int(round(n ** (1.0 / k)))
    while r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def miller_rabin_prime_powers(lo, hi):
    """(n, p) for every prime power n = p^a in [lo, hi), 2 <= lo, ascending:
    the n that pass is_prime, and p^a for a >= 2, each p between exact
    integer roots of the span's ends, that pass it; no sieve."""
    events = {n: n for n in range(lo, hi) if (n == 2 or n % 2) and is_prime(n)}
    for a in range(2, hi.bit_length()):
        for p in range(integer_root(lo - 1, a) + 1, integer_root(hi - 1, a) + 1):
            if is_prime(p):
                events[p**a] = p
    return sorted(events.items())


def test_miller_rabin_oracle_against_trial_division():
    assert [n for n, _ in miller_rabin_prime_powers(2, 5000)] == [
        n for n, _ in brute_prime_powers(4999)
    ]
    # strong pseudoprimes to the first 1 to 9 bases, and three primes
    assert not any(map(is_prime, (2047, 1373653, 25326001, 3215031751, 3825123056546413051)))
    assert all(map(is_prime, (2**31 - 1, 2**61 - 1, 10**12 + 39)))


EXTENDED = pytest.mark.skipif(
    os.environ.get("PSIMOMENTS_EXTENDED") != "1",
    reason="a sieve with base primes up to 3.4e7; set PSIMOMENTS_EXTENDED=1",
)


@pytest.mark.parametrize(
    "lo",
    [10**10, 10**12, pytest.param(10**15, marks=EXTENDED), pytest.param(2**50, marks=EXTENDED)],
)
def test_sieve_against_miller_rabin(monkeypatch, lo):
    # the large-prime path, where every base prime up to sqrt(hi) marks
    # the span, against an oracle that shares no code with the sieve: the
    # events exactly, and each weight within one ulp of math.log of its
    # base, as numpy's log, picked by CPU feature, may round the other way
    hi = lo + 2**15
    ns, ws = sieve_range(lo, hi)
    want = miller_rabin_prime_powers(lo, hi)
    assert ns.tolist() == [n for n, _ in want]
    for w, (_, p) in zip(ws.tolist(), want):
        assert abs(w - math.log(p)) <= math.ulp(math.log(p)), p
    # segments of 2^12 odd slots: the span's 2^14 odd slots are sieved in
    # four, each base prime carrying its offset to the next
    monkeypatch.setattr(sieve, "_SEGMENT", 1 << 12)
    blocks = list(sieve_blocks(lo, hi))
    assert len(blocks) == 4
    assert b"".join(b.tobytes() for b, _ in blocks) == ns.tobytes()
    assert b"".join(w.tobytes() for _, w in blocks) == ws.tobytes()


def test_small_events_against_trial_division():
    ns, ws = EventSource(512).arrays()
    want = brute_prime_powers(512)
    assert ns.tolist() == [n for n, _ in want]
    for wg, (_, ww) in zip(ws.tolist(), want):
        assert wg == pytest.approx(ww, rel=1e-15)


def test_power_weight_identical_to_base_prime():
    # bitwise equality, not approx: the log is computed once per prime, so a
    # power carries its prime's float even in a span that starts past it,
    # and every prime carries np.log of itself
    base = dict(zip(*(a.tolist() for a in EventSource(1500).arrays())))
    for lo, hi in ((2, 1025), (10**6, 2 * 10**6)):
        ns, ws = sieve_range(lo, hi)
        wmap = dict(zip(ns.tolist(), ws.tolist()))
        powers = set()
        for p in _simple_primes(math.isqrt(hi - 1)).tolist():
            v = p * p
            while v < hi:
                if v >= lo:
                    assert wmap[v] == base[p]
                    powers.add(v)
                v *= p
        assert len(powers) > 10
        primes = ~np.isin(ns, list(powers))
        assert ws[primes].tobytes() == np.log(ns[primes].astype(np.float64)).tobytes()


def test_simple_primes_all_small_limits():
    def brute(limit):
        return [n for n in range(2, limit + 1) if all(n % d for d in range(2, n)) ]

    for L in range(0, 130):
        assert _simple_primes(L).tolist() == brute(L)


def test_prime_count_1e6():
    ns, ws = EventSource(10**6).arrays()
    primes = np.isclose(ws, np.log(ns.astype(np.float64)))
    assert int(primes.sum()) == 78498


def test_adjacent_ranges_tile_arrays():
    # the streamed re-sieve relies on spans concatenating to the full table
    limit = 50_000
    full_ns, full_ws = EventSource(limit).arrays()
    assert np.all(np.diff(full_ns) > 0)
    assert full_ns.size == len(brute_prime_powers(limit))
    for step in (64, 1000, 4096, 30_000):
        spans = [sieve_range(lo, min(lo + step, limit + 1)) for lo in range(2, limit + 1, step)]
        ns = np.concatenate([s[0] for s in spans])
        ws = np.concatenate([s[1] for s in spans])
        assert ns.tobytes() == full_ns.tobytes()
        assert ws.tobytes() == full_ws.tobytes()


@pytest.mark.parametrize("segment", [7, 64])
def test_segmented_sieve_tiles_arrays(monkeypatch, segment):
    # every span above fits one default segment; tiny segments make the
    # sieve carry each base prime's offset from one segment to the next
    full_ns, full_ws = EventSource(50_000).arrays()
    monkeypatch.setattr(sieve, "_SEGMENT", segment)
    ns, ws = EventSource(50_000).arrays()
    assert ns.tobytes() == full_ns.tobytes()
    assert ws.tobytes() == full_ws.tobytes()
    test_adjacent_ranges_tile_arrays()


@pytest.mark.parametrize(
    "lo, hi",
    # from 2; from inside a segment; across many segment edges; holding
    # 1024 and 2048, powers of 2, which no odd slot holds; none but 2 or 4;
    # one number, a prime; up to the table's end
    [(2, 700), (2, 3), (4, 5), (300, 9000), (1001, 1100), (2040, 2060), (1023, 1026),
     (2, 100), (97, 98), (5000, 7500), (9990, 10_001)],
)
def test_blocks_join_to_sieve_range(monkeypatch, lo, hi):
    # the sweep reads the block stream, psi and the sources the joined
    # arrays: they are the same events, bit for bit.  A segment of 64 odd
    # slots gives one block per segment at the default block size, or
    # four with blocks of 16 odd slots; each block lies within its numbers
    full_ns, full_ws = EventSource(10_000).arrays()
    monkeypatch.setattr(sieve, "_SEGMENT", 64)
    i, j = np.searchsorted(full_ns, [lo, hi])
    first_odd = lo | 1
    for size in (sieve._BLOCK, 16):
        monkeypatch.setattr(sieve, "_BLOCK", size)
        block_slots = min(size, 64)
        blocks = list(sieve_blocks(lo, hi))
        ns, ws = sieve_range(lo, hi)
        assert b"".join(b.tobytes() for b, _ in blocks) == ns.tobytes()
        assert b"".join(w.tobytes() for _, w in blocks) == ws.tobytes()
        assert ns.tobytes() == full_ns[i:j].tobytes()
        assert ws.tobytes() == full_ws[i:j].tobytes()
        span = 2 * block_slots
        assert len(blocks) == max(1, math.ceil((hi - first_odd + 1) // 2 / block_slots))
        for k, (block, weights) in enumerate(blocks):
            assert block.dtype == np.int64 and weights.dtype == np.float64
            assert block.size == weights.size and np.all(np.diff(block) > 0)
            edges = [lo if k == 0 else first_odd + span * k, min(first_odd + span * (k + 1), hi)]
            if k == len(blocks) - 1:
                edges[1] = hi
            assert np.all((block >= edges[0]) & (block < edges[1]))


def test_streamed_blocks_stay_small():
    # a caller that holds one block at a time holds about one block of
    # events and the 1 MB segment mask, not a whole segment's events
    # (about 110k near 1e8, 4.6 MB with the temporaries that build them)
    tracemalloc.start()
    try:
        count = 0
        for ns, ws in sieve_blocks(10**8, 10**8 + 2**23):
            assert ns[-1] - ns[0] < 2 * sieve._BLOCK and ns.size == ws.size
            count += 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5e6
    assert count == 2**22 // sieve._BLOCK


def test_block_stream_keeps_no_block_it_handed_on():
    # no stage of the stream keeps a block once it is handed on, so a
    # consumer that lets a block go frees it before it asks for the next
    stream = sieve_blocks(10**8, 10**8 + 2**20)
    ns, ws = next(stream)
    refs = [weakref.ref(ns), weakref.ref(ws)]
    del ns, ws
    assert all(ref() is None for ref in refs)
    assert sum(1 for _ in stream) == 2**19 // sieve._BLOCK - 1


def test_psi_10():
    # 3 log 2 + 2 log 3 + log 5 + log 7
    want = 3 * math.log(2) + 2 * math.log(3) + math.log(5) + math.log(7)
    assert psi(10.0) == pytest.approx(want, rel=1e-15)
    assert psi(10.0) == pytest.approx(7.832014180505469, rel=1e-15)


def test_psi_monotone_steps():
    vals = [psi(float(x)) for x in range(1, 100)]
    assert vals[0] == 0.0
    for a, b in zip(vals, vals[1:]):
        assert b >= a


def test_psi_independent_of_source_state(monkeypatch):
    # one fsum over all weights: correctly rounded, however the events are
    # held or the sieve cuts its blocks
    before = psi(2.5e6)
    ns, ws = EventSource(3_000_000).arrays()
    assert before == math.fsum(ws[ns <= 2_500_000].tolist())
    monkeypatch.setattr(sieve, "_SEGMENT", 1 << 12)
    assert psi(2.5e6) == before


def test_psi_coverage_guard():
    # events past the key range fail at once
    with pytest.raises(RangeLimitError):
        psi(1e19)


def test_source_past_preload_limit_holds_no_table(monkeypatch):
    # a source past PRELOAD_LIMIT builds no table, and slices none: it
    # raises without sieving, after the check of its own limit
    def no_sieve(lo, hi):
        raise AssertionError("a source past PRELOAD_LIMIT sieved")

    monkeypatch.setattr(sieve, "PRELOAD_LIMIT", 1000)
    monkeypatch.setattr(sieve, "sieve_range", no_sieve)
    src = EventSource(5000)
    assert not src.preload
    with pytest.raises(RangeLimitError):
        src.arrays()
    for lo, hi in ((2, 5001), (2000, 3000)):
        with pytest.raises(RangeLimitError):
            src.range(lo, hi)
    with pytest.raises(CoverageError):
        src.range(2000, 5002)


def test_event_source_range_matches_preload():
    src = EventSource(100_000)
    ns_a, ws_a = src.range(30_000, 60_000)
    ns_b, ws_b = sieve_range(30_000, 60_000)
    assert ns_a.tolist() == ns_b.tolist()
    assert ws_a.tolist() == ws_b.tolist()


@settings(deadline=None, max_examples=30)
@given(limit=st.integers(min_value=2, max_value=2000))
def test_event_source_matches_brute(limit):
    ns, ws = EventSource(limit).arrays()
    want = brute_prime_powers(limit)
    assert ns.tolist() == [n for n, _ in want]
    np.testing.assert_allclose(ws, [w for _, w in want], rtol=1e-15)
