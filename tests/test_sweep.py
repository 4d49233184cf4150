import concurrent.futures.process
import functools
import math
import multiprocessing
import os
import pickle
import threading
import tracemalloc
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psimoments.errors import (
    CoverageError,
    InvalidOrderError,
    InvalidWindowError,
    RangeLimitError,
    ResourceError,
)
from psimoments import sieve, sweep
from psimoments.predictions import odd_normalizer
from psimoments.report import REFERENCE_ABSOLUTE, REFERENCE_ODD
from psimoments.sieve import EventSource, psi, sieve_blocks, sieve_range
from psimoments.sweep import (
    Fixed,
    Kind,
    Scaled,
    WindowSpec,
    first_moment_exact,
    grid_oracle,
    sweep_moments,
)

ALL_KINDS = (Kind.ABSOLUTE, Kind.SIGNED, Kind.POSITIVE_PART, Kind.NEGATIVE_PART)


def exact_pieces(window, ka=None, kb=None):
    """Every piece [a, b) of the key span [ka, kb) as Fractions of x, with S
    on it: the exact Fraction sum of the float64 weights of the events
    inside the window there.  By default the span is the whole window, and
    a span that ends at ceil(X K) ends at X itself.  The pieces lie between
    the distinct breakpoints inside the span, so none is empty."""
    geometry, X = window.geometry, Fraction(window.X)
    a = Fraction(1) if ka is None else Fraction(ka, geometry.K)
    end = X if kb is None else min(Fraction(kb, geometry.K), X)
    if isinstance(geometry, Fixed):
        enter, reach = (lambda n: n - geometry.h), end + geometry.h
    else:
        enter, reach = (lambda n: n / (1 + geometry.delta)), end * (1 + geometry.delta)
    # the events that leave past a and enter before end; those entered by a
    # set S there
    ns, ws = sieve_range(math.floor(a) + 1, min(math.ceil(reach), window.limit() + 1))
    S, steps = Fraction(0), {}
    for n, w in zip(map(Fraction, ns.tolist()), map(Fraction, ws.tolist())):
        e = enter(n)
        if e <= a:
            S += w
        elif e < end:
            steps[e] = steps.get(e, 0) + w
        if n < end:
            steps[n] = steps.get(n, 0) - w
    for b in sorted(steps):
        yield a, b, S
        a, S = b, S + steps[b]
    yield a, end, S


def oracle_moments(window, pairs, ka=None, kb=None):
    """The value of each (order, kind) pair over the pieces of exact_pieces,
    each integrated by _mpmath_piece and summed at 40 digits, and the piece
    count."""
    geometry, totals, count = window.geometry, [0] * len(pairs), 0
    with mpmath.mp.workdps(40):
        for a, b, S in exact_pieces(window, ka, kb):
            if isinstance(geometry, Fixed):
                c, d = S - geometry.h, 0
            else:
                c, d = S - geometry.delta * (a + b) / 2, geometry.delta * (b - a) / 2
            c, d, L = (mpmath.mpf(v.numerator) / v.denominator for v in (c, d, b - a))
            totals = [t + v for t, v in zip(totals, _mpmath_piece(c, d, L, pairs))]
            count += 1
        return [float(t) for t in totals], count


def _mpmath_piece(c, d, length, pairs):
    """For each (order, kind) pair, L times the mean of g(u) over
    [c - d, c + d] at 40 digits, an mpf: L g(c) on a flat piece (d = 0),
    else L (G(c + d) - G(c - d)) / (2d), G the antiderivative of g
    (_mpmath_G).  c, d and L are floats or mpfs."""
    with mpmath.mp.workdps(40):
        c, d = mpmath.mpf(c), mpmath.mpf(d)
        if not d:
            return [length * _mpmath_g(c, order, kind) for order, kind in pairs]
        hi, lo, scale = c + d, c - d, length / (2 * d)
        return [(_mpmath_G(hi, *pair) - _mpmath_G(lo, *pair)) * scale for pair in pairs]


def _mpmath_g(u, order, kind):
    """g(u) for an mpf u."""
    if kind == Kind.SIGNED:
        return u ** int(order)
    if kind == Kind.ABSOLUTE:
        return abs(u) ** order
    if kind == Kind.POSITIVE_PART:
        return max(u, 0) ** int(order)
    return min(u, 0) ** int(order)


def _mpmath_G(u, order, kind):
    """The antiderivative of g, continuous at 0, for an mpf u: with
    m = order + 1, u^m / m, sgn(u) |u|^m / m, or max(u, 0)^m / m and
    min(u, 0)^m / m for the parts."""
    m = int(order) + 1 if order == int(order) else mpmath.mpf(order) + 1
    if kind == Kind.SIGNED:
        return u**m / m
    if kind == Kind.ABSOLUTE:
        G = abs(u) ** m / m
        return -G if u < 0 else G
    if kind == Kind.POSITIVE_PART:
        return max(u, 0) ** m / m
    return min(u, 0) ** m / m


@pytest.fixture(scope="module")
def events_toy():
    return EventSource(64)


def test_fixed_toy_signed_first_moment(events_toy):
    w = WindowSpec(10.0, Fixed(Fraction(2)))
    (res,), diag = sweep_moments(w, [(1, Kind.SIGNED)], events=events_toy)
    (want,), pieces = oracle_moments(w, [(1, Kind.SIGNED)])
    assert res.value == pytest.approx(want, rel=1e-12)
    assert res.value == pytest.approx(-0.6312235467506362, rel=1e-12)
    assert diag.piece_count == pieces == 9


def test_scaled_toy_signed_first_moment(events_toy):
    w = WindowSpec(10.0, Scaled(Fraction(1, 2)))
    (res,), _ = sweep_moments(w, [(1, Kind.SIGNED)], events=events_toy)
    (want,), _ = oracle_moments(w, [(1, Kind.SIGNED)])
    assert res.value == pytest.approx(want, rel=1e-12)
    assert res.value == pytest.approx(-0.08369059678421209, rel=1e-12)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("order", [1, 2, 3])
def test_toy_all_kinds_against_brute(events_toy, kind, order):
    for geometry in (Fixed(Fraction(3, 2)), Scaled(Fraction(1, 4))):
        w = WindowSpec(12.0, geometry)
        res, _ = sweep_moments(w, [(order, kind)], events=events_toy)
        (want,), _ = oracle_moments(w, [(order, kind)])
        assert res[0].value == pytest.approx(want, rel=1e-11, abs=1e-13)


def test_fractional_endpoint(events_toy, monkeypatch):
    # X * K not an integer: the final piece is trimmed at X itself, also
    # when more chunks than keys leave the last chunks empty
    default = sweep._CHUNK_EVENTS
    for X in (10.5, 20.25):
        for geometry in (Fixed(Fraction(1, 3)), Scaled(Fraction(1, 7))):
            w = WindowSpec(X, geometry)
            (want,), _ = oracle_moments(w, [(2, Kind.SIGNED)])
            for chunk_events in (default, 1):
                monkeypatch.setattr(sweep, "_CHUNK_EVENTS", chunk_events)
                res, diag = sweep_moments(w, [(2, Kind.SIGNED)], events=events_toy)
                assert res[0].value == pytest.approx(want, rel=1e-11, abs=1e-14)
                assert diag.length_sum == pytest.approx(X - 1.0, abs=1e-9)


def test_first_moment_exact_tiny():
    # only the prime 2 is inside reach: contribution log 2 over half a unit
    w = WindowSpec(2.0, Fixed(Fraction(1, 2)))
    want = 0.5 * math.log(2.0) - 0.5
    got = first_moment_exact(w)
    assert got == pytest.approx(want, rel=1e-15)
    assert got == pytest.approx(-0.15342640972002736, rel=1e-15)
    # X = 1 leaves no x to integrate over
    for geometry in (Fixed(Fraction(1, 2)), Scaled(Fraction(1, 2))):
        assert first_moment_exact(WindowSpec(1.0, geometry)) == 0.0


def test_first_moment_exact_streams_spans(monkeypatch):
    # the oracle streams the sieve's blocks of [2, limit], at most _BLOCK
    # odd slots each: together they are a preloaded source's
    # table, and the value does not depend on how they are cut
    w = WindowSpec(2.5e6, Fixed(Fraction(100)))
    limit = w.limit()
    want = first_moment_exact(w)
    monkeypatch.setattr(sieve, "_SEGMENT", 1 << 18)
    calls, blocks = [], []

    def recording(lo, hi):
        calls.append((lo, hi))
        for ns, ws in sieve_blocks(lo, hi):
            blocks.append((ns.copy(), ws.copy()))
            yield ns, ws

    monkeypatch.setattr(sweep, "sieve_blocks", recording)
    assert first_moment_exact(w) == want
    assert calls == [(2, limit + 1)]
    # 5 segments of 2^18 odd slots, each cut into blocks of _BLOCK = 2^16
    assert len(blocks) == math.ceil((limit - 1) // 2 / sieve._BLOCK) > 2
    assert all(ns[-1] - ns[0] < 2 * sieve._BLOCK for ns, _ in blocks)
    table_ns, table_ws = EventSource(limit).arrays()
    assert np.array_equal(np.concatenate([ns for ns, _ in blocks]), table_ns)
    assert np.array_equal(np.concatenate([ws for _, ws in blocks]), table_ws)


NO_TABLE_WINDOWS = (
    WindowSpec(2e5 + 0.375, Fixed(Fraction(45, 4))),
    WindowSpec(2e5, Scaled(Fraction(1535, 2086612))),
)
NO_TABLE_PAIRS = [(2.1, Kind.ABSOLUTE), (3, Kind.SIGNED), (1, Kind.POSITIVE_PART)]


@pytest.mark.parametrize(
    "segment, sub_events",
    [(sieve._SEGMENT, sweep._SUB_EVENTS), (1 << 6, 1 << 5)],
    ids=["default", "small-blocks"],
)
def test_no_source_builds_no_table(monkeypatch, segment, sub_events):
    # a sweep given no event source sieves its own spans, bit for bit the
    # values a preloaded source gives; the oracles never build a table.  At
    # 2^6 odd slots a block holds about 10 events near 2e5, and the scaled
    # window reaches about 147 numbers: every sub-chunk straddles blocks,
    # and a pull joins several of them for it
    monkeypatch.setattr(sweep, "_CHUNK_EVENTS", 1 << 12)
    monkeypatch.setattr(sweep, "_SUB_EVENTS", sub_events)
    want = []
    for w in NO_TABLE_WINDOWS:
        res, diag = sweep_moments(w, NO_TABLE_PAIRS, events=EventSource(w.limit()))
        want.append(([r.value for r in res], diag.piece_count, first_moment_exact(w)))
    want_psi = math.fsum(EventSource(200_000).arrays()[1].tolist())

    def no_table(self):
        raise AssertionError("an event table was built")

    monkeypatch.setattr(EventSource, "arrays", no_table)
    monkeypatch.setattr(sieve, "_SEGMENT", segment)
    for w, (values, pieces, first) in zip(NO_TABLE_WINDOWS, want):
        res, diag = sweep_moments(w, NO_TABLE_PAIRS)
        assert diag.chunks > 1
        assert [r.value for r in res] == values and diag.piece_count == pieces
        assert first_moment_exact(w) == first
    assert psi(2e5 + 0.5) == want_psi


ORACLE_WINDOWS = (WindowSpec(2e4, Fixed(Fraction(20))), *NO_TABLE_WINDOWS)


def test_oracles_do_not_depend_on_sieve_segments(monkeypatch):
    # psi and the first-moment oracle read the sieve's blocks, one per
    # segment: their values are the same bit for bit however it cuts them
    def values():
        return [
            (first_moment_exact(w), psi(w.X), psi(float(w.limit()))) for w in ORACLE_WINDOWS
        ]

    want = values()
    monkeypatch.setattr(sieve, "_SEGMENT", 1 << 8)
    assert values() == want


def test_oversized_chunk_plan_fails_up_front(monkeypatch):
    # X = 2^51, h = 1 would plan about 6e7 chunks: the sweep refuses it
    # before it builds their bounds and tasks, and sieves nothing
    def no_sieve(lo, hi):
        raise AssertionError("a chunk was sieved")

    monkeypatch.setattr(sweep, "sieve_blocks", no_sieve)
    with pytest.raises(RangeLimitError, match="events in [0-9]+ chunks"):
        sweep_moments(WindowSpec(2.0**51, Fixed(Fraction(1))), [(1.0, Kind.SIGNED)])


def test_chunks_cross_a_process_boundary(monkeypatch):
    # the outer chunks run in worker processes: the chunk function, each
    # task (its slice of a preloaded table, or None to sieve its span) and
    # each record survive a pickle round trip, and the records' partials
    # fsum to the values of a serial sweep bit for bit
    monkeypatch.setattr(sweep, "_CHUNK_EVENTS", 1 << 12)
    records, tasks, pools = [], [], []

    class PicklingPool:
        def __init__(self, max_workers, **kwargs):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            fn = pickle.loads(pickle.dumps(fn))
            args = [pickle.loads(pickle.dumps(a)) for a in zip(*iterables)]
            tasks[:] = [a[-1] for a in args]
            records[:] = [pickle.loads(pickle.dumps(fn(*a))) for a in args]
            return records

    for w in NO_TABLE_WINDOWS:
        src = EventSource(w.limit())
        for events in (None, src):
            want, diag = sweep_moments(w, NO_TABLE_PAIRS, events=events)
            with monkeypatch.context() as m:
                m.setattr(concurrent.futures.process, "ProcessPoolExecutor", PicklingPool)
                assert sweep_moments(w, NO_TABLE_PAIRS, events=events, threads=2)[0] == want
            assert pools[-1] == 2
            assert len(records) == diag.chunks > 1
            assert all(isinstance(r, sweep._Chunk) for r in records)
            got = [math.fsum(x for r in records for x in r.sums[j]) for j in range(len(want) + 1)]
            assert got == [r.value for r in want] + [diag.length_sum]
            assert sum(r.pieces for r in records) == diag.piece_count
            if events is None:
                assert tasks == [None] * diag.chunks
            else:  # the slices overlap by the window's reach and cover the table
                assert all(ns.size == ws.size < src.arrays()[0].size for ns, ws in tasks)
                covered = np.unique(np.concatenate([ns for ns, _ in tasks]))
                assert np.array_equal(covered, src.arrays()[0])


WIDE_WINDOWS = (WindowSpec(2e6, Fixed(Fraction(500000))), WindowSpec(2e6, Scaled(Fraction(1, 4))))


@pytest.mark.parametrize("w", WIDE_WINDOWS, ids=["fixed", "scaled"])
def test_wide_window_streams_as_a_table(monkeypatch, w):
    # at the default sub-chunk and block sizes a window that reaches about
    # 34k events, four sub-chunks and more, streams from the sieve: a pull
    # joins several blocks, and the values and piece count are a preloaded
    # source's bit for bit, on one worker or two
    monkeypatch.setattr(sweep, "_CHUNK_EVENTS", 1 << 15)
    pairs = [(2.1, Kind.ABSOLUTE), (1, Kind.SIGNED), (3, Kind.POSITIVE_PART)]
    want, want_diag = sweep_moments(w, pairs, events=EventSource(w.limit()))
    assert want_diag.chunks > 1
    for threads in (1, 2):
        got, diag = sweep_moments(w, pairs, threads=threads)
        assert [r.value for r in got] == [r.value for r in want]
        assert diag.piece_count == want_diag.piece_count
    assert want[1].value == pytest.approx(first_moment_exact(w), rel=1e-9)


def _exit_worker(*args):
    os._exit(1)


def test_a_dead_worker_is_a_resource_error(monkeypatch):
    # a worker killed mid-sweep, say for memory, breaks the pool; the CLI
    # reports that as a resource error (exit 3), not a traceback
    monkeypatch.setattr(sweep, "_CHUNK_EVENTS", 1 << 12)
    monkeypatch.setattr(sweep, "_sweep_chunk", _exit_worker)
    with pytest.raises(ResourceError, match="worker process died"):
        sweep_moments(NO_TABLE_WINDOWS[0], NO_TABLE_PAIRS, threads=2)


def _recorded_streams(monkeypatch):
    """Record every block stream the sweep reads, whichever module asks: its
    span and the blocks it yields."""
    streams = []

    def recording(lo, hi):
        blocks = []
        streams.append(((lo, hi), blocks))
        for block in sieve_blocks(lo, hi):
            blocks.append(block)
            yield block

    monkeypatch.setattr(sweep, "sieve_blocks", recording)
    monkeypatch.setattr(sieve, "sieve_blocks", recording)
    return streams


@pytest.mark.parametrize("w", NO_TABLE_WINDOWS)
def test_no_source_sieves_chunk_spans(monkeypatch, w):
    # each chunk streams just the events it overlaps: spans at most one
    # chunk's share of [2, limit] plus the window reach, which tile it, each
    # read to its end as the sieve's blocks, one per segment
    monkeypatch.setattr(sweep, "_CHUNK_EVENTS", 1 << 10)
    monkeypatch.setattr(sweep, "_SUB_EVENTS", 1 << 6)
    monkeypatch.setattr(sieve, "_SEGMENT", 1 << 9)
    streams = _recorded_streams(monkeypatch)
    limit = w.limit()
    _, diag = sweep_moments(w, NO_TABLE_PAIRS)
    streams = list(streams)  # a copy: the checks below may sieve through the recorder
    calls = [span for span, _ in streams]
    reach = math.ceil(w.geometry.right_end(Fraction(w.X)) - Fraction(w.X))
    assert len(calls) == diag.chunks > 10
    assert all(hi - lo <= limit // diag.chunks + reach + 2 for lo, hi in calls)
    assert calls[0][0] <= 2 and calls[-1][1] == limit + 1
    assert all(b[0] <= a[1] for a, b in zip(calls, calls[1:]))
    for (lo, hi), blocks in streams:
        assert len(blocks) == math.ceil((hi - (max(lo, 2) | 1) + 1) / 2 / (1 << 9)) > 1
        want_ns, want_ws = sieve_range(lo, hi)
        assert b"".join(ns.tobytes() for ns, _ in blocks) == want_ns.tobytes()
        assert b"".join(ws.tobytes() for _, ws in blocks) == want_ws.tobytes()


def test_no_source_peak_memory_below_table(monkeypatch):
    # numpy reports its buffers to tracemalloc; the full table alone would
    # take 16 bytes (an int64 and a float64) per event
    monkeypatch.setattr(sweep, "_CHUNK_EVENTS", 1 << 12)
    monkeypatch.setattr(sweep, "_SUB_EVENTS", 1 << 8)
    w = WindowSpec(2e6, Fixed(Fraction(45, 4)))
    table_bytes = 16 * EventSource(w.limit()).arrays()[0].size
    tracemalloc.start()
    try:
        sweep_moments(w, NO_TABLE_PAIRS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table_bytes


def test_no_source_peak_memory_below_a_chunk(monkeypatch):
    # each chunk reads its events from the sieve block by block, so no
    # sweep holds a chunk's events: those alone would take 16 bytes (an
    # int64 and a float64) per event, 512 KB here.  The held run is a
    # sub-chunk's 2^8 events, the window's reach and one or two blocks of
    # 2^11 odd slots (about 280 events near 2e6); with the segment mask and
    # the sieve's and the sub-chunk's temporaries that is about 180 KB
    monkeypatch.setattr(sweep, "_CHUNK_EVENTS", 1 << 15)
    monkeypatch.setattr(sweep, "_SUB_EVENTS", 1 << 8)
    monkeypatch.setattr(sieve, "_SEGMENT", 1 << 11)
    for w in (WindowSpec(2e6, Fixed(Fraction(45, 4))), WindowSpec(2e6, Scaled(Fraction(1, 1000)))):
        tracemalloc.start()
        try:
            _, diag = sweep_moments(w, NO_TABLE_PAIRS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert diag.chunks > 2
        assert peak < 16 * sweep._CHUNK_EVENTS


WIDTH_SCAN_PAIRS = [(3, Kind.ABSOLUTE), (3, Kind.SIGNED), (3, Kind.POSITIVE_PART),
                    (3, Kind.NEGATIVE_PART), (2.1, Kind.ABSOLUTE)]
SCALED_PAIRS = [(3, Kind.POSITIVE_PART), (2.1, Kind.ABSOLUTE), (3, Kind.SIGNED)]
WARM_RUNS = [(Fixed(Fraction(500)), WIDTH_SCAN_PAIRS), (Scaled(Fraction(1, 1000)), SCALED_PAIRS)]


@pytest.mark.parametrize("geometry, pairs", WARM_RUNS)
def test_warm_sweep_allocates_no_piece_arrays(events_1e6, geometry, pairs):
    # the first sweep sizes the thread's workspace; a second identical one
    # writes every per-piece array into it, so it replaces no slot and
    # allocates only argsort's indices, flatnonzero results and the fixed
    # kernel's temporaries (about 128 KB each at 2^14 pieces a sub-chunk).
    # Given no source it sieves too: one segment covers all of [2, limit],
    # so its blocks and the held run add at most 16 bytes per event, and
    # the segment mask one byte per odd slot
    w = WindowSpec(1e6, geometry)
    events = int(np.searchsorted(events_1e6.arrays()[0], w.limit(), side="right"))
    for source, bound in ((events_1e6, 1.5e6), (None, 1.5e6 + 16 * events + w.limit() // 2)):
        want, _ = sweep_moments(w, pairs, events=source)
        slots = dict(sweep._WORK._slots)
        tracemalloc.start()
        try:
            got, _ = sweep_moments(w, pairs, events=source)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound
        assert sweep._WORK._slots.keys() == slots.keys()
        assert all(sweep._WORK._slots[name] is slot for name, slot in slots.items())
        assert got == want


def test_thread_workspaces_do_not_alias(events_1e6, monkeypatch):
    # a fixed and a scaled sweep on threads of their own, beside a pooled
    # sweep: each thread writes only its own workspace, so every value is
    # bit for bit the sequential one
    monkeypatch.setattr(sweep, "_CHUNK_EVENTS", 1 << 13)
    runs = [(WindowSpec(1e6, geometry), pairs) for geometry, pairs in WARM_RUNS]
    want = [sweep_moments(w, pairs, events=events_1e6)[0] for w, pairs in runs]
    for _ in range(3):
        got = [None, None]

        def run(i):
            got[i] = sweep_moments(*runs[i], events=events_1e6, threads=1)[0]

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        pooled, diag = sweep_moments(*runs[1], events=events_1e6, threads=2)
        for t in threads:
            t.join()
        assert diag.chunks > 1
        assert got == want and pooled == want[1]


@pytest.mark.parametrize("geometry, pairs", WARM_RUNS)
def test_warm_workspace_stays_in_the_parent(events_1e6, monkeypatch, geometry, pairs):
    # the calling process's workspace slots are private maps, so each
    # forked worker writes its own copy of them, and a pooled sweep after a
    # serial one gives its values bit for bit.  Were the maps shared, the
    # workers would write the same memory, and as one pooled sweep in about
    # ten happens not to overlap their writes, three are run
    monkeypatch.setattr(sweep, "_CHUNK_EVENTS", 1 << 13)
    w = WindowSpec(1e6, geometry)
    want, _ = sweep_moments(w, pairs, events=events_1e6)
    assert sweep._WORK._slots
    for _ in range(3):
        got, diag = sweep_moments(w, pairs, events=events_1e6, threads=2)
        assert diag.chunks > 1
        assert got == want


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_a_forked_child_writes_its_own_slots():
    # after a sweep warms this thread's workspace, a forked child that
    # writes every slot leaves the parent's bytes as they were
    sweep_moments(WindowSpec(1e5, Fixed(Fraction(100))), [(2, Kind.ABSOLUTE)], threads=1)
    slots = sweep._WORK._slots
    before = {name: slot.tobytes() for name, slot in slots.items()}
    assert before
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            for slot in slots.values():
                slot[:] = 0xAB
            code = 0
        finally:
            os._exit(code)
    assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
    assert {name: slot.tobytes() for name, slot in slots.items()} == before


def _serial_moments(pairs, events, window):
    return sweep_moments(window, pairs, events=events, threads=1)[0]


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="no fork on this platform"
)
def test_a_callers_fork_pool_after_a_warm_sweep(events_1e6):
    # a caller's own fork pool, started after a sweep in this process: its
    # two workers start on copies of the warm slots, and as each writes
    # only its own, every value is the serial one bit for bit.  Workers
    # that shared the slots could spin on each other's writes, so the wait
    # is bounded
    windows = [WindowSpec(x, Fixed(Fraction(h))) for x in (1e5, 1e6) for h in (100, 300, 1000)]
    sweep_one = functools.partial(_serial_moments, WIDTH_SCAN_PAIRS, events_1e6)
    want = [sweep_one(w) for w in windows]
    with multiprocessing.get_context("fork").Pool(2) as pool:
        got = pool.map_async(sweep_one, windows, chunksize=1).get(timeout=120)
    assert got == want


def test_source_past_preload_limit(monkeypatch, recording_source):
    # a source past PRELOAD_LIMIT holds no table: the sweep checks its
    # coverage once, before any pool starts, then sieves each chunk's span
    # as with no source and never asks the source for a range
    monkeypatch.setattr(sweep, "_CHUNK_EVENTS", 1 << 12)
    pools = []

    class Pool(concurrent.futures.process.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", Pool)
    for w in NO_TABLE_WINDOWS:
        want, _ = sweep_moments(w, NO_TABLE_PAIRS, events=EventSource(w.limit()))
        for preload_limit in (sieve.PRELOAD_LIMIT, 1000):
            with monkeypatch.context() as m:
                m.setattr(sieve, "PRELOAD_LIMIT", preload_limit)
                with pytest.raises(CoverageError):
                    sweep_moments(w, NO_TABLE_PAIRS, events=EventSource(w.limit() - 1), threads=2)
        with monkeypatch.context() as m:
            m.setattr(sieve, "PRELOAD_LIMIT", 1000)
            src = recording_source(w.limit())
            assert not src.preload
            for threads in (1, 2):
                got, diag = sweep_moments(w, NO_TABLE_PAIRS, events=src, threads=threads)
                assert diag.chunks > 1
                assert got == want
            assert src.calls == []
    # one pool per two-worker sweep; none for a source that is too small
    assert len(pools) == len(NO_TABLE_WINDOWS)


GEOMETRIES = st.one_of(
    st.integers(min_value=1, max_value=10**6).map(lambda h: Fixed(Fraction(h))),
    st.fractions(min_value=Fraction(1, 10**6), max_value=10**6).map(Fixed),
    st.fractions(
        min_value=Fraction(1, 10**9), max_value=Fraction(999, 1000), max_denominator=10**9
    ).map(Scaled),
)


@settings(deadline=None, max_examples=200)
@given(geometry=GEOMETRIES, e=st.integers(min_value=-(10**15), max_value=10**15))
def test_first_entering_inverts_entry_key(geometry, e):
    m = geometry.first_entering(e)
    assert geometry.entry_key(m - 1) < e <= geometry.entry_key(m)


@settings(deadline=None, max_examples=200)
@given(geometry=GEOMETRIES, data=st.data())
def test_chunk_span_ends_at_the_right_end(geometry, data):
    # the span's integer upper end is the ceiling of the exact right end at kb/K
    K = geometry.K
    kb = data.draw(st.integers(min_value=0, max_value=sieve.KEY_LIMIT // (2 * K)))
    limit = data.draw(st.integers(min_value=0, max_value=sieve.KEY_LIMIT // K))
    reference = min(math.ceil(geometry.right_end(Fraction(kb, K))), limit + 1)
    assert sweep._chunk_span(geometry, limit, 0, kb)[1] == reference


def test_sweep_matches_closed_form_oracle_fixed(events_1e6):
    w = WindowSpec(1e6, Fixed(Fraction(1000)))
    res, _ = sweep_moments(w, [(1, Kind.SIGNED)], events=events_1e6)
    want = first_moment_exact(w)
    assert res[0].value == pytest.approx(want, rel=1e-9)


def test_sweep_matches_closed_form_oracle_scaled(events_1e6):
    w = WindowSpec(1e6, Scaled(Fraction(1, 1000)))
    res, _ = sweep_moments(w, [(1, Kind.SIGNED)], events=events_1e6)
    want = first_moment_exact(w)
    assert res[0].value == pytest.approx(want, rel=1e-9)


def test_desk_first_moment_matches_oracle(desk_sweep):
    # desk signed n=1 is -1.48e7 beside a linear part of 5e11, so the sweep's
    # linear part must come from the exact width
    got = desk_sweep["values"][(1.0, Kind.SIGNED)]
    want = first_moment_exact(desk_sweep["window"])
    assert got == pytest.approx(want, rel=1e-13)


def test_counts_and_length_sums_on_every_platform(desk_sweep):
    # the keys and piece counts are exact integers and each length one
    # correctly rounded division, so these hold bit for bit on every
    # machine, as long as numpy sums pairwise in the same order: h = 73/3
    # sums to one ulp below X - 1.  The desk moments rest on numpy's
    # float64 log and exp, whose last bits differ by CPU, so they are held
    # at 1e-12, about three orders of magnitude above those differences:
    # an absolute moment relative to its stored value, a signed one to its
    # normalizer
    X, delta = desk_sweep["window"].X, float(desk_sweep["window"].geometry.delta)
    for (order, kind), value in desk_sweep["values"].items():
        if kind == Kind.ABSOLUTE:
            want = REFERENCE_ABSOLUTE["desk"][order][0]
            scale = abs(want)
        else:
            want = REFERENCE_ODD["desk"][int(order)][0]
            scale = odd_normalizer(X, delta, order)
        assert abs(value - want) <= 1e-12 * scale, (order, kind, value, want)
    runs = [(desk_sweep["diag"], 11_526_275, "0x1.7d783fc000000p+26")]
    windows = [
        # tied keys n - 20 = n', and a final piece that ends at X
        (WindowSpec(20000.3, Fixed(Fraction(20))), 4155, "0x1.387d333333333p+14"),
        (WindowSpec(15000.3, Fixed(Fraction(73, 3))), 3613, "0x1.d4ba666666665p+13"),
        # event 8192 enters where event 8191 leaves
        (WindowSpec(2e5, Scaled(Fraction(1, 8191))), 36244, "0x1.869f800000000p+17"),
    ]
    for w, pieces, length_sum in windows:
        runs.append((sweep_moments(w, [(1, Kind.SIGNED)])[1], pieces, length_sum))
    for diag, pieces, length_sum in runs:
        assert (diag.piece_count, diag.length_sum.hex()) == (pieces, length_sum)


def test_sweep_matches_grid_oracle(events_small):
    # signed and one-sided moments can be small, so every kind is gated
    # against the absolute moment of the same order
    for geometry in (Fixed(Fraction(50)), Scaled(Fraction(1, 200))):
        w = WindowSpec(1e4, geometry)
        for kind in ALL_KINDS:
            orders = [1.0, 2.1, 3.0] if kind == Kind.ABSOLUTE else [1.0, 3.0]
            pairs = [(o, k) for o in orders for k in (kind, Kind.ABSOLUTE)]
            res, _ = sweep_moments(w, pairs, events=events_small)
            grid = grid_oracle(w, orders, kind, step=1e-2)
            for got, absolute, g in zip(res[::2], res[1::2], grid):
                assert got.value == pytest.approx(g, abs=1e-4 * absolute.value)


def test_degenerate_window():
    # X = 1 leaves nothing to integrate: no piece, no length, no moment
    src = EventSource(8)
    for geometry in (Fixed(Fraction(1, 2)), Scaled(Fraction(1, 2))):
        res, diag = sweep_moments(WindowSpec(1.0, geometry), [(1, Kind.SIGNED)], events=src)
        assert res[0].value == 0.0
        assert diag.length_sum == 0.0
        assert diag.piece_count == 0


def test_tiling_covers_range(events_1e6):
    for geometry in (Fixed(Fraction(1000)), Scaled(Fraction(1, 1000))):
        w = WindowSpec(1e6, geometry)
        _, diag = sweep_moments(w, [(1, Kind.ABSOLUTE)], events=events_1e6)
        assert diag.length_sum == pytest.approx(1e6 - 1.0, rel=1e-9)


def test_kind_algebra(events_small):
    # u = max(u,0) + min(u,0) pointwise, so the integrals split the same way
    for geometry in (Fixed(Fraction(20)), Scaled(Fraction(1, 100))):
        w = WindowSpec(5000.0, geometry)
        for n in (1, 2, 3, 5):
            res, _ = sweep_moments(
                w,
                [(n, Kind.ABSOLUTE), (n, Kind.SIGNED), (n, Kind.POSITIVE_PART), (n, Kind.NEGATIVE_PART)],
                events=events_small,
            )
            a, s, p, q = (r.value for r in res)
            rel = 1e-13 if isinstance(geometry, Scaled) else 1e-11
            if n % 2:
                assert s == pytest.approx(p + q, rel=rel)
                assert a == pytest.approx(p - q, rel=rel)
            else:
                assert a == s  # identical code path for even orders
                assert a == pytest.approx(p + q, rel=rel)
            assert abs(s) <= a * (1 + 1e-12)
            assert p >= 0.0 >= (q if n % 2 else -q)


def test_scaled_sweep_against_mpmath():
    # the even signed order is the absolute one, by the closed form on the
    # pieces that change sign
    pairs = [(n, Kind.SIGNED) for n in (1.0, 2.0, 3.0, 5.0)] + [
        (o, Kind.ABSOLUTE) for o in (1.0, 2.1, 3.0, 6.5)
    ] + [(3.0, Kind.POSITIVE_PART), (3.0, Kind.NEGATIVE_PART)]
    cases = [
        # few pieces, many with 2^-10 < d/|c| < 1, where a series would be off
        (2e3, Fraction(1, 50), 673),
        # mid-size residuals
        (2e4, Fraction(1, 100), 4679),
        # small half-falls: G(u_a) - G(u_b) cancels here, 5.1e-14 off at order 6.5
        (5e4, Fraction(1, 1000), 10439),
    ]
    for x, delta, pieces in cases:
        window = WindowSpec(x, Scaled(delta))
        res, diag = sweep_moments(window, pairs)
        want, oracle_pieces = oracle_moments(window, pairs)
        assert diag.piece_count == oracle_pieces == pieces
        for r, w in zip(res, want):
            dev = abs((r.value - w) / w)
            assert dev <= 1e-14, (x, r.order, r.kind, dev)


@pytest.mark.parametrize(
    "window",
    [
        WindowSpec(2e4, Fixed(Fraction(20))),  # even h: n - 20 = n' ties keys
        WindowSpec(15000.3, Fixed(Fraction(73, 3))),  # the final piece ends at X
    ],
)
def test_fixed_sweep_against_mpmath(window):
    # flat pieces through the midpoint kernel, against the exact constant
    # residual of each piece
    pairs = DESK_LIKE_PAIRS + [(3.0, Kind.POSITIVE_PART), (3.0, Kind.NEGATIVE_PART)]
    res, diag = sweep_moments(window, pairs)
    want, pieces = oracle_moments(window, pairs)
    assert diag.piece_count == pieces
    for r, w in zip(res, want):
        dev = abs((r.value - w) / w)
        assert dev <= 1e-14, (window.geometry.h, r.order, r.kind, dev)


DESK_PAIRS = [(o, Kind.ABSOLUTE) for o in (1.0, 2.1, 3.2, 4.3, 5.4, 6.5)] + [
    (float(n), Kind.SIGNED) for n in (1, 3, 5)
]
FULL_SCALE = WindowSpec(1e10, Scaled(Fraction(1, 100000)))
# (window, the span's end below X, its length, pairs)
FULL_SCALE_SPANS = [
    pytest.param(
        FULL_SCALE, 0, 40_000, DESK_PAIRS + [(3.0, Kind.POSITIVE_PART), (3.0, Kind.NEGATIVE_PART)],
        id="scaled-1e10",
    ),
    pytest.param(
        WindowSpec(3e8, Fixed(Fraction(10000))), 1_000_000, 40_000,
        [(2.1, Kind.ABSOLUTE)] + [(3.0, kind) for kind in ALL_KINDS], id="fixed-3e8",
    ),
    pytest.param(
        FULL_SCALE, 0, 800_000, DESK_PAIRS, id="scaled-1e10-extended",
        marks=pytest.mark.skipif(
            os.environ.get("PSIMOMENTS_EXTENDED") != "1",
            reason="about 70k pieces, a minute; set PSIMOMENTS_EXTENDED=1",
        ),
    ),
]


@pytest.mark.parametrize("window, below, length, pairs", FULL_SCALE_SPANS)
def test_sub_chunks_at_full_scale_against_mpmath(monkeypatch, window, below, length, pairs):
    # a span of the key range, integrated on its own as an outer chunk is,
    # against the 40-digit oracle, which shares only the events with it:
    # the scaled span ends at X = 1e10, so its final piece ends at X.  At
    # _SUB_EVENTS = 1000 each span crosses sub-chunk cuts, as the extended
    # one does at the default size.  Each value is gated against the
    # oracle's absolute moment of its order
    geom, limit = window.geometry, window.limit()
    b_key = math.ceil(Fraction(window.X) * geom.K)
    kb = b_key - below * geom.K
    ka = kb - length * geom.K
    # the grid as sweep_moments derives it
    reach = geom.right_end(Fraction(window.X) + 1) - Fraction(window.X) - 1
    grid = sweep._grid((float(reach) + 1.0) * math.log(limit))
    extra = sorted({(order, Kind.ABSOLUTE) for order, _ in pairs} - set(pairs))
    values, pieces = oracle_moments(window, pairs + extra, ka, kb)
    want = dict(zip(pairs + extra, values))
    sub_chunks = []
    chunk_moments = sweep._chunk_moments

    def counting(*args):
        sub_chunks[-1] += 1
        return chunk_moments(*args)

    monkeypatch.setattr(sweep, "_chunk_moments", counting)
    for sub_events in (sweep._SUB_EVENTS, 1000):
        monkeypatch.setattr(sweep, "_SUB_EVENTS", sub_events)
        sub_chunks.append(0)
        chunk = sweep._sweep_chunk(geom, pairs, limit, grid, b_key, window.X, ka, kb, None)
        assert chunk.pieces == pieces
        for (order, kind), sums in zip(pairs, chunk.sums):
            dev = abs(math.fsum(sums) - want[order, kind]) / want[order, Kind.ABSOLUTE]
            assert dev <= 1e-14, (sub_events, order, kind, dev)
    assert sub_chunks[1] > max(sub_chunks[0], 1)


def _kernel_pieces():
    """(c, d) across the three regimes of t = d/|c| and their edges."""
    T = sweep._SERIES_T
    pieces = []
    for c in (300.0, -4.5, 0.75):
        pieces += [(c, abs(c) * t) for t in (1e-9, 3e-6, 0.5 * T, T, 0.01, 0.3, 0.9)]
        edge = abs(c) * T
        pieces += [(c, np.nextafter(edge, 0.0)), (c, np.nextafter(edge, 1.0))]
        pieces += [(c, abs(c) * (1 - 2.0**-30)), (c, np.nextafter(abs(c), 0.0))]
    # pieces that change sign, reach 0 at one end, or are centred on it
    pieces += [(0.3, 1.0), (-0.7, 1.0), (1.0, 1.0), (-2.0, 2.0), (0.0, 1.0), (0.0, 1e-3)]
    return pieces


def _flat_pieces():
    """(c, 0) for each c of _kernel_pieces: pieces that do not fall."""
    return [(c, 0.0) for c in sorted({c for c, _ in _kernel_pieces()})]


def _one_piece(c, d):
    """The kernel over one piece of length 0.625; d = 0 is passed as None."""
    return sweep._Midpoints(np.array([c]), np.array([d]) if d else None, np.array([0.625]))


def test_midpoint_kernel_against_mpmath():
    c, d = np.array(_kernel_pieces()).T
    batch = sweep._Midpoints(c, d, np.ones_like(c))
    series = np.flatnonzero(batch.t <= sweep._SERIES_T)
    assert series.size and batch.middle.size and batch.crossing.size
    for c, d in _kernel_pieces() + _flat_pieces():
        pieces = _one_piece(c, d)
        for order in (0.5, 1, 2, 2.1, 3, 6.5, 12):
            kinds = ALL_KINDS if order == int(order) else (Kind.ABSOLUTE,)
            for kind in kinds:
                got = pieces.integrals([(float(order), kind)])[0]
                want = float(_mpmath_piece(c, d, 0.625, [(order, kind)])[0])
                assert abs(got - want) <= 1e-14 * abs(want), (c, d, order, kind, got, want)


def test_midpoint_kernel_large_order_against_mpmath():
    # at the top of the order domain, 1/_SERIES_T = 1024, the series still
    # covers t <= _SERIES_T with a few terms, and the real order's error
    # grows like order * |log|c|| ulps; the integer order multiplies its
    # even part up term by term.  A flat piece (d = 0) takes the leading
    # term L |c|^order at every order.  On a piece that changes sign with
    # d > 1 the even part's terms b_j d^(2j) pass float64 (b_j reaches
    # about 1e304): every kind but the odd signed one takes the closed
    # form there, and the odd signed one overflows, so it is not checked
    top = 1 / sweep._SERIES_T
    assert top == 1024
    overflowing = {(0.3, 1.2), (-0.3, 1.2)}
    for c, d in _kernel_pieces() + _flat_pieces() + sorted(overflowing):
        if abs(c) + d > 1.5:  # the moment itself would pass float64
            continue
        for order in (top - 1, top - 0.5, top):
            kinds = ALL_KINDS if order == int(order) else (Kind.ABSOLUTE,)
            for kind in kinds:
                if (c, d) in overflowing and kind == Kind.SIGNED and order % 2:
                    continue
                # the even part's overflow is ignored, as in _chunk_moments
                with np.errstate(over="ignore", invalid="ignore"):
                    got = _one_piece(c, d).integrals([(order, kind)])[0]
                want = float(_mpmath_piece(c, d, 0.625, [(order, kind)])[0])
                assert abs(got - want) <= 1e-12 * abs(want), (c, d, order, kind, got, want)


def test_batched_real_orders_match_one_order_at_a_time():
    # the real absolute orders share one (orders x pieces) pass over the
    # middle regime and the pieces that change sign: each row is bit for
    # bit the value of its order alone, an integer order among them too,
    # up to the top of the order domain, 1024
    c, d = np.array(_kernel_pieces()).T
    lengths = np.linspace(0.25, 2.0, c.size)
    small = abs(c) + d <= 1.5  # the large orders' moments stay in float64
    for keep, orders in ((c == c, (2.1, 3.2, 12.0, 6.5)), (small, (1023.5, 2.1, 1024.0, 900.5))):
        pieces = (c[keep], d[keep], lengths[keep])
        pairs = [(order, Kind.ABSOLUTE) for order in orders]
        # one instance at a time: they share the thread's workspace
        want = [sweep._Midpoints(*pieces).integrals([pair])[0] for pair in pairs]
        batch = sweep._Midpoints(*pieces)
        assert batch.middle.size and batch.crossing.size
        assert batch.integrals(pairs) == want


def test_empty_pieces_add_nothing():
    # keys that tie leave pieces of length 0, d = 0 where they fall; each
    # adds exactly 0 at every order and kind, c = 0 too (no 0/0), and
    # raises no warning (pytest makes a RuntimeWarning an error)
    for c in (0.0, 0.75, -0.75):
        for d in (np.zeros(1), None):
            pieces = sweep._Midpoints(np.array([c]), d, np.zeros(1))
            for order in (0.5, 1, 2, 2.1, 3, 6.5, 12, 1023.5, 1024):
                kinds = ALL_KINDS if order == int(order) else (Kind.ABSOLUTE,)
                for kind in kinds:
                    got = pieces.integrals([(float(order), kind)])[0]
                    assert got == 0.0 and not math.copysign(1.0, got) < 0, (c, d, order, kind)


@settings(deadline=None, max_examples=200)
@given(st.lists(st.lists(st.floats(-1e200, 1e200), max_size=12), max_size=8))
def test_chunk_partials_sum_as_their_values(chunks):
    # a chunk's record carries the exact sum of its sub-chunks' values as
    # a few partials: the fsum over every chunk's partials is the fsum of
    # all the values they replace, bit for bit
    partials = [sweep._partials(values) for values in chunks]
    assert math.fsum(x for p in partials for x in p) == math.fsum(x for v in chunks for x in v)
    assert all(len(p) <= 40 for p in partials)


@pytest.mark.parametrize("values", [[1e308, 1e308], [math.inf, -math.inf]])
def test_non_finite_sums_are_a_range_error(monkeypatch, values):
    # a sum past float64, or inf - inf, makes math.fsum raise: a chunk's
    # partials are then (nan,), and chunk records whose total is either
    # make the sweep raise a range error naming the pair, not the fsum's
    # OverflowError or ValueError
    got = sweep._partials(values)
    assert len(got) == 1 and math.isnan(got[0])
    monkeypatch.setattr(sweep, "_CHUNK_EVENTS", 1 << 12)
    sums = iter(values)

    def chunk(*args):
        return sweep._Chunk(((next(sums, 0.0),), ()), 0)

    monkeypatch.setattr(sweep, "_sweep_chunk", chunk)
    with pytest.raises(RangeLimitError, match="signed moment of order 1 is not finite"):
        sweep_moments(NO_TABLE_WINDOWS[0], [(1, Kind.SIGNED)])
    assert next(sums, None) is None  # both records were read


def test_desk_like_sweep_workspace():
    # a desk-like sweep (the desk table's window at X = 2e7 and its nine
    # pairs) writes every per-piece array into workspace slots sized for a
    # sub-chunk of _SUB_EVENTS = 2^13 events, about 2^14 pieces: 16 slots,
    # 2.5 MB, in a thread whose workspace starts empty
    slots = {}

    def run():
        sweep_moments(WindowSpec(2e7, Scaled(Fraction(1, 10000))), DESK_PAIRS, threads=1)
        slots.update(sweep._WORK._slots)

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive() and slots
    assert sum(slot.size for slot in slots.values()) <= 2.7e6


def test_workspace_slots_do_not_grow_with_the_order():
    # an integer order n takes d^2 and one running power d^(2j), not a slot
    # per power: in a thread whose workspace starts empty, a scaled sweep
    # at signed order 401 leaves as many slots as one at order 5
    counts = []

    def run():
        for order in (5, 401):
            sweep_moments(WindowSpec(30, Scaled(Fraction(1, 10))), [(order, Kind.SIGNED)])
            counts.append(len(sweep._WORK._slots))

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive() and len(counts) == 2
    assert counts[0] == counts[1], counts


@pytest.mark.parametrize("geometry", [Scaled(Fraction(1, 100)), Fixed(Fraction(100))])
@pytest.mark.parametrize("kind", [Kind.ABSOLUTE, Kind.SIGNED])
def test_moment_past_float64_raises(geometry, kind):
    # |u| reaches about 50 at X = 1e5, so its 200th power is past float64
    with pytest.raises(RangeLimitError, match=f"{kind.value} moment of order 200 "):
        sweep_moments(WindowSpec(1e5, geometry), [(2, kind), (200, kind)])


def test_power_mean_monotone(events_small):
    w = WindowSpec(1e4, Fixed(Fraction(50)))
    orders = [0.5, 1.0, 1.5, 2.0, 3.0, 4.0]
    res, _ = sweep_moments(w, [(o, Kind.ABSOLUTE) for o in orders], events=events_small)
    means = [
        (r.value / (1e4 - 1.0)) ** (1.0 / r.order) for r in res
    ]
    for lo, hi in zip(means, means[1:]):
        assert hi >= lo * (1 - 1e-12)


def test_thread_count_determinism(events_1e6, monkeypatch):
    # small chunks, so the pools really split the sweep.  At delta = 1/8191
    # event 8192 enters where event 8191 leaves, at key 8191 * 8192, and
    # h = 1000 ties many keys: both leave empty pieces in place
    monkeypatch.setattr(sweep, "_CHUNK_EVENTS", 1 << 13)
    pairs = [(1.0, Kind.ABSOLUTE), (2.1, Kind.ABSOLUTE), (3.0, Kind.SIGNED)]
    windows = [
        (WindowSpec(1e6, Scaled(Fraction(1, 1000))), 9),
        (WindowSpec(2e5, Scaled(Fraction(1, 8191))), 3),
        (WindowSpec(2e5, Fixed(Fraction(1000))), 3),
    ]
    for w, chunks in windows:
        base, diag = sweep_moments(w, pairs, events=events_1e6, threads=1)
        assert diag.chunks == chunks
        for threads in (2, 4, 7):
            res, _ = sweep_moments(w, pairs, events=events_1e6, threads=threads)
            assert [r.value for r in res] == [b.value for b in base]  # bit for bit


def test_chunk_size_stability(events_1e6, monkeypatch):
    w = WindowSpec(1e6, Fixed(Fraction(500)))
    base, _ = sweep_moments(w, [(2.1, Kind.ABSOLUTE)], events=events_1e6)
    for chunk in (1 << 15, 1 << 17, 1 << 22):
        monkeypatch.setattr(sweep, "_CHUNK_EVENTS", chunk)
        res, _ = sweep_moments(w, [(2.1, Kind.ABSOLUTE)], events=events_1e6)
        assert res[0].value == pytest.approx(base[0].value, rel=1e-12)


@pytest.mark.parametrize("sub_events", [1, 3, 97])
def test_sub_chunk_stability(events_small, monkeypatch, sub_events):
    # cuts at exit keys add no piece: counts stay put whatever the sub-chunk
    # size.  K = 4 and K = 1024 keep every length dyadic, so each partial
    # length sum is exact and length_sum cannot move either
    pairs = [(2.1, Kind.ABSOLUTE), (3, Kind.SIGNED), (2, Kind.POSITIVE_PART),
             (1, Kind.NEGATIVE_PART)]
    runs = [
        # fractional h and X: the final sub-chunk is trimmed at X
        (WindowSpec(20000.375, Fixed(Fraction(45, 4))), sweep._CHUNK_EVENTS),
        # several outer chunks, cut into sub-chunks; at a few events per
        # sub-chunk the window holds more, so most start with S > 0
        (WindowSpec(25000.5, Scaled(Fraction(1, 1023))), 512),
    ]
    for w, chunk_events in runs:
        monkeypatch.setattr(sweep, "_CHUNK_EVENTS", chunk_events)
        base, base_diag = sweep_moments(w, pairs, events=events_small)
        with monkeypatch.context() as m:
            m.setattr(sweep, "_SUB_EVENTS", sub_events)
            res, diag = sweep_moments(w, pairs, events=events_small)
            threaded, _ = sweep_moments(w, pairs, events=events_small, threads=2)
        assert diag.chunks == base_diag.chunks
        assert diag.piece_count == base_diag.piece_count
        assert diag.length_sum == base_diag.length_sum
        for r, b in zip(res, base):
            assert r.value == pytest.approx(b.value, rel=1e-13)
        assert [t.value for t in threaded] == [r.value for r in res]  # bit for bit


def test_validation_errors():
    with pytest.raises(InvalidWindowError):
        Fixed(Fraction(0))
    with pytest.raises(InvalidWindowError):
        Scaled(Fraction(3, 2))
    with pytest.raises(InvalidWindowError):
        Scaled(Fraction(1, 10**10))  # denominator past the exact-key bound
    with pytest.raises(InvalidWindowError):
        WindowSpec(0.5, Fixed(Fraction(1, 4)))
    with pytest.raises(InvalidWindowError):
        WindowSpec(10.0, Fixed(Fraction(11)))
    w = WindowSpec(10.0, Fixed(Fraction(2)))
    with pytest.raises(InvalidOrderError):
        sweep_moments(w, [(0.0, Kind.ABSOLUTE)])
    with pytest.raises(InvalidOrderError):
        sweep_moments(w, [(2.5, Kind.SIGNED)])
    # the order domain ends at 1/_SERIES_T = 1024, for the oracle too
    for order, kind in ((1024.5, Kind.ABSOLUTE), (1025.0, Kind.SIGNED), (math.nan, Kind.ABSOLUTE)):
        with pytest.raises(InvalidOrderError, match=r"order must lie in \(0, 1024\]"):
            sweep_moments(w, [(order, kind)])
        with pytest.raises(InvalidOrderError):
            grid_oracle(w, [order], kind, step=0.5)
    with pytest.raises(InvalidWindowError):
        grid_oracle(w, [1.0], Kind.ABSOLUTE, step=5.0)


def test_key_range_errors():
    # X*K past the 64-bit key range: the sweep and the first-moment oracle
    # raise the same error from the one check in WindowSpec.limit
    src = EventSource(64)
    for w in (
        WindowSpec(10.0, Fixed(Fraction(1, 2**60))),
        WindowSpec(1e15, Scaled(Fraction(1, 10**9 - 1))),
    ):
        with pytest.raises(RangeLimitError):
            sweep_moments(w, [(1.0, Kind.SIGNED)], events=src)
        with pytest.raises(RangeLimitError):
            first_moment_exact(w)
        with pytest.raises(RangeLimitError):
            w.limit()


def test_window_past_the_exact_running_sum_raises():
    # S - h reaches 2^50 log(limit) > 2^52, so no grid keeps the running
    # sum of the weights' high parts exact; nothing is sieved first
    w = WindowSpec(2.0**51, Fixed(Fraction(2**50)))
    with pytest.raises(RangeLimitError, match="exact float64 running sum"):
        sweep_moments(w, [(1.0, Kind.SIGNED)])


RESIDUAL_WINDOWS = [
    # (geometry, whether two events share a key inside (1, X))
    (Fixed(Fraction(2)), True),  # even h: n - 2 = n' for twin primes
    (Fixed(Fraction(7)), True),  # odd h: only n - 7 = 2^k ties
    (Fixed(Fraction(3, 2)), False),  # entry keys odd, exit keys even
    (Fixed(Fraction(45, 4)), False),
    (Scaled(Fraction(1, 3)), True),  # keys 3n and 4n' tie at 12 = 3*4 = 4*3
    (Scaled(Fraction(1, 50)), False),  # 50n = 51n' needs n = 51m
]


@pytest.mark.parametrize("sub_events", [sweep._SUB_EVENTS, 5], ids=["default", "5"])
@pytest.mark.parametrize("geometry, ties", RESIDUAL_WINDOWS)
def test_residuals_against_exact_fractions(monkeypatch, geometry, ties, sub_events):
    # every piece's residual, from the split running sum and the split
    # drift of delta x since its sub-chunk's start, lies within one ulp of
    # max(|u|, drift) of the exact residual.  Keys that tie leave empty
    # pieces, which stay in place with length 0: one per tied key past the
    # first, unless the keys tie where a sub-chunk starts, as no sub-chunk
    # sorts its start key; without ties none is looked for.  Small
    # sub-chunks start the running sum at many anchors.  X * K is not an
    # integer, so the final piece ends at X itself
    monkeypatch.setattr(sweep, "_SUB_EVENTS", sub_events)
    window = WindowSpec(150.3, geometry)
    K = geometry.K
    events = EventSource(window.limit())
    # each piece's residual and length, and its sub-chunk's start key
    residuals, lengths, starts = [], [], []
    chunk_moments = sweep._chunk_moments

    def recording_chunk(geom, ns, ws, ka, *args):
        first = len(residuals)
        result = chunk_moments(geom, ns, ws, ka, *args)
        starts.extend([ka] * (len(residuals) - first))
        return result

    class Recording(sweep._Midpoints):
        def __init__(self, c, d, L):
            residuals.extend(c.tolist())
            lengths.extend(L.tolist())
            super().__init__(c, d, L)

    monkeypatch.setattr(sweep, "_Midpoints", Recording)
    monkeypatch.setattr(sweep, "_chunk_moments", recording_chunk)
    _, diag = sweep_moments(window, [(1, Kind.SIGNED)], events=events)
    # the exact residual at each piece's midpoint, and the midpoint
    slope = geometry.delta if isinstance(geometry, Scaled) else 0
    width = geometry.h if isinstance(geometry, Fixed) else 0
    want = [(S - width - slope * (a + b) / 2, (a + b) / 2) for a, b, S in exact_pieces(window)]
    pieces = [(got, start) for got, start, L in zip(residuals, starts, lengths) if L > 0]
    assert diag.piece_count == len(pieces) == len(want)
    keys = Counter(
        key for n in events.arrays()[0].tolist() for key in (geometry.entry_key(n), n * K)
        if K < key < window.X * K
    )
    assert max(keys.values()) > 1 if ties else max(keys.values()) == 1
    cuts = set(starts)
    assert len(residuals) - len(pieces) == sum(
        count - 1 for key, count in keys.items() if key not in cuts
    )
    if sub_events < sweep._SUB_EVENTS:
        assert len(cuts) > 1
    if ties and sub_events == sweep._SUB_EVENTS:
        assert len(residuals) > len(pieces)
    for (got, start), (exact, mid) in zip(pieces, want):
        drift = slope * (mid - Fraction(start, K))
        assert abs(Fraction(got) - exact) <= math.ulp(max(abs(float(exact)), float(drift)))


DESK_LIKE_PAIRS = [(o, Kind.ABSOLUTE) for o in (1.0, 2.1, 3.2, 6.5)] + [
    (float(n), Kind.SIGNED) for n in (1, 3, 5)
]


def _walk_sub_chunks(monkeypatch, ns, ws, edges, h):
    """Read the stream of ns, ws, cut into blocks at edges with an empty
    block among them, through _sub_chunks as a sweep does, with sub-chunks
    of 14 events and a fixed window of integer width h: each sub-chunk's
    run reaches h past its cut.  Each run must be the slice of the joined
    array and a view of the run the generator holds.  Returns the events
    the joins copied and the runs that were views of a block."""
    monkeypatch.setattr(sweep, "_SUB_EVENTS", 14)
    copied = []
    join = sweep._join

    def counting(parts):
        joined = join(parts)
        if joined.dtype == ns.dtype and not any(np.shares_memory(joined, p) for p in parts):
            copied.append(joined.size)
        return joined

    monkeypatch.setattr(sweep, "_join", counting)
    blocks = [(ns[a:b], ws[a:b]) for a, b in zip(edges, edges[1:])]
    blocks[3:3] = [(ns[:0], ws[:0])]
    geom, kb = Fixed(Fraction(h)), int(ns[-1])
    sub_chunks = sweep._sub_chunks(geom, 0, kb, blocks)
    ca, start, views = 0, 0, 0
    for got_ca, cb, got_ns, got_ws in sub_chunks:
        assert got_ca == ca
        assert cb == (min(int(ns[start + 13]), kb) if start + 13 < ns.size else kb)
        end = int(np.searchsorted(ns, geom.first_entering(cb)))
        assert np.array_equal(got_ns, ns[start:end]) and np.array_equal(got_ws, ws[start:end])
        held = sub_chunks.gi_frame.f_locals
        assert got_ns.ctypes.data == held["ns"].ctypes.data
        assert got_ws.ctypes.data == held["ws"].ctypes.data
        views += np.shares_memory(got_ns, ns)
        ca, start = cb, start + 14
    assert ca == kb and start >= ns.size
    return sum(copied), views


def test_event_buffer_slices_match_one_array(monkeypatch):
    # blocks of every size, an empty one too, and windows that reach past
    # no event or several: each run a sub-chunk reads is the slice of the
    # joined array and a view of the one run held; a lone block is held as
    # it is, so some runs are views of a block
    rng = np.random.default_rng(7)
    ns = np.cumsum(rng.integers(1, 6, 500))
    ws = rng.random(500)
    edges = [0, *sorted(rng.choice(np.arange(1, 500), 40, replace=False)), 500]
    walks = [_walk_sub_chunks(monkeypatch, ns, ws, edges, h) for h in (2, 60)]
    assert all(copied > 0 for copied, _ in walks) and sum(views for _, views in walks) > 0
    # a window many times a block: the run held is about 600 events, 75
    # blocks of 8, and the joins still copy each event fewer than 3 times
    ns = np.cumsum(rng.integers(1, 6, 8000))
    ws = rng.random(8000)
    copied, _ = _walk_sub_chunks(monkeypatch, ns, ws, range(0, 8001, 8), 1800)
    assert copied < 3 * ns.size


def test_event_buffer_pull_joins_one_array_at_a_time(monkeypatch):
    # a pull that joins the held run of n events to a block of n joins the
    # n first and lets the old ones go before it joins the weights: beside
    # the held run it holds the block (16 bytes an event) and one new array
    # of 2n (16) at a time, not both new arrays (32)
    n = 1 << 16
    monkeypatch.setattr(sweep, "_SUB_EVENTS", n + 1)
    held = []

    def blocks():
        yield np.arange(1, n + 1, dtype=np.int64), np.ones(n)  # held as it is
        held.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        yield np.arange(n + 1, 2 * n + 1, dtype=np.int64), np.ones(n)  # joined to it

    tracemalloc.start()
    try:
        _, cb, ns, _ = next(sweep._sub_chunks(Fixed(Fraction(1)), 0, 4 * n, blocks()))
        peak = tracemalloc.get_traced_memory()[1] - held[0]
    finally:
        tracemalloc.stop()
    assert cb == n + 1 and np.array_equal(ns, np.arange(1, n + 2))
    assert peak < 40 * n


@settings(deadline=None, max_examples=40)
@given(
    x_num=st.integers(min_value=5, max_value=200),
    h_num=st.integers(min_value=1, max_value=12),
    h_den=st.integers(min_value=1, max_value=6),
    order=st.sampled_from([1, 2, 3]),
    kind=st.sampled_from(ALL_KINDS),
)
def test_fixed_windows_match_brute(x_num, h_num, h_den, order, kind):
    X = x_num / 4.0
    h = Fraction(h_num, h_den)
    if h >= X:
        return
    src = EventSource(max(8, int(X + float(h)) + 2))
    w = WindowSpec(X, Fixed(h))
    res, _ = sweep_moments(w, [(order, kind)], events=src)
    (want,), _ = oracle_moments(w, [(order, kind)])
    assert res[0].value == pytest.approx(want, rel=1e-10, abs=1e-12)


@settings(deadline=None, max_examples=40)
@given(
    x_num=st.integers(min_value=5, max_value=160),
    d_num=st.integers(min_value=1, max_value=9),
    d_den=st.integers(min_value=2, max_value=40),
    order=st.sampled_from([1, 2, 3]),
    kind=st.sampled_from(ALL_KINDS),
)
def test_scaled_windows_match_brute(x_num, d_num, d_den, order, kind):
    X = x_num / 4.0
    d = Fraction(d_num, d_den)
    if d >= 1:
        return
    src = EventSource(max(8, int(X * (1 + float(d))) + 2))
    w = WindowSpec(X, Scaled(d))
    res, _ = sweep_moments(w, [(order, kind)], events=src)
    (want,), _ = oracle_moments(w, [(order, kind)])
    assert res[0].value == pytest.approx(want, rel=1e-10, abs=1e-12)
