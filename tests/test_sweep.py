import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psimoments.errors import InvalidOrderError, InvalidWindowError
from psimoments import sieve, sweep
from psimoments.sieve import PSI_SPAN, EventSource
from psimoments.sweep import (
    DEFAULT_CHUNK_EVENTS,
    Fixed,
    Kind,
    Scaled,
    WindowSpec,
    first_moment_exact,
    grid_oracle,
    sweep_moments,
)

ALL_KINDS = (Kind.ABSOLUTE, Kind.SIGNED, Kind.POSITIVE_PART, Kind.NEGATIVE_PART)


def _exact_piece(ua, ub, length, n, kind):
    """Exact integral of g(u) over a piece on which u runs linearly from ua
    to ub without changing sign."""
    if ua == ub:
        integral = length * ua**n
    else:
        integral = length * (ua ** (n + 1) - ub ** (n + 1)) / ((n + 1) * (ua - ub))
    negative, positive = ua + ub < 0, ua + ub > 0
    if kind == Kind.ABSOLUTE and negative:
        return (-1) ** n * integral
    if (kind == Kind.POSITIVE_PART and negative) or (kind == Kind.NEGATIVE_PART and positive):
        return 0
    return integral


def brute_moment(window, order, kind, events):
    """Exact reference for integer orders: enumerate breakpoints as
    Fractions, sum each constant piece of S over the exact Fraction values
    of the float weights, split a scaled piece where u = 0, integrate
    u^order in exact arithmetic and round once at the end.  Quadratic in
    the event count, fine for tiny windows."""
    n = int(order)
    assert n == order
    X = Fraction(window.X)
    ns, ws = events.arrays()
    ns = [int(v) for v in ns]
    ws = [Fraction(w) for w in ws.tolist()]
    if isinstance(window.geometry, Fixed):
        width, slope = window.geometry.h, Fraction(0)
        enters = [Fraction(v) - width for v in ns]
    else:
        width, slope = Fraction(0), window.geometry.delta
        enters = [Fraction(v) / (1 + slope) for v in ns]
    cuts = {Fraction(1), X}
    for v, e in zip(ns, enters):
        cuts.update(c for c in (e, Fraction(v)) if 1 < c < X)
    cuts = sorted(cuts)
    total = Fraction(0)
    for a, b in zip(cuts, cuts[1:]):
        s = sum((w for v, e, w in zip(ns, enters, ws) if e <= a < v), Fraction(0))
        ends = [a, b]
        if slope and a < s / slope < b:
            ends.insert(1, s / slope)
        for lo, hi in zip(ends, ends[1:]):
            u_lo, u_hi = s - width - slope * lo, s - width - slope * hi
            total += _exact_piece(u_lo, u_hi, hi - lo, n, kind)
    return float(total)


@pytest.fixture(scope="module")
def events_toy():
    return EventSource(64)


def test_fixed_toy_signed_first_moment(events_toy):
    w = WindowSpec(10.0, Fixed(Fraction(2)))
    (res,), _ = sweep_moments(w, [(1, Kind.SIGNED)], events=events_toy)
    want = brute_moment(w, 1, Kind.SIGNED, events_toy)
    assert res.value == pytest.approx(want, rel=1e-12)
    assert res.value == pytest.approx(-0.6312235467506362, rel=1e-12)
    assert res.piece_count == 9


def test_scaled_toy_signed_first_moment(events_toy):
    w = WindowSpec(10.0, Scaled(Fraction(1, 2)))
    (res,), _ = sweep_moments(w, [(1, Kind.SIGNED)], events=events_toy)
    want = brute_moment(w, 1, Kind.SIGNED, events_toy)
    assert res.value == pytest.approx(want, rel=1e-12)
    assert res.value == pytest.approx(-0.08369059678421209, rel=1e-12)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("order", [1, 2, 3])
def test_toy_all_kinds_against_brute(events_toy, kind, order):
    for geometry in (Fixed(Fraction(3, 2)), Scaled(Fraction(1, 4))):
        w = WindowSpec(12.0, geometry)
        res, _ = sweep_moments(w, [(order, kind)], events=events_toy)
        want = brute_moment(w, order, kind, events_toy)
        assert res[0].value == pytest.approx(want, rel=1e-11, abs=1e-13)


def test_fractional_endpoint(events_toy):
    # X * K not an integer: the final piece is trimmed at X itself, also
    # when more chunks than keys leave the last chunks empty
    for X in (10.5, 20.25):
        for geometry in (Fixed(Fraction(1, 3)), Scaled(Fraction(1, 7))):
            w = WindowSpec(X, geometry)
            want = brute_moment(w, 2, Kind.SIGNED, events_toy)
            for chunk_events in (DEFAULT_CHUNK_EVENTS, 1):
                res, diag = sweep_moments(
                    w, [(2, Kind.SIGNED)], events=events_toy, chunk_events=chunk_events
                )
                assert res[0].value == pytest.approx(want, rel=1e-11, abs=1e-14)
                assert diag.length_sum == pytest.approx(X - 1.0, abs=1e-9)


def test_first_moment_exact_tiny():
    # only the prime 2 is inside reach: contribution log 2 over half a unit
    src = EventSource(8)
    w = WindowSpec(2.0, Fixed(Fraction(1, 2)))
    want = 0.5 * math.log(2.0) - 0.5
    got = first_moment_exact(w, events=src)
    assert got == pytest.approx(want, rel=1e-15)
    assert got == pytest.approx(-0.15342640972002736, rel=1e-15)
    # X = 1 leaves no x to integrate over
    for geometry in (Fixed(Fraction(1, 2)), Scaled(Fraction(1, 2))):
        assert first_moment_exact(WindowSpec(1.0, geometry), events=src) == 0.0


def test_first_moment_exact_streams_spans(monkeypatch, recording_source):
    # on a streamed source every request is at most PSI_SPAN wide and the
    # requests tile [2, limit]
    w = WindowSpec(2.5e6, Fixed(Fraction(100)))
    limit = w.limit()
    preloaded = first_moment_exact(w, EventSource(limit))
    monkeypatch.setattr(sieve, "PRELOAD_LIMIT", 1000)
    streamed = recording_source(limit)
    assert not streamed.preload
    assert first_moment_exact(w, streamed) == preloaded
    assert len(streamed.calls) == 3
    assert all(hi - lo <= PSI_SPAN for lo, hi in streamed.calls)
    assert streamed.calls[0][0] == 2 and streamed.calls[-1][1] == limit + 1
    assert all(a[1] == b[0] for a, b in zip(streamed.calls, streamed.calls[1:]))


def test_sweep_matches_closed_form_oracle_fixed(events_1e6):
    w = WindowSpec(1e6, Fixed(Fraction(1000)))
    res, _ = sweep_moments(w, [(1, Kind.SIGNED)], events=events_1e6)
    want = first_moment_exact(w, events=events_1e6)
    assert res[0].value == pytest.approx(want, rel=1e-9)


def test_sweep_matches_closed_form_oracle_scaled(events_1e6):
    w = WindowSpec(1e6, Scaled(Fraction(1, 1000)))
    res, _ = sweep_moments(w, [(1, Kind.SIGNED)], events=events_1e6)
    want = first_moment_exact(w, events=events_1e6)
    assert res[0].value == pytest.approx(want, rel=1e-9)


def test_sweep_matches_grid_oracle(events_small):
    w = WindowSpec(1e4, Fixed(Fraction(50)))
    orders = [1.0, 2.1, 3.0]
    res, _ = sweep_moments(w, [(o, Kind.ABSOLUTE) for o in orders], events=events_small)
    grid = grid_oracle(w, orders, Kind.ABSOLUTE, step=1e-3, events=events_small)
    for r, g in zip(res, grid):
        assert r.value == pytest.approx(g, rel=1e-3)


def test_degenerate_window():
    src = EventSource(8)
    res, diag = sweep_moments(
        WindowSpec(1.0, Fixed(Fraction(1, 2))), [(1, Kind.SIGNED)], events=src
    )
    assert res[0].value == 0.0
    assert diag.length_sum == 0.0


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
            if n % 2:
                assert s == pytest.approx(p + q, rel=1e-11)
                assert a == pytest.approx(p - q, rel=1e-11)
            else:
                assert a == s  # identical code path for even orders
                assert a == pytest.approx(p + q, rel=1e-11)
            assert abs(s) <= a * (1 + 1e-12)
            assert p >= 0.0 >= (q if n % 2 else -q)


def mpmath_scaled_moment(window, pairs, events, dps=40):
    """High-precision reference for scaled windows: exact Fraction
    breakpoints, an mpf running sum of the float64 weights, and the closed
    form (G(u_a) - G(u_b)) / delta on every piece at ``dps`` digits, where
    G(u) = u^(m+1)/(m+1) (signed) or sgn(u)|u|^(m+1)/(m+1) (absolute)."""
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    delta = window.geometry.delta
    X = Fraction(window.X)
    ns, ws = events.range(2, window.limit() + 1)
    steps = []
    for n, w in zip(ns.tolist(), ws.tolist()):
        steps.append((Fraction(n) / (1 + delta), w))
        steps.append((Fraction(n), -w))
    steps.sort(key=lambda s: s[0])
    cuts = sorted({Fraction(1), X} | {c for c, _ in steps if 1 < c < X})
    with mp.workdps(dps):
        d = mpmath.mpf(delta.numerator) / delta.denominator

        def G(u, j):
            order, kind = pairs[j]
            if kind == Kind.SIGNED:
                return u ** (int(order) + 1) / (int(order) + 1)
            m1 = mpmath.mpf(order) + 1
            return mpmath.sign(u) * abs(u) ** m1 / m1

        totals = [mpmath.mpf(0)] * len(pairs)
        S = mpmath.mpf(0)
        i = 0
        for a, b in zip(cuts, cuts[1:]):
            while i < len(steps) and steps[i][0] <= a:
                S += steps[i][1]
                i += 1
            ua = S - d * (mpmath.mpf(a.numerator) / a.denominator)
            ub = S - d * (mpmath.mpf(b.numerator) / b.denominator)
            for j in range(len(pairs)):
                totals[j] += (G(ua, j) - G(ub, j)) / d
        return totals


def test_scaled_sweep_against_mpmath():
    # X = 2e4, delta = 1/100: 4,679 pieces, mid-size residuals; the signed
    # odd moments are the ones an undivided G(u_a) - G(u_b) gets wrong
    window = WindowSpec(2e4, Scaled(Fraction(1, 100)))
    events = EventSource(window.limit())
    pairs = [
        (3.0, Kind.SIGNED),
        (5.0, Kind.SIGNED),
        (2.1, Kind.ABSOLUTE),
        (6.5, Kind.ABSOLUTE),
    ]
    gates = [1e-14, 1e-14, 1e-12, 1e-12]
    res, diag = sweep_moments(window, pairs, events=events)
    assert diag.piece_count == 4679
    want = mpmath_scaled_moment(window, pairs, events)
    for r, w, gate in zip(res, want, gates):
        dev = float(abs((r.value - w) / w))
        assert dev <= gate, (r.order, r.kind, dev)


def test_power_mean_monotone(events_small):
    w = WindowSpec(1e4, Fixed(Fraction(50)))
    orders = [0.5, 1.0, 1.5, 2.0, 3.0, 4.0]
    res, _ = sweep_moments(w, [(o, Kind.ABSOLUTE) for o in orders], events=events_small)
    means = [
        (r.value / (1e4 - 1.0)) ** (1.0 / r.order) for r in res
    ]
    for lo, hi in zip(means, means[1:]):
        assert hi >= lo * (1 - 1e-12)


def test_thread_count_determinism(events_1e6):
    # small chunks, so the pools really split the sweep
    w = WindowSpec(1e6, Scaled(Fraction(1, 1000)))
    pairs = [(1.0, Kind.ABSOLUTE), (2.1, Kind.ABSOLUTE), (3.0, Kind.SIGNED)]
    base, diag = sweep_moments(w, pairs, events=events_1e6, threads=1, chunk_events=1 << 13)
    assert diag.chunks == 9
    for threads in (2, 4, 7):
        res, _ = sweep_moments(
            w, pairs, events=events_1e6, threads=threads, chunk_events=1 << 13
        )
        assert [r.value for r in res] == [b.value for b in base]  # bit for bit


def test_chunk_size_stability(events_1e6):
    w = WindowSpec(1e6, Fixed(Fraction(500)))
    base, _ = sweep_moments(w, [(2.1, Kind.ABSOLUTE)], events=events_1e6)
    for chunk in (1 << 15, 1 << 17, 1 << 22):
        res, _ = sweep_moments(
            w, [(2.1, Kind.ABSOLUTE)], events=events_1e6, chunk_events=chunk
        )
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
        (WindowSpec(20000.375, Fixed(Fraction(45, 4))), DEFAULT_CHUNK_EVENTS),
        # several outer chunks, cut into sub-chunks; at a few events per
        # sub-chunk the window holds more, so most start with S > 0
        (WindowSpec(25000.5, Scaled(Fraction(1, 1023))), 512),
    ]
    for w, chunk_events in runs:
        base, base_diag = sweep_moments(w, pairs, events=events_small, chunk_events=chunk_events)
        with monkeypatch.context() as m:
            m.setattr(sweep, "_SUB_EVENTS", sub_events)
            res, diag = sweep_moments(w, pairs, events=events_small, chunk_events=chunk_events)
            threaded, _ = sweep_moments(
                w, pairs, events=events_small, chunk_events=chunk_events, threads=2
            )
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
    src = EventSource(64)
    with pytest.raises(InvalidWindowError):
        grid_oracle(w, [1.0], Kind.ABSOLUTE, step=5.0, events=src)


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
    want = brute_moment(w, order, kind, src)
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
    want = brute_moment(w, order, kind, src)
    assert res[0].value == pytest.approx(want, rel=1e-10, abs=1e-12)
