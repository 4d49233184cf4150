"""End-to-end acceptance checks, one test per criterion.

Each test appends a PASS/FAIL line to the terminal summary and then
asserts, so a plain `pytest -v` run shows every verdict.  The extended
X = 1e10 reproduction only runs with PSIMOMENTS_EXTENDED=1 in the
environment; it re-sieves in segments and takes a long while.
"""

import math
import os
import time
from fractions import Fraction

import pytest

import psimoments.sweep
from psimoments import (
    EventSource,
    Fixed,
    Kind,
    Scaled,
    WindowSpec,
    decomposition_check,
    default_threads,
    double_factorial,
    duplication_residual,
    first_moment_exact,
    gaussian_abs_moment,
    grid_oracle,
    moment_constant_residual,
    odd_normalizer,
    saffari_vaughan_average,
    scaled_refined_term,
    sin_fourth_integral,
    sin_squared_integral,
    sweep_moments,
)
from psimoments.report import REFERENCE_ABSOLUTE, REFERENCE_ODD

from conftest import ACCEPTANCE_LINES, DESK_ABS_ORDERS, DESK_ODD_ORDERS


def record(num, ok, detail):
    ACCEPTANCE_LINES.append(f"criterion {num}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, detail


def test_criterion_1_formula_reproduction():
    t0 = time.monotonic()
    worst = 0.0
    scales = {"desk": (1e8, 1e-4), "full": (1e10, 1e-5)}
    for scale, (X, d) in scales.items():
        for lam, (_, ref_formula) in REFERENCE_ABSOLUTE[scale].items():
            got = scaled_refined_term(X, d, lam)
            worst = max(worst, abs(got - ref_formula) / abs(ref_formula))
    wall = time.monotonic() - t0
    ok = worst <= 5e-4 and wall < 1.0
    record(1, ok, f"12 formula values, worst dev {worst:.2e} (gate 5e-4), {wall:.3f} s")


def test_criterion_2_normalizer_reproduction():
    worst = 0.0
    scales = {"desk": (1e8, 1e-4), "full": (1e10, 1e-5)}
    for scale, (X, d) in scales.items():
        for n, (_, ref_norm) in REFERENCE_ODD[scale].items():
            got = odd_normalizer(X, d, n)
            worst = max(worst, abs(got - ref_norm) / abs(ref_norm))
    ok = worst <= 5e-4
    record(2, ok, f"6 normalizers, worst dev {worst:.2e} (gate 5e-4)")


def test_criterion_3_desk_actuals(desk_sweep):
    worst = 0.0
    for lam in DESK_ABS_ORDERS:
        ref = REFERENCE_ABSOLUTE["desk"][lam][0]
        got = desk_sweep["values"][(lam, Kind.ABSOLUTE)]
        worst = max(worst, abs(got - ref) / abs(ref))
    wall = desk_sweep["wall"]
    budget = 300.0 if default_threads() < 8 else 60.0
    ok = worst <= 0.02 and wall <= budget
    record(
        3,
        ok,
        f"desk absolute moments, worst dev {worst:.2e} (gate 2e-2), "
        f"{wall:.1f} s on {default_threads()} thread(s) (budget {budget:.0f} s)",
    )


def test_criterion_4_odd_smallness(desk_sweep):
    ratios = {}
    for n in DESK_ODD_ORDERS:
        signed = desk_sweep["values"][(float(n), Kind.SIGNED)]
        ratios[n] = signed / odd_normalizer(1e8, 1e-4, n)
    ok = all(abs(r) <= 0.02 for r in ratios.values())
    ok = ok and ratios[1] < 0.0 and ratios[3] < 0.0
    detail = ", ".join(f"n={n}: {r:+.2e}" for n, r in ratios.items())
    record(4, ok, f"signed/normalizer {detail} (gate |r| <= 0.02; n=1,3 negative)")


def test_criterion_5_oracle_equivalence(events_1e6, events_small):
    devs = []
    for geometry in (Fixed(Fraction(1000)), Scaled(Fraction(1, 1000))):
        w = WindowSpec(1e6, geometry)
        res, _ = sweep_moments(w, [(1, Kind.SIGNED)], events=events_1e6)
        exact = first_moment_exact(w)
        devs.append(abs(res[0].value - exact) / abs(exact))
    first_ok = max(devs) <= 1e-9

    w = WindowSpec(1e4, Fixed(Fraction(50)))
    orders = [1.0, 2.1, 3.0]
    res, _ = sweep_moments(w, [(o, Kind.ABSOLUTE) for o in orders], events=events_small)
    grid = grid_oracle(w, orders, Kind.ABSOLUTE, step=1e-3)
    grid_dev = max(abs(r.value - g) / abs(g) for r, g in zip(res, grid))
    ok = first_ok and grid_dev <= 1e-3
    record(
        5,
        ok,
        f"first-moment oracle devs {devs[0]:.1e}/{devs[1]:.1e} (gate 1e-9), "
        f"grid oracle dev {grid_dev:.1e} (gate 1e-3)",
    )


def test_criterion_6_identity_suite():
    t0 = time.monotonic()
    worst = 0.0
    for z in (0.25, 0.5, 1.0, 2.5, 7.0, 10.0, 40.0, 85.0, 99.9):
        worst = max(worst, duplication_residual(z))
    for m in range(1, 11):
        want = float(double_factorial(2 * m - 1))
        worst = max(worst, abs(gaussian_abs_moment(2.0 * m) - want) / want)
    ok_small = worst <= 1e-10

    g1 = abs(sin_squared_integral(1.0) - math.pi / 2) / (math.pi / 2)
    d2 = abs(sin_fourth_integral(2.0) - math.pi / 3) / (math.pi / 3)
    ok_osc = g1 <= 1e-6 and d2 <= 1e-6

    chain = max(moment_constant_residual(l) for l in (0.5, 1.0, 2.1, 3.2, 4.3, 5.4, 6.5))
    wall = time.monotonic() - t0
    ok = ok_small and ok_osc and chain <= 1e-10 and wall < 10.0
    record(
        6,
        ok,
        f"duplication/moments {worst:.1e}, G1 {g1:.1e}, D2 {d2:.1e}, "
        f"chain {chain:.1e}, {wall:.2f} s (budget 10 s)",
    )


def test_criterion_7_structural(events_1e6, monkeypatch):
    w = WindowSpec(1e6, Scaled(Fraction(1, 1000)))
    pairs = [(o, Kind.ABSOLUTE) for o in (0.5, 1.0, 1.5, 2.0, 3.0, 4.0)]
    res, diag = sweep_moments(w, pairs, events=events_1e6)
    tiling = abs(diag.length_sum - (1e6 - 1.0)) / (1e6 - 1.0)

    rep = decomposition_check(w, 3, events=events_1e6)
    decomp = abs(rep.absolute + rep.signed - 2.0 * rep.positive_part) / rep.absolute
    bound_ok = abs(rep.signed) <= rep.absolute

    means = [(r.value / (1e6 - 1.0)) ** (1.0 / r.order) for r in res]
    mono_ok = all(b >= a * (1 - 1e-12) for a, b in zip(means, means[1:]))

    # small chunks, so the pools of 2 and 5 worker processes really split the sweep
    monkeypatch.setattr(psimoments.sweep, "_CHUNK_EVENTS", 1 << 13)
    base, det_diag = sweep_moments(w, [(2.1, Kind.ABSOLUTE)], events=events_1e6, threads=1)
    det = 0.0
    for threads in (2, 5):
        other, _ = sweep_moments(
            w, [(2.1, Kind.ABSOLUTE)], events=events_1e6, threads=threads
        )
        det = max(det, abs(other[0].value - base[0].value) / abs(base[0].value))

    det_ok = det == 0.0 and det_diag.chunks > 1
    ok = tiling <= 1e-9 and decomp <= 1e-9 and bound_ok and mono_ok and det_ok
    record(
        7,
        ok,
        f"tiling {tiling:.1e}, decomposition {decomp:.1e}, |signed|<=abs {bound_ok}, "
        f"power-mean monotone {mono_ok}, worker-count determinism {det:.1e} "
        f"over {det_diag.chunks} chunks (gate: bit-identical)",
    )


@pytest.mark.skipif(
    os.environ.get("PSIMOMENTS_EXTENDED") != "1",
    reason="extended full-scale run; set PSIMOMENTS_EXTENDED=1",
)
def test_criterion_8_extended_full_scale():
    X, d = 1e10, Fraction(1, 100000)
    window = WindowSpec(X, Scaled(d))
    events = EventSource(window.limit())  # past PRELOAD_LIMIT: each chunk re-sieves its range
    pairs = [(o, Kind.ABSOLUTE) for o in DESK_ABS_ORDERS]
    t0 = time.monotonic()
    res, _ = sweep_moments(window, pairs, events=events, threads=default_threads())
    wall = time.monotonic() - t0
    worst = 0.0
    for r in res:
        ref = REFERENCE_ABSOLUTE["full"][r.order][0]
        worst = max(worst, abs(r.value - ref) / abs(ref))
    ok = worst <= 0.01
    record(8, ok, f"full-scale absolute moments, worst dev {worst:.2e} (gate 1e-2), {wall:.0f} s")


def test_criterion_9_averaged_comparison(events_1e6):
    r16 = saffari_vaughan_average(1e6, 1e-3, 1, grid_points=16, events=events_1e6)
    r32 = saffari_vaughan_average(1e6, 1e-3, 1, grid_points=32, events=events_1e6)
    drift = abs(r32.ratio - r16.ratio) / abs(r16.ratio)
    ok = 0.7 <= r16.ratio <= 1.3 and 0.7 <= r32.ratio <= 1.3 and drift <= 0.01
    record(
        9,
        ok,
        f"averaged ratio {r16.ratio:.4f} -> {r32.ratio:.4f} under grid doubling "
        f"(range [0.7, 1.3], drift {drift:.2e} <= 1e-2)",
    )
