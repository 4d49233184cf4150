import math
from fractions import Fraction

import pytest

from psimoments.equivalence import (
    average_event_limit,
    decomposition_check,
    saffari_vaughan_average,
    width_grid,
)
from psimoments.errors import DomainError
from psimoments.predictions import odd_normalizer
from psimoments.sieve import EventSource
from psimoments.sweep import Fixed, Kind, Scaled, WindowSpec, sweep_moments


@pytest.mark.filterwarnings("ignore::psimoments.predictions.WidthRangeWarning")
def test_decomposition_toy():
    events = EventSource(64)
    w = WindowSpec(10.0, Fixed(Fraction(2)))
    rep = decomposition_check(w, 1, events=events)
    assert rep.signed == pytest.approx(-0.6312235467506362, rel=1e-12)
    assert rep.positive_part == pytest.approx((rep.absolute + rep.signed) / 2.0, rel=1e-12)
    resid = abs(rep.absolute + rep.signed - 2.0 * rep.positive_part)
    assert resid <= 1e-12 * rep.absolute
    assert abs(rep.signed) <= rep.absolute


@pytest.mark.filterwarnings("ignore::psimoments.predictions.WidthRangeWarning")
def test_decomposition_degenerate():
    events = EventSource(8)
    rep = decomposition_check(WindowSpec(1.0, Fixed(Fraction(1, 2))), 1, events=events)
    assert rep.absolute == rep.signed == rep.positive_part == 0.0


def test_decomposition_at_1e6(events_1e6):
    w = WindowSpec(1e6, Scaled(Fraction(1, 1000)))
    rep = decomposition_check(w, 3, events=events_1e6)
    resid = abs(rep.absolute + rep.signed - 2.0 * rep.positive_part)
    assert resid <= 1e-9 * rep.absolute
    assert abs(rep.signed) <= rep.absolute
    assert rep.normalizer == odd_normalizer(1e6, 1e-3, 3)
    assert rep.ratio == pytest.approx(rep.signed / rep.normalizer, rel=1e-15)


@pytest.mark.filterwarnings("ignore::psimoments.predictions.WidthRangeWarning")
def test_decomposition_reads_only_its_sweep(recording_source):
    # the check makes exactly the range requests of its own three-kind sweep
    w = WindowSpec(1e5, Scaled(Fraction(1, 1000)))
    checked, swept = recording_source(w.limit()), recording_source(w.limit())
    decomposition_check(w, 3, events=checked)
    pairs = [(3, Kind.ABSOLUTE), (3, Kind.SIGNED), (3, Kind.POSITIVE_PART)]
    sweep_moments(w, pairs, events=swept)
    assert checked.calls == swept.calls != []


def test_decomposition_rejects_even(events_1e6):
    w = WindowSpec(1e6, Scaled(Fraction(1, 1000)))
    with pytest.raises(DomainError):
        decomposition_check(w, 2, events=events_1e6)
    with pytest.raises(DomainError):
        decomposition_check(w, 0, events=events_1e6)


def test_smallness_ratio_consistent(events_1e6):
    res, _ = sweep_moments(
        WindowSpec(1e6, Scaled(Fraction(1, 1000))), [(1, Kind.SIGNED)], events=events_1e6
    )
    ratio = res[0].value / odd_normalizer(1e6, 1e-3, 1)
    assert abs(ratio) < 0.05  # far from the main-term scale


def test_average_report_structure(events_1e6):
    rep = saffari_vaughan_average(1e5, 1e-3, 1, grid_points=8, events=events_1e6)
    assert rep.order == 1
    assert rep.lhs > 0.0
    assert rep.rhs > 0.0
    assert 0.4 < rep.ratio < 1.6
    assert len(rep.grid) == 8
    deltas = [float(d) for d in rep.grid]
    assert deltas == sorted(deltas)
    assert deltas[-1] <= 1e-3 * (1 + 1e-9)
    # truncating the average below the smallest grid delta must cost little
    assert rep.head_bound <= 0.05 * rep.rhs


def test_average_requires_odd(events_1e6):
    with pytest.raises(DomainError):
        saffari_vaughan_average(1e5, 1e-3, 2, events=events_1e6)


def test_average_validation(events_1e6):
    with pytest.raises(DomainError):
        saffari_vaughan_average(1e5, 1e-3, 1, grid_points=7, events=events_1e6)
    with pytest.raises(DomainError):
        saffari_vaughan_average(1e5, 1e-5, 1, events=events_1e6)  # Delta <= 1/X
    with pytest.raises(DomainError):
        saffari_vaughan_average(1e5, 1.0, 1, events=events_1e6)


def test_average_event_limit_is_the_widest_window(recording_source):
    # the average sizes its own source by the one rule the CLI sizes a
    # shared one by: the limit of the widest width on the grid
    X, Delta = 1e5, 1e-2
    limit = average_event_limit(X, Delta, 8)
    assert limit == WindowSpec(X, Scaled(width_grid(X, Delta, 8)[-1])).limit()
    source = recording_source(limit)
    saffari_vaughan_average(X, Delta, 1, grid_points=8, events=source)
    assert max(hi for _, hi in source.calls) <= limit + 1


def test_width_grid_collapse():
    # the grids in use rise strictly from 0
    for X, Delta, points in [
        (1e6, 1e-2, 48), (1e6, 1e-3, 16), (1e6, 1e-3, 32), (1e5, 1e-3, 8),
        (1e5, 1e-4, 8), (2e4, 1e-2, 8), (1e10, 1e-5, 16), (1e10, 1e-6, 16),
    ]:
        grid = width_grid(X, Delta, points)
        assert len(grid) == points and 0 < grid[0]
        assert all(a < b for a, b in zip(grid, grid[1:]))
    # at X = 1e10 widths finer than about 1/2.3e8 have no exact key; the grid
    # would be all equal
    with pytest.raises(DomainError, match="collapses"):
        width_grid(1e10, 1e-8)
    # an X whose window keys leave no denominator at all
    with pytest.raises(DomainError, match="no width denominator"):
        width_grid(3e18, 0.5)


@pytest.mark.parametrize("X", [math.inf, -math.inf, math.nan, 0.5])
def test_width_grid_rejects_bad_x(X):
    with pytest.raises(DomainError):
        width_grid(X, 1e-3)


def test_width_grid_cap_is_the_key_range():
    # the denominator cap comes from the rule WindowSpec.limit enforces, so
    # every width of the full-scale grids has exact keys
    for Delta, q in [(1e-5, 10**5), (1e-6, 10**6)]:
        grid = width_grid(1e10, Delta, 16)
        assert (grid[0], grid[-1]) == (Fraction(1, 100 * q), Fraction(1, q))
        for f in grid:
            WindowSpec(1e10, Scaled(f)).limit()  # raises RangeLimitError past the keys
    # below X = 5.76e8 MAX_DELTA_DENOMINATOR binds, and grids keep their widths
    assert width_grid(1e6, 1e-2, 48)[1] == Fraction(65363, 592623386)
    assert width_grid(1e8, 1e-4, 16)[1] == Fraction(1065, 783459001)


def test_average_vanishes_with_delta(events_1e6):
    # both sides of the averaged comparison shrink as the width cap does
    big = saffari_vaughan_average(1e5, 1e-3, 1, grid_points=8, events=events_1e6)
    small = saffari_vaughan_average(1e5, 1e-4, 1, grid_points=8, events=events_1e6)
    assert 0.0 < small.lhs < big.lhs / 5.0
    assert 0.0 < small.rhs < big.rhs / 5.0
