import math
from fractions import Fraction

import pytest

from psimoments.equivalence import decomposition_check, saffari_vaughan_average
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


def test_average_vanishes_with_delta(events_1e6):
    # both sides of the averaged comparison shrink as the width cap does
    big = saffari_vaughan_average(1e5, 1e-3, 1, grid_points=8, events=events_1e6)
    small = saffari_vaughan_average(1e5, 1e-4, 1, grid_points=8, events=events_1e6)
    assert 0.0 < small.lhs < big.lhs / 5.0
    assert 0.0 < small.rhs < big.rhs / 5.0
