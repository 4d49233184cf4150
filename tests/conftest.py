import pytest
from fractions import Fraction

# one line per acceptance criterion, printed in the terminal summary so the
# verdicts are visible in a plain `pytest -v` run
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

from psimoments import (
    EventSource,
    Kind,
    Scaled,
    WindowSpec,
    default_threads,
    sweep_moments,
)

DESK_X = 1e8
DESK_DELTA = Fraction(1, 10000)
DESK_ABS_ORDERS = (1.0, 2.1, 3.2, 4.3, 5.4, 6.5)
DESK_ODD_ORDERS = (1, 3, 5)


@pytest.fixture(scope="session")
def recording_source():
    """An EventSource subclass that records its range requests in .calls."""

    class Recording(EventSource):
        def __post_init__(self):
            super().__post_init__()
            self.calls = []

        def range(self, lo, hi):
            self.calls.append((lo, hi))
            return super().range(lo, hi)

    return Recording


@pytest.fixture(scope="session")
def events_small():
    # covers every window with X <= 1e4 used in the n tests
    return EventSource(30_000)


@pytest.fixture(scope="session")
def events_1e6():
    # covers X = 1e6 with h <= 1e3 or delta <= 1e-3
    return EventSource(1_100_000)


@pytest.fixture(scope="session")
def desk_sweep():
    """The X = 1e8, delta = 1e-4 run shared by the acceptance checks.

    Computed once per session: six absolute orders plus the three signed
    odd ones, all in a single sweep.
    """
    window = WindowSpec(DESK_X, Scaled(DESK_DELTA))
    events = EventSource(window.limit())
    pairs = [(o, Kind.ABSOLUTE) for o in DESK_ABS_ORDERS] + [
        (float(n), Kind.SIGNED) for n in DESK_ODD_ORDERS
    ]
    import time

    t0 = time.monotonic()
    results, diag = sweep_moments(
        window, pairs, events=events, threads=default_threads()
    )
    wall = time.monotonic() - t0
    values = {(r.order, r.kind): r.value for r in results}
    return dict(values=values, diag=diag, wall=wall, window=window)
