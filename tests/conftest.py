"""Suite-wide settings: one hypothesis profile and a per-test time limit.

The profile draws reproducible examples and sets no deadline: properties
here time whole solvers, whose run time varies with the machine, so a
per-example deadline would only add flaky failures.

The time limit turns a solver that stops terminating into a failed test
instead of a hung suite.  The slowest test takes about 10 s.
"""

import signal

import pytest
from hypothesis import settings

settings.register_profile("truckdrone", derandomize=True, deadline=None)
settings.load_profile("truckdrone")

TEST_TIME_LIMIT_S = 300


@pytest.fixture(autouse=True)
def _time_limit():
    if not hasattr(signal, "SIGALRM"):  # no alarms on this platform
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"test ran longer than {TEST_TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
