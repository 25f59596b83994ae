"""Suite-wide settings: a time limit on each test.

A fault that makes a loop run forever, such as a simplex that cycles,
should fail its test rather than stall the suite.  The limit is a
SIGALRM alarm around the call phase of each test, so it needs a platform
with SIGALRM and tests that run in the main thread; elsewhere there is
no limit.  No test here takes more than a few seconds.
"""

import signal

import pytest

TEST_TIME_LIMIT_S = 120


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    if not hasattr(signal, "SIGALRM"):
        return (yield)

    def expire(signum, frame):
        raise TimeoutError("%s ran past its %d s time limit"
                           % (item.nodeid, TEST_TIME_LIMIT_S))

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        return (yield)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
