import signal
from contextlib import contextmanager

import pytest


@pytest.fixture
def time_limit():
    """`with time_limit(s):` raises TimeoutError once the block has run s seconds.

    It uses SIGALRM, so it starts no thread or process.
    """

    @contextmanager
    def limit(seconds):
        def out_of_time(signum, frame):
            raise TimeoutError

        previous = signal.signal(signal.SIGALRM, out_of_time)
        signal.alarm(seconds)
        try:
            yield
        except TimeoutError:
            # A fresh exception: CPython 3.11 can leave the interrupted frame
            # without a line number, which breaks pytest's report.
            raise TimeoutError(f"still running after {seconds} s") from None
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    return limit
