import contextlib
import signal

import pytest


class Hang(Exception):
    """A guarded call did not return before its alarm."""


@contextlib.contextmanager
def _alarm(seconds: int):
    def expire(signum, frame):
        raise Hang(f"the call did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    except Hang as exc:
        # Raised afresh: some interrupted frames carry no line number, and
        # pytest cannot render a traceback through them.
        raise Hang(str(exc)) from None
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def hang_guard():
    """``with hang_guard(seconds):`` fails the block if it has not returned by then.

    A guard against hangs, not a timing gate: the bound is far above the
    expected run time.
    """
    return _alarm
