import contextlib
import signal
import sys

import pytest


@pytest.fixture(autouse=True)
def empty_caches():
    """Empty every functools cache of the package before each test, as a fresh process
    starts, so that no test sees the point memo that an earlier one filled."""
    for name, module in list(sys.modules.items()):
        if name == "lindblad_ep" or name.startswith("lindblad_ep."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


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
