"""Shared fixtures for the test suite."""

import contextlib
import os
import signal
import threading

import pytest


class DeadlineExceeded(Exception):
    """A block guarded by the ``deadline`` fixture ran past its time."""


@contextlib.contextmanager
def _deadline(seconds: float):
    def on_alarm(signum, frame):
        raise DeadlineExceeded(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def deadline():
    """``with deadline(s):`` fails the test with DeadlineExceeded when the
    block runs longer than s seconds.  SIGALRM is delivered between
    bytecodes, so it also ends a pure-Python loop that never returns."""
    return _deadline


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fails any test that returns with more live threads than it started
    with: the program runs in the calling thread, and any thread it starts
    must be joined on every exit path, errors and interrupts included."""
    before = set(threading.enumerate())
    yield
    leaked = [t.name for t in threading.enumerate() if t not in before and t.is_alive()]
    if leaked:
        pytest.fail(f"test left threads running: {leaked}")


@pytest.fixture(autouse=True)
def no_leaked_children():
    """Fails any test that returns with a child process not yet reaped: the
    sampler forks, and must kill or wait for every child it starts on every
    exit path, errors, alarms and interrupts included."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child left, running or exited
        return
    pytest.fail(f"test left a child process: {f'pid {pid}, exited' if pid else 'still running'}")
