import os
import sys
import threading

import pytest

sys.path.insert(0, os.path.dirname(__file__))

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


@pytest.fixture
def data_dir() -> str:
    return DATA_DIR


@pytest.fixture
def state_dir(tmp_path) -> str:
    return str(tmp_path / "state")


@pytest.fixture(autouse=True)
def no_leftover_child():
    """Fail a test that leaves a child process behind, running or not
    yet reaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    state = "still running" if pid == 0 else f"pid {pid} unreaped"
    pytest.fail(f"test left a child process behind ({state})")


@pytest.fixture(autouse=True)
def no_leftover_thread():
    """Fail a test that leaves a thread running that it started."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    if left:
        pytest.fail(f"test left threads running: {', '.join(left)}")
