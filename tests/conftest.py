from concurrent.futures import Future

import pytest

from qubitrot import _kernel, sweeps


@pytest.fixture(scope="session")
def kernel():
    """Skips a test that compares the compiled kernel where it cannot be built."""
    if _kernel.library() is None:
        pytest.skip("the compiled kernel cannot be built here (no C compiler?)")


@pytest.fixture
def executor_requests(monkeypatch):
    """The ``max_workers`` of every thread pool that ``sweeps.map_points``
    asks for; the stand-in pool runs what is submitted on the calling thread,
    so no thread starts whatever the request."""
    requests = []

    class RecordingExecutor:
        def __init__(self, max_workers):
            requests.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn):
            done = Future()
            done.set_result(fn())
            return done

    monkeypatch.setattr(sweeps, "ThreadPoolExecutor", RecordingExecutor)
    return requests
