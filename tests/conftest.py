import pytest

from qubitrot import _kernel


@pytest.fixture(scope="session")
def kernel():
    """Skips a test that compares the compiled kernel where it cannot be built."""
    if _kernel.library() is None:
        pytest.skip("the compiled kernel cannot be built here (no C compiler?)")
