import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """After every test, no child process is left running or unreaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
