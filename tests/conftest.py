import pytest

from hypchoreo import cli


@pytest.fixture(autouse=True)
def fresh_search_pool():
    """Shut search's kept Phase-1 worker pool down after every test.

    A worker keeps the environment and sys.path it was spawned with, so a
    test that sets an environment variable for its Phase-1 stubs must not
    reach a worker that an earlier test left running."""
    yield
    cli._shutdown_pool()
