import pytest

from mcvtests import _resampling


@pytest.fixture
def fresh_pool(monkeypatch):
    """Start without a worker pool, and stop the pool the test made afterwards.

    Workers fork at the pool's first use and keep the code they saw then, so
    a test that patches a name the workers call takes this fixture: its
    workers see the patch, and later tests do not inherit them.  The first
    parallel resampling call starts the pool (no serial start-up budget).
    """
    monkeypatch.delenv("MCV_THREADS", raising=False)
    monkeypatch.setattr(_resampling, "POOL_START_SECONDS", 0.0)
    monkeypatch.setattr(_resampling, "_serial_seconds", 0.0)
    _resampling._close_pool()
    yield
    _resampling._close_pool()


@pytest.fixture
def pool_builds(fresh_pool, monkeypatch):
    """List every executor the process's worker pool builds, starting without one."""
    built = []
    executor = _resampling.ProcessPoolExecutor

    def counting(*args, **kwargs):
        built.append(executor(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(_resampling, "ProcessPoolExecutor", counting)
    return built
