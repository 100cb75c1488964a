import pytest

from mcvtests import sim


@pytest.fixture
def pool_builds(monkeypatch):
    """Start without a simulation worker pool and list every executor ``sim`` builds.

    The pool is stopped again afterwards, so later tests start clean too.
    """
    monkeypatch.delenv("MCV_THREADS", raising=False)
    sim._close_pool()
    built = []
    executor = sim.ProcessPoolExecutor

    def counting(*args, **kwargs):
        built.append(executor(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(sim, "ProcessPoolExecutor", counting)
    yield built
    sim._close_pool()
