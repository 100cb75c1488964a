"""The benchmark's span tracer still finds every name it wraps.

``perfbench/`` lies outside this suite's test paths, so a package change that
renamed or removed a traced name would pass here and then fail the traced
benchmark pass in ``Tracer.install``.
"""

import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize("target, attr, span", spans.BOUNDARIES, ids=str)
def test_every_traced_name_resolves(target, attr, span):
    assert hasattr(spans._resolve(target), attr), f"{target}.{attr} ({span}) is gone"
