"""The span tracer's targets: every function bench/spans.py wraps exists.

`Tracer.install` looks each TARGETS name up in the sptcrank package, so a
renamed or deleted function breaks `bench/run.py --trace 1`.  This test
fails first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_spans().TARGETS


@pytest.mark.parametrize(
    "layer, attr", [(layer, attr) for layer, attrs in TARGETS.items() for attr in attrs]
)
def test_trace_target_resolves(layer, attr):
    home = importlib.import_module(f"sptcrank.{layer}")
    owner_name, _, name = attr.rpartition(".")
    owner = getattr(home, owner_name) if owner_name else home
    assert name in vars(owner), f"{layer}.{attr}"
