"""The package names bench/tracer.py wraps: each must exist, or the benchmark omits the metrics built from it."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def required_names() -> list[str]:
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return sorted({name for needs in tracer.REQUIRES.values() for name in needs})


@pytest.mark.parametrize("name", required_names())
def test_required_name_exists(name):
    module, attr = name.rsplit(".", 1)
    assert getattr(importlib.import_module(module), attr, None) is not None
