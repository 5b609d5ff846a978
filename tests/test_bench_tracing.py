"""The benchmark's tracer patches `cva` functions by name; every target
in its table must resolve, or `bench/run.py --trace 1` breaks."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    """bench/tracing.py, loaded without writing bytecode next to it."""
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_traced_targets_resolve(tracing):
    unresolved = []
    for span, (mod_name, attr, *_) in tracing.TRACED.items():
        owner = importlib.import_module(mod_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            found = meth in vars(getattr(owner, cls_name, object))
        else:
            found = hasattr(owner, attr)
        if not found:
            unresolved.append(f"{span}: {mod_name}.{attr}")
    assert tracing.TRACED
    assert not unresolved, unresolved


def test_row_iterator_resolves():
    # the tracer counts dump rows through this generator
    assert callable(importlib.import_module("cva.ingest")._iter_rows)
