"""The benchmark's tracer patches `cva` functions by name; every target
in its table must resolve, and its count hooks must read the results
those functions return, or `bench/run.py --trace 1` breaks."""

import importlib
import importlib.util
import sys
from collections import defaultdict
from pathlib import Path

import pytest

from cva.bias import profile_community
from cva.simulate import SimConfig, generate
from cva.trainer import FitConfig, fit

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


def test_count_hooks_on_real_results(tracing):
    # `--trace 1` feeds each hook the traced call's result
    result = generate(SimConfig(n_questions=20, n_events=600,
                                crp_alpha=1.0, true_lambda=1.0,
                                true_beta=1.0, seed=5))
    model = fit(result[0], FitConfig())
    profile = profile_community(model, result[0])
    counts = defaultdict(float)
    tracing._generated(counts, result)
    tracing._fitted(counts, model)
    tracing._profiled(counts, profile)
    # each simulated event writes an answer or casts a vote
    assert counts == {"simulate.generate.events": 600,
                      "trainer.iterations": model.fit_meta["iterations"],
                      "bias.events_scored": profile.n_events}
    assert model.fit_meta["iterations"] > 0 and profile.n_events > 0
