"""Spans around calls into the program's modules.

`Tracer.install` replaces selected public functions of `cva` modules with
timed wrappers, in every `cva` module namespace that holds a reference to
them (the CLI imports most functions by name), and `uninstall` puts the
originals back. Spans stay in memory: (id, parent id, name, start, end,
self time), where self time is the span's duration minus the time its
child spans cover. `dump` writes them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

def _calls(key):
    def count(counts, result):
        counts[key] += 1
    return count


def _reconstructed(counts, result):
    counts["trajectory.reconstruct.events"] += len(result.events)


def _generated(counts, result):
    counts["simulate.generate.events"] += sum(
        len(t.answers) + len(t.events) for t in result[0])


def _fitted(counts, result):
    counts["trainer.iterations"] += result.fit_meta["iterations"]


def _profiled(counts, result):
    counts["bias.events_scored"] += result.n_events


def _quality_span(args, kwargs):
    """estimate_quality's span is split by its aggregation mode."""
    mode = args[3] if len(args) > 3 else kwargs.get("aggregate", "mean")
    return f"counterfactual.quality.{mode}"


# span name -> (module, attribute[, count hook[, span-name hook]]);
# "Class.method" patches the class. A count hook gets (counts, result)
# after the call; a span-name hook gets (args, kwargs) and names the span.
TRACED = {
    "trajectory.read": ("cva.trajectory", "read_trajectories"),
    "trajectory.reconstruct": ("cva.trajectory", "reconstruct_contexts",
                               _reconstructed),
    "trajectory.write": ("cva.trajectory", "write_trajectories"),
    "simulate.generate": ("cva.simulate", "generate", _generated),
    "ingest.parse": ("cva.ingest", "parse_dump"),
    "ingest.filter": ("cva.ingest", "apply_filters"),
    "trainer.fit": ("cva.trainer", "fit", _fitted),
    "trainer.fit_events": ("cva.trainer", "fit_events"),
    "trainer.training_events": ("cva.trainer", "training_events"),
    "trainer.parameter_index": ("cva.model", "ParameterIndex.__init__"),
    "trainer.encoded_events": ("cva.model", "EncodedEvents.__init__"),
    "trainer.minimize": ("cva.trainer", "minimize",
                         _calls("trainer.minimize.calls")),
    "trainer.polish": ("cva.trainer", "_polish"),
    "model.objective": ("cva.trainer", "objective_and_grad",
                        _calls("model.objective.calls")),
    "counterfactual.population": ("cva.counterfactual", "build_population"),
    "counterfactual.quality": ("cva.counterfactual", "estimate_quality",
                               None, _quality_span),
    "counterfactual.curve": ("cva.counterfactual", "counterfactual_curve"),
    "counterfactual.power_law": ("cva.counterfactual", "fit_power_law"),
    "evaluation.evaluate": ("cva.evaluation", "evaluate_rankers"),
    "evaluation.bootstrap": ("cva.evaluation", "paired_significance"),
    "bias.profile": ("cva.bias", "profile_community", _profiled),
    "cli.io.load_model": ("cva.model", "load_model"),
    "cli.io.save_model": ("cva.model", "save_model"),
    "cli.io.load_profile": ("cva.bias", "load_profile"),
    "cli.io.save_profile": ("cva.bias", "save_profile"),
    "cli.io.load_labels": ("cva.ingest", "load_labels"),
    "cli.io.write_csv": ("cva.cli", "_write_csv"),
    "cli.io.reject_log": ("cva.ingest", "RejectLog.write"),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []   # [span id, name, start, covered]
        self._next_id = 0
        self._patches: list[tuple] = []

    # --- spans ------------------------------------------------------------

    def open(self, name: str) -> None:
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])
        self._next_id += 1

    def close(self) -> float:
        end = time.perf_counter()
        span_id, name, start, covered = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append((span_id, parent[0] if parent else None, name,
                           start, end, duration - covered))
        return duration

    def _wrap(self, fn, name, count=None, span_of=None):
        """A timed wrapper of fn; the hooks are bound here, not per call."""
        open_, close, counts = self.open, self.close, self.counts
        span_of = span_of or (lambda args, kwargs: name)
        count = count or (lambda counts, result: None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            open_(span_of(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                close()
            count(counts, result)
            return result
        return wrapper

    # --- patching ---------------------------------------------------------

    def install(self) -> None:
        import cva  # noqa: F401  (loads every module of the package)
        modules = [m for n, m in sys.modules.items()
                   if n == "cva" or n.startswith("cva.")]
        for name, (mod_name, attr, *hooks) in TRACED.items():
            owner = importlib.import_module(mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, name, *hooks))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, *hooks)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
        self._wrap_row_iterator()

    def _wrap_row_iterator(self) -> None:
        """Count the dump rows the ingester parses."""
        ingest = importlib.import_module("cva.ingest")
        original = ingest._iter_rows
        counts = self.counts

        def counting(*args, **kwargs):
            for item in original(*args, **kwargs):
                counts["ingest.rows"] += 1
                yield item
        self._patches.append((ingest, "_iter_rows", original))
        ingest._iter_rows = counting

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # --- results ----------------------------------------------------------

    def self_times(self, since: int = 0) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for span in self.spans[since:]:
            out[span[2]] += span[5]
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end",
                                  "self_s"],
                       "spans": self.spans}, fh)
