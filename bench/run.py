"""Benchmark of the cva batch pipeline.

    python3 bench/run.py --workload community|bias_map|ingest --seed N \
        --seconds S --trace 0|1

Drives the documented `cva` commands in-process through `cva.cli.main`,
one command at a time (a closed loop with a single caller), from the
program source under `src/` of this checkout. Set-up makes the inputs
from the seed in a forked child process, so that its memory stays out of
this process's peak resident set, then runs one warm-up pass at a tiny
size. Then whole passes of the workload's commands repeat until the next
pass would overrun `--seconds` (at least one pass). Every pass must write
byte-identical outputs; after the peak resident set is read, the last
pass is checked against independent computations (bench/checks.py). The
last line of standard output is one JSON object: correctness, commands
attempted and failed, and the metrics, end-to-end with `--trace 0` and
per layer with `--trace 1`. The traced run alternates traced and
untraced passes to measure the tracing overhead, and writes its spans to
bench_out/traces/.

No BLAS or OpenMP thread variable is set: the program runs as a user of
this machine gets it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import logging
import multiprocessing
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = {"community": 3, "bias_map": 2, "ingest": 2}

LAYER_UNITS = {
    "trajectory.read_s": "s", "trajectory.reconstruct_s": "s",
    "trajectory.reconstruct_events_per_s": "1/s",
    "trajectory.write_s": "s",
    "simulate.generate_s": "s", "simulate.events_per_s": "1/s",
    "ingest.parse_s": "s", "ingest.rows_per_s": "1/s",
    "ingest.filter_s": "s",
    "trainer.encode_s": "s", "trainer.solver_s": "s",
    "trainer.iterations": "count", "trainer.lbfgs_calls": "count",
    "model.objective_calls": "count", "model.objective_s": "s",
    "model.objective_us_per_call": "us",
    "model.evals_per_iteration": "evals/iter",
    "counterfactual.population_s": "s",
    "counterfactual.quality_mean_s": "s",
    "counterfactual.quality_per_time_s": "s",
    "counterfactual.curve_s": "s",
    "evaluation.evaluate_self_s": "s", "evaluation.bootstrap_s": "s",
    "bias.profile_s": "s", "bias.events_scored": "count",
    "cli.io_s": "s", "cli.self_s": "s",
    "cli.simulate_s": "s", "cli.fit_s": "s", "cli.score_s": "s",
    "cli.ingest_s": "s",
    "trace.overhead_pct": "%",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


class Runner:
    """Runs commands and passes of one workload, timing each command."""

    def __init__(self, cli, tracer=None):
        self.cli = cli
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.cpu = []

    def command(self, argv, group: str = "setup", traced: bool = False):
        """Run one cva command; returns (ok, seconds, stdout)."""
        buf = io.StringIO()
        if traced:
            self.tracer.open(f"cmd.{group}")
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = self.cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception:   # a traceback is a failed command, not a crash
            traceback.print_exc(file=sys.stderr)
            rc = None
        elapsed = time.perf_counter() - start
        if traced:
            self.tracer.close()
        return rc == 0, elapsed, buf.getvalue()

    def run_pass(self, workload, traced: bool = False):
        """One pass of the workload's commands, counted as attempted."""
        times, stdout, failed = {}, {}, set()
        cpu_start = time.process_time()
        start = time.perf_counter()
        for cmd in workload.commands:
            ok, elapsed, out = self.command(cmd.argv, cmd.group, traced)
            self.attempted += 1
            if not ok:
                self.failed += 1
                failed.add(cmd.label)
                print(f"bench: command {cmd.label} failed", file=sys.stderr)
            times[cmd.label] = elapsed
            stdout[cmd.label] = out
        wall = time.perf_counter() - start
        self.cpu.append(time.process_time() - cpu_start)
        workload.finish_pass(stdout)
        return wall, times, stdout, failed


def check_pass(checks, failed: set) -> dict[str, list[str]]:
    """Run (name, needed command labels, function) checks."""
    results = {}
    for name, needs, fn in checks:
        if failed.intersection(needs):
            continue   # a failed command is counted in `failed`, not here
        try:
            results[name] = fn()
        except Exception as exc:   # unreadable or malformed output
            results[name] = [f"{type(exc).__name__}: {exc}"]
    return results


def in_child(fn, *args):
    """fn(*args) in a forked child process, which ends before this returns."""
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)

    def target():
        try:
            send.send((True, fn(*args)))
        except BaseException:
            send.send((False, traceback.format_exc()))

    child = ctx.Process(target=target)
    child.start()
    send.close()
    try:
        ok, value = recv.recv()
    except EOFError:
        ok, value = False, "the child process ended without a result"
    finally:
        recv.close()
        child.join()
    if not ok:
        raise RuntimeError(f"set-up failed in the child process:\n{value}")
    return value


def digest(workload, stdout: dict) -> str:
    h = hashlib.sha256()
    for path in sorted(workload.out.iterdir()):
        h.update(path.name.encode())
        with open(path, "rb") as fh:
            while chunk := fh.read(1 << 20):
                h.update(chunk)
    for label in sorted(stdout):
        h.update(stdout[label].encode())
    return h.hexdigest()


def layer_metrics(tracer, since: int, counts_before: dict) -> dict:
    st = tracer.self_times(since)
    c = {k: v - counts_before.get(k, 0.0) for k, v in tracer.counts.items()}
    group_total = defaultdict(float)
    for span in tracer.spans[since:]:
        if span[2].startswith("cmd."):
            group_total[span[2][4:]] += span[4] - span[3]
    m = {
        "trajectory.read_s": st["trajectory.read"],
        "trajectory.reconstruct_s": st["trajectory.reconstruct"],
        "trajectory.write_s": st["trajectory.write"],
        "simulate.generate_s": st["simulate.generate"],
        "ingest.parse_s": st["ingest.parse"],
        "ingest.filter_s": st["ingest.filter"],
        "trainer.encode_s": st["trainer.training_events"]
        + st["trainer.parameter_index"] + st["trainer.encoded_events"],
        "trainer.solver_s": st["trainer.fit"] + st["trainer.fit_events"]
        + st["trainer.minimize"] + st["trainer.polish"],
        "trainer.iterations": c.get("trainer.iterations", 0.0),
        "trainer.lbfgs_calls": c.get("trainer.minimize.calls", 0.0),
        "model.objective_calls": c.get("model.objective.calls", 0.0),
        "model.objective_s": st["model.objective"],
        "counterfactual.population_s": st["counterfactual.population"],
        "counterfactual.quality_mean_s": st["counterfactual.quality.mean"],
        "counterfactual.quality_per_time_s":
            st["counterfactual.quality.per_time_sum"],
        "counterfactual.curve_s": st["counterfactual.curve"]
        + st["counterfactual.power_law"],
        "evaluation.evaluate_self_s": st["evaluation.evaluate"],
        "evaluation.bootstrap_s": st["evaluation.bootstrap"],
        "bias.profile_s": st["bias.profile"],
        "bias.events_scored": c.get("bias.events_scored", 0.0),
        "cli.io_s": sum(v for k, v in st.items() if k.startswith("cli.io.")),
        "cli.self_s": sum(v for k, v in st.items() if k.startswith("cmd.")),
        "cli.simulate_s": group_total["simulate"],
        "cli.fit_s": group_total["fit"],
        "cli.score_s": group_total["score"],
        "cli.ingest_s": group_total["ingest"],
    }
    m["trajectory.reconstruct_events_per_s"] = _ratio(
        c.get("trajectory.reconstruct.events", 0.0),
        m["trajectory.reconstruct_s"])
    m["simulate.events_per_s"] = _ratio(
        c.get("simulate.generate.events", 0.0), m["simulate.generate_s"])
    m["ingest.rows_per_s"] = _ratio(c.get("ingest.rows", 0.0),
                                    m["ingest.parse_s"])
    m["model.objective_us_per_call"] = 1e6 * _ratio(
        m["model.objective_s"], m["model.objective_calls"])
    m["model.evals_per_iteration"] = _ratio(m["model.objective_calls"],
                                            m["trainer.iterations"])
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["community", "bias_map", "ingest"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "cva" / "cli.py").is_file():
        print(f"bench: no cva source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import cva.cli
    import workloads
    from tracing import Tracer

    out_root = ROOT / "bench_out"
    work = out_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    # the program's log lines go to a file in the run directory
    log_handler = logging.FileHandler(work / "cva.log", encoding="utf-8")
    logging.basicConfig(level=logging.INFO, handlers=[log_handler],
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return _run(args, cva.cli, workloads, Tracer, work, out_root)
    finally:
        logging.getLogger().removeHandler(log_handler)
        log_handler.close()
        shutil.rmtree(work, ignore_errors=True)


def _run(args, cli, workloads, Tracer, work, out_root) -> int:
    tracer = Tracer() if args.trace else None
    runner = Runner(cli, tracer)
    make = workloads.WORKLOADS[args.workload]

    def setup_command(argv):
        ok, _, out = runner.command(argv)
        if not ok:
            raise RuntimeError(f"set-up command failed: {argv}")
        return out

    def make_inputs(full, tiny):
        """Both workloads' inputs; returns the measured one's vote count."""
        votes = full.setup(setup_command)
        tiny.setup(setup_command)
        return votes

    setup_times = []
    for r in range(SETUP_REPEATS[args.workload]):
        if r:
            shutil.rmtree(work / f"setup{r - 1}")
        start = time.perf_counter()
        workload = make(work / f"setup{r}", args.seed, "full")
        warm = make(work / f"warm{r}", args.seed, "tiny")
        workload.votes = in_child(make_inputs, workload, warm)
        for cmd in warm.commands:
            if not runner.command(cmd.argv)[0]:
                raise RuntimeError(f"warm-up command {cmd.label} failed")
        setup_times.append(time.perf_counter() - start)

    passes, traced_layers, mismatched = [], [], []
    reference = None
    measured = 0.0
    index = 0
    while True:
        traced = bool(args.trace) and index % 2 == 0
        if traced:
            tracer.install()
            since, counts_before = len(tracer.spans), dict(tracer.counts)
        try:
            wall, times, stdout, failed = runner.run_pass(workload, traced)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            traced_layers.append(layer_metrics(tracer, since, counts_before))
        passes.append((wall, times, stdout, traced))
        if index == 0:
            reference = digest(workload, stdout)
        elif digest(workload, stdout) != reference:
            mismatched.append(
                f"pass {index + 1} wrote outputs that differ from pass 1")
        measured += wall
        index += 1
        # a traced run needs an untraced pass to measure its overhead
        if measured + wall > args.seconds and index >= 1 + args.trace:
            break

    # read before the checks, whose own arrays would otherwise set it
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checks_done = check_pass(workload.checks, failed)
    if mismatched:
        checks_done["determinism"] = mismatched
    for name, problems in checks_done.items():
        for p in problems:
            print(f"bench: check {name} FAILED: {p}", file=sys.stderr)
    correct = not any(checks_done.values())

    plain = [p for p in passes if not p[3]] or passes
    wall_s = statistics.median(p[0] for p in plain)
    _summary(args, workload, passes, plain, checks_done, setup_times,
             runner.cpu)
    if args.trace:
        metrics = {k: statistics.median(m[k] for m in traced_layers)
                   for k in traced_layers[0]}
        traced_wall = statistics.median(p[0] for p in passes if p[3])
        untraced = [p[0] for p in passes if not p[3]]
        metrics["trace.overhead_pct"] = 100.0 * (
            traced_wall / statistics.median(untraced) - 1.0) \
            if untraced else 0.0
        traces = out_root / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tracer.dump(traces / f"{args.workload}-{args.seed}.json")
        metrics = {k: {"value": float(v), "unit": LAYER_UNITS[k]}
                   for k, v in metrics.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times),
                        "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "votes_per_s": {"value": workload.votes / wall_s, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


def _summary(args, workload, passes, plain, checks_done, setup_times,
             cpu):
    """Human-readable lines ahead of the result line."""
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes "
          f"({len(plain)} untraced), votes {workload.votes}, set-up "
          f"{', '.join(f'{t:.3f}' for t in setup_times)} s")
    walls = [p[0] for p in plain]
    print(f"  wall_s per pass: {', '.join(f'{w:.3f}' for w in walls)}")
    print(f"  cpu_s per pass:  {', '.join(f'{c:.3f}' for c in cpu)}")
    for cmd in workload.commands:
        t = statistics.median(p[1][cmd.label] for p in plain)
        share = 100.0 * t / statistics.median(walls)
        print(f"  {cmd.label:<18} {cmd.group:<9} {t:8.3f} s {share:5.1f} %")
    for label, out in passes[0][2].items():
        if out.startswith("iterations:"):
            print(f"  {label}: " + " ".join(out.split()))
    for name, problems in checks_done.items():
        print(f"  check {name}: {'ok' if not problems else 'FAILED'}")


if __name__ == "__main__":
    sys.exit(main())
