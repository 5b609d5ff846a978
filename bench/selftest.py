"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Runs one pass of every workload at the "small" scale and seed 3,
requires every check to pass on the clean outputs, then corrupts one
output at a time and requires the check that reads it to fail. Exits 1 if any check passes
a corrupted output or fails a clean one.
"""

from __future__ import annotations

import json
import logging
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 3


def _edit_json(path, fn):
    obj = json.loads(path.read_text(encoding="utf-8"))
    fn(obj)
    path.write_text(json.dumps(obj), encoding="utf-8")


def _first_q(model):
    qid = next(iter(model["q"]))
    return model["q"][qid], next(iter(model["q"][qid]))


def _bump_q(model):
    by_a, aid = _first_q(model)
    by_a[aid] += 1e-3


def _negate_q(model):
    for by_a in model["q"].values():
        for aid in by_a:
            by_a[aid] = -by_a[aid]


def _edit_csv_cell(path, row: int, column: str, fn):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    cells = lines[row].split(",")
    k = header.index(column)
    cells[k] = fn(cells[k])
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _swap_neutral_ranks(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = [i for i, line in enumerate(lines) if ",neutral," in line]
    a, b = rows[0], rows[1]
    pa, pb = lines[a].rsplit(",", 1), lines[b].rsplit(",", 1)
    lines[a], lines[b] = f"{pa[0]},{pb[1]}", f"{pb[0]},{pa[1]}"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _flip_vote_sign(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    obj = json.loads(lines[0])
    obj["events"][0]["sign"] = -obj["events"][0]["sign"]
    lines[0] = json.dumps(obj)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _drop_last_line(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")


def _bump_stdout_count(wl, label):
    wl.stdout = dict(wl.stdout)
    wl.stdout[label] = wl.stdout[label].replace(
        "surviving: ", "surviving: 1", 1)


# check name -> [(what is corrupted, function(workload))]
CORRUPTIONS = {
    "community": {
        "simulate": [("last truth label removed",
                      lambda w: _drop_last_line(w.out / "truth.csv"))],
        "fit": [("one q value in model.json moved by 1e-3",
                 lambda w: _edit_json(w.out / "model.json", _bump_q))],
        "fit_freeze_beta": [("ablation beta set to 1e-3", lambda w: _edit_json(
            w.out / "ablation.json", lambda m: m.update(beta=1e-3)))],
        "recovery": [("every fitted q negated",
                      lambda w: _edit_json(w.out / "model.json", _negate_q))],
        "quality_mean": [("one Q_hat moved by 1e-6", lambda w: _edit_csv_cell(
            w.out / "q_mean.csv", 1, "Q_hat",
            lambda v: repr(float(v) + 1e-6)))],
        "quality_per_time": [("one Q_hat set above its vote count",
                              lambda w: _edit_csv_cell(
                                  w.out / "q_pts.csv", 1, "Q_hat",
                                  lambda v: "1000000.0"))],
        "profile": [("herding_degree scaled by 1 + 1e-6", lambda w: _edit_json(
            w.out / "profile.json",
            lambda p: p.update(herding_degree=p["herding_degree"]
                               * (1 + 1e-6))))],
        "counterfactual": [("neutral p at ranks 1 and 2 swapped",
                            lambda w: _swap_neutral_ranks(
                                w.out / "curves.csv"))],
        "evaluate": [("mean_tau[cva] moved by 1e-3", lambda w: _edit_json(
            w.out / "report.json",
            lambda r: r["mean_tau"].update(cva=r["mean_tau"]["cva"]
                                           + 1e-3)))],
    },
    "bias_map": {
        "fit": [("one q value of c00 moved by 1e-3",
                 lambda w: _edit_json(w.models[0], _bump_q))],
        "profile": [("position_sensitivity of c00 moved by 0.01",
                     lambda w: _edit_json(
                         w.profiles[0],
                         lambda p: p.update(position_sensitivity=p[
                             "position_sensitivity"] + 0.01)))],
        "map": [("one above-median flag flipped", lambda w: _edit_csv_cell(
            w.out / "map.csv", 1, "above_median_herding",
            lambda v: "False" if v == "True" else "True"))],
    },
    "ingest": {
        "ingest_0": [
            ("one vote sign flipped in the ingested JSONL",
             lambda w: _flip_vote_sign(w.out / "dump0.jsonl")),
            ("last reject-log row removed",
             lambda w: _drop_last_line(w.out / "dump0.rejects.txt")),
            ("surviving count changed",
             lambda w: _bump_stdout_count(w, "ingest_0")),
        ],
    },
}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import cva.cli
    import run
    import workloads

    work = ROOT / "bench_out" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    logging.basicConfig(level=logging.INFO, handlers=[
        logging.FileHandler(ROOT / "bench_out" / "selftest.log",
                            encoding="utf-8")])
    runner = run.Runner(cva.cli)
    bad = 0
    for name, make in workloads.WORKLOADS.items():
        wl = make(work / name, SEED, "small")
        wl.setup(lambda argv: runner.command(argv)[2])
        _, _, _, failed = runner.run_pass(wl)
        clean = run.check_pass(wl.checks, failed)
        snapshot = {p: p.read_bytes() for p in wl.out.iterdir()}
        saved_stdout = getattr(wl, "stdout", None)
        for check, problems in clean.items():
            status = "ok" if not problems else f"FAILED {problems}"
            print(f"{name:<9} {check:<17} clean output: {status}")
            bad += bool(problems)
        by_name = {c[0]: c for c in wl.checks}
        for check, cases in CORRUPTIONS[name].items():
            for what, corrupt in cases:
                corrupt(wl)
                problems = run.check_pass([by_name[check]], set())[check]
                caught = bool(problems)
                bad += not caught
                print(f"{name:<9} {check:<17} {what}: "
                      f"{'caught' if caught else 'NOT CAUGHT'}"
                      + (f" ({problems[0][:90]})" if caught else ""))
                for path, data in snapshot.items():
                    path.write_bytes(data)
                if saved_stdout is not None:
                    wl.stdout = saved_stdout
        missing = set(clean) - set(CORRUPTIONS[name])
        if missing:
            print(f"{name}: no corruption for checks {sorted(missing)}")
            bad += len(missing)
    shutil.rmtree(work, ignore_errors=True)
    print("selftest:", "PASS" if not bad else f"{bad} problems")
    return 0 if not bad else 1


if __name__ == "__main__":
    sys.exit(main())
