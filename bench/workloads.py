"""The benchmark's workloads: inputs made from a seed, the `cva` commands
one pass runs, and the checks on what those commands wrote.

A workload writes its inputs under `<work>/inputs` in set-up; every pass
writes its outputs under `<work>/pass`. A command is (label, group, argv);
the group names the end-to-end stage it belongs to. A check is
(name, labels of the commands whose outputs it reads, function returning
failure messages).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import pickle

import numpy as np

import checks
import dumps

FIT_CONFIG = {"l2_weight": 1.0, "tol": 1e-6, "max_iters": 10_000,
              "drop_first_votes": True}

# Sizes per scale. "full" is what the benchmark measures; "tiny" is the
# warm-up pass of set-up; "small" is what the self-test checks, large
# enough that every recovery threshold holds.
SIZES = {
    "community": {"full": (300, 10_000), "small": (200, 8_000),
                  "tiny": (40, 1_200)},
    "bias_map": {"full": (16, 150, 6_000), "small": (8, 150, 6_000),
                 "tiny": (3, 30, 900)},
    "ingest": {"full": (300, 30_000, 2, 2), "small": (120, 6_000, 1, 2),
               "tiny": (40, 1_500, 1, 1)},
}


@dataclass(frozen=True)
class Command:
    label: str
    group: str
    argv: tuple


def _write_config(path: Path, values: dict) -> None:
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()),
                    encoding="utf-8")


def _votes(simulate_stdout: str) -> int:
    """The vote count `cva simulate` reports."""
    for line in simulate_stdout.splitlines():
        if line.startswith("votes: "):
            return int(line.split()[1])
    return 0


class Workload:
    """Base: subclasses fill `commands` and `checks` in `__init__`."""

    def __init__(self, work: Path, seed: int, scale: str):
        self.seed = seed
        self.inputs = work / "inputs"
        self.out = work / "pass"
        self.inputs.mkdir(parents=True, exist_ok=True)
        self.out.mkdir(parents=True, exist_ok=True)
        self.commands: list[Command] = []
        self.checks: list[tuple] = []
        self.votes = 0
        _write_config(self.inputs / "fit.cfg", FIT_CONFIG)

    def setup(self, run_command) -> int:
        """Generate the inputs and return their vote count (0 when the
        pass itself makes them); `run_command(argv)` runs one cva command.
        """
        return 0

    def finish_pass(self, stdout: dict) -> None:
        """Called after each pass with each command's captured stdout."""


class Community(Workload):
    """One simulated community through the whole pipeline."""

    def __init__(self, work, seed, scale):
        super().__init__(work, seed, scale)
        n_questions, n_events = SIZES["community"][scale]
        self.n_events = n_events
        _write_config(self.inputs / "sim.cfg", {
            "n_questions": n_questions, "n_events": n_events,
            "crp_alpha": 0.5, "true_lambda": 1.0, "true_beta": 2.0,
            "seed": seed})
        i, o = self.inputs, self.out
        T, truth = str(o / "T.jsonl"), str(o / "truth.csv")
        model, abl = str(o / "model.json"), str(o / "ablation.json")
        fit_cfg = str(i / "fit.cfg")
        self.ranks = 10
        self.commands = [
            Command("simulate", "simulate",
                    ("simulate", "--config", str(i / "sim.cfg"),
                     "--out", T, "--truth", truth)),
            Command("fit", "fit", ("fit", "--input", T, "--config", fit_cfg,
                                   "--out", model)),
            Command("fit_ablation", "fit",
                    ("fit", "--input", T, "--config", fit_cfg, "--out", abl,
                     "--freeze-beta", "0")),
            Command("quality_mean", "score",
                    ("quality", "--model", model, "--input", T, "--mode",
                     "mean", "--out", str(o / "q_mean.csv"))),
            Command("quality_per_time", "score",
                    ("quality", "--model", model, "--input", T, "--mode",
                     "per-time-sum", "--out", str(o / "q_pts.csv"))),
            Command("profile", "score",
                    ("profile", "--model", model, "--input", T,
                     "--out", str(o / "profile.json"))),
            Command("counterfactual", "score",
                    ("counterfactual", "--model", model, "--input", T,
                     "--ranks", str(self.ranks),
                     "--out", str(o / "curves.csv"))),
            Command("evaluate", "score",
                    ("evaluate", "--input", T, "--model", model,
                     "--ablation", abl, "--labels", truth, "--seed", "7",
                     "--out", str(o / "report.json"))),
        ]
        self._replay = None
        r = self.replay
        self.checks = [
            ("simulate", ("simulate",),
             lambda: checks.check_simulated(r(), truth, n_events)),
            ("fit", ("simulate", "fit"),
             lambda: checks.check_fit(r(), model, FIT_CONFIG)),
            ("fit_freeze_beta", ("simulate", "fit_ablation"),
             lambda: checks.check_fit(r(), abl, FIT_CONFIG, freeze_beta=0.0)),
            ("recovery", ("simulate", "fit"),
             lambda: checks.check_recovery(model, truth)),
            ("quality_mean", ("simulate", "fit", "quality_mean"),
             lambda: checks.check_quality_mean(r(), model,
                                               o / "q_mean.csv")),
            ("quality_per_time", ("simulate", "fit", "quality_per_time"),
             lambda: checks.check_quality_per_time(r(), o / "q_pts.csv")),
            ("profile", ("simulate", "fit", "profile"),
             lambda: checks.check_profile(r(), model, o / "profile.json")),
            ("counterfactual", ("simulate", "fit", "counterfactual"),
             lambda: checks.check_counterfactual(o / "curves.csv",
                                                 self.ranks)),
            ("evaluate", ("simulate", "fit", "fit_ablation", "evaluate"),
             lambda: checks.check_evaluate(r(), model, abl, truth,
                                           o / "report.json")),
        ]

    def replay(self):
        if self._replay is None:
            self._replay = checks.Replay(self.out / "T.jsonl")
        return self._replay

    def finish_pass(self, stdout):
        self._replay = None
        self.votes = _votes(stdout.get("simulate", ""))


class BiasMap(Workload):
    """Many communities with planted coefficients placed on the bias map."""

    def __init__(self, work, seed, scale):
        super().__init__(work, seed, scale)
        n_comm, self.n_questions, self.n_events = SIZES["bias_map"][scale]
        rng = np.random.default_rng(seed)
        # Latin hypercube over [0, 2] x [0, 3]
        lam = (rng.permutation(n_comm) + rng.random(n_comm)) / n_comm * 2.0
        beta = (rng.permutation(n_comm) + rng.random(n_comm)) / n_comm * 3.0
        self.planted = [(float(a), float(b)) for a, b in zip(lam, beta)]
        self.names = [f"c{k:02d}" for k in range(n_comm)]
        self._replays = None
        i, o = self.inputs, self.out
        fit_cfg = str(i / "fit.cfg")
        self.models = [o / f"{n}.model.json" for n in self.names]
        self.profiles = [o / f"{n}.profile.json" for n in self.names]
        for k, name in enumerate(self.names):
            T = str(i / f"{name}.jsonl")
            self.commands.append(Command(
                f"fit_{name}", "fit",
                ("fit", "--input", T, "--config", fit_cfg,
                 "--out", str(self.models[k]))))
            self.commands.append(Command(
                f"profile_{name}", "score",
                ("profile", "--model", str(self.models[k]), "--input", T,
                 "--community", name, "--out", str(self.profiles[k]))))
        self.commands.append(Command(
            "map", "score", ("map", "--profiles", *map(str, self.profiles),
                             "--out", str(o / "map.csv"))))
        self.checks = [
            ("fit", tuple(c.label for c in self.commands
                          if c.group == "fit"), self._check_fits),
            ("profile", tuple(c.label for c in self.commands),
             self._check_profiles),
            ("map", tuple(c.label for c in self.commands),
             lambda: checks.check_map(o / "map.csv", self.profiles,
                                      self.models, self.planted)),
        ]

    def setup(self, run_command):
        votes = 0
        for k, name in enumerate(self.names):
            lam, beta = self.planted[k]
            cfg = self.inputs / f"{name}.sim.cfg"
            _write_config(cfg, {
                "n_questions": self.n_questions, "n_events": self.n_events,
                "crp_alpha": 0.5, "true_lambda": lam, "true_beta": beta,
                "seed": 1000 * self.seed + k})
            out = run_command(("simulate", "--config", str(cfg),
                               "--out", str(self.inputs / f"{name}.jsonl"),
                               "--truth",
                               str(self.inputs / f"{name}.truth.csv")))
            votes += _votes(out)
        return votes

    def replays(self):
        if self._replays is None:
            self._replays = [checks.Replay(self.inputs / f"{n}.jsonl")
                             for n in self.names]
        return self._replays

    def _check_fits(self):
        out = []
        for replay, model in zip(self.replays(), self.models):
            out += checks.check_fit(replay, model, FIT_CONFIG)
        return out

    def _check_profiles(self):
        out = []
        for replay, model, prof in zip(self.replays(), self.models,
                                       self.profiles):
            out += checks.check_profile(replay, model, prof)
        return out


class Ingest(Workload):
    """StackExchange dumps with every filtered and rejected case mixed in."""

    MIN_ANSWERS = 5

    def __init__(self, work, seed, scale):
        super().__init__(work, seed, scale)
        self.n_questions, self.n_events, self.n_dumps, self.replicas = \
            SIZES["ingest"][scale]
        self._expected = None
        o = self.out
        for d in range(self.n_dumps):
            dump = self.inputs / f"dump{d}"
            self.commands.append(Command(
                f"ingest_{d}", "ingest",
                ("ingest", "--posts", str(dump / "Posts.xml"),
                 "--votes", str(dump / "Votes.xml"),
                 "--posthistory", str(dump / "PostHistory.xml"),
                 "--out", str(o / f"dump{d}.jsonl"),
                 "--min-answers", str(self.MIN_ANSWERS),
                 "--min-questions", "10",
                 "--reject-log", str(o / f"dump{d}.rejects.txt"))))
        self.stdout = {}
        self.checks = [(f"ingest_{d}", (f"ingest_{d}",),
                        lambda d=d: self._check(d))
                       for d in range(self.n_dumps)]

    def setup(self, run_command):
        cfg = self.inputs / "source.sim.cfg"
        _write_config(cfg, {
            "n_questions": self.n_questions, "n_events": self.n_events,
            "crp_alpha": 2.0, "true_lambda": 1.0, "true_beta": 2.0,
            "seed": self.seed})
        source = self.inputs / "source.jsonl"
        run_command(("simulate", "--config", str(cfg), "--out", str(source),
                     "--truth", str(self.inputs / "source.truth.csv")))
        records = checks.read_jsonl(source)
        expected = []
        for d in range(self.n_dumps):
            dump = self.inputs / f"dump{d}"
            dump.mkdir(exist_ok=True)
            expected.append(dumps.write_dump(
                records, dump, seed=1000 * self.seed + d,
                replicas=self.replicas, min_answers=self.MIN_ANSWERS))
        with open(self.inputs / "expected.pickle", "wb") as fh:
            pickle.dump(expected, fh)
        return sum(e["vote_rows"] for e in expected)

    def expected(self, d: int) -> dict:
        """What ingesting dump d must yield, read from set-up's file when
        the first check needs it."""
        if self._expected is None:
            with open(self.inputs / "expected.pickle", "rb") as fh:
                self._expected = pickle.load(fh)
        return self._expected[d]

    def finish_pass(self, stdout):
        self.stdout = stdout

    def _check(self, d: int) -> list[str]:
        exp = self.expected(d)
        got = []
        for q in checks.read_jsonl(self.out / f"dump{d}.jsonl"):
            got.append((q["question_id"],
                        [(a["answer_id"], a["text_length"], a["accepted"])
                         for a in q["answers"]],
                        [(e["answer_index"], e["sign"]) for e in q["events"]]))
        out = []
        if got != exp["trajectories"]:
            bad = next((i for i, (g, e) in enumerate(
                zip(got, exp["trajectories"])) if g != e), None)
            out.append(f"dump{d}: {len(got)} trajectories, expected "
                       f"{len(exp['trajectories'])}; first difference at "
                       f"question #{bad}")
        counts = {}
        for line in self.stdout.get(f"ingest_{d}", "").splitlines():
            key, _, value = line.partition(": ")
            counts[key] = int(value)
        if counts != exp["counts"]:
            out.append(f"dump{d}: counts {counts}, expected {exp['counts']}")
        rejects = set()
        with open(self.out / f"dump{d}.rejects.txt", encoding="utf-8") as fh:
            for line in fh:
                lineno, reason = line.rstrip("\n").split("\t", 1)
                rejects.add((reason.split(":", 1)[0], int(lineno)))
        if rejects != exp["rejects"]:
            out.append(f"dump{d}: reject log {sorted(rejects)}, expected "
                       f"{sorted(exp['rejects'])}")
        return out


WORKLOADS = {"community": Community, "bias_map": BiasMap, "ingest": Ingest}

