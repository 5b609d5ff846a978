import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cva
from cva.cli import main
from cva.counterfactual import build_population
from cva.evaluation import evaluate_rankers
from cva.model import CommunityModel, load_model, save_model
from cva.simulate import toy_scenario
from cva.trajectory import (Answer, QuestionTrajectory, read_trajectories,
                            write_trajectories)
from conftest import GOLDEN_DIR, quality_by_key

SIM_CFG = """\
n_questions = 25
n_events = 900
crp_alpha = 0.8
true_lambda = 1.0
true_beta = 1.5
true_nu = 0.0
length_source = lognormal:6.0,0.5
question_weight_source = uniform
seed = 11
"""

FIT_CFG = """\
l2_weight = 1.0
tol = 1e-6
max_iters = 10000
drop_first_votes = true
seed = 0
"""


def run(*argv):
    return main(list(argv))


def _cva_env():
    """The environment of a child process that imports this cva."""
    return dict(os.environ, PYTHONPATH=str(Path(cva.__file__).parents[1]))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Simulated community with fitted models, shared across CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    (root / "sim.cfg").write_text(SIM_CFG)
    (root / "fit.cfg").write_text(FIT_CFG)
    assert run("simulate", "--config", str(root / "sim.cfg"),
               "--out", str(root / "T.jsonl"),
               "--truth", str(root / "truth.csv")) == 0
    assert run("fit", "--input", str(root / "T.jsonl"),
               "--config", str(root / "fit.cfg"),
               "--out", str(root / "model.json")) == 0
    assert run("fit", "--input", str(root / "T.jsonl"),
               "--freeze-beta", "0",
               "--out", str(root / "ablation.json")) == 0
    return root


class TestIngest:
    def test_golden_byte_identical_and_exit_codes(self, tmp_path):
        out = tmp_path / "out.jsonl"
        rejects = tmp_path / "rejects.txt"
        code = run("ingest", "--posts", str(GOLDEN_DIR / "Posts.xml"),
                   "--votes", str(GOLDEN_DIR / "Votes.xml"),
                   "--posthistory", str(GOLDEN_DIR / "PostHistory.xml"),
                   "--out", str(out), "--min-questions", "1",
                   "--reject-log", str(rejects))
        assert code == 0
        assert out.read_bytes() == \
            (GOLDEN_DIR / "expected.jsonl").read_bytes()
        assert rejects.read_text().count("\n") >= 2

    def test_community_too_small_exit_2(self, tmp_path):
        out = tmp_path / "out.jsonl"
        code = run("ingest", "--posts", str(GOLDEN_DIR / "Posts.xml"),
                   "--votes", str(GOLDEN_DIR / "Votes.xml"),
                   "--posthistory", str(GOLDEN_DIR / "PostHistory.xml"),
                   "--out", str(out))
        assert code == 2
        assert out.exists()  # explicit status, not silent empty output

    def test_row_not_utf8_rejected(self, tmp_path, capsys):
        # a byte 0xff inside the bookmark vote on line 8 rejects that row
        # alone; the rest of the dump ingests as before
        for name in ("Posts.xml", "PostHistory.xml"):
            (tmp_path / name).write_bytes((GOLDEN_DIR / name).read_bytes())
        votes = (GOLDEN_DIR / "Votes.xml").read_bytes().splitlines(True)
        assert b'Id="120"' in votes[7]
        votes[7] = votes[7].replace(b'VoteTypeId="16"',
                                    b'VoteTypeId="1\xff6"')
        (tmp_path / "Votes.xml").write_bytes(b"".join(votes))
        column = votes[7].index(b"\xff") + 1
        out, rejects = tmp_path / "out.jsonl", tmp_path / "rejects.txt"
        code = run("ingest", "--posts", str(tmp_path / "Posts.xml"),
                   "--votes", str(tmp_path / "Votes.xml"),
                   "--posthistory", str(tmp_path / "PostHistory.xml"),
                   "--out", str(out), "--min-questions", "1",
                   "--reject-log", str(rejects))
        assert code == 0
        assert "Traceback" not in capsys.readouterr().err
        assert out.read_bytes() == \
            (GOLDEN_DIR / "expected.jsonl").read_bytes()
        assert rejects.read_text().splitlines() == [
            f"8\tvotes: not UTF-8: byte 0xff at column {column}",
            "26\tvotes: missing VoteTypeId",
            "7\tposthistory: malformed XML row (unclosed token: line 1, "
            "column 0)"]


class TestFit:
    def test_model_written(self, workspace):
        model = load_model(workspace / "model.json")
        assert model.fit_meta["converged"]
        assert model.fit_meta["final_grad_norm"] < 1e-6

    def test_frozen_beta_ablation(self, workspace):
        assert load_model(workspace / "ablation.json").beta == 0.0

    def test_nonconvergence_exit_3_model_still_written(self, workspace,
                                                       tmp_path):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("max_iters = 2\n")
        out = tmp_path / "model.json"
        code = run("fit", "--input", str(workspace / "T.jsonl"),
                   "--config", str(cfg), "--out", str(out))
        assert code == 3
        assert not load_model(out).fit_meta["converged"]

    def test_tolerance_below_rounding_floor_exit_3(self, tmp_path):
        write_trajectories(toy_scenario("s1b"), tmp_path / "T.jsonl")
        cfg = tmp_path / "floor.cfg"
        cfg.write_text("tol = 1e-300\n")
        out = tmp_path / "model.json"
        code = run("fit", "--input", str(tmp_path / "T.jsonl"),
                   "--config", str(cfg), "--out", str(out))
        assert code == 3
        meta = load_model(out).fit_meta
        assert not meta["converged"] and meta["iterations"] <= 50

    def test_reproducible(self, workspace, tmp_path):
        out = tmp_path / "again.json"
        assert run("fit", "--input", str(workspace / "T.jsonl"),
                   "--config", str(workspace / "fit.cfg"),
                   "--out", str(out)) == 0
        assert out.read_bytes() == (workspace / "model.json").read_bytes()


class TestQuality:
    def test_csv_schema(self, workspace, tmp_path):
        out = tmp_path / "quality.csv"
        assert run("quality", "--model", str(workspace / "model.json"),
                   "--input", str(workspace / "T.jsonl"),
                   "--mode", "mean", "--integrate-length", "false",
                   "--out", str(out)) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        assert set(rows[0]) == {"question_id", "answer_id", "q", "Q_hat"}
        for row in rows:
            assert 0.0 < float(row["Q_hat"]) < 1.0

    def test_per_time_sum_mode_runs(self, workspace, tmp_path):
        out = tmp_path / "quality_sum.csv"
        assert run("quality", "--model", str(workspace / "model.json"),
                   "--input", str(workspace / "T.jsonl"),
                   "--mode", "per-time-sum", "--out", str(out)) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert any(float(r["Q_hat"]) > 1.0 for r in rows)

    def test_zero_answer_question_scores_the_rest(self, workspace, tmp_path):
        # `ingest --min-answers 0` can emit a question with no answers
        inp = tmp_path / "T.jsonl"
        empty = {"question_id": "empty", "answers": [], "events": []}
        inp.write_text((workspace / "T.jsonl").read_text()
                       + json.dumps(empty) + "\n")
        out, ref = tmp_path / "quality.csv", tmp_path / "reference.csv"
        for path, out_path in ((inp, out), (workspace / "T.jsonl", ref)):
            assert run("quality", "--model", str(workspace / "model.json"),
                       "--input", str(path), "--out", str(out_path)) == 0
        assert out.read_bytes() == ref.read_bytes()


    def test_rows_sorted_by_string_ids(self, tmp_path):
        # ids as `cva ingest` writes them: numeric strings, in numeric
        # order in the file, so "10" sorts before "9"
        trajs = tmp_path / "T.jsonl"
        write_trajectories([
            QuestionTrajectory("9", (Answer("98", 0, 120),
                                     Answer("100", 1, 30)),
                               ((0, 1, 10), (1, -1, 11), (1, 1, 12))),
            QuestionTrajectory("10", (Answer("99", 0, 500),
                                      Answer("101", 1, 60),
                                      Answer("102", 2, 90)),
                               ((2, 1, 10), (0, 1, 11)))], trajs)
        model = CommunityModel(
            q={"9": {"98": 0.3, "100": -0.4},
               "10": {"99": 1.1, "102": 0.2}},  # 101 is not in the model
            nu={"9": 0.5, "10": -0.2}, lam=0.8, beta=1.2)
        save_model(model, tmp_path / "model.json")
        community = read_trajectories(trajs)
        for flags in (["--mode", "mean"], ["--mode", "per-time-sum"],
                      ["--integrate-length", "true"]):
            out = tmp_path / "quality.csv"
            assert run("quality", "--model", str(tmp_path / "model.json"),
                       "--input", str(trajs), "--out", str(out),
                       *flags) == 0
            with open(out, newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert [(r["question_id"], r["answer_id"]) for r in rows] == \
                [("10", "102"), ("10", "99"), ("9", "100"), ("9", "98")]
            options = {"aggregate": "per_time_sum"} if "per-time-sum" \
                in flags else {"integrate_length": "true" in flags}
            want = quality_by_key(load_model(tmp_path / "model.json"),
                                  community, build_population(community),
                                  **options)
            for r in rows:
                key = (r["question_id"], r["answer_id"])
                assert float(r["q"]) == model.q[key[0]][key[1]]
                assert float(r["Q_hat"]) == want[key]


class TestNoVotesToScore:
    """`quality`, `profile` and `evaluate` on a file without votes exit 2
    with one `cva: INPUT: no votes to score` line."""

    @pytest.fixture(params=["empty", "unvoted"])
    def unvoted(self, request, workspace, tmp_path):
        path = tmp_path / "T.jsonl"
        lines = []
        if request.param == "unvoted":
            for line in (workspace / "T.jsonl").read_text().splitlines():
                lines.append(json.dumps(dict(json.loads(line), events=[])))
        path.write_text("".join(line + "\n" for line in lines))
        return path

    @pytest.mark.parametrize("command", ["quality", "profile", "evaluate"])
    def test_exit_2(self, workspace, tmp_path, capsys, unvoted, command):
        out = tmp_path / "out"
        argv = [command, "--model", str(workspace / "model.json"),
                "--input", str(unvoted), "--out", str(out)]
        if command == "evaluate":
            argv += ["--ablation", str(workspace / "ablation.json"),
                     "--labels", str(workspace / "truth.csv")]
        capsys.readouterr()
        assert run(*argv) == 2
        assert capsys.readouterr().err == \
            f"cva: {unvoted}: no votes to score\n"
        assert not out.exists()


class TestSimulate:
    def test_truth_csv_schema(self, workspace):
        with open(workspace / "truth.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert set(rows[0]) == {"answer_id", "score", "source"}
        scores = [float(r["score"]) for r in rows]
        assert all(r["source"] == "synthetic_truth" for r in rows)
        assert min(scores) == -1.0 and max(scores) == 1.0

    def test_seeded_rerun_identical(self, workspace, tmp_path):
        out = tmp_path / "T2.jsonl"
        truth = tmp_path / "truth2.csv"
        assert run("simulate", "--config", str(workspace / "sim.cfg"),
                   "--out", str(out), "--truth", str(truth)) == 0
        assert out.read_bytes() == (workspace / "T.jsonl").read_bytes()
        assert truth.read_bytes() == (workspace / "truth.csv").read_bytes()


class TestToy:
    def test_scenario_1a_final_ordering(self, tmp_path):
        out = tmp_path / "toy.csv"
        assert run("toy", "--scenario", "1a", "--out", str(out)) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        final = {r["answer_id"]: float(r["quality"])
                 for r in rows if r["tick"] == "6"}
        assert final["B"] > final["A"]


class TestProfileAndMap:
    def test_profile_then_map(self, workspace, tmp_path):
        p1 = tmp_path / "p1.json"
        assert run("profile", "--model", str(workspace / "model.json"),
                   "--input", str(workspace / "T.jsonl"),
                   "--community", "alpha", "--out", str(p1)) == 0
        p2 = tmp_path / "p2.json"
        assert run("profile", "--model", str(workspace / "ablation.json"),
                   "--input", str(workspace / "T.jsonl"),
                   "--community", "beta", "--out", str(p2)) == 0
        out = tmp_path / "map.csv"
        assert run("map", "--profiles", str(p1), str(p2),
                   "--out", str(out)) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["community", "herding_degree",
                           "position_sensitivity", "above_median_herding",
                           "above_median_position"]
        assert rows[-1][0] == "MEDIAN"
        assert {r[0] for r in rows[1:-1]} == {"alpha", "beta"}

    def test_votes_on_unmodelled_answers_skipped(self, workspace, tmp_path,
                                                 capsys):
        model = json.loads((workspace / "model.json").read_text())
        trajs = [json.loads(line) for line in
                 (workspace / "T.jsonl").read_text().splitlines()]
        dropped = trajs[0]["question_id"]
        del model["q"][dropped]
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(model))
        out = tmp_path / "p.json"
        code = run("profile", "--model", str(path),
                   "--input", str(workspace / "T.jsonl"), "--out", str(out))
        assert code == 0
        assert "Traceback" not in capsys.readouterr().err
        # every vote but each answer's first, outside the dropped question
        scored = sum(len(t["events"]) - len({e["answer_index"]
                                             for e in t["events"]})
                     for t in trajs if t["question_id"] != dropped)
        assert json.loads(out.read_text())["n_events"] == scored

    def test_no_modelled_answer_exit_2(self, workspace, tmp_path):
        # A child process, so that stderr is what the command's own
        # logging setup writes and not what pytest's log capture leaves.
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(MODEL_KEYS))
        T = workspace / "T.jsonl"
        proc = subprocess.run(
            [sys.executable, "-m", "cva.cli", "profile", "--model", str(path),
             "--input", str(T), "--out", str(tmp_path / "p.json")],
            capture_output=True, text=True, env=_cva_env())
        assert proc.returncode == 2
        assert proc.stderr == f"cva: {T}: no votes to score\n"
        assert not (tmp_path / "p.json").exists()


class TestCounterfactual:
    def test_curves_and_power_law(self, workspace, tmp_path):
        out = tmp_path / "curves.csv"
        assert run("counterfactual", "--model",
                   str(workspace / "model.json"),
                   "--input", str(workspace / "T.jsonl"),
                   "--ranks", "10", "--out", str(out)) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        moods = {r["mood"] for r in rows}
        assert moods == {"pos", "neutral", "neg"}
        assert sum(1 for r in rows if r["mood"] == "pos") == 10
        with open(tmp_path / "curves_powerlaw.json") as fh:
            fits = json.load(fh)
        assert set(fits) == {"pos", "neutral", "neg"}
        for f in fits.values():
            assert f["b"] >= 0.0

    @pytest.mark.parametrize("ranks", ["2", "x"])
    def test_too_few_ranks_is_usage_error(self, workspace, tmp_path, ranks):
        # the power-law fit needs 3 curve points
        with pytest.raises(SystemExit) as exc:
            run("counterfactual", "--model", str(workspace / "model.json"),
                "--input", str(workspace / "T.jsonl"), "--ranks", ranks,
                "--out", str(tmp_path / "curves.csv"))
        assert exc.value.code == 64
        assert not (tmp_path / "curves.csv").exists()


class TestEvaluate:
    def test_report_schema(self, workspace, tmp_path):
        out = tmp_path / "report.json"
        assert run("evaluate", "--input", str(workspace / "T.jsonl"),
                   "--model", str(workspace / "model.json"),
                   "--ablation", str(workspace / "ablation.json"),
                   "--labels", str(workspace / "truth.csv"),
                   "--seed", "7", "--out", str(out)) == 0
        with open(out) as fh:
            report = json.load(fh)
        assert set(report["mean_tau"]) == {"vote_diff", "cva",
                                           "no_position"}
        assert set(report["p_values"]) == {"tau", "residual"}
        assert report["n_questions"] > 0

    @pytest.mark.parametrize("seed, reason", [
        ("-1", "must be >= 0, got -1"), ("x", "not an integer: 'x'")])
    def test_bad_seed_is_usage_error(self, workspace, tmp_path, capsys,
                                     seed, reason):
        with pytest.raises(SystemExit) as exc:
            run("evaluate", "--input", str(workspace / "T.jsonl"),
                "--model", str(workspace / "model.json"),
                "--ablation", str(workspace / "ablation.json"),
                "--labels", str(workspace / "truth.csv"),
                "--seed", seed, "--out", str(tmp_path / "report.json"))
        assert exc.value.code == 64
        err = capsys.readouterr().err
        # argparse's usage block, then the one error line
        assert [line for line in err.splitlines()
                if not line.startswith(("usage:", " "))] == \
            [f"cva evaluate: error: argument --seed: {reason}"]
        assert "Traceback" not in err
        assert not (tmp_path / "report.json").exists()


class TestExitCodes:
    def test_parser_built_once(self, tmp_path):
        from cva.cli import build_parser
        assert build_parser() is build_parser()
        # the one parser reads other subcommands and options in turn
        assert run("toy", "--scenario", "1a",
                   "--out", str(tmp_path / "a.csv")) == 0
        assert run("fit", "--input", str(tmp_path / "missing.jsonl"),
                   "--out", str(tmp_path / "m.json")) == 66
        assert run("toy", "--scenario", "2",
                   "--out", str(tmp_path / "b.csv")) == 0
        assert (tmp_path / "a.csv").read_text() != \
            (tmp_path / "b.csv").read_text()

    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("toy", "--scenario", "1a", "--frobnicate")
        assert exc.value.code == 64

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run("transmogrify")
        assert exc.value.code == 64

    def test_unreadable_file_exit_66(self, tmp_path):
        assert run("fit", "--input", str(tmp_path / "missing.jsonl"),
                   "--out", str(tmp_path / "m.json")) == 66


DEPTH = 100_000  # of JSON nested too deeply to read
GOOD_LINE = {"question_id": "q",
             "answers": [{"answer_id": "a", "creation_time": 1,
                          "text_length": 10, "accepted": False,
                          "acceptance_time": None}],
             "events": [{"answer_index": 0, "timestamp": 5, "sign": 1}]}


class TestMalformedTrajectoryFile:
    """A bad line ends the command with exit 65 and one `path:line:`
    message, never a traceback."""

    def _fit(self, tmp_path, capsys, bad_line):
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps(GOOD_LINE) + "\n" + bad_line + "\n")
        code = run("fit", "--input", str(path),
                   "--out", str(tmp_path / "m.json"))
        err = capsys.readouterr().err
        assert code == 65
        assert err.startswith(f"cva: {path}:2: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "m.json").exists()
        return err

    def test_truncated_line(self, tmp_path, capsys):
        err = self._fit(tmp_path, capsys, json.dumps(GOOD_LINE)[:40])
        assert "invalid JSON" in err

    def test_missing_key(self, tmp_path, capsys):
        obj = {k: v for k, v in GOOD_LINE.items() if k != "events"}
        err = self._fit(tmp_path, capsys, json.dumps(obj))
        assert "missing key 'events'" in err

    def test_broken_invariant(self, tmp_path, capsys):
        obj = dict(GOOD_LINE, events=[{"answer_index": 0, "timestamp": 1,
                                       "sign": 1}])
        err = self._fit(tmp_path, capsys, json.dumps(obj))
        assert "q: event at t=1 references answer created at t=1" in err

    def test_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        path.write_bytes(b"\xff\xfe"
                         + json.dumps(GOOD_LINE).encode("utf-16-le") + b"\n")
        code = run("fit", "--input", str(path),
                   "--out", str(tmp_path / "m.json"))
        err = capsys.readouterr().err
        assert code == 65
        assert err == f"cva: {path}:1: not UTF-8: byte 0xff at column 1\n"

    def test_duplicate_question_id(self, tmp_path, capsys):
        err = self._fit(tmp_path, capsys, json.dumps(GOOD_LINE))
        assert "duplicate question_id 'q' (first on line 1)" in err

    @pytest.mark.parametrize("opened, closed", [("[", "]"), ('{"a":', "}")],
                             ids=["arrays", "objects"])
    def test_nested_too_deeply(self, tmp_path, capsys, opened, closed):
        # far past any recursion limit
        err = self._fit(tmp_path, capsys,
                        opened * DEPTH + "1" + closed * DEPTH)
        assert err == f"cva: {tmp_path / 't.jsonl'}:2: invalid JSON: " \
                      "nested too deeply\n"


@pytest.mark.parametrize("timestamp, reason", [
    (2 ** 63, "q: vote 1 timestamp must be a 64-bit integer, "
              "got 9223372036854775808"),
    (5.5, "q: vote 1 timestamp must be a 64-bit integer, got 5.5"),
])
def test_vote_timestamp_must_be_a_64_bit_integer(tmp_path, capsys,
                                                  timestamp, reason):
    path = tmp_path / "t.jsonl"
    bad = dict(GOOD_LINE, question_id="q", events=[
        {"answer_index": 0, "timestamp": timestamp, "sign": 1}])
    path.write_text(json.dumps(bad) + "\n")
    code = run("fit", "--input", str(path), "--out", str(tmp_path / "m.json"))
    assert code == 65
    assert capsys.readouterr().err == f"cva: {path}:1: {reason}\n"


# JSON text of values that are not 64-bit integers, and as messages show
# them
_NOT_INT64 = [('"5"', "'5'"), ("5.5", "5.5"), ("NaN", "nan"),
              ("Infinity", "inf"), ("true", "True"),
              ("9223372036854775808", "9223372036854775808")]


class TestTrajectoryTypes:
    """A value of the wrong type ends the command with exit 65 and one
    `path:line:` message that names its field."""

    def _fit(self, tmp_path, capsys, obj, *replacements):
        text = json.dumps(obj)
        for old, new in replacements:
            text = text.replace(old, new)
        path = tmp_path / "t.jsonl"
        path.write_text(text + "\n")
        code = run("fit", "--input", str(path),
                   "--out", str(tmp_path / "m.json"))
        err = capsys.readouterr().err
        assert code == 65
        assert err.startswith(f"cva: {path}:1: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "m.json").exists()
        return err[len(f"cva: {path}:1: "):-1]

    @pytest.mark.parametrize("part, field", [
        ("answers", "creation_time"), ("answers", "text_length"),
        ("answers", "acceptance_time"), ("events", "answer_index"),
        ("events", "sign"), ("events", "timestamp")])
    @pytest.mark.parametrize("text, shown", _NOT_INT64)
    def test_integer_field(self, tmp_path, capsys, part, field, text,
                           shown):
        obj = json.loads(json.dumps(GOOD_LINE))
        obj["answers"][0].update(accepted=True, acceptance_time=3)
        obj[part][0][field] = "@"
        where = "q: vote 1" if part == "events" else "q/a:"
        expected = "null or a 64-bit integer" \
            if field == "acceptance_time" else "a 64-bit integer"
        assert self._fit(tmp_path, capsys, obj, ('"@"', text)) == \
            f"{where} {field} must be {expected}, got {shown}"

    def test_integer_ids(self, tmp_path, capsys):
        # ids the model file would turn into strings, so that no answer
        # of the input is found in it again
        obj = dict(GOOD_LINE, question_id=7, answers=[
            dict(GOOD_LINE["answers"][0], answer_id=8)])
        assert self._fit(tmp_path, capsys, obj) == \
            "question_id must be a string, got 7"

    def test_integer_answer_id(self, tmp_path, capsys):
        obj = dict(GOOD_LINE, answers=[
            dict(GOOD_LINE["answers"][0], answer_id=8)])
        assert self._fit(tmp_path, capsys, obj) == \
            "q: answer_id must be a string, got 8"

    def test_accepted_not_a_boolean(self, tmp_path, capsys):
        obj = dict(GOOD_LINE, answers=[
            dict(GOOD_LINE["answers"][0], accepted=0)])
        assert self._fit(tmp_path, capsys, obj) == \
            "q/a: accepted must be a boolean, got 0"

    def test_duplicate_answer_id(self, tmp_path, capsys):
        answer = GOOD_LINE["answers"][0]
        obj = dict(GOOD_LINE, answers=[answer, dict(answer,
                                                    creation_time=2)])
        assert self._fit(tmp_path, capsys, obj) == \
            "q: duplicate answer_id 'a'"


class TestInputErrors:
    """A bad config, label file or a file without training votes ends the
    command with one `cva: path: reason` line, never a traceback."""

    def _run(self, capsys, *argv):
        code = run(*map(str, argv))
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        return code, err

    def test_unknown_fit_config_key(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "fit.cfg"
        cfg.write_text("learning_rate = 1\n")
        code, err = self._run(capsys, "fit", "--input",
                              workspace / "T.jsonl", "--config", cfg,
                              "--out", tmp_path / "m.json")
        assert code == 65
        assert err == f"cva: {cfg}: unknown config key: learning_rate\n"
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("text, reason", [
        ("n_questions = 0\nn_events = 10\n", "n_questions must be >= 1"),
        ("n_questions = x\nn_events = 10\n", "n_questions: invalid literal"),
        ("n_events = 10\n", "missing config key: n_questions"),
        (SIM_CFG + "colour = red\n", "unknown config key: colour"),
        (SIM_CFG + "crp_alpha = auto\n", "crp_alpha='auto' needs an"),
        (SIM_CFG.replace("lognormal:6.0,0.5", "lognormal:6.0"),
         "source 'lognormal' needs 2 number(s)"),
        (SIM_CFG.replace("lognormal:6.0,0.5", "lognormal:6.0,-1"),
         "source 'lognormal' needs SIGMA >= 0: 'lognormal:6.0,-1'\n"),
        (SIM_CFG.replace("uniform", "zipf:-2000"),
         "source 'zipf' weights overflow for 25 questions: "
         "'zipf:-2000'\n"),
        (SIM_CFG.replace("lognormal:6.0,0.5", "lognormal:710,1"),
         "source 'lognormal' drew an infinite text length: "
         "'lognormal:710,1'\n"),
        (SIM_CFG + "quality_sd = nan\n",
         "quality_sd must be finite and > 0\n"),
        (SIM_CFG + "quality_sd = inf\n",
         "quality_sd must be finite and > 0\n"),
        (SIM_CFG + "quality_mean = nan\n", "quality_mean must be finite\n"),
        (SIM_CFG + "true_nu = -inf\n", "true_nu must be finite\n"),
        (SIM_CFG + "crp_alpha = inf\n", "crp_alpha must be finite and > 0\n"),
        (SIM_CFG + "crp_alpha = nan\n", "crp_alpha must be finite and > 0\n"),
        ("n_questions = 5\nn_events = 50\nseed = -1\n",
         "seed must be >= 0\n"),
    ])
    def test_bad_sim_config(self, tmp_path, capsys, text, reason):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(text)
        code, err = self._run(capsys, "simulate", "--config", cfg,
                              "--out", tmp_path / "T.jsonl",
                              "--truth", tmp_path / "truth.csv")
        assert code == 65
        assert err.startswith(f"cva: {cfg}: {reason}")

    @pytest.mark.parametrize("line, reason", [
        ("l2_weight = -1", "l2_weight must be >= 0"),
        ("l2_weight = nan", "l2_weight: not a finite number: 'nan'"),
        ("tol = nan", "tol: not a finite number: 'nan'"),
        ("tol = 0", "tol must be > 0"),
        ("max_iters = -5", "max_iters must be >= 1"),
        ("max_iters = 0", "max_iters must be >= 1"),
        ("freeze_beta = inf", "freeze_beta: not a finite number: 'inf'"),
    ])
    def test_bad_fit_config(self, workspace, tmp_path, capsys, line,
                            reason):
        cfg = tmp_path / "fit.cfg"
        cfg.write_text(FIT_CFG + line + "\n")
        code, err = self._run(capsys, "fit", "--input",
                              workspace / "T.jsonl", "--config", cfg,
                              "--out", tmp_path / "m.json")
        assert code == 65
        assert err == f"cva: {cfg}: {reason}\n"
        assert not (tmp_path / "m.json").exists()

    def test_zero_l2_weight_fits(self, workspace, tmp_path):
        cfg = tmp_path / "fit.cfg"
        cfg.write_text(FIT_CFG + "l2_weight = 0\n")
        assert run("fit", "--input", str(workspace / "T.jsonl"),
                   "--config", str(cfg), "--out",
                   str(tmp_path / "m.json")) == 0

    @pytest.mark.parametrize("value", ["nan", "inf", "x"])
    def test_freeze_beta_not_finite_is_usage_error(self, workspace, tmp_path,
                                                   capsys, value):
        with pytest.raises(SystemExit) as exc:
            run("fit", "--input", str(workspace / "T.jsonl"),
                "--freeze-beta", value, "--out", str(tmp_path / "m.json"))
        assert exc.value.code == 64
        assert capsys.readouterr().err.endswith(
            f"argument --freeze-beta: invalid finite_float value: "
            f"{value!r}\n")
        assert not (tmp_path / "m.json").exists()

    def test_config_line_without_equals(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(SIM_CFG + "seed 3\n")
        code, err = self._run(capsys, "simulate", "--config", cfg,
                              "--out", tmp_path / "T.jsonl",
                              "--truth", tmp_path / "truth.csv")
        assert code == 65
        assert err == f"cva: {cfg}:10: expected key=value\n"

    def test_label_csv_wrong_header(self, workspace, tmp_path, capsys):
        labels = tmp_path / "labels.csv"
        labels.write_text("id,score\nq-a0,0.5\n")
        code, err = self._run(capsys, "evaluate",
                              "--input", workspace / "T.jsonl",
                              "--model", workspace / "model.json",
                              "--ablation", workspace / "ablation.json",
                              "--labels", labels,
                              "--out", tmp_path / "r.json")
        assert code == 65
        assert err.startswith(f"cva: {labels}: label CSV header must be "
                              "answer_id,score,source")

    def test_no_training_events_exit_2(self, tmp_path, capsys):
        # the only vote is its answer's first, which the fit drops
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps(GOOD_LINE) + "\n")
        code, err = self._run(capsys, "fit", "--input", path,
                              "--out", tmp_path / "m.json")
        assert code == 2
        assert err == f"cva: {path}: no training events\n"
        assert not (tmp_path / "m.json").exists()


class TestNoPerVoteObjects:
    """Commands that read a trajectory file work on its columns and build
    no per-question record."""

    def test_commands_construct_none(self, workspace, tmp_path,
                                     monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError(f"{type(self).__name__} constructed")

        monkeypatch.setattr(QuestionTrajectory, "__init__", refuse)
        T, model = workspace / "T.jsonl", workspace / "model.json"
        commands = [
            ("fit", "--input", T, "--out", tmp_path / "m.json"),
            ("fit", "--input", T, "--freeze-beta", "0",
             "--out", tmp_path / "a.json"),
            ("quality", "--model", model, "--input", T, "--mode", "mean",
             "--out", tmp_path / "q.csv"),
            ("quality", "--model", model, "--input", T, "--mode",
             "per-time-sum", "--out", tmp_path / "qs.csv"),
            ("profile", "--model", model, "--input", T,
             "--out", tmp_path / "p.json"),
            ("counterfactual", "--model", model, "--input", T,
             "--out", tmp_path / "c.csv"),
            ("evaluate", "--input", T, "--model", model,
             "--ablation", workspace / "ablation.json",
             "--labels", workspace / "truth.csv",
             "--out", tmp_path / "r.json"),
        ]
        for argv in commands:
            assert run(*map(str, argv)) == 0, argv[0]


# Runs each argv list of sys.argv[1] (JSON) through cva.cli.main with
# every scipy import refused, and prints their exit codes.
_WITHOUT_SCIPY = """
import json, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, NoScipy())
from cva.cli import main
from cva.counterfactual import build_population
print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))
"""


def test_every_command_runs_without_scipy(tmp_path):
    # cva depends on numpy alone; scipy would add about 25 MiB and 0.15 s
    # to every command's start-up. A blocked import, at start-up or in a
    # function, fails its command.
    (tmp_path / "sim.cfg").write_text(SIM_CFG)
    T, model = tmp_path / "T.jsonl", tmp_path / "model.json"
    ablation, truth = tmp_path / "ablation.json", tmp_path / "truth.csv"
    commands = [
        ("simulate", "--config", tmp_path / "sim.cfg", "--out", T,
         "--truth", truth),
        ("fit", "--input", T, "--out", model),
        ("fit", "--input", T, "--freeze-beta", "0", "--out", ablation),
        ("quality", "--model", model, "--input", T,
         "--out", tmp_path / "q.csv"),
        ("quality", "--model", model, "--input", T, "--mode",
         "per-time-sum", "--out", tmp_path / "qs.csv"),
        ("profile", "--model", model, "--input", T,
         "--out", tmp_path / "p.json"),
        ("map", "--profiles", tmp_path / "p.json",
         "--out", tmp_path / "map.csv"),
        ("counterfactual", "--model", model, "--input", T,
         "--out", tmp_path / "c.csv"),
        ("evaluate", "--input", T, "--model", model, "--ablation", ablation,
         "--labels", truth, "--out", tmp_path / "r.json"),
        ("toy", "--scenario", "1a", "--out", tmp_path / "toy.csv"),
        ("ingest", "--posts", GOLDEN_DIR / "Posts.xml",
         "--votes", GOLDEN_DIR / "Votes.xml",
         "--posthistory", GOLDEN_DIR / "PostHistory.xml",
         "--out", tmp_path / "ingested.jsonl", "--min-questions", "1"),
    ]
    argvs = [list(map(str, argv)) for argv in commands]
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, json.dumps(argvs)],
        capture_output=True, text=True, env=_cva_env())
    assert proc.returncode == 0, proc.stderr
    codes = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0] * len(commands), list(zip(argvs, codes))


def test_extreme_qualities_score_without_stderr(workspace, tmp_path):
    # logits near -1000 overflow exp; scoring takes the sigmoid's limit
    # and prints no warning. Child processes, as in
    # test_no_modelled_answer_exit_2, so that stderr is the command's own.
    community = read_trajectories(workspace / "T.jsonl")
    model = CommunityModel(
        q={qid: {a.answer_id: -1000.0 for a in answers}
           for qid, answers in zip(community.question_ids,
                                   community.answers)},
        lam=1.0, beta=1.5)
    save_model(model, tmp_path / "model.json")
    scoring = [("quality", "--out", tmp_path / "q.csv"),
               ("quality", "--mode", "per-time-sum",
                "--out", tmp_path / "qs.csv"),
               ("profile", "--out", tmp_path / "p.json")]
    for command, *rest in scoring:
        proc = subprocess.run(
            [sys.executable, "-m", "cva.cli", command,
             "--model", str(tmp_path / "model.json"),
             "--input", str(workspace / "T.jsonl"), *map(str, rest)],
            capture_output=True, text=True, env=_cva_env())
        assert (proc.returncode, proc.stderr) == (0, ""), command


MODEL_KEYS = {"q": {}, "lambda": 1.0, "nu": {}, "beta": 0.0,
              "l2_weight": 1.0}


class TestModelAndProfileFiles:
    """A model or profile file that cannot be used ends the command with
    exit 65 and one `cva: path: reason` line."""

    @pytest.mark.parametrize("text, reason", [
        ('{"lambda": 1}', "missing key 'q'"),
        ("not a model", "1: invalid JSON: Expecting value at column 1"),
        ("{\n  \"q\": {}\n", "3: invalid JSON: Expecting ',' delimiter"),
        ("[1,2]", "expected a JSON object, got array"),
        (json.dumps(dict(MODEL_KEYS, beta="2")),
         "beta: expected a finite number"),
        (json.dumps(dict(MODEL_KEYS, q={"q": 1.0})),
         "q: expected an object of objects of finite numbers"),
        (json.dumps(dict(MODEL_KEYS, **{"lambda": math.nan})),
         "lambda: expected a finite number"),
        (json.dumps(dict(MODEL_KEYS, beta=-math.inf)),
         "beta: expected a finite number"),
        (json.dumps(MODEL_KEYS).replace("1.0", "1e400"),
         "lambda: expected a finite number"),
        (json.dumps(MODEL_KEYS).replace("1.0", "1" + "0" * 400),
         "lambda: expected a finite number"),
        (json.dumps(dict(MODEL_KEYS, nu={"q": math.inf})),
         "nu: expected an object of finite numbers"),
        (json.dumps(dict(MODEL_KEYS, q={"q": {"a": math.nan}})),
         "q: expected an object of objects of finite numbers"),
    ], ids=["missing_key", "not_json", "truncated", "array", "mistyped",
            "nested", "nan", "infinity", "overflow", "huge_integer",
            "nu_infinity", "q_nan"])
    def test_bad_model(self, workspace, tmp_path, capsys, text, reason):
        path = tmp_path / "m.json"
        path.write_text(text)
        code = run("quality", "--model", str(path),
                   "--input", str(workspace / "T.jsonl"),
                   "--out", str(tmp_path / "q.csv"))
        err = capsys.readouterr().err
        assert code == 65
        assert err.startswith(f"cva: {path}:{reason}" if reason[0].isdigit()
                              else f"cva: {path}: {reason}")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "q.csv").exists()

    def test_model_nested_too_deeply(self, workspace, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text('{"q":' * DEPTH + "{}" + "}" * DEPTH + "\n")
        code = run("quality", "--model", str(path),
                   "--input", str(workspace / "T.jsonl"),
                   "--out", str(tmp_path / "q.csv"))
        assert code == 65
        assert capsys.readouterr().err == \
            f"cva: {path}: invalid JSON: nested too deeply\n"
        assert not (tmp_path / "q.csv").exists()

    def test_profile_nested_too_deeply(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text("[" * DEPTH + "]" * DEPTH)
        code = run("map", "--profiles", str(path),
                   "--out", str(tmp_path / "map.csv"))
        assert code == 65
        assert capsys.readouterr().err == \
            f"cva: {path}: invalid JSON: nested too deeply\n"
        assert not (tmp_path / "map.csv").exists()

    def test_model_not_utf8(self, workspace, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_bytes(b'{"q": {}, "lambda": "\xff"}\n')
        code = run("profile", "--model", str(path),
                   "--input", str(workspace / "T.jsonl"),
                   "--out", str(tmp_path / "p.json"))
        assert code == 65
        assert capsys.readouterr().err == \
            f"cva: {path}:1: not UTF-8: byte 0xff at column 22\n"

    def test_profile_not_json(self, workspace, tmp_path, capsys):
        good = tmp_path / "good.json"
        assert run("profile", "--model", str(workspace / "model.json"),
                   "--input", str(workspace / "T.jsonl"),
                   "--out", str(good)) == 0
        bad = tmp_path / "bad.json"
        bad.write_text("community: c1\n")
        capsys.readouterr()
        code = run("map", "--profiles", str(good), str(bad),
                   "--out", str(tmp_path / "map.csv"))
        assert code == 65
        assert capsys.readouterr().err == \
            f"cva: {bad}:1: invalid JSON: Expecting value at column 1\n"

    @pytest.mark.parametrize("text", ["NaN", "Infinity", "1e400"])
    def test_profile_not_finite(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text('{"community": "c1", "herding_degree": 1.0, '
                       '"position_sensitivity": %s, "n_events": 5}\n' % text)
        code = run("map", "--profiles", str(bad),
                   "--out", str(tmp_path / "map.csv"))
        assert code == 65
        assert capsys.readouterr().err == \
            f"cva: {bad}: position_sensitivity: expected a finite number\n"

    def test_profile_missing_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"community": "c1", "herding_degree": 1.0}\n')
        code = run("map", "--profiles", str(bad),
                   "--out", str(tmp_path / "map.csv"))
        assert code == 65
        assert capsys.readouterr().err == \
            f"cva: {bad}: missing key 'position_sensitivity'\n"


@pytest.mark.parametrize("old, new, kind", [
    ("uniform", "zipf:nan", "zipf"),
    ("lognormal:6.0,0.5", "lognormal:6.0,inf", "lognormal"),
    ("lognormal:6.0,0.5", "lognormal:-inf,0.5", "lognormal"),
])
def test_sim_source_numbers_must_be_finite(tmp_path, capsys, old, new, kind):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(SIM_CFG.replace(old, new))
    code = run("simulate", "--config", str(cfg),
               "--out", str(tmp_path / "T.jsonl"),
               "--truth", str(tmp_path / "truth.csv"))
    assert code == 65
    assert capsys.readouterr().err == \
        f"cva: {cfg}: source '{kind}' needs finite numbers: '{new}'\n"


class TestNotUtf8:
    def test_labels(self, workspace, tmp_path, capsys):
        labels = tmp_path / "labels.csv"
        labels.write_bytes(b"answer_id,score,source\nq\xff,0.5,x\n")
        code = run("evaluate", "--input", str(workspace / "T.jsonl"),
                   "--model", str(workspace / "model.json"),
                   "--ablation", str(workspace / "ablation.json"),
                   "--labels", str(labels), "--out", str(tmp_path / "r.json"))
        assert code == 65
        assert capsys.readouterr().err == \
            f"cva: {labels}:2: not UTF-8: byte 0xff at column 2\n"

    def test_fit_config(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "fit.cfg"
        cfg.write_bytes(b"\xff\xfel2_weight = 1\n")
        code = run("fit", "--input", str(workspace / "T.jsonl"),
                   "--config", str(cfg), "--out", str(tmp_path / "m.json"))
        assert code == 65
        assert capsys.readouterr().err == \
            f"cva: {cfg}:1: not UTF-8: byte 0xff at column 1\n"
        assert not (tmp_path / "m.json").exists()


class TestEvaluateWithoutRankableQuestions:
    @pytest.mark.parametrize("rows", ["nope,0.5,synthetic_truth\n", ""],
                             ids=["unknown_answer", "header_only"])
    def test_exit_2(self, workspace, tmp_path, capsys, rows):
        labels = tmp_path / "labels.csv"
        labels.write_text("answer_id,score,source\n" + rows)
        code = run("evaluate", "--input", str(workspace / "T.jsonl"),
                   "--model", str(workspace / "model.json"),
                   "--ablation", str(workspace / "ablation.json"),
                   "--labels", str(labels), "--out", str(tmp_path / "r.json"))
        assert code == 2
        assert capsys.readouterr().err == (
            f"cva: {labels}: no questions with at least two scored "
            "answers\n")
        assert not (tmp_path / "r.json").exists()


class TestRankByQ:
    def test_report_ranks_by_fitted_quality(self, tmp_path):
        # Both answers' vote probabilities clip to 1 - 1e-12 in every
        # context, so their Q_hat are equal although q ranks a1 first.
        trajs = tmp_path / "T.jsonl"
        write_trajectories([QuestionTrajectory(
            "q0", (Answer("q0-a0", 0, 100), Answer("q0-a1", 1, 100)),
            ((0, 1, 100), (0, 1, 101), (1, 1, 102)))], trajs)
        model = CommunityModel(q={"q0": {"q0-a0": 40.0, "q0-a1": 50.0}},
                               nu={"q0": 0.0}, lam=1.0, beta=2.0)
        save_model(model, tmp_path / "model.json")
        truth = {"q0-a0": -0.5, "q0-a1": 0.5}
        labels = tmp_path / "labels.csv"
        labels.write_text("answer_id,score,source\n" + "".join(
            f"{aid},{score},synthetic_truth\n"
            for aid, score in truth.items()))
        reports = []
        for flags in ([], ["--rank-by-q"]):
            out = tmp_path / f"report{len(flags)}.json"
            assert run("evaluate", "--input", str(trajs),
                       "--model", str(tmp_path / "model.json"),
                       "--ablation", str(tmp_path / "model.json"),
                       "--labels", str(labels), "--out", str(out),
                       *flags) == 0
            reports.append(json.loads(out.read_text()))
        default, by_q = reports
        assert by_q == evaluate_rankers(read_trajectories(trajs), model,
                                        model, truth, seed=7,
                                        cva_score="q").to_json()
        assert by_q["per_question_tau"]["cva"] == [1.0]
        assert default["per_question_tau"]["cva"] == [-1.0]
