"""Batch command-line front end.

Wires ingestion, fitting, simulation, quality estimation, bias profiling,
counterfactual queries and evaluation into reproducible runs. All outputs
are plain JSON/JSONL/CSV, every seeded command is bit-reproducible, and
exit codes follow the sysexits convention (64 usage, 65 malformed input
file, 66 unreadable input) plus 2 for a community rejected as too small,
left without training events, without votes to score or without a
question to evaluate, and 3 for a fit that did not converge.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import logging
import sys
from pathlib import Path
from typing import Callable

from .bias import NoEventsToScoreError, load_profile, map_coordinates, \
    profile_community, save_profile
from .configio import InputError, finite_float, write_json
from .counterfactual import MOODS, build_population, counterfactual_curve, \
    estimate_quality, fit_power_law
from .evaluation import NoRankableQuestionsError, evaluate_rankers
from .ingest import RejectLog, apply_filters, load_labels, parse_dump
from .model import load_model, save_model
from .simulate import LengthOverflowError, generate, parse_sim_config, \
    scale_truth
from .trainer import FitConfig, NoTrainingEventsError, TOY_TICKS, fit, \
    parse_fit_config, toy_quality_curves
from .trajectory import MalformedTrajectoryError, read_trajectories, \
    write_trajectories

EX_OK = 0
EX_COMMUNITY_TOO_SMALL = 2
EX_NON_CONVERGENCE = 3
EX_USAGE = 64
EX_DATAERR = 65
EX_NOINPUT = 66

log = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits with the sysexits usage code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(EX_USAGE)


def _int_at_least(low: int) -> Callable[[str], int]:
    """An option type: an integer >= `low`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


def _write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# --- subcommand implementations -----------------------------------------


def _cmd_ingest(args) -> int:
    rejects = RejectLog()
    parsed = parse_dump(args.posts, args.votes, args.posthistory,
                        rejects=rejects)
    report = apply_filters(parsed, min_answers=args.min_answers,
                           min_questions=args.min_questions)
    write_trajectories(report.trajectories, args.out)
    if args.reject_log:
        rejects.write(args.reject_log)
    for key, value in report.counts.items():
        print(f"{key}: {value}")
    if not report.community_ok:
        print(f"community too small: {report.counts['surviving']} "
              f"questions < {report.min_questions}", file=sys.stderr)
        return EX_COMMUNITY_TOO_SMALL
    return EX_OK


def _cmd_fit(args) -> int:
    config = parse_fit_config(args.config) if args.config else FitConfig()
    if args.freeze_beta is not None:
        config = dataclasses.replace(config, freeze_beta=args.freeze_beta)
    trajs = read_trajectories(args.input)
    try:
        model = fit(trajs, config)
    except NoTrainingEventsError:
        print(f"cva: {args.input}: no training events", file=sys.stderr)
        return EX_COMMUNITY_TOO_SMALL
    save_model(model, args.out)
    meta = model.fit_meta
    print(f"iterations: {meta['iterations']}")
    print(f"objective: {meta['objective']:.6f}")
    print(f"final_grad_norm: {meta['final_grad_norm']:.3e}")
    if not meta["converged"]:
        print("fit did not converge", file=sys.stderr)
        return EX_NON_CONVERGENCE
    return EX_OK


def _cmd_quality(args) -> int:
    model = load_model(args.model)
    trajs = read_trajectories(args.input)
    population = build_population(trajs)
    aggregate = "per_time_sum" if args.mode == "per-time-sum" else "mean"
    modelled, q_hat = estimate_quality(
        model, trajs, population, aggregate=aggregate,
        integrate_length=args.integrate_length == "true")
    _, q, _ = model.by_slot(trajs)
    # answer keys are distinct: the rows sort by (question_id, answer_id)
    rows = sorted((*key, q_s, value) for key, has, q_s, value in zip(
        trajs.answer_keys, modelled.tolist(), q.tolist(), q_hat.tolist())
        if has)
    _write_csv(args.out, ["question_id", "answer_id", "q", "Q_hat"], rows)
    print(f"answers scored: {len(rows)}")
    return EX_OK


def _cmd_simulate(args) -> int:
    config = parse_sim_config(args.config)
    try:
        community, truth = generate(config)
    except LengthOverflowError as exc:
        raise InputError(args.config, str(exc)) from None
    write_trajectories(community, args.out)
    scaled = scale_truth(truth)
    _write_csv(args.truth, ["answer_id", "score", "source"],
               [(aid, scaled[aid], "synthetic_truth")
                for aid in sorted(scaled)])
    print(f"questions: {len(community)}")
    print(f"answers: {len(truth)}")
    print(f"votes: {len(community.sign)}")
    return EX_OK


def _cmd_toy(args) -> int:
    name = {"1a": "s1a", "1b": "s1b", "2": "s2"}[args.scenario]
    rows = toy_quality_curves(name)
    _write_csv(args.out, ["tick", "question_id", "answer_id", "quality"],
               [(r["tick"], r["question_id"], r["answer_id"], r["quality"])
                for r in rows])
    final = max(TOY_TICKS)
    for r in rows:
        if r["tick"] == final:
            print(f"{r['question_id']}/{r['answer_id']}: "
                  f"{r['quality']:.4f}")
    return EX_OK


def _cmd_profile(args) -> int:
    model = load_model(args.model)
    trajs = read_trajectories(args.input)
    community = args.community or Path(args.input).stem
    profile = profile_community(model, trajs, community=community)
    save_profile(profile, args.out)
    print(f"position_sensitivity: {profile.position_sensitivity:.6f}")
    print(f"herding_degree: {profile.herding_degree:.6f}")
    return EX_OK


def _cmd_map(args) -> int:
    profiles = [load_profile(p) for p in args.profiles]
    rows, (herding_median, position_median) = map_coordinates(profiles)
    out_rows = [(r["community"], r["herding_degree"],
                 r["position_sensitivity"], r["above_median_herding"],
                 r["above_median_position"]) for r in rows]
    out_rows.append(("MEDIAN", herding_median, position_median, "", ""))
    _write_csv(args.out, ["community", "herding_degree",
                          "position_sensitivity", "above_median_herding",
                          "above_median_position"], out_rows)
    print(f"communities: {len(profiles)}")
    print(f"medians: herding={herding_median:.6f} "
          f"position={position_median:.6f}")
    return EX_OK


def _cmd_counterfactual(args) -> int:
    model = load_model(args.model)
    trajs = read_trajectories(args.input)
    curve_rows = []
    fits = {}
    for mood in MOODS:
        result = counterfactual_curve(model, trajs, ranks=args.ranks,
                                      mood=mood)
        if result.empty:
            print(f"mood {mood}: no qualifying answers", file=sys.stderr)
            continue
        for rank, p in result.points:
            curve_rows.append((rank, mood, p))
        pl = fit_power_law(result.points)
        fits[mood] = {"b": pl.b, "c": pl.c, "sse": pl.sse,
                      "n_answers": result.n_answers}
    _write_csv(args.out, ["rank", "mood", "p"], curve_rows)
    powerlaw_out = args.powerlaw_out or str(
        Path(args.out).with_suffix("")) + "_powerlaw.json"
    write_json(powerlaw_out, fits)
    for mood, f in fits.items():
        print(f"{mood}: b={f['b']:.4f} c={f['c']:.4f} sse={f['sse']:.3e}")
    return EX_OK


def _cmd_evaluate(args) -> int:
    trajs = read_trajectories(args.input)
    model = load_model(args.model)
    ablation = load_model(args.ablation)
    labels = load_labels(args.labels)
    truth_scores = {aid: lbl.score for aid, lbl in labels.items()}
    try:
        report = evaluate_rankers(trajs, model, ablation, truth_scores,
                                  seed=args.seed,
                                  cva_score="q" if args.rank_by_q
                                  else "q_hat")
    except NoRankableQuestionsError as exc:
        print(f"cva: {args.labels}: {exc}", file=sys.stderr)
        return EX_COMMUNITY_TOO_SMALL
    write_json(args.out, report.to_json())
    for ranker, tau in report.mean_tau.items():
        print(f"mean_tau[{ranker}]: {tau:.4f}")
    for ranker, res in report.residual_sum.items():
        print(f"residual_sum[{ranker}]: {res:.4f}")
    return EX_OK


# --- argument wiring -----------------------------------------------------


@functools.cache
def build_parser() -> _Parser:
    """The `cva` parser, built once per process: each `main` call parses
    into a fresh namespace."""
    parser = _Parser(prog="cva",
                     description="Debiased quality estimation for "
                                 "helpfulness-vote trajectories")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("ingest", help="parse a StackExchange dump into "
                                      "trajectory JSONL")
    p.add_argument("--posts", required=True)
    p.add_argument("--votes", required=True)
    p.add_argument("--posthistory", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--min-answers", type=int, default=5)
    p.add_argument("--min-questions", type=int, default=100)
    p.add_argument("--reject-log", default=None)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("fit", help="fit a community model")
    p.add_argument("--input", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--freeze-beta", type=finite_float, default=None,
                   help="hold the position coefficient at this value "
                        "(0 gives the no-position ablation)")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("quality", help="debiased quality estimates")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--mode", choices=["mean", "per-time-sum"],
                   default="mean")
    p.add_argument("--integrate-length", choices=["false", "true"],
                   default="false")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_quality)

    p = sub.add_parser("simulate", help="generate semi-synthetic "
                                        "trajectories")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--truth", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("toy", help="prefix-refit quality curves for a toy "
                                   "scenario")
    p.add_argument("--scenario", choices=["1a", "1b", "2"], required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_toy)

    p = sub.add_parser("profile", help="community bias profile")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--community", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("map", help="bias-map coordinates for several "
                                   "communities")
    p.add_argument("--profiles", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_map)

    p = sub.add_parser("counterfactual", help="rank/mood what-if curves")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    # the power-law fit needs at least 3 curve points
    p.add_argument("--ranks", type=_int_at_least(3), default=10,
                   help="curve length, at least 3")
    p.add_argument("--out", required=True)
    p.add_argument("--powerlaw-out", default=None)
    p.set_defaults(func=_cmd_counterfactual)

    p = sub.add_parser("evaluate", help="compare rankers against labels")
    p.add_argument("--input", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--ablation", required=True)
    p.add_argument("--labels", required=True)
    # numpy's generators take no negative seed
    p.add_argument("--seed", type=_int_at_least(0), default=7,
                   help="seed of the paired bootstrap, at least 0")
    p.add_argument("--rank-by-q", action="store_true",
                   help="rank by raw fitted quality instead of the "
                        "debiased estimate")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_evaluate)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"cva: cannot access {exc.filename}: {exc.strerror}",
              file=sys.stderr)
        return EX_NOINPUT
    except (InputError, MalformedTrajectoryError) as exc:
        print(f"cva: {exc}", file=sys.stderr)
        return EX_DATAERR
    except NoEventsToScoreError:  # quality, profile and evaluate
        print(f"cva: {args.input}: no votes to score", file=sys.stderr)
        return EX_COMMUNITY_TOO_SMALL


if __name__ == "__main__":
    sys.exit(main())
