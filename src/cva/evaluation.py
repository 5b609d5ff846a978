"""Ranking-quality evaluation against ground-truth labels.

Three rankers are compared per question: the platform's vote-difference
score, the debiased quality estimate, and the same estimate from a model
fitted with the position coefficient frozen at zero. Ranks are z-scored
so questions of different sizes pool, agreement is measured by Kendall
rank correlation and by squared residuals from the identity line, and
per-question differences feed a seeded paired bootstrap.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .counterfactual import build_population, estimate_quality
from .model import CommunityModel
from .trajectory import QuestionTrajectory, as_community

log = logging.getLogger(__name__)

RANKER_VOTE_DIFF = "vote_diff"
RANKER_CVA = "cva"
RANKER_NO_POSITION = "no_position"
RANKERS = (RANKER_VOTE_DIFF, RANKER_CVA, RANKER_NO_POSITION)
BASELINES = (RANKER_VOTE_DIFF, RANKER_NO_POSITION)

BOOTSTRAP_RESAMPLES = 10_000
MIN_QUESTIONS_FOR_TEST = 10


class NoRankableQuestionsError(ValueError):
    """No question is left to evaluate, e.g. no labels name its answers."""


def rank_answers(scores: Sequence[float]) -> list[int]:
    """1-based ranks by descending score; scores are listed in answer
    creation order and earlier creation wins ties."""
    if len(scores) < 2:
        raise ValueError("need at least 2 answers to rank")
    if any(not math.isfinite(s) for s in scores):
        raise ValueError("scores must be finite")
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    ranks = [0] * len(scores)
    for position, i in enumerate(order, start=1):
        ranks[i] = position
    return ranks


def rank_zscores(ranks: Sequence[int]) -> np.ndarray:
    """Center and scale ranks by their population standard deviation."""
    if len(ranks) < 2:
        raise ValueError("need at least 2 ranks")
    arr = np.asarray(ranks, dtype=float)
    return (arr - arr.mean()) / arr.std()


def residual_to_diagonal(x: Sequence[float], y: Sequence[float]) -> float:
    """Sum of squared vertical deviations of (x, y) points from y = x."""
    if len(x) != len(y):
        raise ValueError("length mismatch")
    diff = np.asarray(y, dtype=float) - np.asarray(x, dtype=float)
    return float(diff @ diff)


def kendall_tau(a: Sequence[float], b: Sequence[float]) -> float:
    """Tie-corrected Kendall rank correlation (the tau-b variant).

    (C - D) / sqrt(n0 - n1) / sqrt(n0 - n2) over all pairs, clipped to
    [-1, 1]: C and D count concordant and discordant pairs, n0 all pairs,
    n1 and n2 the pairs tied in a and in b. The pairs are compared all at
    once, so memory grows with the square of the length.
    """
    if len(a) != len(b):
        raise ValueError("length mismatch")
    if len(a) < 2:
        raise ValueError("need at least 2 items")
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    upper = np.triu_indices(len(x), k=1)
    dx = np.sign(x[:, None] - x[None, :])[upper]
    dy = np.sign(y[:, None] - y[None, :])[upper]
    tot = len(dx)
    xtie = tot - int(np.count_nonzero(dx))
    ytie = tot - int(np.count_nonzero(dy))
    if xtie == tot or ytie == tot:
        raise ValueError("tau undefined: one side is entirely tied")
    con_minus_dis = int(np.sum(dx * dy))
    tau = con_minus_dis / np.sqrt(tot - xtie) / np.sqrt(tot - ytie)
    return float(min(1.0, max(-1.0, tau)))


@dataclass(frozen=True)
class SignificanceResult:
    p: float
    n: int
    insufficient_data: bool = False


def paired_significance(deltas: Sequence[float], seed: int
                        ) -> SignificanceResult:
    """One-sided paired bootstrap on per-question differences.

    p is the fraction of resampled means that are <= 0 (against the
    "improvement is positive" alternative), floored at one resample.
    Fewer than 10 questions cannot support the test and report p = 1.
    """
    n = len(deltas)
    if n < MIN_QUESTIONS_FOR_TEST:
        return SignificanceResult(p=1.0, n=n, insufficient_data=True)
    rng = np.random.default_rng(seed)
    arr = np.asarray(deltas, dtype=float)
    idx = rng.integers(0, n, size=(BOOTSTRAP_RESAMPLES, n))
    means = arr[idx].mean(axis=1)
    p = max(float(np.mean(means <= 0.0)), 1.0 / BOOTSTRAP_RESAMPLES)
    return SignificanceResult(p=p, n=n)


@dataclass(frozen=True)
class RankingSet:
    """Tie-resolved 1-based rankings of one question's answers."""

    question_id: str
    answer_ids: tuple[str, ...]          # in creation order
    ranks: dict[str, list[int]]          # ranker -> ranks
    truth_ranks: list[int]


@dataclass
class EvaluationReport:
    n_questions: int
    n_skipped: int
    per_question_tau: dict[str, list[float]]
    mean_tau: dict[str, float]
    residual_sum: dict[str, float]
    p_values: dict[str, dict[str, float]]   # metric -> baseline -> p
    insufficient_data: bool = False

    def to_json(self) -> dict:
        return {
            "n_questions": self.n_questions,
            "n_skipped": self.n_skipped,
            "mean_tau": dict(self.mean_tau),
            "residual_sum": dict(self.residual_sum),
            "p_values": {m: dict(by_b) for m, by_b in self.p_values.items()},
            "per_question_tau": {r: list(v)
                                 for r, v in self.per_question_tau.items()},
            "insufficient_data": self.insufficient_data,
        }


def build_ranking_sets(trajectories: Sequence[QuestionTrajectory],
                       truth_scores: Mapping[str, float],
                       ranker_scores: Mapping[str, Mapping[tuple[str, str],
                                                           float]]
                       ) -> tuple[list[RankingSet], int]:
    """Rank each question's answers under every ranker and the truth.

    Answers must carry a truth score and a score from every ranker;
    questions left with fewer than two such answers are skipped.
    Returns (ranking sets, skipped count).
    """
    sets: list[RankingSet] = []
    skipped = 0
    for traj in trajectories:
        usable = [a.answer_id for a in traj.answers
                  if a.answer_id in truth_scores
                  and all((traj.question_id, a.answer_id) in scores
                          for scores in ranker_scores.values())]
        if len(usable) < 2:
            skipped += 1
            continue
        truth_ranks = rank_answers([truth_scores[aid] for aid in usable])
        ranks = {
            name: rank_answers([scores[(traj.question_id, aid)]
                                for aid in usable])
            for name, scores in ranker_scores.items()
        }
        sets.append(RankingSet(question_id=traj.question_id,
                               answer_ids=tuple(usable), ranks=ranks,
                               truth_ranks=truth_ranks))
    return sets, skipped


def score_rankings(sets: Sequence[RankingSet], seed: int
                   ) -> EvaluationReport:
    """Aggregate per-question metrics into an evaluation report."""
    rankers = list(sets[0].ranks.keys()) if sets else list(RANKERS)
    per_tau: dict[str, list[float]] = {r: [] for r in rankers}
    per_res: dict[str, list[float]] = {r: [] for r in rankers}
    skipped = 0
    for rs in sets:
        try:
            taus = {r: kendall_tau(rs.ranks[r], rs.truth_ranks)
                    for r in rankers}
        except ValueError:
            skipped += 1
            continue
        truth_z = rank_zscores(rs.truth_ranks)
        for r in rankers:
            per_tau[r].append(taus[r])
            per_res[r].append(residual_to_diagonal(
                truth_z, rank_zscores(rs.ranks[r])))

    n = len(per_tau[rankers[0]]) if rankers else 0
    if n == 0:
        raise NoRankableQuestionsError(
            "no questions with evaluable rankings")
    mean_tau = {r: float(np.mean(per_tau[r])) for r in rankers}
    residual_sum = {r: float(np.sum(per_res[r])) for r in rankers}

    p_values: dict[str, dict[str, float]] = {"tau": {}, "residual": {}}
    insufficient = False
    for base in (r for r in rankers if r != RANKER_CVA):
        if RANKER_CVA not in per_tau:
            break
        tau_deltas = [c - b for c, b in zip(per_tau[RANKER_CVA],
                                            per_tau[base])]
        res_deltas = [b - c for c, b in zip(per_res[RANKER_CVA],
                                            per_res[base])]
        tau_sig = paired_significance(tau_deltas, seed)
        res_sig = paired_significance(res_deltas, seed)
        p_values["tau"][base] = tau_sig.p
        p_values["residual"][base] = res_sig.p
        insufficient = insufficient or tau_sig.insufficient_data
    return EvaluationReport(n_questions=n, n_skipped=skipped,
                            per_question_tau=per_tau, mean_tau=mean_tau,
                            residual_sum=residual_sum, p_values=p_values,
                            insufficient_data=insufficient)


def evaluate_rankers(trajectories: Sequence[QuestionTrajectory],
                     model: CommunityModel,
                     ablation_model: CommunityModel,
                     truth_scores: Mapping[str, float],
                     seed: int,
                     cva_score: str = "q_hat") -> EvaluationReport:
    """Full pipeline: score, rank and compare the three rankers.

    cva_score "q_hat" ranks by the debiased estimate (default); "q" ranks
    by the raw fitted quality.
    """
    if cva_score not in ("q_hat", "q"):
        raise ValueError(f"unknown cva_score {cva_score!r}")
    community = as_community(trajectories)
    population = build_population(community)
    diffs = np.bincount(community.answer_slot, weights=community.sign,
                        minlength=community.n_answers)
    diff_scores = dict(zip(community.answer_keys, diffs.tolist()))

    if cva_score == "q":
        cva_scores = {(qid, aid): q for qid, by_a in model.q.items()
                      for aid, q in by_a.items()}
    else:
        cva_scores = estimate_quality(model, community, population)
    ablation_scores = estimate_quality(ablation_model, community,
                                       population)

    # ranking reads each question's answers, not its votes
    questions = [QuestionTrajectory(qid, answers, ())
                 for qid, answers in zip(community.question_ids,
                                         community.answers)]
    sets, n_unrankable = build_ranking_sets(
        questions, truth_scores,
        {RANKER_VOTE_DIFF: diff_scores, RANKER_CVA: cva_scores,
         RANKER_NO_POSITION: ablation_scores})
    if not sets:
        raise NoRankableQuestionsError(
            "no questions with at least two scored answers")
    report = score_rankings(sets, seed)
    report.n_skipped += n_unrankable
    return report


def winrates(reports: Sequence[tuple[str, EvaluationReport]]) -> list[dict]:
    """Share of communities where the debiased ranker strictly wins.

    One row per (metric, comparison); higher tau wins, lower residual
    wins, ties never count as wins.
    """
    if not reports:
        raise ValueError("need at least one community report")
    comparisons = [("vs_vote_diff", (RANKER_VOTE_DIFF,)),
                   ("vs_no_position", (RANKER_NO_POSITION,)),
                   ("vs_both", (RANKER_VOTE_DIFF, RANKER_NO_POSITION))]
    rows = []
    for metric in ("kt", "res"):
        for name, bases in comparisons:
            wins = 0
            for _, rep in reports:
                if metric == "kt":
                    ok = all(rep.mean_tau[RANKER_CVA] > rep.mean_tau[b]
                             for b in bases)
                else:
                    ok = all(rep.residual_sum[RANKER_CVA]
                             < rep.residual_sum[b] for b in bases)
                wins += ok
            rows.append({"metric": metric, "comparison": name,
                         "win_rate_pct": 100.0 * wins / len(reports)})
    return rows
