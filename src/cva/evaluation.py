"""Ranking-quality evaluation against ground-truth labels.

Three rankers are compared per question: the platform's vote-difference
score, the debiased quality estimate, and the same estimate from a model
fitted with the position coefficient frozen at zero. Ranks are z-scored
so questions of different sizes pool, agreement is measured by Kendall
rank correlation and by squared residuals from the identity line, and
per-question differences feed a seeded paired bootstrap. Questions with
the same number of answers are ranked and scored together, as arrays.
"""

from __future__ import annotations

import logging
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
# Entries per block of bootstrap indices or rank pairs, 512 KiB as
# int64 or float64: the temporaries of `evaluate` stay this small
# whatever the number of questions.
_BLOCK_ENTRIES = 1 << 16


class NoRankableQuestionsError(ValueError):
    """No question is left to evaluate, e.g. no labels name its answers."""


def _ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks along the last axis by descending score; the earlier
    position wins ties."""
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    order = np.argsort(-scores, axis=-1, kind="stable")
    return np.argsort(order, axis=-1) + 1


def _zscores(ranks: np.ndarray) -> np.ndarray:
    """Ranks centred and scaled by their population standard deviation
    along the last axis."""
    return ((ranks - ranks.mean(axis=-1, keepdims=True))
            / ranks.std(axis=-1, keepdims=True))


def _residuals(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Squared deviations of y from x summed along the last axis.
    `np.vecdot` reduces each row with the dot product that `diff @ diff`
    uses for one row, so the rows of a stack equal one-row calls."""
    diff = y - x
    return np.vecdot(diff, diff)


def _tau_b(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Tie-corrected Kendall rank correlation of each row of x with the
    same row of y, both (m, k); NaN where either row is entirely tied.

    (C - D) / sqrt(n0 - n1) / sqrt(n0 - n2) over all pairs, clipped to
    [-1, 1]: C and D count concordant and discordant pairs, n0 all pairs,
    n1 and n2 the pairs tied in x and in y. Rows are compared in blocks
    of at most _BLOCK_ENTRIES pairs.
    """
    i, j = np.triu_indices(x.shape[1], k=1)
    tau = np.full(len(x), np.nan)
    step = max(1, _BLOCK_ENTRIES // len(i))
    for lo in range(0, len(x), step):
        rows = slice(lo, lo + step)
        dx = np.sign(x[rows, i] - x[rows, j])
        dy = np.sign(y[rows, i] - y[rows, j])
        untied_x = np.count_nonzero(dx, axis=1)
        untied_y = np.count_nonzero(dy, axis=1)
        ok = (untied_x > 0) & (untied_y > 0)
        con_minus_dis = np.sum(dx[ok] * dy[ok], axis=1)
        tau[rows][ok] = np.clip(con_minus_dis / np.sqrt(untied_x[ok])
                                / np.sqrt(untied_y[ok]), -1.0, 1.0)
    return tau


def rank_answers(scores: Sequence[float]) -> list[int]:
    """1-based ranks by descending score; scores are listed in answer
    creation order and earlier creation wins ties."""
    if len(scores) < 2:
        raise ValueError("need at least 2 answers to rank")
    return _ranks(np.asarray(scores, dtype=float)).tolist()


def rank_zscores(ranks: Sequence[int]) -> np.ndarray:
    """Center and scale ranks by their population standard deviation."""
    if len(ranks) < 2:
        raise ValueError("need at least 2 ranks")
    return _zscores(np.asarray(ranks, dtype=float))


def residual_to_diagonal(x: Sequence[float], y: Sequence[float]) -> float:
    """Sum of squared vertical deviations of (x, y) points from y = x."""
    if len(x) != len(y):
        raise ValueError("length mismatch")
    return float(_residuals(np.asarray(x, dtype=float),
                            np.asarray(y, dtype=float)))


def kendall_tau(a: Sequence[float], b: Sequence[float]) -> float:
    """Tie-corrected Kendall rank correlation (the tau-b variant) of two
    equally long sequences; see `_tau_b`."""
    if len(a) != len(b):
        raise ValueError("length mismatch")
    if len(a) < 2:
        raise ValueError("need at least 2 items")
    tau = _tau_b(np.asarray([a], dtype=float), np.asarray([b], dtype=float))
    if np.isnan(tau[0]):
        raise ValueError("tau undefined: one side is entirely tied")
    return float(tau[0])


@dataclass(frozen=True)
class SignificanceResult:
    p: float
    n: int
    insufficient_data: bool = False


def paired_significance(deltas: Sequence[float] | np.ndarray, seed: int
                        ) -> SignificanceResult | list[SignificanceResult]:
    """One-sided paired bootstrap on per-question differences.

    `deltas` is one vector of differences, or a 2-D array with one row
    per comparison; a 2-D call returns one SignificanceResult per row,
    and every row is resampled with the same draws. p is the fraction of
    resampled means that are <= 0 (against the "improvement is positive"
    alternative), floored at one resample. Fewer than 10 questions cannot
    support the test and report p = 1.

    The BOOTSTRAP_RESAMPLES x n resample indices are drawn from the
    seeded generator in blocks of rows of at most _BLOCK_ENTRIES indices.
    The blocks continue one stream, so they hold the indices one draw of
    the whole matrix would, and each resample's mean is reduced on its
    own row: the p-values equal those of the whole matrix at bounded
    memory.
    """
    arr = np.asarray(deltas, dtype=float)
    rows = np.atleast_2d(arr)
    n = rows.shape[1]
    if n < MIN_QUESTIONS_FOR_TEST:
        results = [SignificanceResult(p=1.0, n=n, insufficient_data=True)
                   for _ in rows]
    else:
        rng = np.random.default_rng(seed)
        at_most_zero = [0] * len(rows)
        block = max(1, _BLOCK_ENTRIES // n)
        for start in range(0, BOOTSTRAP_RESAMPLES, block):
            rows_drawn = min(block, BOOTSTRAP_RESAMPLES - start)
            idx = rng.integers(0, n, size=(rows_drawn, n))
            for r, row in enumerate(rows):
                at_most_zero[r] += int(np.count_nonzero(
                    row[idx].mean(axis=1) <= 0.0))
        results = [SignificanceResult(
            p=max(count / BOOTSTRAP_RESAMPLES, 1.0 / BOOTSTRAP_RESAMPLES),
            n=n) for count in at_most_zero]
    return results if arr.ndim == 2 else results[0]


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


def _by_length(lengths: Sequence[int]) -> dict[int, list[int]]:
    """Positions grouped by their length, in order within each group."""
    groups: dict[int, list[int]] = {}
    for pos, k in enumerate(lengths):
        groups.setdefault(k, []).append(pos)
    return groups


def build_ranking_sets(trajectories: Sequence[QuestionTrajectory],
                       truth_scores: Mapping[str, float],
                       ranker_scores: Mapping[str, Mapping[tuple[str, str],
                                                           float]]
                       ) -> tuple[list[RankingSet], int]:
    """Rank each question's answers under every ranker and the truth.

    Answers must carry a truth score and a score from every ranker;
    questions left with fewer than two such answers are skipped.
    Questions with the same number of answers are ranked together.
    Returns (ranking sets, skipped count).
    """
    names = list(ranker_scores)
    score_maps = list(ranker_scores.values())
    kept: list[tuple[str, tuple[str, ...]]] = []
    for traj in trajectories:
        qid = traj.question_id
        usable = tuple(a.answer_id for a in traj.answers
                       if a.answer_id in truth_scores
                       and all((qid, a.answer_id) in scores
                               for scores in score_maps))
        if len(usable) >= 2:
            kept.append((qid, usable))
    sets: list[RankingSet] = [None] * len(kept)
    for members in _by_length([len(u) for _, u in kept]).values():
        # (truth + rankers, questions, answers)
        scores = np.array(
            [[[truth_scores[aid] for aid in kept[pos][1]]
              for pos in members]]
            + [[[by_key[(kept[pos][0], aid)] for aid in kept[pos][1]]
                for pos in members] for by_key in score_maps],
            dtype=float)
        ranks = _ranks(scores).tolist()
        for row, pos in enumerate(members):
            qid, usable = kept[pos]
            sets[pos] = RankingSet(
                question_id=qid, answer_ids=usable,
                ranks={name: ranks[1 + r][row]
                       for r, name in enumerate(names)},
                truth_ranks=ranks[0][row])
    return sets, len(trajectories) - len(kept)


def score_rankings(sets: Sequence[RankingSet], seed: int
                   ) -> EvaluationReport:
    """Aggregate per-question metrics into an evaluation report.

    Questions with the same number of answers are scored together. A
    question whose ranking or truth is entirely tied under some ranker
    (tau undefined), or whose rankings differ in length, is skipped.
    """
    rankers = list(sets[0].ranks.keys()) if sets else list(RANKERS)
    tau = np.full((len(rankers), len(sets)), np.nan)
    res = np.full((len(rankers), len(sets)), np.nan)
    lengths = [len(rs.truth_ranks)
               if all(len(rs.ranks[r]) == len(rs.truth_ranks)
                      for r in rankers) else 0
               for rs in sets]
    for k, members in _by_length(lengths).items():
        if k < 2 or not rankers:
            continue
        truth = np.array([sets[pos].truth_ranks for pos in members],
                         dtype=float)
        ranks = np.array([[sets[pos].ranks[r] for pos in members]
                          for r in rankers], dtype=float)
        taus = np.array([_tau_b(by_ranker, truth) for by_ranker in ranks])
        ok = ~np.isnan(taus).any(axis=0)
        cols = np.asarray(members)[ok]
        tau[:, cols] = taus[:, ok]
        res[:, cols] = _residuals(_zscores(truth[ok]), _zscores(ranks[:, ok]))
    scored = ~np.isnan(tau).any(axis=0)
    per_tau = {r: tau[i, scored] for i, r in enumerate(rankers)}
    per_res = {r: res[i, scored] for i, r in enumerate(rankers)}

    n = int(np.count_nonzero(scored)) if rankers else 0
    if n == 0:
        raise NoRankableQuestionsError(
            "no questions with evaluable rankings")
    mean_tau = {r: float(np.mean(per_tau[r])) for r in rankers}
    residual_sum = {r: float(np.sum(per_res[r])) for r in rankers}

    p_values: dict[str, dict[str, float]] = {"tau": {}, "residual": {}}
    bases = [r for r in rankers if r != RANKER_CVA] \
        if RANKER_CVA in rankers else []
    insufficient = False
    if bases:
        # rows: tau, then residual, difference of each baseline
        deltas = np.array([delta for base in bases for delta in (
            per_tau[RANKER_CVA] - per_tau[base],
            per_res[base] - per_res[RANKER_CVA])])
        sig = paired_significance(deltas, seed)
        for b, base in enumerate(bases):
            p_values["tau"][base] = sig[2 * b].p
            p_values["residual"][base] = sig[2 * b + 1].p
        insufficient = sig[0].insufficient_data
    return EvaluationReport(n_questions=n, n_skipped=len(sets) - n,
                            per_question_tau={r: v.tolist()
                                              for r, v in per_tau.items()},
                            mean_tau=mean_tau, residual_sum=residual_sum,
                            p_values=p_values,
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
