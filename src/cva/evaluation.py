"""Ranking-quality evaluation against ground-truth labels.

Three rankers are compared per question: the platform's vote-difference
score, the debiased quality estimate, and the same estimate from a model
fitted with the position coefficient frozen at zero. Ranks are z-scored
so questions of different sizes pool, agreement is measured by Kendall
rank correlation and by squared residuals from the identity line, and
per-question differences feed a seeded paired bootstrap. Every score is
held by answer slot, and questions with the same number of usable
answers are ranked and scored together, as arrays.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

import numpy as np

from .counterfactual import build_population, estimate_quality
from .model import CommunityModel
from .trajectory import Community

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
        return asdict(self)


def evaluate_rankers(community: Community,
                     model: CommunityModel,
                     ablation_model: CommunityModel,
                     truth_scores: Mapping[str, float],
                     seed: int,
                     cva_score: str = "q_hat") -> EvaluationReport:
    """Full pipeline: score, rank and compare the three rankers.

    cva_score "q_hat" ranks by the debiased estimate (default); "q" ranks
    by the raw fitted quality. An answer is usable if it has a truth
    score and a score from every ranker; a question with fewer than two
    usable answers is skipped. Questions with the same number of usable
    answers are ranked and scored together.
    """
    if cva_score not in ("q_hat", "q"):
        raise ValueError(f"unknown cva_score {cva_score!r}")
    c = community
    population = build_population(c)
    labels = [truth_scores.get(aid) for _, aid in c.answer_keys]
    truth = np.array([0.0 if v is None else v for v in labels], dtype=float)
    has_truth = np.array([v is not None for v in labels], dtype=bool)
    diffs = np.bincount(c.answer_slot, weights=c.sign, minlength=c.n_answers)
    if cva_score == "q":
        has_cva, cva, _ = model.by_slot(c)
    else:
        has_cva, cva = estimate_quality(model, c, population)
    has_ablation, ablation = estimate_quality(ablation_model, c, population)
    # (truth + rankers in RANKERS order, answer slots)
    scores = np.array([truth, diffs, cva, ablation])
    usable = has_truth & has_cva & has_ablation

    # the usable slots of the kept questions, question by question
    counts = np.bincount(c.answer_question[usable], minlength=len(c))
    kept = counts[counts >= 2]
    if not len(kept):
        raise NoRankableQuestionsError(
            "no questions with at least two scored answers")
    slots = np.flatnonzero(usable & (counts >= 2)[c.answer_question])
    starts = np.cumsum(kept) - kept
    tau = np.empty((len(RANKERS), len(kept)))
    res = np.empty((len(RANKERS), len(kept)))
    for k in np.unique(kept).tolist():
        members = np.flatnonzero(kept == k)
        ranks = _ranks(scores[:, slots[starts[members, None]
                                       + np.arange(k)]]).astype(float)
        truth_ranks, by_ranker = ranks[0], ranks[1:]
        tau[:, members] = [_tau_b(r, truth_ranks) for r in by_ranker]
        res[:, members] = _residuals(_zscores(truth_ranks),
                                     _zscores(by_ranker))
    per_tau = dict(zip(RANKERS, tau))
    per_res = dict(zip(RANKERS, res))

    # rows: tau, then residual, difference of each baseline
    deltas = np.array([delta for base in BASELINES for delta in (
        per_tau[RANKER_CVA] - per_tau[base],
        per_res[base] - per_res[RANKER_CVA])])
    sig = paired_significance(deltas, seed)
    return EvaluationReport(
        n_questions=len(kept), n_skipped=len(c) - len(kept),
        per_question_tau={r: v.tolist() for r, v in per_tau.items()},
        mean_tau={r: float(np.mean(v)) for r, v in per_tau.items()},
        residual_sum={r: float(np.sum(v)) for r, v in per_res.items()},
        p_values={"tau": {base: sig[2 * b].p
                          for b, base in enumerate(BASELINES)},
                  "residual": {base: sig[2 * b + 1].p
                               for b, base in enumerate(BASELINES)}},
        insufficient_data=sig[0].insufficient_data)


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
