"""The per-question evaluation: one question, one ranker and one
comparison at a time, with one draw of the whole bootstrap matrix per
comparison, and every score looked up by (question_id, answer_id). Kept
as the reference that the grouped array kernels and the blockwise
bootstrap of `cva.evaluation` must match bit for bit."""

import math
from dataclasses import dataclass

import numpy as np

from conftest import quality_by_key
from cva.counterfactual import build_population
from cva.evaluation import (BOOTSTRAP_RESAMPLES, MIN_QUESTIONS_FOR_TEST,
                            RANKER_CVA, RANKER_NO_POSITION, RANKER_VOTE_DIFF,
                            RANKERS, EvaluationReport,
                            NoRankableQuestionsError, SignificanceResult)


@dataclass(frozen=True)
class RankingSet:
    """Tie-resolved 1-based rankings of one question's answers."""

    question_id: str
    answer_ids: tuple[str, ...]          # in creation order
    ranks: dict[str, list[int]]          # ranker -> ranks
    truth_ranks: list[int]


def rank_answers(scores):
    if len(scores) < 2:
        raise ValueError("need at least 2 answers to rank")
    if any(not math.isfinite(s) for s in scores):
        raise ValueError("scores must be finite")
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    ranks = [0] * len(scores)
    for position, i in enumerate(order, start=1):
        ranks[i] = position
    return ranks


def rank_zscores(ranks):
    arr = np.asarray(ranks, dtype=float)
    return (arr - arr.mean()) / arr.std()


def residual_to_diagonal(x, y):
    diff = np.asarray(y, dtype=float) - np.asarray(x, dtype=float)
    return float(diff @ diff)


def kendall_tau(a, b):
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


def paired_significance(deltas, seed):
    n = len(deltas)
    if n < MIN_QUESTIONS_FOR_TEST:
        return SignificanceResult(p=1.0, n=n, insufficient_data=True)
    rng = np.random.default_rng(seed)
    arr = np.asarray(deltas, dtype=float)
    idx = rng.integers(0, n, size=(BOOTSTRAP_RESAMPLES, n))
    means = arr[idx].mean(axis=1)
    p = max(float(np.mean(means <= 0.0)), 1.0 / BOOTSTRAP_RESAMPLES)
    return SignificanceResult(p=p, n=n)


def build_ranking_sets(questions, truth_scores, ranker_scores):
    sets = []
    skipped = 0
    for question_id, answers in questions:
        usable = [a.answer_id for a in answers
                  if a.answer_id in truth_scores
                  and all((question_id, a.answer_id) in scores
                          for scores in ranker_scores.values())]
        if len(usable) < 2:
            skipped += 1
            continue
        truth_ranks = rank_answers([truth_scores[aid] for aid in usable])
        ranks = {
            name: rank_answers([scores[(question_id, aid)]
                                for aid in usable])
            for name, scores in ranker_scores.items()
        }
        sets.append(RankingSet(question_id=question_id,
                               answer_ids=tuple(usable), ranks=ranks,
                               truth_ranks=truth_ranks))
    return sets, skipped


def score_rankings(sets, seed):
    rankers = list(sets[0].ranks.keys()) if sets else list(RANKERS)
    per_tau = {r: [] for r in rankers}
    per_res = {r: [] for r in rankers}
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

    p_values = {"tau": {}, "residual": {}}
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


def evaluate_rankers(community, model, ablation_model, truth_scores, seed,
                     cva_score="q_hat"):
    """`cva.evaluation.evaluate_rankers` composed from score dicts,
    `build_ranking_sets` and `score_rankings`."""
    population = build_population(community)
    diffs = {}
    for record in community:
        for j, sign, _ in record.events:
            key = (record.question_id, record.answers[j].answer_id)
            diffs[key] = diffs.get(key, 0) + sign
    diff_scores = {(record.question_id, a.answer_id):
                   float(diffs.get((record.question_id, a.answer_id), 0))
                   for record in community for a in record.answers}
    if cva_score == "q":
        cva_scores = {(qid, aid): q for qid, by_a in model.q.items()
                      for aid, q in by_a.items()}
    else:
        cva_scores = quality_by_key(model, community, population)
    ablation_scores = quality_by_key(ablation_model, community, population)
    sets, skipped = build_ranking_sets(
        [(record.question_id, record.answers) for record in community],
        truth_scores,
        {RANKER_VOTE_DIFF: diff_scores, RANKER_CVA: cva_scores,
         RANKER_NO_POSITION: ablation_scores})
    if not sets:
        raise NoRankableQuestionsError(
            "no questions with at least two scored answers")
    report = score_rankings(sets, seed)
    report.n_skipped += skipped
    return report
