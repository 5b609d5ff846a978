import itertools
import math

import numpy as np
import pytest

from cva.evaluation import (EvaluationReport, build_ranking_sets,
                            evaluate_rankers, kendall_tau,
                            paired_significance, rank_answers, rank_zscores,
                            residual_to_diagonal, score_rankings, winrates)
from cva.model import CommunityModel
from cva.trajectory import Answer, QuestionTrajectory, VoteEvent


def brute_force_tau_b(a, b):
    """O(n^2) pair counting with the standard tie correction."""
    n = len(a)
    concordant = discordant = ties_a = ties_b = 0
    for i, j in itertools.combinations(range(n), 2):
        da, db = a[i] - a[j], b[i] - b[j]
        if da == 0 and db == 0:
            ties_a += 1
            ties_b += 1
        elif da == 0:
            ties_a += 1
        elif db == 0:
            ties_b += 1
        elif (da > 0) == (db > 0):
            concordant += 1
        else:
            discordant += 1
    n0 = n * (n - 1) / 2
    denom = math.sqrt((n0 - ties_a) * (n0 - ties_b))
    return (concordant - discordant) / denom


class TestRankAnswers:
    def test_descending_scores(self):
        assert rank_answers([3.0, 1.0, 2.0]) == [1, 3, 2]

    def test_all_equal_falls_back_to_creation_order(self):
        assert rank_answers([1.0, 1.0, 1.0, 1.0]) == [1, 2, 3, 4]

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            rank_answers([1.0, float("nan")])
        with pytest.raises(ValueError):
            rank_answers([1.0, float("inf")])

    def test_needs_two(self):
        with pytest.raises(ValueError):
            rank_answers([1.0])


class TestRankZscores:
    def test_three_ranks(self):
        z = rank_zscores([1, 2, 3])
        assert z == pytest.approx([-1.224745, 0.0, 1.224745], abs=1e-6)

    def test_two_ranks(self):
        assert rank_zscores([1, 2]) == pytest.approx([-1.0, 1.0])

    def test_zero_mean_unit_variance(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 12))
            perm = rng.permutation(n) + 1
            z = rank_zscores(list(perm))
            assert abs(z.mean()) < 1e-12
            assert abs(z.var() - 1.0) < 1e-12

    def test_needs_two(self):
        with pytest.raises(ValueError):
            rank_zscores([1])


class TestResidualToDiagonal:
    def test_perfect_ranking(self):
        assert residual_to_diagonal([-1, 0, 1], [-1, 0, 1]) == 0.0

    def test_reversal(self):
        assert residual_to_diagonal([-1, 1], [1, -1]) == 8.0

    def test_diagonal_point_adds_nothing(self):
        base = residual_to_diagonal([-1.0, 1.0], [1.0, -1.0])
        more = residual_to_diagonal([-1.0, 1.0, 0.3], [1.0, -1.0, 0.3])
        assert more == base

    def test_symmetric(self, rng):
        x = rng.normal(size=6)
        y = rng.normal(size=6)
        assert residual_to_diagonal(x, y) == \
            pytest.approx(residual_to_diagonal(y, x))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            residual_to_diagonal([1, 2], [1])


class TestKendallTau:
    def test_identical(self):
        assert kendall_tau([1, 2, 3, 4], [1, 2, 3, 4]) == 1.0

    def test_reversed(self):
        assert kendall_tau([1, 2, 3, 4], [4, 3, 2, 1]) == -1.0

    def test_single_swap(self):
        assert kendall_tau([1, 2, 3], [1, 3, 2]) == pytest.approx(1 / 3)

    def test_exhaustive_permutations_match_brute_force(self):
        for n in range(2, 6):
            identity = list(range(1, n + 1))
            for perm in itertools.permutations(identity):
                assert kendall_tau(list(perm), identity) == \
                    pytest.approx(brute_force_tau_b(perm, identity),
                                  abs=1e-12)

    def test_ties_match_brute_force(self, rng):
        for _ in range(50):
            n = int(rng.integers(3, 9))
            a = list(rng.integers(0, 4, size=n))
            b = list(rng.integers(0, 4, size=n))
            if len(set(a)) < 2 or len(set(b)) < 2:
                continue
            assert kendall_tau(a, b) == \
                pytest.approx(brute_force_tau_b(a, b), abs=1e-12)

    def test_bit_identical_to_scipy(self, rng):
        from scipy.stats import kendalltau
        for _ in range(300):
            n = int(rng.integers(2, 40))
            a = rng.integers(0, int(rng.integers(2, 8)), size=n)
            b = rng.normal(size=n).round(int(rng.integers(0, 3)))
            if len(set(a)) < 2 or len(set(b)) < 2:
                continue
            expected = float(kendalltau(a, b).statistic)
            assert kendall_tau(list(a), list(b)) == expected
            assert kendall_tau(list(b), list(a)) == \
                float(kendalltau(b, a).statistic)

    def test_all_tied_errors(self):
        with pytest.raises(ValueError):
            kendall_tau([1, 1, 1], [1, 2, 3])

    def test_length_checks(self):
        with pytest.raises(ValueError):
            kendall_tau([1], [1])
        with pytest.raises(ValueError):
            kendall_tau([1, 2], [1, 2, 3])


class TestPairedSignificance:
    def test_uniform_positive_deltas_hit_floor(self):
        result = paired_significance([0.1] * 12, seed=0)
        assert result.p == 1.0 / 10_000
        assert not result.insufficient_data

    def test_symmetric_deltas_near_half(self):
        rng = np.random.default_rng(5)
        base = rng.normal(0, 1, size=100)
        deltas = np.concatenate([base, -base])  # exactly symmetric
        result = paired_significance(list(deltas), seed=1)
        assert abs(result.p - 0.5) < 0.05

    def test_too_few_questions_flagged(self):
        result = paired_significance([0.2] * 9, seed=0)
        assert result.p == 1.0
        assert result.insufficient_data

    def test_seed_determinism(self):
        deltas = list(np.random.default_rng(2).normal(0.05, 1, size=40))
        a = paired_significance(deltas, seed=9)
        b = paired_significance(deltas, seed=9)
        assert a.p == b.p


def report(kt_cva, kt_vd, kt_ab, res_cva=1.0, res_vd=2.0, res_ab=2.0):
    return EvaluationReport(
        n_questions=10, n_skipped=0,
        per_question_tau={}, mean_tau={"cva": kt_cva, "vote_diff": kt_vd,
                                       "no_position": kt_ab},
        residual_sum={"cva": res_cva, "vote_diff": res_vd,
                      "no_position": res_ab},
        p_values={})


class TestWinrates:
    def test_all_wins(self):
        rows = winrates([("a", report(0.5, 0.2, 0.3)),
                         ("b", report(0.6, 0.1, 0.2))])
        kt_both = next(r for r in rows if r["metric"] == "kt"
                       and r["comparison"] == "vs_both")
        assert kt_both["win_rate_pct"] == 100.0

    def test_intersection(self):
        # community a: beats vote_diff only; community b: beats both
        rows = winrates([("a", report(0.5, 0.2, 0.6)),
                         ("b", report(0.5, 0.2, 0.3))])
        by_key = {(r["metric"], r["comparison"]): r["win_rate_pct"]
                  for r in rows}
        assert by_key[("kt", "vs_vote_diff")] == 100.0
        assert by_key[("kt", "vs_no_position")] == 50.0
        assert by_key[("kt", "vs_both")] == 50.0

    def test_ties_are_not_wins(self):
        rows = winrates([("a", report(0.5, 0.5, 0.4,
                                      res_cva=2.0, res_vd=2.0))])
        by_key = {(r["metric"], r["comparison"]): r["win_rate_pct"]
                  for r in rows}
        assert by_key[("kt", "vs_vote_diff")] == 0.0
        assert by_key[("res", "vs_vote_diff")] == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            winrates([])


class TestPipeline:
    def make_question(self, qid, diffs):
        """Answers with engineered final vote differences."""
        answers = tuple(Answer(f"{qid}-a{i}", i, 100)
                        for i in range(len(diffs)))
        votes = []
        for i, d in enumerate(diffs):
            votes.extend([(i, +1)] * d)
        events = tuple(VoteEvent(j, k + 1, s, 100 + k)
                       for k, (j, s) in enumerate(votes))
        return QuestionTrajectory(qid, answers, events)

    def test_noiseless_vote_diff_recovers_truth(self):
        # diffs ordered exactly like the truth => tau 1 for vote_diff
        trajs = [self.make_question("q0", [5, 3, 1]),
                 self.make_question("q1", [4, 2])]
        truth = {"q0-a0": 0.9, "q0-a1": 0.5, "q0-a2": 0.1,
                 "q1-a0": 0.8, "q1-a1": 0.2}
        diff_scores = {(t.question_id, a.answer_id): float(d)
                       for t in trajs
                       for a, d in zip(
                           t.answers,
                           [5, 3, 1] if t.question_id == "q0" else [4, 2])}
        sets, skipped = build_ranking_sets(trajs, truth,
                                           {"vote_diff": diff_scores})
        assert skipped == 0
        rep = score_rankings(sets, seed=0)
        assert rep.mean_tau["vote_diff"] == 1.0
        assert rep.residual_sum["vote_diff"] == pytest.approx(0.0,
                                                              abs=1e-24)

    def test_questions_without_enough_labels_skipped(self):
        trajs = [self.make_question("q0", [2, 1]),
                 self.make_question("q1", [2, 1])]
        truth = {"q0-a0": 0.5, "q0-a1": 0.1, "q1-a0": 0.4}  # q1: 1 label
        scores = {(t.question_id, a.answer_id): 1.0 * (1 - i)
                  for t in trajs for i, a in enumerate(t.answers)}
        sets, skipped = build_ranking_sets(trajs, truth,
                                           {"vote_diff": scores})
        assert len(sets) == 1 and skipped == 1

    def test_evaluate_rankers_end_to_end(self):
        trajs = [self.make_question(f"q{i}", [3, 2, 1]) for i in range(12)]
        q = {t.question_id: {a.answer_id: 0.5 - 0.2 * i
                             for i, a in enumerate(t.answers)}
             for t in trajs}
        nu = {t.question_id: 0.0 for t in trajs}
        model = CommunityModel(q=q, nu=nu, lam=0.5, beta=1.0)
        ablation = CommunityModel(q=q, nu=nu, lam=0.5, beta=0.0)
        truth = {a.answer_id: 1.0 - 0.3 * i
                 for t in trajs for i, a in enumerate(t.answers)}
        rep = evaluate_rankers(trajs, model, ablation, truth, seed=3)
        assert rep.n_questions == 12
        assert rep.mean_tau["cva"] == 1.0
        assert set(rep.p_values["tau"]) == {"vote_diff", "no_position"}
        round_trip = rep.to_json()
        assert round_trip["n_questions"] == 12

    def test_clipped_q_hat_ties_rank_by_creation_order(self):
        # Both answers' vote probabilities clip to 1 - 1e-12 in every
        # context, so their Q_hat are equal although q ranks a1 first.
        traj = self.make_question("q0", [2, 1])
        model = CommunityModel(q={"q0": {"q0-a0": 40.0, "q0-a1": 50.0}},
                               nu={"q0": 0.0}, lam=1.0, beta=2.0)
        truth = {"q0-a0": -0.5, "q0-a1": 0.5}
        rep = evaluate_rankers([traj], model, model, truth, seed=0)
        assert rep.per_question_tau["cva"] == [-1.0]
        by_q = evaluate_rankers([traj], model, model, truth, seed=0,
                                cva_score="q")
        assert by_q.per_question_tau["cva"] == [1.0]
