import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

import evaluation_reference as reference
from cva import evaluation
from cva.evaluation import (RANKERS, EvaluationReport, RankingSet,
                            build_ranking_sets, evaluate_rankers,
                            kendall_tau, paired_significance, rank_answers,
                            rank_zscores, residual_to_diagonal,
                            score_rankings, winrates)
from cva.model import CommunityModel
from cva.trajectory import Answer, QuestionTrajectory, replay_community


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


class TestBlockwiseBootstrap:
    """The shared blockwise draw against one whole-matrix draw per
    comparison (`evaluation_reference.paired_significance`)."""

    @staticmethod
    def deltas(n, rows=4):
        # A small positive shift keeps p away from its floor and from 1.
        # The last row holds -1, 0 and 1, so some resampled means are
        # exactly 0, as for the tau differences of small questions.
        rng = np.random.default_rng(n)
        deltas = rng.normal(0.03, 1.0, size=(rows, n))
        deltas[-1] = rng.integers(-1, 2, size=n)
        return deltas

    @pytest.mark.parametrize("n", [10, 17, 1751, 1752])
    def test_rows_equal_one_draw_each(self, n):
        deltas = self.deltas(n)
        got = paired_significance(deltas, seed=7)
        assert got == [reference.paired_significance(row.tolist(), 7)
                       for row in deltas]
        assert paired_significance(deltas[2], seed=7) == got[2]

    @pytest.mark.parametrize("block_rows", [1, 7, 999, 1000, 4096])
    def test_any_block_size_gives_the_same_p(self, monkeypatch,
                                             block_rows):
        deltas = self.deltas(17, rows=2)
        monkeypatch.setattr(evaluation, "_BLOCK_ENTRIES", 17 * block_rows)
        assert paired_significance(deltas, seed=3) == [
            reference.paired_significance(row.tolist(), 3)
            for row in deltas]

    def test_too_few_questions_in_every_row(self):
        got = paired_significance(np.ones((3, 9)), seed=0)
        assert [(r.p, r.n, r.insufficient_data) for r in got] == \
            [(1.0, 9, True)] * 3

    def test_memory_is_bounded(self):
        # One whole 10,000 x 2,000 draw and its gather hold 320 MB; the
        # blocks hold about 1 MB.
        deltas = self.deltas(2000)
        tracemalloc.start()
        try:
            paired_significance(deltas, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


def random_ranking_sets(rng, n_sets, tied_share):
    """Ranking sets of 2 to 40 answers. A `tied_share` of them carry
    hand-made ranks with ties, some entirely tied (tau undefined)."""
    sets = []
    for i in range(n_sets):
        k = int(rng.integers(2, 41))
        truth = (rng.permutation(k) + 1).tolist()
        ranks = {}
        for r in RANKERS:
            if rng.random() < tied_share:
                ranks[r] = rng.integers(1, int(rng.integers(1, 4)) + 1,
                                        size=k).tolist()
            elif rng.random() < 0.5:   # close to the truth
                ranks[r] = list(truth)
                for _ in range(int(rng.integers(0, 3))):
                    a, b = rng.integers(0, k, size=2)
                    ranks[r][a], ranks[r][b] = ranks[r][b], ranks[r][a]
            else:
                ranks[r] = (rng.permutation(k) + 1).tolist()
        if rng.random() < tied_share:
            truth = [1] * k if rng.random() < 0.5 else \
                rng.integers(1, 3, size=k).tolist()
        sets.append(RankingSet(f"q{i}", tuple(f"q{i}-a{j}" for j in range(k)),
                               ranks, truth))
    return sets


class TestGroupedKernels:
    """`build_ranking_sets` and `score_rankings` against the per-question
    reference, byte for byte."""

    @pytest.mark.parametrize("n_sets, tied_share, seed", [
        (3, 0.0, 0), (9, 0.3, 1), (10, 0.0, 2), (12, 0.3, 3),
        (80, 0.1, 4), (200, 0.2, 5)])
    def test_score_rankings(self, n_sets, tied_share, seed):
        rng = np.random.default_rng(seed)
        sets = random_ranking_sets(rng, n_sets, tied_share)
        got = score_rankings(sets, seed=seed)
        want = reference.score_rankings(sets, seed)
        assert json.dumps(got.to_json()) == json.dumps(want.to_json())
        assert got.n_skipped == want.n_skipped
        assert got.insufficient_data == (want.n_questions < 10)

    def test_unscorable_questions_skipped(self):
        # tau undefined (a side entirely tied) or rankings of unequal length
        sets = random_ranking_sets(np.random.default_rng(6), 13, 0.0)
        sets[3] = RankingSet("tied", ("a", "b", "c"),
                             {r: [1, 2, 3] for r in RANKERS}, [2, 2, 2])
        sets[5].ranks["cva"][:] = [4] * len(sets[5].truth_ranks)
        sets[8] = RankingSet("short", ("a", "b", "c"),
                             {r: [1, 2, 3] for r in RANKERS}, [3, 1, 2])
        sets[8].ranks["cva"].pop()
        got = score_rankings(sets, seed=1)
        assert got.n_questions == 10 and got.n_skipped == 3
        assert json.dumps(got.to_json()) == \
            json.dumps(reference.score_rankings(sets, 1).to_json())

    def test_no_rankable_question(self):
        tied = RankingSet("q", ("a", "b"), {r: [1, 2] for r in RANKERS},
                          [1, 1])
        with pytest.raises(evaluation.NoRankableQuestionsError):
            score_rankings([tied], seed=0)

    def test_bootstrap_is_one_call(self, monkeypatch):
        # The four comparisons share one resampling, in one traced call.
        calls = []
        real = evaluation.paired_significance

        def spy(deltas, seed):
            calls.append(np.shape(deltas))
            return real(deltas, seed)
        monkeypatch.setattr(evaluation, "paired_significance", spy)
        sets = random_ranking_sets(np.random.default_rng(7), 15, 0.0)
        score_rankings(sets, seed=0)
        assert calls == [(4, 15)]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_build_ranking_sets(self, seed):
        rng = np.random.default_rng(seed)
        trajs, truth = [], {}
        scores = {r: {} for r in RANKERS}
        for i in range(60):
            k = int(rng.integers(1, 41))
            answers = tuple(Answer(f"q{i}-a{j}", j, 100) for j in range(k))
            trajs.append((f"q{i}", answers))
            for a in answers:
                if rng.random() < 0.9:
                    truth[a.answer_id] = float(rng.normal())
                for r in RANKERS:
                    if rng.random() < 0.95:
                        # few distinct values, so ties are common
                        scores[r][(f"q{i}", a.answer_id)] = \
                            float(rng.integers(-3, 4)) * 0.5
        got = build_ranking_sets(trajs, truth, scores)
        assert got == reference.build_ranking_sets(trajs, truth, scores)
        assert all(type(x) is int for rs in got[0]
                   for x in rs.truth_ranks + rs.ranks["cva"])

    def test_non_finite_score_rejected(self):
        answers = tuple(Answer(f"q-a{j}", j, 100) for j in range(3))
        scores = {"cva": {("q", "q-a0"): 1.0, ("q", "q-a1"): float("nan"),
                          ("q", "q-a2"): 0.0}}
        truth = {"q-a0": 0.1, "q-a1": 0.2, "q-a2": 0.3}
        with pytest.raises(ValueError, match="scores must be finite"):
            build_ranking_sets([("q", answers)], truth, scores)


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
        events = tuple((j, s, 100 + k) for k, (j, s) in enumerate(votes))
        return QuestionTrajectory(qid, answers, events)

    @staticmethod
    def pairs(trajs):
        return [(t.question_id, t.answers) for t in trajs]

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
        sets, skipped = build_ranking_sets(self.pairs(trajs), truth,
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
        sets, skipped = build_ranking_sets(self.pairs(trajs), truth,
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
        rep = evaluate_rankers(replay_community(trajs), model, ablation,
                               truth, seed=3)
        assert rep.n_questions == 12
        assert rep.mean_tau["cva"] == 1.0
        assert set(rep.p_values["tau"]) == {"vote_diff", "no_position"}
        round_trip = rep.to_json()
        assert round_trip["n_questions"] == 12

    def test_clipped_q_hat_ties_rank_by_creation_order(self):
        # Both answers' vote probabilities clip to 1 - 1e-12 in every
        # context, so their Q_hat are equal although q ranks a1 first.
        traj = replay_community([self.make_question("q0", [2, 1])])
        model = CommunityModel(q={"q0": {"q0-a0": 40.0, "q0-a1": 50.0}},
                               nu={"q0": 0.0}, lam=1.0, beta=2.0)
        truth = {"q0-a0": -0.5, "q0-a1": 0.5}
        rep = evaluate_rankers(traj, model, model, truth, seed=0)
        assert rep.per_question_tau["cva"] == [-1.0]
        by_q = evaluate_rankers(traj, model, model, truth, seed=0,
                                cva_score="q")
        assert by_q.per_question_tau["cva"] == [1.0]
