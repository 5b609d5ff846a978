import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

import evaluation_reference as reference
from conftest import quality_by_key
from cva import evaluation
from cva.counterfactual import build_population
from cva.evaluation import (EvaluationReport, NoRankableQuestionsError,
                            evaluate_rankers, kendall_tau,
                            paired_significance, rank_answers, rank_zscores,
                            residual_to_diagonal, winrates)
from cva.model import CommunityModel
from cva.simulate import SimConfig, generate
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


def oracle_case(seed):
    """A small simulated community with partial labels, and a model and
    an ablation model that each lack about a fifth of its answers and
    about half of its questions' nu. Qualities and labels take a few
    values, so equal scores are common: within a question without nu,
    equal q give equal Q_hat."""
    rng = np.random.default_rng(seed)
    community, _ = generate(SimConfig(
        n_questions=int(rng.integers(4, 30)),
        n_events=int(rng.integers(150, 900)), crp_alpha=0.8,
        true_lambda=1.0, true_beta=1.5, seed=seed))

    def model(beta):
        q = {}
        for qid, aid in community.answer_keys:
            if rng.random() < 0.8:
                q.setdefault(qid, {})[aid] = float(rng.integers(-2, 3)) / 2
        nu = {qid: float(rng.normal(0.0, 0.3))
              for qid in community.question_ids if rng.random() < 0.5}
        return CommunityModel(q=q, nu=nu, lam=0.7, beta=beta)

    truth = {aid: float(rng.integers(0, 4))
             for _, aid in community.answer_keys if rng.random() < 0.7}
    return community, model(1.5), model(0.0), truth


class TestEvaluationOracle:
    """`evaluate_rankers` against the per-question reference, which
    looks every score up by key and ranks and scores one question at a
    time, byte for byte."""

    @pytest.mark.parametrize("cva_score", ["q_hat", "q"])
    @pytest.mark.parametrize("seed", range(40))
    def test_equals_per_question_reference(self, seed, cva_score):
        community, model, ablation, truth = oracle_case(seed)
        got = evaluate_rankers(community, model, ablation, truth,
                               seed=seed, cva_score=cva_score)
        want = reference.evaluate_rankers(community, model, ablation, truth,
                                          seed, cva_score=cva_score)
        assert json.dumps(got.to_json()) == json.dumps(want.to_json())

    def test_one_question_per_block(self, monkeypatch):
        # tau-b and the bootstrap split their rows into blocks of one
        monkeypatch.setattr(evaluation, "_BLOCK_ENTRIES", 1)
        community, model, ablation, truth = oracle_case(2)
        got = evaluate_rankers(community, model, ablation, truth, seed=5)
        want = reference.evaluate_rankers(community, model, ablation, truth,
                                          5)
        assert json.dumps(got.to_json()) == json.dumps(want.to_json())
        assert got.n_questions >= 10

    def test_cases_hold_ties_gaps_and_both_bootstrap_branches(self):
        tied = partial = insufficient = 0
        for seed in range(40):
            community, model, _, truth = oracle_case(seed)
            q_hat = quality_by_key(model, community,
                                   build_population(community))
            tied += len(set(q_hat.values())) < len(q_hat)
            partial += len(q_hat) < community.n_answers \
                and len(truth) < community.n_answers
            insufficient += evaluate_rankers(
                community, model, model, truth, seed=0).insufficient_data
        assert partial == 40 and tied > 30
        assert 0 < insufficient < 40

    def test_no_rankable_question(self):
        community, model, ablation, _ = oracle_case(0)
        for evaluate in (evaluate_rankers, reference.evaluate_rankers):
            with pytest.raises(NoRankableQuestionsError,
                               match="no questions with at least two"):
                evaluate(community, model, ablation, {}, 0)


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
    def full_model(trajs):
        """A model that holds every answer, better the earlier it came."""
        return CommunityModel(
            q={t.question_id: {a.answer_id: 0.5 - 0.2 * i
                               for i, a in enumerate(t.answers)}
               for t in trajs}, lam=0.5, beta=1.0)

    def test_noiseless_vote_diff_recovers_truth(self):
        # diffs ordered exactly like the truth => tau 1 for vote_diff
        trajs = [self.make_question("q0", [5, 3, 1]),
                 self.make_question("q1", [4, 2])]
        truth = {"q0-a0": 0.9, "q0-a1": 0.5, "q0-a2": 0.1,
                 "q1-a0": 0.8, "q1-a1": 0.2}
        model = self.full_model(trajs)
        rep = evaluate_rankers(replay_community(trajs), model, model, truth,
                               seed=0)
        assert rep.n_questions == 2 and rep.n_skipped == 0
        assert rep.mean_tau["vote_diff"] == 1.0
        assert rep.residual_sum["vote_diff"] == pytest.approx(0.0,
                                                              abs=1e-24)

    def test_questions_without_enough_labels_skipped(self):
        trajs = [self.make_question("q0", [2, 1]),
                 self.make_question("q1", [2, 1])]
        truth = {"q0-a0": 0.5, "q0-a1": 0.1, "q1-a0": 0.4}  # q1: 1 label
        model = self.full_model(trajs)
        rep = evaluate_rankers(replay_community(trajs), model, model, truth,
                               seed=0)
        assert rep.n_questions == 1 and rep.n_skipped == 1
        assert list(rep.per_question_tau["vote_diff"]) == [1.0]

    def test_bootstrap_is_one_call(self, monkeypatch):
        # The four comparisons share one resampling, in one traced call.
        calls = []
        real = evaluation.paired_significance

        def spy(deltas, seed):
            calls.append(np.shape(deltas))
            return real(deltas, seed)
        monkeypatch.setattr(evaluation, "paired_significance", spy)
        trajs = [self.make_question(f"q{i}", [3, 2, 1]) for i in range(15)]
        model = self.full_model(trajs)
        truth = {a.answer_id: float(i % 2)
                 for t in trajs for i, a in enumerate(t.answers)}
        evaluate_rankers(replay_community(trajs), model, model, truth,
                         seed=0)
        assert calls == [(4, 15)]

    def test_non_finite_truth_rejected(self):
        trajs = [self.make_question("q", [2, 1, 1])]
        model = self.full_model(trajs)
        truth = {"q-a0": 1.0, "q-a1": float("nan"), "q-a2": 0.0}
        with pytest.raises(ValueError, match="scores must be finite"):
            evaluate_rankers(replay_community(trajs), model, model, truth,
                             seed=0)

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
