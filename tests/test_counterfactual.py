import logging
import math

import numpy as np
import pytest
from scipy.special import expit

from cva.counterfactual import (SUBSAMPLE_THRESHOLD, TIME_SLICE_MIN,
                                ContextPopulation, build_population,
                                counterfactual_curve, estimate_quality,
                                fit_power_law)
from cva.model import PROB_CLIP, CommunityModel
from cva.simulate import SimConfig, generate, toy_scenario
from cva.trainer import FitConfig, fit
from cva.trajectory import Answer, QuestionTrajectory, replay_community

from conftest import quality_by_key


def population(ratios, ranks, lengths=None, times=None):
    n = len(ratios)
    return ContextPopulation(
        ratios=np.asarray(ratios, dtype=float),
        ranks=np.asarray(ranks, dtype=float),
        lengths=np.asarray(lengths if lengths is not None else [0.0] * n,
                           dtype=float),
        times=np.asarray(times if times is not None else [1] * n,
                         dtype=int))


def single_answer_traj(question_id="q", n_votes=0, length=100):
    answers = (Answer(f"{question_id}-a", creation_time=0,
                      text_length=length),)
    events = tuple((0, +1, 100 + k) for k in range(n_votes))
    return QuestionTrajectory(question_id, answers, events)


def one(*trajs):
    return replay_community(trajs)


class TestEstimateQuality:
    def test_degenerate_population_recovers_sigmoid(self):
        model = CommunityModel(q={"q": {"q-a": 0.8}}, nu={"q": 0.0})
        pop = population([0.5], [1])
        out = quality_by_key(model, one(single_answer_traj()), pop)
        assert out[("q", "q-a")] == pytest.approx(expit(0.8), abs=1e-12)

    def test_matches_brute_force_average(self):
        trajs = toy_scenario("s1a")
        model = fit(trajs, FitConfig(use_length=False))
        pop = build_population(trajs)
        out = quality_by_key(model, trajs, pop)
        for aid in ("A", "B"):
            q = model.q["toy1a"][aid]
            expected = np.mean([
                expit(q + model.lam * r + model.beta / (1.0 + d))
                for r, d in zip(pop.ratios, pop.ranks)])
            assert out[("toy1a", aid)] == pytest.approx(float(expected),
                                                        abs=1e-12)
        assert out[("toy1a", "B")] > out[("toy1a", "A")]

    def test_symmetry_identical_parameters(self):
        model = CommunityModel(q={"q": {"a0": 0.4, "a1": 0.4}},
                               nu={"q": 0.0}, lam=1.0, beta=2.0)
        answers = (Answer("a0", 0, 100), Answer("a1", 1, 100))
        traj = QuestionTrajectory("q", answers, ())
        pop = population([0.2, 0.8, 0.5], [1, 2, 3])
        out = quality_by_key(model, one(traj), pop)
        assert out[("q", "a0")] == out[("q", "a1")]

    def test_population_permutation_invariance(self):
        model = CommunityModel(q={"q": {"q-a": 0.3}}, nu={"q": 0.5},
                               lam=0.7, beta=1.1)
        traj = single_answer_traj()
        ratios = [0.1, 0.9, 0.4, 0.6, 0.5]
        ranks = [1, 2, 3, 4, 5]
        fwd = quality_by_key(model, one(traj),
                             population(ratios, ranks))[("q", "q-a")]
        rev = quality_by_key(model, one(traj),
                             population(ratios[::-1],
                                        ranks[::-1]))[("q", "q-a")]
        assert fwd == pytest.approx(rev, abs=1e-12)

    def test_monotone_in_quality(self):
        pop = population([0.2, 0.7], [1, 4])
        traj = single_answer_traj()
        values = []
        for q in np.linspace(-2, 2, 9):
            model = CommunityModel(q={"q": {"q-a": float(q)}},
                                   nu={"q": 0.0}, lam=1.0, beta=1.0)
            values.append(quality_by_key(model, one(traj),
                                         pop)[("q", "q-a")])
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_within_question_order_matches_raw_quality(self):
        # equal lengths => shared length term => Q_hat order follows q
        model = CommunityModel(
            q={"q": {"a0": -0.5, "a1": 0.2, "a2": 1.4}}, nu={"q": 0.8},
            lam=1.2, beta=2.0)
        answers = tuple(Answer(f"a{i}", i, 100) for i in range(3))
        traj = QuestionTrajectory("q", answers, ())
        pop = population([0.1, 0.5, 0.9], [1, 2, 6])
        out = quality_by_key(model, one(traj), pop)
        ordered = sorted(out, key=out.get)
        assert ordered == [("q", "a0"), ("q", "a1"), ("q", "a2")]

    def test_unmodeled_answer_skipped(self, caplog):
        model = CommunityModel(q={"q": {"q-a": 0.0}}, nu={"q": 0.0})
        others = [single_answer_traj(question_id=f"other{i}")
                  for i in range(3)]
        with caplog.at_level(logging.WARNING, logger="cva.counterfactual"):
            out = quality_by_key(model, one(*others),
                                 population([0.5], [1]))
        assert out == {}
        assert len(caplog.records) == 1
        assert "3 answers not in model" in caplog.records[0].getMessage()
        assert "other0/other0-a" in caplog.records[0].getMessage()

    @pytest.mark.parametrize("aggregate", ["mean", "per_time_sum"])
    @pytest.mark.parametrize("integrate_length", [False, True])
    def test_unmodelled_slots_read_false_and_zero(self, aggregate,
                                                  integrate_length):
        # a0 and b0 are not in the model, a0 has votes
        model = CommunityModel(q={"q": {"a1": 0.4}, "r": {"b1": -0.2}},
                               nu={"q": 0.3}, lam=1.0, beta=1.5)
        c = one(QuestionTrajectory("q", (Answer("a0", 0, 50),
                                         Answer("a1", 1, 400)),
                                   ((0, 1, 10), (1, 1, 11), (0, -1, 12))),
                QuestionTrajectory("r", (Answer("b0", 0, 80),
                                         Answer("b1", 1, 90)),
                                   ((1, 1, 10),)))
        options = {"aggregate": aggregate,
                   "integrate_length": integrate_length}
        modelled, q_hat = estimate_quality(model, c, build_population(c),
                                           **options)
        assert modelled.dtype == bool and q_hat.dtype == float
        assert modelled.tolist() == [False, True, False, True]
        assert q_hat[~modelled].tolist() == [0.0, 0.0]
        assert (q_hat[modelled] > 0.0).all()
        modelled, q_hat = estimate_quality(CommunityModel(q={}, nu={}), c,
                                           build_population(c), **options)
        assert modelled.tolist() == [False] * 4
        assert q_hat.tolist() == [0.0] * 4

    def test_per_time_sum_mode(self):
        model = CommunityModel(q={"q": {"q-a": 0.2}}, nu={"q": 0.0},
                               lam=1.0, beta=1.0)
        traj = single_answer_traj(n_votes=2)
        ratios = [1.0] * 30 + [0.0] * 30
        ranks = [1] * 30 + [9] * 30
        times = [1] * 30 + [2] * 30
        pop = population(ratios, ranks, times=times)
        out = quality_by_key(model, one(traj), pop,
                             aggregate="per_time_sum")
        expected = expit(0.2 + 1.0 + 0.5) + expit(0.2 + 0.1)
        assert out[("q", "q-a")] == pytest.approx(float(expected),
                                                  abs=1e-12)

    def test_per_time_sum_falls_back_to_global_on_thin_slice(self):
        model = CommunityModel(q={"q": {"q-a": 0.0}}, nu={"q": 0.0},
                               lam=1.0, beta=0.0)
        traj = single_answer_traj(n_votes=3)
        # slice t=3 has a single sample; global mean applies instead
        ratios = [1.0] * 30 + [0.0] * 30 + [0.5]
        times = [1] * 30 + [2] * 30 + [3]
        pop = population(ratios, [1] * 61, times=times)
        out = quality_by_key(model, one(traj), pop,
                             aggregate="per_time_sum")
        global_mean = float(np.mean(expit(np.asarray(ratios))))
        expected = expit(1.0) + expit(0.0) + global_mean
        assert out[("q", "q-a")] == pytest.approx(float(expected),
                                                  abs=1e-12)

    def test_integrate_length_uses_population_lengths(self):
        model = CommunityModel(q={"q": {"q-a": 0.0}}, nu={"q": 1.0})
        traj = single_answer_traj()
        pop = population([0.5, 0.5], [1, 1], lengths=[-2.0, 2.0])
        fixed = quality_by_key(model, one(traj), pop)[("q", "q-a")]
        integ = quality_by_key(model, one(traj), pop,
                               integrate_length=True)[("q", "q-a")]
        assert fixed == pytest.approx(0.5)  # own rel length is 0
        expected = 0.5 * (expit(-2.0) + expit(2.0))
        assert integ == pytest.approx(float(expected), abs=1e-12)

    def test_large_population_subsampled_deterministically(self):
        model = CommunityModel(q={"q": {"q-a": 0.0}}, nu={"q": 0.0},
                               lam=1.0)
        traj = single_answer_traj()
        rng = np.random.default_rng(0)
        big = population(rng.random(150_000), np.ones(150_000))
        a = quality_by_key(model, one(traj), big)[("q", "q-a")]
        big2 = population(big.ratios, big.ranks)
        b = quality_by_key(model, one(traj), big2)[("q", "q-a")]
        assert a == b

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            population([], [])


def brute_force_quality(model, trajs, pop, aggregate, integrate_length):
    """Q_hat from every context, one by one, summed exactly with fsum."""
    def mean_prob(q, nu, rel_len, samples):
        ratios, ranks, lengths = samples
        x = q + model.lam * ratios + nu * (lengths if integrate_length
                                           else rel_len) \
            + model.beta / (1.0 + ranks)
        probs = np.clip(1.0 / (1.0 + np.exp(-x)), PROB_CLIP,
                        1.0 - PROB_CLIP)
        return math.fsum(probs) / len(probs)

    out = {}
    for traj in trajs:
        log_len = [math.log(a.text_length) for a in traj.answers]
        mean_ll = sum(log_len) / len(log_len)
        for j, answer in enumerate(traj.answers):
            q = model.q.get(traj.question_id, {}).get(answer.answer_id)
            if q is None:
                continue
            nu = model.nu.get(traj.question_id, 0.0)
            rel_len = min(max(log_len[j] - mean_ll, -3.0), 3.0)
            if aggregate == "mean":
                value = mean_prob(q, nu, rel_len, pop.global_samples())
            else:
                n_votes = sum(k == j for k, _, _ in traj.events)
                value = math.fsum(
                    mean_prob(q, nu, rel_len, pop.time_slice(t))
                    for t in range(1, n_votes + 1))
            out[(traj.question_id, answer.answer_id)] = value
    return out


class TestQualityOracle:
    """estimate_quality against a per-context loop, to 1e-12 relative."""

    @pytest.fixture(scope="class")
    def community(self):
        trajs, _ = generate(SimConfig(n_questions=60, n_events=2_000,
                                      crp_alpha=0.7, true_lambda=1.0,
                                      true_beta=2.0, seed=4))
        rng = np.random.default_rng(8)
        q = {t.question_id: {a.answer_id: float(rng.normal())
                             for a in t.answers[1:]}  # first: unmodeled
             for t in trajs}
        nu = {t.question_id: float(rng.normal()) for t in trajs}
        model = CommunityModel(q=q, nu=nu, lam=0.9, beta=1.7)
        return model, trajs

    def assert_matches(self, got, expected):
        assert got.keys() == expected.keys() and got
        for key, value in expected.items():
            assert got[key] == pytest.approx(value, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("aggregate", ["mean", "per_time_sum"])
    @pytest.mark.parametrize("integrate_length", [False, True])
    def test_simulated_population(self, community, aggregate,
                                  integrate_length):
        model, trajs = community
        pop = build_population(trajs)
        # the busiest answer's votes reach both full slices and thin ones,
        # which fall back to the global sample
        max_votes = max(np.bincount([j for j, _, _ in t.events]).max()
                        for t in trajs if t.events)
        full = [pop.has_time_slice(t) for t in range(1, max_votes + 1)]
        assert any(full) and not all(full)
        assert len(pop.time_slice(1)[0]) >= TIME_SLICE_MIN
        got = quality_by_key(model, trajs, pop, aggregate=aggregate,
                             integrate_length=integrate_length)
        self.assert_matches(got, brute_force_quality(
            model, trajs, pop, aggregate, integrate_length))

    def test_subsampled_population(self, community):
        model, trajs = community
        rng = np.random.default_rng(2)
        n = SUBSAMPLE_THRESHOLD + 5_000
        pop = population(rng.integers(0, 9, n) / 8, rng.integers(1, 7, n),
                         lengths=rng.normal(size=n),
                         times=rng.integers(1, 4, n))
        assert len(pop.global_samples()[0]) < n
        trajs = one(*trajs[:3])
        for integrate_length in (False, True):
            got = quality_by_key(model, trajs, pop,
                                 integrate_length=integrate_length)
            self.assert_matches(got, brute_force_quality(
                model, trajs, pop, "mean", integrate_length))


class TestCounterfactualCurve:
    def build_mixed_traj(self):
        # one answer with both positive and negative vote climates
        votes = [(0, +1), (0, +1), (0, -1), (0, -1), (0, -1), (0, +1)]
        answers = (Answer("a0", 0, 100),)
        events = tuple((0, s, 100 + k) for k, (_, s) in enumerate(votes))
        return one(QuestionTrajectory("q", answers, events))

    def test_mood_ordering_and_rank_decay(self):
        traj = self.build_mixed_traj()
        model = CommunityModel(q={"q": {"a0": 0.1}}, nu={"q": 0.0},
                               lam=1.5, beta=2.0)
        curves = {m: counterfactual_curve(model, traj, 10, m)
                  for m in ("pos", "neutral", "neg")}
        for m in curves:
            assert not curves[m].empty
        pos = [p for _, p in curves["pos"].points]
        neu = [p for _, p in curves["neutral"].points]
        neg = [p for _, p in curves["neg"].points]
        assert all(a >= b >= c for a, b, c in zip(pos, neu, neg))
        for seq in (pos, neu, neg):
            assert all(a > b for a, b in zip(seq, seq[1:]))

    def test_flat_when_no_position_or_herding_terms(self):
        traj = self.build_mixed_traj()
        model = CommunityModel(q={"q": {"a0": 0.1}}, nu={"q": 0.0},
                               lam=0.0, beta=0.0)
        curves = [counterfactual_curve(model, traj, 5, m)
                  for m in ("pos", "neutral", "neg")]
        values = {p for c in curves for _, p in c.points}
        assert len(values) == 1

    def test_no_qualifying_answers_gives_empty_curve(self):
        traj = one(single_answer_traj(n_votes=1))
        model = CommunityModel(q={"q": {"q-a": 0.0}}, nu={"q": 0.0})
        # the single vote saw the neutral 0.5 ratio: neither pos nor neg
        result = counterfactual_curve(model, traj, 5, "pos")
        assert result.empty and result.points == ()

    def test_bad_arguments(self):
        model = CommunityModel()
        with pytest.raises(ValueError):
            counterfactual_curve(model, [], 1, "pos")
        with pytest.raises(ValueError):
            counterfactual_curve(model, [], 5, "upbeat")


class TestFitPowerLaw:
    def test_recovers_unit_exponent(self):
        curve = [(r, 1.0 / (r + 1.0)) for r in range(1, 11)]
        f = fit_power_law(curve)
        assert abs(f.b - 1.0) < 1e-3
        assert abs(f.c - 0.0) < 1e-3
        assert f.sse < 1e-10

    def test_recovers_square_exponent_with_offset(self):
        curve = [(r, 1.0 / (r ** 2 + 1.0) + 0.1) for r in range(1, 11)]
        f = fit_power_law(curve)
        assert abs(f.b - 2.0) < 1e-3
        assert abs(f.c - 0.1) < 1e-3

    def test_constant_curve(self):
        f = fit_power_law([(r, 0.6) for r in range(1, 8)])
        assert f.b == 0.0
        assert f.c == pytest.approx(0.1, abs=1e-12)
        assert f.sse == pytest.approx(0.0, abs=1e-15)

    def test_sse_no_worse_than_generator(self):
        for b_true, c_true in ((0.7, 0.05), (1.8, -0.02), (3.2, 0.2)):
            curve = [(r, 1.0 / (r ** b_true + 1.0) + c_true)
                     for r in range(1, 12)]
            f = fit_power_law(curve)
            truth_sse = sum(
                (p - (1.0 / (r ** b_true + 1.0) + c_true)) ** 2
                for r, p in curve)
            assert f.sse <= truth_sse + 1e-15

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            fit_power_law([(1, 0.5), (2, 0.4)])
