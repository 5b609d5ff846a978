import time
from dataclasses import replace

import numpy as np
import pytest

from cva.model import ParameterIndex, model_to_json
from cva.simulate import SimConfig, generate, toy_scenario
from cva.trainer import (FitConfig, TOY_TICKS, fit, fit_events,
                         fit_prefixes, parse_fit_config, toy_quality_curves,
                         training_events)
from cva.trajectory import Answer, QuestionTrajectory, replay_community
from conftest import nll_and_grad

TOY_CFG = FitConfig(use_length=False)


def final_qualities(name):
    rows = [r for r in toy_quality_curves(name) if r["tick"] == max(TOY_TICKS)]
    return {r["answer_id"]: r["quality"] for r in rows}


class TestToyScenarios:
    def test_position_bias_positive_votes(self):
        q = final_qualities("s1a")
        assert q["B"] > q["A"]

    def test_position_bias_negative_votes(self):
        q = final_qualities("s1b")
        assert q["B"] < q["A"]

    def test_herding_bias(self):
        q = final_qualities("s2")
        assert q["A"] < q["B"]

    def test_s2_curve_drops_after_first_negative(self):
        rows = toy_quality_curves("s2")
        a_curve = {r["tick"]: r["quality"] for r in rows
                   if r["answer_id"] == "A"}
        # +,+,+ then -,-,-: quality rises to tick 3 then falls
        assert a_curve[3] > 0
        assert a_curve[4] < a_curve[3]
        assert a_curve[6] < a_curve[4]

    def test_prefix_beyond_last_event_equals_full_fit(self):
        trajs = toy_scenario("s1a")
        (_, at_six), = fit_prefixes(trajs, TOY_CFG, [6])
        (_, beyond), = fit_prefixes(trajs, TOY_CFG, [99])
        assert model_to_json(at_six) == model_to_json(beyond)

    def test_early_prefix_without_events_skipped(self):
        trajs = toy_scenario("s1a")
        # tick 1 leaves only first votes, all dropped
        assert fit_prefixes(trajs, TOY_CFG, [1, 6]) != []
        ticks = [t for t, _ in fit_prefixes(trajs, TOY_CFG, [1, 6])]
        assert ticks == [6]

    def test_prefix_ticks_must_ascend(self):
        with pytest.raises(ValueError):
            fit_prefixes(toy_scenario("s1a"), TOY_CFG, [6, 3])


class TestFit:
    def test_deterministic_bit_identical(self):
        trajs, _ = generate(SimConfig(n_questions=20, n_events=600,
                                      crp_alpha=1.0, true_lambda=1.0,
                                      true_beta=1.0, seed=5))
        m1 = fit(trajs, FitConfig())
        m2 = fit(trajs, FitConfig())
        assert model_to_json(m1) == model_to_json(m2)

    def test_regularizer_bounds_optimum(self):
        answers = (Answer("a0", 0, 100),)
        events = tuple((0, +1, 100 + k) for k in range(8))
        traj = replay_community([QuestionTrajectory("q", answers, events)])
        unregularized = fit(traj, FitConfig(l2_weight=0.0,
                                            use_length=False))
        regularized = fit(traj, FitConfig(l2_weight=1.0,
                                          use_length=False))
        q_free = unregularized.q["q"]["a0"]
        q_reg = regularized.q["q"]["a0"]
        assert q_free > 5.0  # drifts upward without a penalty
        assert 0.0 < q_reg < 3.0
        assert regularized.fit_meta["converged"]
        assert regularized.fit_meta["final_grad_norm"] < 1e-6

    def test_final_grad_norm_matches_recomputation(self):
        trajs, _ = generate(SimConfig(n_questions=10, n_events=300,
                                      crp_alpha=1.0, seed=3))
        model = fit(trajs, FitConfig())
        _, grad = nll_and_grad(model, trajs, training_events(trajs))
        assert np.max(np.abs(grad)) == pytest.approx(
            model.fit_meta["final_grad_norm"], rel=1e-9, abs=1e-12)

    def test_objective_non_increasing(self):
        trajs, _ = generate(SimConfig(n_questions=10, n_events=300,
                                      crp_alpha=1.0, seed=3))
        trace = []
        fit(trajs, FitConfig(), callback=lambda i, obj: trace.append(obj))
        assert len(trace) > 1
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))

    def test_zero_events_error(self):
        with pytest.raises(ValueError):
            fit_events(toy_scenario("s1a"), np.zeros(0, dtype=int),
                       FitConfig())

    def test_nonconvergence_flagged(self):
        trajs, _ = generate(SimConfig(n_questions=10, n_events=300,
                                      crp_alpha=1.0, seed=3))
        model = fit(trajs, FitConfig(max_iters=2))
        assert not model.fit_meta["converged"]
        assert model.fit_meta["final_grad_norm"] >= 1e-6

    def test_tolerance_below_rounding_floor_stops(self, caplog):
        # no step moves the objective beyond rounding or lowers the
        # gradient long before the max-norm could reach 1e-300
        start = time.perf_counter()
        model = fit(toy_scenario("s1b"), FitConfig(tol=1e-300,
                                                   l2_weight=1.0))
        assert time.perf_counter() - start < 1.0
        assert model.fit_meta["iterations"] <= 50
        assert not model.fit_meta["converged"]
        assert "did not reach gradient tolerance" in caplog.text

    @pytest.mark.parametrize("seed", [10, 26])
    def test_default_fit_converges_in_few_iterations(self, seed):
        # seeds whose fits needed 611 and 116 quasi-Newton iterations
        trajs, _ = generate(SimConfig(n_questions=400, n_events=16_000,
                                      crp_alpha=0.5, true_lambda=1.0,
                                      true_beta=2.0, seed=seed))
        meta = fit(trajs, FitConfig()).fit_meta
        assert meta["converged"]
        assert meta["iterations"] <= 25

    def test_freeze_beta_zero(self):
        trajs, _ = generate(SimConfig(n_questions=10, n_events=300,
                                      crp_alpha=1.0, true_beta=2.0, seed=3))
        model = fit(trajs, FitConfig(freeze_beta=0.0))
        assert model.beta == 0.0

    def test_every_training_answer_has_quality_entry(self):
        trajs, _ = generate(SimConfig(n_questions=10, n_events=300,
                                      crp_alpha=1.0, seed=3))
        model = fit(trajs, FitConfig())
        rows = training_events(trajs)
        for qid, aid in map(trajs.answer_keys.__getitem__,
                            trajs.answer_slot[rows].tolist()):
            assert aid in model.q[qid]
            assert qid in model.nu

    def test_numeric_string_ids(self):
        # ids as `cva ingest` writes them are numeric strings, whose
        # string order ("10" < "9") is not the order of the answer slots
        base, _ = generate(SimConfig(n_questions=30, n_events=1_200,
                                     crp_alpha=0.5, true_lambda=1.0,
                                     true_beta=2.0, seed=4))

        def renamed(question_id, answer_id):
            return replay_community(
                replace(t, question_id=question_id(i), answers=tuple(
                    replace(a, answer_id=answer_id(i, j))
                    for j, a in enumerate(t.answers)))
                for i, t in enumerate(base))

        numeric = renamed(lambda i: str(i + 8), lambda i, j: str(j + 8))
        padded = renamed(lambda i: f"q{i:04d}",
                         lambda i, j: f"q{i:04d}-a{j:04d}")
        index = ParameterIndex(numeric, training_events(numeric))
        keys = [numeric.answer_keys[s] for s in index.answer_slots.tolist()]
        assert np.all(np.diff(index.answer_slots) > 0)
        assert keys != sorted(keys)

        model = fit(numeric, FitConfig())
        back = index.unpack(index.pack(model), model.l2_weight,
                            model.fit_meta)
        assert model_to_json(back) == model_to_json(model)

        want = fit(padded, FitConfig())
        (got_modelled, *got), (want_modelled, *wanted) = \
            model.by_slot(numeric), want.by_slot(padded)
        assert got_modelled.tolist() == want_modelled.tolist()
        for got_array, want_array in zip(got, wanted):
            assert np.max(np.abs(got_array - want_array)) <= 1e-12
        assert abs(model.lam - want.lam) <= 1e-12
        assert abs(model.beta - want.beta) <= 1e-12
        assert [model.fit_meta[k] for k in ("iterations", "converged")] == \
            [want.fit_meta[k] for k in ("iterations", "converged")]


class TestFitConfigFile:
    def test_parse(self, tmp_path):
        path = tmp_path / "fit.cfg"
        path.write_text("l2_weight = 0.5\n"
                        "tol = 1e-7\n"
                        "max_iters = 500  # comment\n"
                        "drop_first_votes = false\n"
                        "seed = 3\n")
        cfg = parse_fit_config(path)
        assert cfg == FitConfig(l2_weight=0.5, tol=1e-7, max_iters=500,
                                drop_first_votes=False)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "fit.cfg"
        path.write_text("learning_rate = 0.1\n")
        with pytest.raises(ValueError):
            parse_fit_config(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "fit.cfg"
        path.write_text("just a line\n")
        with pytest.raises(ValueError):
            parse_fit_config(path)
