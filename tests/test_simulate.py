import math

import numpy as np
import pytest

from cva import simulate
from cva.simulate import (SimConfig, _QuestionState, choice_cdf,
                          crp_new_answer, draw_index, estimate_crp_alpha,
                          generate, parse_sim_config, pick_inverse_rank,
                          scale_truth, toy_scenario)
from cva.trajectory import (Answer, QuestionTrajectory, read_trajectories,
                            replay_community, trajectory_to_json_line,
                            write_trajectories)
from conftest import (assert_same_columns, assert_same_contexts, contexts,
                      reference_contexts)
from simulate_reference import reference_generate


class TestGenerate:
    def test_seed_determinism(self):
        cfg = SimConfig(n_questions=15, n_events=500, crp_alpha=2.0,
                        true_lambda=1.0, true_beta=1.0, true_nu=0.3,
                        seed=21)
        a_trajs, a_truth = generate(cfg)
        b_trajs, b_truth = generate(cfg)
        assert [trajectory_to_json_line(t) for t in a_trajs] == \
               [trajectory_to_json_line(t) for t in b_trajs]
        assert a_truth == b_truth

    def test_recorded_contexts_match_replay(self, monkeypatch):
        # Each vote's sign is drawn with the logit of the context the
        # simulator works out; the same logit computed from the contexts
        # the replay stores must match it bit for bit, vote for vote.
        cfg = SimConfig(n_questions=10, n_events=400, crp_alpha=2.0,
                        true_lambda=1.0, true_beta=2.0, true_nu=0.5,
                        seed=33)
        logits = []
        real_sigmoid = simulate._sigmoid
        monkeypatch.setattr(simulate, "_sigmoid",
                            lambda x: logits.append(x) or real_sigmoid(x))
        community, truth = generate(cfg)
        assert len(community.sign) > 50
        q = np.array([truth[community.answers[i][j].answer_id] for i, j
                      in zip(community.question, community.answer_index)])
        replayed = (q + 1.0 * community.pos_ratio
                    + 0.5 * community.rel_length
                    + 2.0 / (1.0 + community.rank))
        by_time = np.argsort(community.timestamp, kind="stable")
        assert [x.hex() for x in replayed[by_time].tolist()] == \
               [x.hex() for x in logits]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("quality_mean, sign", [(-1000.0, -1),
                                                    (1000.0, +1)])
    def test_extreme_quality_gives_one_sign(self, quality_mean, sign):
        # past a logit of about -709.78 exp overflows a float; the draw
        # takes the sigmoid's limit 0 there instead of raising
        cfg = SimConfig(n_questions=10, n_events=200, crp_alpha=0.5,
                        quality_mean=quality_mean, true_lambda=1.0,
                        true_beta=2.0, seed=3)
        community, _ = generate(cfg)
        assert len(community.sign) > 50
        assert set(community.sign.tolist()) == {sign}

    def test_log_lengths_summed_left_to_right(self):
        # From Python 3.12 on, the built-in sum() of floats compensates
        # rounding; for these lengths it then differs from a left-to-right
        # sum in the last bit, as math.fsum does on every version. The
        # simulator's draw-time relative lengths, the final relative
        # lengths and the replay must all add left to right to agree.
        lengths = [3942, 2988, 4670]
        logs = [math.log(n) for n in lengths]
        running = 0.0
        for value in logs:
            running += value
        assert math.fsum(logs) != running
        want = [ll - running / len(logs) for ll in logs]
        state = _QuestionState("q")
        for j, n in enumerate(lengths):
            state.add_answer(Answer(f"q-a{j}", j + 1, n))
        assert [state.rel_length(j) for j in range(3)] == want
        answers = tuple(state.answers)
        traj = QuestionTrajectory("q", answers, tuple(
            (j, +1, 10 + j) for j in range(3)))
        replayed = replay_community([traj])
        assert [ctx.rel_length for ctx in contexts(replayed)] == want
        assert replayed.final_rel_lengths() == want

    def test_tiny_alpha_gives_single_answer_questions(self):
        cfg = SimConfig(n_questions=5, n_events=400, crp_alpha=1e-6,
                        seed=2)
        trajs, _ = generate(cfg)
        assert all(len(t.answers) == 1 for t in trajs)
        assert sum(len(t.events) for t in trajs) == 400 - len(trajs)

    def test_answers_per_question_monotone_in_alpha(self):
        means = []
        for alpha in (1.0, 5.0, 20.0):
            cfg = SimConfig(n_questions=20, n_events=1000, crp_alpha=alpha,
                            seed=4)
            trajs, _ = generate(cfg)
            means.append(np.mean([len(t.answers) for t in trajs]))
        assert means[0] < means[1] < means[2]

    def test_truth_covers_every_answer(self):
        cfg = SimConfig(n_questions=10, n_events=300, crp_alpha=1.0, seed=6)
        trajs, truth = generate(cfg)
        for t in trajs:
            for a in t.answers:
                assert a.answer_id in truth

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(n_questions=10, n_events=5, crp_alpha=1.0).validate()
        with pytest.raises(ValueError):
            SimConfig(n_questions=10, n_events=50, crp_alpha=-1.0).validate()
        with pytest.raises(ValueError):
            SimConfig(n_questions=10, n_events=50, crp_alpha=1.0,
                      quality_sd=0.0).validate()
        with pytest.raises(ValueError):
            SimConfig(n_questions=10, n_events=50, crp_alpha=1.0,
                      length_source="weibull:1").validate()
        with pytest.raises(ValueError):
            SimConfig(n_questions=10, n_events=50, crp_alpha="later"
                      ).validate()

    def test_empirical_sources(self, tmp_path):
        cfg = SimConfig(n_questions=8, n_events=300, crp_alpha=2.0, seed=1)
        trajs, _ = generate(cfg)
        path = tmp_path / "real.jsonl"
        write_trajectories(trajs, path)
        cfg2 = SimConfig(n_questions=8, n_events=200, crp_alpha="auto",
                         length_source=f"empirical:{path}",
                         question_weight_source=f"empirical:{path}", seed=2)
        trajs2, _ = generate(cfg2)
        lengths = {a.text_length for t in trajs for a in t.answers}
        for t in trajs2:
            for a in t.answers:
                assert a.text_length in lengths

    def test_auto_alpha_needs_empirical_source(self):
        cfg = SimConfig(n_questions=5, n_events=50, crp_alpha="auto",
                        seed=1)
        with pytest.raises(ValueError):
            generate(cfg)


REFERENCE_CONFIGS = {
    "zipf": dict(question_weight_source="zipf:1.1", crp_alpha=0.5,
                 true_lambda=1.0, true_beta=2.0),
    "lognormal_5_2": dict(length_source="lognormal:5,2", crp_alpha=2.0,
                          true_lambda=0.5, true_beta=1.0, true_nu=0.4),
    "empirical_auto": dict(crp_alpha="auto", true_lambda=1.0,
                           true_beta=2.0, true_nu=0.3),
    "nu_plus": dict(crp_alpha=5.0, true_nu=0.7, true_beta=1.5),
    "nu_minus": dict(crp_alpha=1.0, true_nu=-0.3, true_lambda=2.0,
                     quality_sd=0.5),
    "tiny_alpha": dict(crp_alpha=1e-6, true_lambda=1.0, true_beta=2.0),
}


def empirical_source(tmp_path):
    source = tmp_path / "source.jsonl"
    write_trajectories(generate(SimConfig(
        n_questions=30, n_events=900, crp_alpha=2.0, seed=3))[0], source)
    return source


class TestReferenceLoop:
    """`generate` against the per-vote loop it replaced, kept in
    tests/simulate_reference.py; and its community's records, in memory
    and through a file, replay to its columns."""

    @pytest.mark.parametrize("name", sorted(REFERENCE_CONFIGS))
    def test_same_output_and_columns(self, name, tmp_path):
        extra = dict(REFERENCE_CONFIGS[name])
        if extra["crp_alpha"] == "auto":
            source = empirical_source(tmp_path)
            extra.update(length_source=f"empirical:{source}",
                         question_weight_source=f"empirical:{source}")
        cfg = SimConfig(n_questions=40, n_events=2_000, seed=8, **extra)
        community, truth = generate(cfg)
        ref_trajs, ref_contexts, ref_truth = reference_generate(cfg)
        assert [trajectory_to_json_line(t) for t in community] == \
               [trajectory_to_json_line(t) for t in ref_trajs]
        assert list(community) == ref_trajs
        assert list(truth) == list(ref_truth)
        assert [v.hex() for v in truth.values()] == \
               [v.hex() for v in ref_truth.values()]
        # the contexts drawn with
        assert_same_contexts(contexts(community),
                             [ctx for q in ref_contexts for ctx in q])
        assert community.time_index.tolist() == [
            k for t in ref_trajs for k in range(1, len(t.events) + 1)]
        assert_same_columns(replay_community(list(community)), community)
        path = tmp_path / "t.jsonl"
        write_trajectories(community, path)
        assert_same_columns(read_trajectories(path), community)

    def test_empirical_source_read_once(self, tmp_path, monkeypatch):
        source = empirical_source(tmp_path)
        cfg = SimConfig(n_questions=40, n_events=2_000, seed=8,
                        crp_alpha="auto",
                        length_source=f"empirical:{source}",
                        question_weight_source=f"empirical:{source}")
        ref_trajs, _, _ = reference_generate(cfg)
        reads = []
        real_read = simulate.read_trajectories
        monkeypatch.setattr(simulate, "read_trajectories",
                            lambda path: reads.append(path)
                            or real_read(path))
        community, _ = generate(cfg)
        assert reads == [str(source)]
        got, want = tmp_path / "got.jsonl", tmp_path / "want.jsonl"
        write_trajectories(community, got)
        write_trajectories(ref_trajs, want)
        assert got.read_bytes() == want.read_bytes()


class TestCrpStatistics:
    def test_gate_frequency_matches_crp_probability(self):
        rng = np.random.default_rng(99)
        n_trials = 30_000
        for n_prior in (1, 5, 20):
            p = 5.0 / (n_prior + 5.0)
            hits = sum(crp_new_answer(rng, n_prior, 5.0)
                       for _ in range(n_trials))
            se = np.sqrt(p * (1 - p) / n_trials)
            assert abs(hits / n_trials - p) < 3 * se

    def test_inverse_rank_selection_frequencies(self):
        rng = np.random.default_rng(7)
        n_trials = 30_000
        counts = np.zeros(3)
        for _ in range(n_trials):
            counts[pick_inverse_rank(rng, 3)] += 1
        expected = np.array([6 / 11, 3 / 11, 2 / 11])
        freq = counts / n_trials
        se = np.sqrt(expected * (1 - expected) / n_trials)
        assert np.all(np.abs(freq - expected) < 3 * se)

    def test_draw_matches_generator_choice(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(1, 3000))
            weights = rng.random(n) ** 3
            weights[rng.random(n) < 0.2] = 0.0
            if weights.sum() == 0:
                continue
            p = weights / weights.sum()
            cdf = choice_cdf(p)
            ours = np.random.default_rng(int(rng.integers(2**32)))
            ref = np.random.Generator(type(ours.bit_generator)())
            ref.bit_generator.state = ours.bit_generator.state
            for _ in range(200):
                assert draw_index(ours, cdf) == int(ref.choice(n, p=p))
            assert ours.bit_generator.state == ref.bit_generator.state

    def test_inverse_rank_matches_generator_choice(self):
        ours, ref = np.random.default_rng(3), np.random.default_rng(3)
        for n_ranks in list(range(1, 30)) * 20:
            weights = 1.0 / (1.0 + np.arange(n_ranks))
            assert pick_inverse_rank(ours, n_ranks) == \
                int(ref.choice(n_ranks, p=weights / weights.sum()))

    def test_choice_cdf_rejects_bad_probabilities(self):
        for p in ([], [0.5, -0.1, 0.6], [0.5, 0.4], [np.nan, 1.0]):
            with pytest.raises(ValueError):
                choice_cdf(np.asarray(p, dtype=float))


class TestEstimateAlpha:
    def test_generate_then_recover(self):
        cfg = SimConfig(n_questions=500, n_events=15_000, crp_alpha=5.0,
                        seed=17)
        trajs, _ = generate(cfg)
        alpha_hat = estimate_crp_alpha(trajs)
        assert 4.0 <= alpha_hat <= 6.0

    def test_all_answers_hits_upper_bound(self, caplog):
        trajs = [QuestionTrajectory(
            f"q{i}",
            tuple(Answer(f"q{i}-a{j}", creation_time=j, text_length=10)
                  for j in range(3)),
            ()) for i in range(4)]
        assert estimate_crp_alpha(replay_community(trajs)) == 1e6

    def test_single_event_questions_unidentifiable(self):
        trajs = [QuestionTrajectory(
            "q0", (Answer("a0", creation_time=0, text_length=10),), ())]
        with pytest.raises(ValueError):
            estimate_crp_alpha(replay_community(trajs))

    def test_empty_input(self):
        with pytest.raises(ValueError):
            estimate_crp_alpha(replay_community([]))


class TestToyScenarios:
    def test_s1a_layout(self):
        toy = toy_scenario("s1a")
        (traj,) = toy
        assert len(traj.events) == 6
        per_answer = [sum(1 for j, _, _ in traj.events if j == i)
                      for i in range(2)]
        assert per_answer == [3, 3]
        assert all(sign == +1 for _, sign, _ in traj.events)
        ranks = {traj.answers[j].answer_id: ctx.rank
                 for (j, _, _), ctx in zip(traj.events, contexts(toy))}
        assert ranks == {"A": 1, "B": 2}

    def test_s1b_all_negative(self):
        (traj,) = toy_scenario("s1b")
        assert all(sign == -1 for _, sign, _ in traj.events)

    def test_s2_zero_final_diff_and_rank_one(self):
        toy = toy_scenario("s2")
        assert len(toy) == 2
        for i, traj in enumerate(toy):
            assert sum(sign for _, sign, _ in traj.events) == 0
            assert all(ctx.rank == 1 for ctx in contexts(toy, i))

    def test_pinned_contexts_match_reconstruction(self):
        for name in ("s1a", "s1b", "s2"):
            toy = toy_scenario(name)
            assert_same_columns(replay_community(list(toy)), toy)
            for i, traj in enumerate(toy):
                assert_same_contexts(contexts(toy, i),
                                     reference_contexts(traj))

    def test_unknown_scenario(self):
        with pytest.raises(ValueError):
            toy_scenario("s9")


class TestScaleTruth:
    def test_min_max_to_unit_interval(self):
        scaled = scale_truth({"a": -2.0, "b": 0.0, "c": 2.0})
        assert scaled == {"a": -1.0, "b": 0.0, "c": 1.0}

    def test_constant_truth(self):
        assert scale_truth({"a": 1.5, "b": 1.5}) == {"a": 0.0, "b": 0.0}


def test_parse_sim_config(tmp_path):
    path = tmp_path / "sim.cfg"
    path.write_text("n_questions = 12\n"
                    "n_events = 240\n"
                    "crp_alpha = 2.5\n"
                    "quality_mean = 0.1\n"
                    "quality_sd = 0.9\n"
                    "true_lambda = 1.5\n"
                    "true_beta = 2.0\n"
                    "true_nu = 0.25\n"
                    "length_source = lognormal:5.0,1.0\n"
                    "question_weight_source = zipf:1.1\n"
                    "seed = 42\n")
    cfg = parse_sim_config(path)
    assert cfg.n_questions == 12 and cfg.crp_alpha == 2.5
    assert cfg.question_weight_source == "zipf:1.1"
    path2 = tmp_path / "bad.cfg"
    path2.write_text("n_questions = 12\nwhatever = 3\n")
    with pytest.raises(ValueError):
        parse_sim_config(path2)
