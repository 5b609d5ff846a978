import logging
import math

import pytest

from cva.bias import (BiasProfile, NoEventsToScoreError, herding_degree,
                      load_profile, map_coordinates, profile_community,
                      profile_to_json, save_profile)
from cva.model import CommunityModel
from cva.simulate import SimConfig, generate
from cva.trainer import FitConfig, fit
from cva.trajectory import (Answer, QuestionTrajectory, VoteContext,
                            VoteEvent, drop_first_votes)
from conftest import event_prob

LOG4 = math.log(4.0)  # sigmoid(log 4) = 0.8


def traj_with_context_events(contexts_and_signs, question_id="q"):
    answers = (Answer(f"{question_id}-a", creation_time=0,
                      text_length=100),)
    events = tuple(
        VoteEvent(0, k + 1, sign, 100 + k, context=c)
        for k, (c, sign) in enumerate(contexts_and_signs))
    return QuestionTrajectory(question_id, answers, events)


def ctx(pos, neg, rank=1, ratio=None):
    if ratio is None:
        ratio = pos / (pos + neg) if pos + neg else 0.5
    return VoteContext(rank=rank, pos_ratio=ratio, rel_length=0.0,
                       prior_pos=pos, prior_neg=neg)


class TestHerdingDegree:
    def test_two_majority_positive_events(self):
        # p = 0.8 per event, majority positive => degree = odds = 4
        model = CommunityModel(q={"q": {"q-a": LOG4}}, nu={"q": 0.0})
        traj = traj_with_context_events([(ctx(1, 0, ratio=0.0), +1),
                                         (ctx(2, 0, ratio=0.0), +1)])
        assert herding_degree(model, [traj], drop_first=False) == \
            pytest.approx(4.0, rel=1e-12)

    def test_coin_flip_probabilities_give_unit_degree(self):
        model = CommunityModel(q={"q": {"q-a": 0.0}}, nu={"q": 0.0})
        traj = traj_with_context_events([(ctx(3, 0, ratio=0.0), +1),
                                         (ctx(0, 3, ratio=0.0), -1)])
        assert herding_degree(model, [traj], drop_first=False) == 1.0

    def test_opposite_majorities_cancel(self):
        model = CommunityModel(q={"q": {"q-a": LOG4}}, nu={"q": 0.0})
        traj = traj_with_context_events([(ctx(1, 0, ratio=0.0), +1),
                                         (ctx(0, 1, ratio=0.0), +1)])
        assert herding_degree(model, [traj], drop_first=False) == \
            pytest.approx(1.0, rel=1e-12)

    def test_tied_priors_count_as_majority_positive(self):
        model = CommunityModel(q={"q": {"q-a": LOG4}}, nu={"q": 0.0})
        traj = traj_with_context_events([(ctx(2, 2, ratio=0.0), +1)])
        assert herding_degree(model, [traj], drop_first=False) == \
            pytest.approx(4.0, rel=1e-12)

    def test_matches_product_form_oracle(self, rng):
        for _ in range(20):
            model = CommunityModel(
                q={"q": {"q-a": float(rng.normal())}},
                nu={"q": float(rng.normal(0, 0.3))},
                lam=float(rng.normal(0, 1)), beta=float(rng.normal(0, 1)))
            n = int(rng.integers(1, 21))
            pairs = []
            for _ in range(n):
                pos, neg = int(rng.integers(0, 5)), int(rng.integers(0, 5))
                c = VoteContext(rank=int(rng.integers(1, 6)),
                                pos_ratio=float(rng.random()),
                                rel_length=float(rng.uniform(-3, 3)),
                                prior_pos=pos, prior_neg=neg)
                pairs.append((c, +1 if rng.random() < 0.5 else -1))
            traj = traj_with_context_events(pairs)
            product = 1.0
            for c, _ in pairs:
                p = event_prob(model, "q", "q-a", c)
                odds = p / (1.0 - p)
                product *= odds if c.prior_pos >= c.prior_neg else 1 / odds
            expected = product ** (1.0 / n)
            got = herding_degree(model, [traj], drop_first=False)
            assert got == pytest.approx(expected, rel=1e-12)

    def test_order_invariance(self, rng):
        model = CommunityModel(q={"qA": {"qA-a": 0.4}, "qB": {"qB-a": -.2}},
                               nu={"qA": 0.0, "qB": 0.0}, lam=0.8, beta=0.5)
        t1 = traj_with_context_events([(ctx(1, 0), +1), (ctx(2, 0), -1)],
                                      question_id="qA")
        t2 = traj_with_context_events([(ctx(0, 2, ratio=0.0), -1)],
                                      question_id="qB")
        a = herding_degree(model, [t1, t2], drop_first=False)
        b = herding_degree(model, [t2, t1], drop_first=False)
        assert a == pytest.approx(b, rel=1e-12)

    def test_zero_events_error(self):
        model = CommunityModel()
        with pytest.raises(ValueError):
            herding_degree(model, [])

    def test_votes_on_unmodelled_answers_skipped(self, caplog):
        # the model lacks answer q-b and question r: their votes are
        # skipped, and q-a's votes score as they would alone
        model = CommunityModel(q={"q": {"q-a": LOG4}}, nu={"q": 0.0})
        on_a = [(ctx(1, 0, ratio=0.0), +1), (ctx(0, 1, ratio=0.2), -1),
                (ctx(2, 1, ratio=0.7), +1)]
        on_b = [(ctx(0, 0), +1), (ctx(1, 0, ratio=0.4), -1)]
        events = tuple(
            VoteEvent(i, k + 1, sign, 100 + k, context=c)
            for k, (i, (c, sign)) in enumerate(
                [(0, on_a[0]), (1, on_b[0]), (0, on_a[1]), (1, on_b[1]),
                 (0, on_a[2])]))
        mixed = QuestionTrajectory(
            "q", (Answer("q-a", creation_time=0, text_length=100),
                  Answer("q-b", creation_time=1, text_length=100)), events)
        other = traj_with_context_events(on_b, question_id="r")
        alone = traj_with_context_events(on_a)
        with caplog.at_level(logging.WARNING, logger="cva.bias"):
            got = herding_degree(model, [mixed, other], drop_first=False)
        assert got == herding_degree(model, [alone], drop_first=False)
        assert [r.getMessage() for r in caplog.records] == [
            "2 answers not in model, their 4 votes skipped (first: q/q-b)"]
        assert profile_community(model, [mixed, other]).n_events == \
            profile_community(model, [alone]).n_events == 2

    def test_no_modelled_answer_error(self):
        traj = traj_with_context_events([(ctx(0, 0), +1)])
        with pytest.raises(NoEventsToScoreError):
            herding_degree(CommunityModel(), [traj], drop_first=False)

    def test_uses_first_vote_dropped_set_by_default(self):
        model = CommunityModel(q={"q": {"q-a": LOG4}}, nu={"q": 0.0})
        traj = traj_with_context_events([(ctx(0, 0), +1),
                                         (ctx(1, 0, ratio=0.0), +1),
                                         (ctx(2, 0, ratio=0.0), +1)])
        assert herding_degree(model, [traj]) == pytest.approx(4.0,
                                                              rel=1e-12)

    def test_herding_community_scores_higher(self):
        degrees = {}
        for lam in (0.0, 2.0):
            cfg = SimConfig(n_questions=40, n_events=1600, crp_alpha=1.0,
                            true_lambda=lam, true_beta=0.5, seed=13)
            trajs, truth = generate(cfg)
            model = CommunityModel(
                q={t.question_id: {a.answer_id: truth[a.answer_id]
                                   for a in t.answers} for t in trajs},
                nu={t.question_id: 0.0 for t in trajs},
                lam=lam, beta=0.5)
            degrees[lam] = herding_degree(model, trajs)
        assert degrees[2.0] > degrees[0.0]


class TestProfile:
    def test_frozen_beta_profile_reports_zero_sensitivity(self):
        cfg = SimConfig(n_questions=15, n_events=500, crp_alpha=1.0,
                        true_beta=2.0, seed=3)
        trajs, _ = generate(cfg)
        model = fit(trajs, FitConfig(freeze_beta=0.0))
        profile = profile_community(model, trajs, community="frozen")
        assert profile.position_sensitivity == 0.0

    def test_profile_deterministic(self):
        cfg = SimConfig(n_questions=15, n_events=500, crp_alpha=1.0,
                        true_lambda=1.0, seed=3)
        trajs, _ = generate(cfg)
        model = fit(trajs, FitConfig())
        p1 = profile_community(model, trajs, community="c")
        p2 = profile_community(model, trajs, community="c")
        assert profile_to_json(p1) == profile_to_json(p2)

    def test_n_events_counts_scored_set(self):
        cfg = SimConfig(n_questions=15, n_events=500, crp_alpha=1.0, seed=3)
        trajs, _ = generate(cfg)
        model = fit(trajs, FitConfig())
        profile = profile_community(model, trajs)
        expected = sum(len(drop_first_votes(t).events) for t in trajs)
        assert profile.n_events == expected

    def test_json_round_trip(self, tmp_path):
        p = BiasProfile(community="c", position_sensitivity=1.5,
                        herding_degree=2.25, n_events=321,
                        median_flags=(True, False))
        save_profile(p, tmp_path / "p.json")
        assert profile_to_json(load_profile(tmp_path / "p.json")) == \
            profile_to_json(p)


class TestMapCoordinates:
    def make(self, herd, pos, name="c"):
        return BiasProfile(community=name, position_sensitivity=pos,
                           herding_degree=herd, n_events=10)

    def test_three_profile_median(self):
        profiles = [self.make(1.0, 0.1, "a"), self.make(2.0, 0.2, "b"),
                    self.make(4.0, 0.3, "c")]
        rows, (mh, mp) = map_coordinates(profiles)
        assert mh == 2.0 and mp == pytest.approx(0.2)
        assert [r["above_median_herding"] for r in rows] == \
            [False, False, True]

    def test_single_profile_not_above_own_median(self):
        (row,), (mh, mp) = map_coordinates([self.make(3.0, 1.0)])
        assert (mh, mp) == (3.0, 1.0)
        assert row["above_median_herding"] is False
        assert row["above_median_position"] is False

    def test_even_count_matches_sort_based_median(self, rng):
        herds = [float(h) for h in rng.uniform(0.5, 5, size=4)]
        poss = [float(p) for p in rng.uniform(-1, 3, size=4)]
        profiles = [self.make(h, p, f"c{i}")
                    for i, (h, p) in enumerate(zip(herds, poss))]
        rows, (mh, mp) = map_coordinates(profiles)
        sh = sorted(herds)
        assert mh == pytest.approx((sh[1] + sh[2]) / 2)
        for row, h in zip(rows, herds):
            assert row["above_median_herding"] == (h > mh)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            map_coordinates([])
