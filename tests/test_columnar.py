"""Every stage reads a community's columns; each is checked here against
the per-vote walk over trajectory dataclasses that it replaced, with
equal results required bit for bit."""

import math
from dataclasses import replace

import numpy as np
import pytest

from cva.bias import herding_degree
from cva.counterfactual import MOODS, build_population, \
    counterfactual_curve, estimate_quality
from cva.evaluation import (RANKER_CVA, RANKER_NO_POSITION, RANKER_VOTE_DIFF,
                            evaluate_rankers)
from cva.model import (CommunityModel, EncodedEvents, ParameterIndex,
                       model_to_json, vote_probs)
from cva.simulate import SimConfig, generate
from cva.trainer import FitConfig, fit_events, fit_prefixes, \
    training_events
from cva.trajectory import (drop_first_votes, final_rel_lengths,
                            final_vote_diffs, read_trajectories,
                            write_trajectories)
from evaluation_reference import build_ranking_sets, score_rankings
from test_counterfactual import brute_force_quality


@pytest.fixture(scope="module")
def community(tmp_path_factory):
    """(Community read from a file, the same trajectories in memory, a
    model with a quality for every answer but each question's first)."""
    trajs, _ = generate(SimConfig(n_questions=40, n_events=1_500,
                                  crp_alpha=0.7, true_lambda=1.0,
                                  true_beta=2.0, true_nu=0.3, seed=9))
    path = tmp_path_factory.mktemp("columnar") / "t.jsonl"
    write_trajectories(trajs, path)
    rng = np.random.default_rng(3)
    model = CommunityModel(
        q={t.question_id: {a.answer_id: float(rng.normal())
                           for a in t.answers[1:]} for t in trajs},
        nu={t.question_id: float(rng.normal(0, 0.3)) for t in trajs},
        lam=0.8, beta=1.6)
    return read_trajectories(path), trajs, model


def dataclass_events(trajs, drop_first=True, tick=None):
    """The training triples by walking the events."""
    events = []
    for traj in trajs:
        if tick is not None:
            traj = replace(traj, events=tuple(
                ev for ev in traj.events if ev.time_index <= tick))
        if drop_first:
            traj = drop_first_votes(traj)
        for ev in traj.events:
            aid = traj.answers[ev.answer_index].answer_id
            events.append(((traj.question_id, aid), 1 if ev.sign > 0 else 0,
                           ev.context))
    return events


def index_of(events, use_length=True, freeze_beta=None):
    return ParameterIndex([ids for ids, _, _ in events],
                          [qid for (qid, _), _, _ in events]
                          if use_length else [], freeze_beta=freeze_beta)


ENCODED = ("v", "ratio", "length", "inv_rank", "q_slot", "nu_slot")


class TestFitInputs:
    @pytest.mark.parametrize("drop_first", [True, False])
    @pytest.mark.parametrize("use_length, freeze_beta",
                             [(True, None), (True, 0.0), (False, None)])
    def test_encoded_arrays_byte_identical(self, community, drop_first,
                                           use_length, freeze_beta):
        c, trajs, _ = community
        want_events = dataclass_events(trajs, drop_first)
        index = index_of(want_events, use_length, freeze_beta)
        got_events = training_events(c, drop_first=drop_first)
        assert len(got_events) == len(want_events)
        assert got_events.q_keys == index.q_keys
        assert sorted(got_events.question_ids) == index_of(
            want_events).nu_keys
        got = EncodedEvents(index, got_events)
        want = EncodedEvents(index, want_events)
        for name in ENCODED:
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype, name
            assert a.tobytes() == b.tobytes(), name

    def test_events_built_on_access(self, community):
        c, trajs, _ = community
        got = training_events(c)
        assert list(got) == dataclass_events(trajs)
        assert got[-1] == dataclass_events(trajs)[-1]

    def test_prefix_fits_match(self, community):
        c, trajs, _ = community
        config = FitConfig(tol=1e-5)
        ticks = [2, 5, 40]
        got = fit_prefixes(c, config, ticks)
        assert [t for t, _ in got] == ticks
        for tick, model in got:
            want = fit_events(dataclass_events(trajs, tick=tick), config)
            assert model_to_json(model) == model_to_json(want)


def dataclass_herding(model, trajs, drop_first):
    rows = []
    for traj in trajs:
        if drop_first:
            traj = drop_first_votes(traj)
        for ev in traj.events:
            aid = traj.answers[ev.answer_index].answer_id
            ctx = ev.context
            rows.append((model.quality(traj.question_id, aid),
                         model.nu_for(traj.question_id), ctx.pos_ratio,
                         ctx.rel_length, ctx.rank,
                         1.0 if ctx.prior_pos >= ctx.prior_neg else -1.0))
    q, nu, ratio, length, rank, h = np.array(rows, dtype=float).T
    p = vote_probs(q, model.lam, ratio, nu, length, model.beta, rank)
    return math.exp(float(np.sum(h * np.log(p / (1.0 - p)))) / len(rows))


def dataclass_curve(model, trajs, ranks, mood):
    rank_grid = np.arange(1, ranks + 1, dtype=float)
    total = np.zeros(ranks)
    n_answers = 0
    for traj in trajs:
        rel_len = final_rel_lengths(traj)
        by_answer = {}
        for ev in traj.events:
            r = ev.context.pos_ratio
            if (mood == "pos" and r > 0.5) or (mood == "neg" and r < 0.5):
                by_answer.setdefault(ev.answer_index, []).append(r)
        for j, answer in enumerate(traj.answers):
            if not model.has_answer(traj.question_id, answer.answer_id):
                continue
            if mood == "neutral":
                ratio = 0.5
            elif j in by_answer:
                ratio = float(np.mean(by_answer[j]))
            else:
                continue
            total += vote_probs(model.quality(traj.question_id,
                                              answer.answer_id),
                                model.lam, ratio,
                                model.nu_for(traj.question_id),
                                rel_len[answer.answer_id], model.beta,
                                rank_grid)
            n_answers += 1
    return [float(p) for p in total / n_answers], n_answers


class TestScoreStages:
    def test_population(self, community):
        c, trajs, _ = community
        pop = build_population(c)
        events = [ev for t in trajs for ev in t.events]
        want = (np.array([ev.context.pos_ratio for ev in events]),
                np.array([ev.context.rank for ev in events], dtype=float),
                np.array([ev.context.rel_length for ev in events]),
                np.array([ev.time_index for ev in events]))
        for a, b in zip((pop.ratios, pop.ranks, pop.lengths, pop.times),
                        want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_herding(self, community):
        c, trajs, model = community
        q = {}  # every answer scored, first votes included
        for k, (qid, aid) in enumerate(c.answer_keys):
            q.setdefault(qid, {})[aid] = 0.1 * (k % 7) - 0.3
        full = CommunityModel(q=q, nu=model.nu, lam=model.lam,
                              beta=model.beta)
        for drop_first in (True, False):
            assert herding_degree(full, c, drop_first=drop_first) == \
                dataclass_herding(full, trajs, drop_first)

    @pytest.mark.parametrize("aggregate", ["mean", "per_time_sum"])
    def test_quality(self, community, aggregate):
        c, trajs, model = community
        pop = build_population(c)
        got = estimate_quality(model, c, pop, aggregate=aggregate)
        want = brute_force_quality(model, trajs, pop, aggregate, False)
        assert got.keys() == want.keys() and got
        for key, value in want.items():
            assert got[key] == pytest.approx(value, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("mood", MOODS)
    def test_counterfactual_curve(self, community, mood):
        c, trajs, model = community
        result = counterfactual_curve(model, c, 7, mood)
        probs, n_answers = dataclass_curve(model, trajs, 7, mood)
        assert result.n_answers == n_answers > 0
        assert [p for _, p in result.points] == probs

    def test_vote_diff_ranking(self, community):
        c, trajs, model = community
        truth = {aid: float(np.sin(k)) for k, (_, aid) in
                 enumerate(c.answer_keys)}
        got = evaluate_rankers(c, model, model, truth, seed=1,
                               cva_score="q")
        pop = build_population(trajs)
        scores = {
            RANKER_VOTE_DIFF: {(t.question_id, aid): float(d)
                               for t in trajs
                               for aid, d in final_vote_diffs(t).items()},
            RANKER_CVA: {(qid, aid): q for qid, by_a in model.q.items()
                         for aid, q in by_a.items()},
            RANKER_NO_POSITION: estimate_quality(model, trajs, pop)}
        sets, skipped = build_ranking_sets(trajs, truth, scores)
        want = score_rankings(sets, seed=1)
        want.n_skipped += skipped
        assert got.to_json() == want.to_json()
