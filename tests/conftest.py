"""Shared test helpers: random valid trajectories and brute-force oracles."""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cva.model import (CommunityModel, EncodedEvents, ParameterIndex,
                       objective_and_grad, vote_prob)
from cva.trajectory import (NEUTRAL_POS_RATIO, REL_LENGTH_CLIP, Answer,
                            QuestionTrajectory, VoteContext, VoteEvent,
                            _Columns, _replay_json)

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_DIR = DATA_DIR / "golden"


def random_trajectory(rng: np.random.Generator, question_id="q",
                      max_answers=5, max_events=30,
                      allow_accepted=True) -> QuestionTrajectory:
    """A structurally valid random trajectory for oracle tests."""
    n_answers = int(rng.integers(1, max_answers + 1))
    creations = np.sort(rng.integers(0, 40, size=n_answers))
    accepted_idx = None
    acceptance_time = None
    answers = []
    n_events = int(rng.integers(1, max_events + 1))
    last_t = 40 + 3 * n_events + 5
    if allow_accepted and n_answers > 1 and rng.random() < 0.5:
        accepted_idx = int(rng.integers(0, n_answers))
        acceptance_time = int(rng.integers(45, last_t))
    for i, c in enumerate(creations):
        answers.append(Answer(
            answer_id=f"a{i}",
            creation_time=int(c),
            text_length=int(rng.integers(1, 5000)),
            accepted=(i == accepted_idx),
            acceptance_time=acceptance_time if i == accepted_idx else None))

    events = []
    t = 41  # all answers exist before the first event
    for k in range(n_events):
        t += int(rng.integers(1, 4))
        j = int(rng.integers(0, n_answers))
        sign = +1 if rng.random() < 0.6 else -1
        events.append(VoteEvent(answer_index=j, time_index=k + 1,
                                sign=sign, timestamp=t))
    return QuestionTrajectory(question_id=question_id,
                              answers=tuple(answers), events=tuple(events))


def oracle_rank(traj: QuestionTrajectory, event_pos: int) -> int:
    """Rank of the voted answer computed by a from-scratch re-sort.

    Replays all earlier events to rebuild the vote state, then sorts the
    answers existing at that instant. Independent O(E*J) path used to
    cross-check the incremental reconstruction.
    """
    ev = traj.events[event_pos]
    diffs = [0] * len(traj.answers)
    for earlier in traj.events[:event_pos]:
        diffs[earlier.answer_index] += earlier.sign
    pool = [i for i, a in enumerate(traj.answers)
            if a.creation_time < ev.timestamp]
    acc = traj.accepted_answer_index()
    if (acc is not None and acc != ev.answer_index
            and ev.timestamp > traj.answers[acc].acceptance_time):
        pool = [i for i in pool if i != acc]
    ordered = sorted(pool, key=lambda i: (-diffs[i],
                                          traj.answers[i].creation_time))
    return ordered.index(ev.answer_index) + 1


def reference_contexts(traj: QuestionTrajectory) -> QuestionTrajectory:
    """Contexts by re-sorting every answer at every vote.

    The straightforward O(E*J log J) replay, kept as the reference that
    the incremental replay in `cva.trajectory` must match bit for bit.
    Expects a valid trajectory.
    """
    pos = [0] * len(traj.answers)
    neg = [0] * len(traj.answers)
    log_len = [math.log(a.text_length) for a in traj.answers]
    acc = traj.accepted_answer_index()
    new_events = []
    for ev in traj.events:
        j = ev.answer_index
        n_prior = pos[j] + neg[j]
        ratio = pos[j] / n_prior if n_prior else NEUTRAL_POS_RATIO

        diffs = [p - n for p, n in zip(pos, neg)]
        existing = [i for i, a in enumerate(traj.answers)
                    if a.creation_time < ev.timestamp]
        shown = existing
        if (acc is not None and acc != j
                and ev.timestamp > traj.answers[acc].acceptance_time):
            shown = [i for i in existing if i != acc]
        order = sorted(shown, key=lambda i: (-diffs[i],
                                             traj.answers[i].creation_time))
        rank = order.index(j) + 1

        ll_sum = 0.0    # in index order, as the replay accumulates it
        for i in existing:
            ll_sum += log_len[i]
        mean_ll = ll_sum / len(existing)
        rel_len = max(-REL_LENGTH_CLIP,
                      min(REL_LENGTH_CLIP, log_len[j] - mean_ll))

        ctx = VoteContext(rank=rank, pos_ratio=ratio, rel_length=rel_len,
                          prior_pos=pos[j], prior_neg=neg[j])
        new_events.append(replace(ev, context=ctx))
        if ev.sign > 0:
            pos[j] += 1
        else:
            neg[j] += 1
    return replace(traj, events=tuple(new_events))


def trajectory_from_json(obj: dict) -> QuestionTrajectory:
    """One JSONL line's question, validated and replayed as
    `read_trajectories` reads it."""
    cols = _Columns()
    _replay_json(cols, obj)
    return cols.community()[0]


def nll_and_grad(model: CommunityModel, events):
    """Objective and gradient at the model's own parameters, aligned with
    the ParameterIndex of its q and nu maps."""
    index = ParameterIndex(
        q_keys=[(qid, aid) for qid, by_a in model.q.items() for aid in by_a],
        nu_keys=list(model.nu.keys()))
    data = EncodedEvents(index, events)
    return objective_and_grad(index.pack(model), data, model.l2_weight)


def event_prob(model: CommunityModel, question_id: str, answer_id: str,
               ctx) -> float:
    """vote_prob with q and nu looked up from the model."""
    return vote_prob(model, model.quality(question_id, answer_id), ctx,
                     nu=model.nu_for(question_id))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
