"""Shared test helpers: random valid trajectories, brute-force oracles,
and the per-vote context tuples that the oracles compare columns with."""

import math
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from cva.counterfactual import estimate_quality
from cva.model import (CommunityModel, EncodedEvents, ParameterIndex,
                       objective_and_grad, vote_probs)
from cva.trajectory import (NEUTRAL_POS_RATIO, REL_LENGTH_CLIP, Answer,
                            Community, QuestionTrajectory, _Records)

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_DIR = DATA_DIR / "golden"


class Context(NamedTuple):
    """What the voter saw right before casting one vote."""

    rank: int            # 1-based displayed rank
    pos_ratio: float     # prior positive-vote ratio, 0.5 with no priors
    rel_length: float    # centered log-length, clipped to +-REL_LENGTH_CLIP
    prior_pos: int
    prior_neg: int


CONTEXT_COLUMNS = Context._fields


def contexts(community: Community, i=None) -> list[Context]:
    """The contexts of question i's votes (every vote's without i), read
    from the community's columns."""
    rows = slice(None) if i is None \
        else slice(community.event_starts[i], community.event_starts[i + 1])
    return [Context(*values) for values in zip(
        *(getattr(community, name)[rows].tolist()
          for name in CONTEXT_COLUMNS))]


def assert_same_contexts(got: list[Context], want: list[Context]):
    """Equal contexts, floats compared bit for bit."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.rank, a.prior_pos, a.prior_neg) == \
               (b.rank, b.prior_pos, b.prior_neg)
        assert a.pos_ratio.hex() == b.pos_ratio.hex()
        assert a.rel_length.hex() == b.rel_length.hex()


COLUMNS = ("event_starts", "question", "answer_index", "sign", "timestamp",
           "time_index", "rank", "pos_ratio", "rel_length", "prior_pos",
           "prior_neg", "answer_slot", "first_vote", "final_rel_length")


def assert_same_columns(got: Community, want: Community):
    assert got.question_ids == want.question_ids
    assert got.answers == want.answers
    assert got.answer_keys == want.answer_keys
    for name in COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


def community_of(questions) -> Community:
    """A Community whose votes carry the contexts given, not replayed
    ones. `questions` holds (question_id, answers, votes), each vote an
    (answer_index, sign, Context); vote k is cast at t = 100 + k."""
    question_ids, answers, n_events, rows = [], [], [], []
    for question_id, question_answers, votes in questions:
        question_ids.append(question_id)
        answers.append(tuple(question_answers))
        n_events.append(len(votes))
        rows += [(j, sign, 100 + k, k + 1, *ctx)
                 for k, (j, sign, ctx) in enumerate(votes)]
    names = ("answer_index", "sign", "timestamp", "time_index",
             *CONTEXT_COLUMNS)
    values = list(zip(*rows)) or [()] * len(names)
    columns = {name: np.array(column, dtype=float if name in (
        "pos_ratio", "rel_length") else np.int64)
        for name, column in zip(names, values)}
    return Community(tuple(question_ids), tuple(answers),
                     np.array(n_events, dtype=np.int64), **columns)


def event_community(events) -> Community:
    """A community whose votes are `events`, ((question_id, answer_id), v,
    Context) with v = 1 for a positive vote, cast in those contexts;
    grouped by question, in order within one."""
    questions: dict[str, tuple[list, list]] = {}
    for (question_id, answer_id), v, ctx in events:
        answer_ids, votes = questions.setdefault(question_id, ([], []))
        if answer_id not in answer_ids:
            answer_ids.append(answer_id)
        votes.append((answer_ids.index(answer_id), 1 if v else -1, ctx))
    return community_of(
        (question_id, tuple(Answer(aid, k, 100)
                            for k, aid in enumerate(answer_ids)), votes)
        for question_id, (answer_ids, votes) in questions.items())


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
        events.append((j, sign, t))
    return QuestionTrajectory(question_id=question_id,
                              answers=tuple(answers), events=tuple(events))


def oracle_rank(traj: QuestionTrajectory, event_pos: int) -> int:
    """Rank of the voted answer computed by a from-scratch re-sort.

    Replays all earlier events to rebuild the vote state, then sorts the
    answers existing at that instant. Independent O(E*J) path used to
    cross-check the incremental reconstruction.
    """
    j, _, ts = traj.events[event_pos]
    diffs = [0] * len(traj.answers)
    for i, sign, _ in traj.events[:event_pos]:
        diffs[i] += sign
    pool = [i for i, a in enumerate(traj.answers) if a.creation_time < ts]
    acc = traj.accepted_answer_index()
    if (acc is not None and acc != j
            and ts > traj.answers[acc].acceptance_time):
        pool = [i for i in pool if i != acc]
    ordered = sorted(pool, key=lambda i: (-diffs[i],
                                          traj.answers[i].creation_time))
    return ordered.index(j) + 1


def reference_contexts(traj: QuestionTrajectory) -> list[Context]:
    """Each vote's context, by re-sorting every answer at every vote.

    The straightforward O(E*J log J) replay, kept as the reference that
    the incremental replay in `cva.trajectory` must match bit for bit.
    Expects a valid trajectory.
    """
    pos = [0] * len(traj.answers)
    neg = [0] * len(traj.answers)
    log_len = [math.log(a.text_length) for a in traj.answers]
    acc = traj.accepted_answer_index()
    out = []
    for j, sign, ts in traj.events:
        n_prior = pos[j] + neg[j]
        ratio = pos[j] / n_prior if n_prior else NEUTRAL_POS_RATIO

        diffs = [p - n for p, n in zip(pos, neg)]
        existing = [i for i, a in enumerate(traj.answers)
                    if a.creation_time < ts]
        shown = existing
        if (acc is not None and acc != j
                and ts > traj.answers[acc].acceptance_time):
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

        out.append(Context(rank=rank, pos_ratio=ratio, rel_length=rel_len,
                           prior_pos=pos[j], prior_neg=neg[j]))
        if sign > 0:
            pos[j] += 1
        else:
            neg[j] += 1
    return out


def trajectory_from_json(obj: dict) -> Community:
    """One JSONL line's question, validated and replayed as
    `read_trajectories` reads it."""
    records = _Records()
    records.add_json(obj)
    return records.community()


def quality_by_key(model: CommunityModel, community: Community, population,
                   **options) -> dict[tuple[str, str], float]:
    """`estimate_quality`'s (modelled, q_hat) by answer slot as
    {(question_id, answer_id): Q_hat} over the modelled answers."""
    modelled, q_hat = estimate_quality(model, community, population,
                                       **options)
    return {key: value for key, has, value in zip(
        community.answer_keys, modelled.tolist(), q_hat.tolist()) if has}


def encode(community: Community, rows=None, use_length=True,
           freeze_beta=None) -> tuple[ParameterIndex, EncodedEvents]:
    """The parameter index and encoded events of the community's rows
    `rows` (all without them)."""
    if rows is None:
        rows = np.arange(len(community.sign))
    index = ParameterIndex(community, rows, use_length, freeze_beta)
    return index, EncodedEvents(index, rows)


def nll_and_grad(model: CommunityModel, community: Community, rows=None):
    """Objective and gradient at the model's own parameters, laid out
    over the community's rows `rows` (all without them), with length
    coefficients if the model has any."""
    index, data = encode(community, rows, use_length=bool(model.nu))
    return objective_and_grad(index.pack(model), data, model.l2_weight)


def vote_prob(model: CommunityModel, q: float, ctx: Context,
              nu: float = 0.0) -> float:
    """Positive-vote probability for quality `q` and length coefficient
    `nu` in context `ctx`."""
    return float(vote_probs(q, model.lam, ctx.pos_ratio, nu, ctx.rel_length,
                            model.beta, ctx.rank))


def event_prob(model: CommunityModel, question_id: str, answer_id: str,
               ctx: Context) -> float:
    """vote_prob with q and nu looked up from the model."""
    return vote_prob(model, model.q[question_id][answer_id], ctx,
                     nu=model.nu.get(question_id, 0.0))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
