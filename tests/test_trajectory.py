import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cva.trajectory import (Answer, Community, MalformedTrajectoryError,
                            QuestionTrajectory, read_trajectories,
                            reconstruct_contexts, replay_community,
                            trajectory_to_json_line, write_trajectories)
from conftest import (assert_same_columns, assert_same_contexts, contexts,
                      oracle_rank, random_trajectory, reference_contexts,
                      trajectory_from_json)


def replay(traj: QuestionTrajectory) -> Community:
    return replay_community([traj])


def make_traj(n_answers, votes, lengths=None, accepted=None,
              acceptance_time=None):
    """votes: list of (answer_index, sign); timestamps auto-assigned."""
    lengths = lengths or [100] * n_answers
    answers = tuple(
        Answer(answer_id=f"a{i}", creation_time=i, text_length=lengths[i],
               accepted=(i == accepted),
               acceptance_time=acceptance_time if i == accepted else None)
        for i in range(n_answers))
    events = tuple((j, s, 100 + 10 * k) for k, (j, s) in enumerate(votes))
    return QuestionTrajectory("q", answers, events)


def probe_ranks(diffs):
    """Build per-answer vote histories reaching the given diffs, then read
    each answer's displayed rank off a probe vote."""
    votes = []
    for j, d in enumerate(diffs):
        votes.extend([(j, +1)] * d)
    ranks = []
    for j in range(len(diffs)):
        c = replay(make_traj(len(diffs), votes + [(j, +1)]))
        ranks.append(contexts(c)[-1].rank)
    return ranks


class TestReconstructContexts:
    def test_rank_by_vote_difference(self):
        assert probe_ranks([3, 1, 2]) == [1, 3, 2]

    def test_tie_break_earlier_creation_wins(self):
        assert probe_ranks([0, 0]) == [1, 2]

    def test_pos_ratio(self):
        traj = make_traj(1, [(0, +1), (0, +1), (0, +1), (0, -1), (0, +1)])
        ctx = contexts(replay(traj))[-1]
        assert ctx.pos_ratio == 0.75
        assert (ctx.prior_pos, ctx.prior_neg) == (3, 1)

    def test_first_vote_neutral_ratio(self):
        c = replay(make_traj(1, [(0, +1)]))
        assert contexts(c)[0].pos_ratio == 0.5

    def test_rel_length_centered_log(self):
        traj = make_traj(2, [(0, +1), (1, +1)], lengths=[10, 1000])
        out = contexts(replay(traj))
        expected = math.log(10) - (math.log(10) + math.log(1000)) / 2
        assert out[0].rel_length == pytest.approx(expected)
        assert out[1].rel_length == pytest.approx(-expected)

    def test_rel_length_clipped(self):
        traj = make_traj(2, [(0, +1)], lengths=[1, 10 ** 6])
        assert contexts(replay(traj))[0].rel_length == -3.0

    def test_accepted_answer_leaves_rank_pool(self):
        # a0 accepted at t=105 with a big lead; afterwards a1 ranks first
        votes = [(0, +1), (0, +1), (1, +1)]
        traj = make_traj(2, votes, accepted=0, acceptance_time=105)
        assert contexts(replay(traj))[2].rank == 1

    def test_event_before_answer_creation_rejected(self):
        answers = (Answer("a0", creation_time=50, text_length=10),)
        events = ((0, 1, 50),)
        with pytest.raises(MalformedTrajectoryError):
            replay(QuestionTrajectory("q", answers, events))

    def test_idempotent(self, rng):
        # a replayed question's record, built from its columns, replays
        # to the same columns
        for _ in range(20):
            once = replay(random_trajectory(rng))
            assert_same_columns(replay_community(list(once)), once)

    def test_one_question_alias(self, rng):
        traj = random_trajectory(rng)
        assert_same_columns(reconstruct_contexts(traj), replay(traj))

    def test_rank_matches_brute_force_oracle(self, rng):
        for _ in range(200):
            traj = random_trajectory(rng)
            for pos, ctx in enumerate(contexts(replay(traj))):
                assert ctx.rank == oracle_rank(traj, pos)

    def test_context_bounds(self, rng):
        for _ in range(50):
            for ctx in contexts(replay(random_trajectory(rng))):
                assert 0.0 <= ctx.pos_ratio <= 1.0
                assert -3.0 <= ctx.rel_length <= 3.0
                assert ctx.rank >= 1

    def test_sign_sum_equals_final_diff(self, rng):
        for _ in range(30):
            traj = random_trajectory(rng)
            c = replay(traj)
            diffs = np.bincount(c.answer_slot, weights=c.sign,
                                minlength=c.n_answers)
            for i in range(len(traj.answers)):
                manual = sum(sign for j, sign, _ in traj.events if j == i)
                assert diffs[i] == manual


def interleaved_trajectory(rng: np.random.Generator, question_id="q"
                           ) -> QuestionTrajectory:
    """A valid trajectory whose answers appear between votes.

    Creation times come from a narrow range (ties), signs are even odds
    (vote-difference ties), timestamps may repeat, and an accepted answer
    is accepted halfway through, so it is voted on before and after.
    """
    n_answers = int(rng.integers(1, 7))
    creations = np.sort(rng.integers(0, 12, size=n_answers))
    stamps = np.cumsum(rng.integers(0, 3, size=int(rng.integers(1, 60))))
    acc = int(rng.integers(0, n_answers)) if rng.random() < 0.7 else None
    acc_time = int(np.median(stamps)) if acc is not None else None
    answers = tuple(
        Answer(answer_id=f"a{i}", creation_time=int(c),
               text_length=int(rng.integers(1, 5000)), accepted=(i == acc),
               acceptance_time=acc_time if i == acc else None)
        for i, c in enumerate(creations))
    events = []
    for ts in stamps:
        existing = [i for i, c in enumerate(creations) if c < ts]
        if not existing:
            continue
        # the accepted answer draws half the votes once it exists
        j = acc if acc in existing and rng.random() < 0.5 \
            else int(rng.choice(existing))
        events.append((j, 1 if rng.random() < 0.5 else -1, int(ts)))
    return QuestionTrajectory(question_id, answers, tuple(events))


@st.composite
def trajectories(draw):
    n_answers = draw(st.integers(1, 6))
    creations = sorted(draw(st.lists(st.integers(0, 8), min_size=n_answers,
                                     max_size=n_answers)))
    lengths = draw(st.lists(st.integers(1, 5000), min_size=n_answers,
                            max_size=n_answers))
    acc = draw(st.none() | st.integers(0, n_answers - 1))
    acc_time = draw(st.integers(0, 40)) if acc is not None else None
    answers = tuple(
        Answer(answer_id=f"a{i}", creation_time=c, text_length=n,
               accepted=(i == acc),
               acceptance_time=acc_time if i == acc else None)
        for i, (c, n) in enumerate(zip(creations, lengths)))
    steps = draw(st.lists(st.tuples(st.integers(0, 2),
                                    st.integers(0, n_answers - 1),
                                    st.sampled_from((+1, -1))),
                          max_size=50))
    events = []
    ts = 0
    for gap, j, sign in steps:
        ts += gap
        if creations[j] < ts:
            events.append((j, sign, ts))
    return QuestionTrajectory("q", answers, tuple(events))


def assert_replays_reference(c: Community, i: int,
                             traj: QuestionTrajectory):
    """Question i of `c` holds `traj`'s votes, numbered from 1, with the
    reference contexts bit for bit."""
    rows = slice(c.event_starts[i], c.event_starts[i + 1])
    assert list(zip(c.answer_index[rows].tolist(), c.sign[rows].tolist(),
                    c.timestamp[rows].tolist())) == list(traj.events)
    assert c.time_index[rows].tolist() == \
        list(range(1, len(traj.events) + 1))
    assert_same_contexts(contexts(c, i), reference_contexts(traj))


class TestReplayMatchesReference:
    def test_reconstruct_bit_identical(self, rng):
        voted_both_sides = 0
        for _ in range(400):
            traj = interleaved_trajectory(rng)
            assert_replays_reference(replay(traj), 0, traj)
            acc = traj.accepted_answer_index()
            if acc is not None:
                cut = traj.answers[acc].acceptance_time
                stamps = [ts for j, _, ts in traj.events if j == acc]
                voted_both_sides += any(t <= cut for t in stamps) \
                    and any(t > cut for t in stamps)
        assert voted_both_sides > 50

    def test_load_bit_identical(self, rng, tmp_path):
        trajs = [interleaved_trajectory(rng, question_id=f"q{i}")
                 for i in range(200)]
        path = tmp_path / "t.jsonl"
        write_trajectories(trajs, path)
        got = read_trajectories(path)
        for i, traj in enumerate(trajs):
            assert_replays_reference(got, i, traj)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(trajectories())
    def test_property_bit_identical(self, traj):
        assert_replays_reference(replay(traj), 0, traj)
        back = trajectory_from_json(json.loads(trajectory_to_json_line(traj)))
        assert_replays_reference(back, 0, traj)


class TestDropFirstVotes:
    """The `first_vote` mask marks the votes a fit drops."""

    def test_drops_first_keeps_contexts(self):
        c = replay(make_traj(1, [(0, +1), (0, +1), (0, -1)]))
        kept = ~c.first_vote
        assert c.sign[kept].tolist() == [+1, -1]
        # contexts computed against the full history stay untouched
        ctx = contexts(c)
        assert [x for x, k in zip(ctx, kept) if k] == ctx[1:]
        assert ctx[1].prior_pos == 1

    def test_single_vote_answer_contributes_nothing(self):
        c = replay(make_traj(1, [(0, +1)]))
        assert c.first_vote.all()

    def test_two_answers_three_votes_each(self):
        votes = [(0, +1), (1, +1), (0, +1), (1, -1), (0, -1), (1, +1)]
        c = replay(make_traj(2, votes))
        assert int((~c.first_vote).sum()) == 4


class TestValidation:
    def test_two_accepted_answers_rejected(self):
        answers = (Answer("a0", 0, 10, True, 100),
                   Answer("a1", 1, 10, True, 100))
        with pytest.raises(MalformedTrajectoryError):
            replay(QuestionTrajectory("q", answers, ()))

    def test_acceptance_time_iff_accepted(self):
        answers = (Answer("a0", 0, 10, False, 100),)
        with pytest.raises(MalformedTrajectoryError):
            replay(QuestionTrajectory("q", answers, ()))

    def test_zero_length_answer_rejected(self):
        answers = (Answer("a0", 0, 0),)
        with pytest.raises(MalformedTrajectoryError):
            replay(QuestionTrajectory("q", answers, ()))

    def test_bad_sign_rejected(self):
        traj = make_traj(1, [(0, +2)])
        with pytest.raises(MalformedTrajectoryError):
            replay(traj)


def _answer(aid, created, length=10, accepted=False, at=None):
    return {"answer_id": aid, "creation_time": created,
            "text_length": length, "accepted": accepted,
            "acceptance_time": at}


def _event(j, ts, sign=1):
    return {"answer_index": j, "timestamp": ts, "sign": sign}


def _line(answers=None, events=None) -> dict:
    """A valid two-answer question as a JSONL object."""
    return {"question_id": "q",
            "answers": answers or [_answer("a0", 0),
                                   _answer("a1", 5, 20, True, 50)],
            "events": events or [_event(0, 10), _event(1, 20, -1)]}


class TestValidatedOnLoad:
    """Every structural invariant is checked while the JSONL is read."""

    @pytest.mark.parametrize("obj, message", [
        (_line(answers=[_answer("a0", 0, accepted=True, at=9),
                        _answer("a1", 1, accepted=True, at=9)]),
         "2 accepted answers"),
        (_line(answers=[_answer("a0", 0, length=0), _answer("a1", 1)]),
         "text_length < 1"),
        (_line(answers=[_answer("a0", 0, at=9), _answer("a1", 1)]),
         "acceptance_time must be present iff accepted"),
        (_line(answers=[_answer("a0", 3), _answer("a1", 1)]),
         "answers not ordered by creation_time"),
        (_line(events=[_event(0, 10, sign=0)]), "event sign 0"),
        (_line(events=[_event(0, 20), _event(1, 10)]),
         "events not ordered by timestamp"),
        (_line(events=[_event(2, 10)]), "answer_index 2 out of range"),
        (_line(events=[_event(1, 5)]),
         "event at t=5 references answer created at t=5"),
    ], ids=["two_accepted", "text_length", "acceptance_time",
            "creation_order", "sign", "timestamp_order", "answer_index",
            "vote_before_creation"])
    def test_read_rejects(self, tmp_path, obj, message):
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps(_line()) + "\n" + json.dumps(obj) + "\n")
        with pytest.raises(MalformedTrajectoryError, match=message):
            read_trajectories(path)

    def test_valid_line_loads_with_contexts(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps(_line()) + "\n")
        assert read_trajectories(path).rank.tolist() == [1, 2]

    def test_time_index_numbered_per_question(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trajectories([make_traj(1, [(0, +1), (0, -1)]),
                            replace(make_traj(2, [(1, +1)] * 3),
                                    question_id="r")], path)
        assert read_trajectories(path).time_index.tolist() == \
            [1, 2, 1, 2, 3]


class TestJsonl:
    def test_round_trip(self, rng, tmp_path):
        trajs = [random_trajectory(rng, question_id=f"q{i}")
                 for i in range(5)]
        path = tmp_path / "t.jsonl"
        write_trajectories(trajs, path)
        back = read_trajectories(path)
        assert [trajectory_to_json_line(t) for t in trajs] == \
               [trajectory_to_json_line(t) for t in back]
        assert list(back) == trajs
        assert_same_columns(back, replay_community(trajs))

    def test_field_names(self):
        traj = make_traj(1, [(0, +1)])
        obj = json.loads(trajectory_to_json_line(traj))
        assert set(obj) == {"question_id", "answers", "events"}
        assert set(obj["answers"][0]) == {"answer_id", "creation_time",
                                          "text_length", "accepted",
                                          "acceptance_time"}
        assert set(obj["events"][0]) == {"answer_index", "timestamp",
                                         "sign"}

    def test_time_index_assigned_on_load(self):
        traj = make_traj(2, [(0, +1), (1, -1), (0, +1)])
        back = trajectory_from_json(json.loads(trajectory_to_json_line(traj)))
        assert back.time_index.tolist() == [1, 2, 3]


def test_final_rel_lengths_no_answers():
    assert replay(QuestionTrajectory("q", (), ())).final_rel_lengths() == []


def test_final_rel_lengths_mean_zero(rng):
    for _ in range(20):
        traj = random_trajectory(rng)
        rels = replay(traj).final_rel_lengths()
        raw = [math.log(a.text_length) for a in traj.answers]
        centered = np.array(raw) - np.mean(raw)
        if np.all(np.abs(centered) <= 3.0):
            assert np.isclose(sum(rels), 0.0, atol=1e-9)
        for v in rels:
            assert -3.0 <= v <= 3.0


class TestCommunityColumns:
    """The columns read from a file equal those built in memory, by a
    replay or from the reference contexts, and a community's records
    replay to its columns."""

    def test_read_matches_in_memory(self, rng, tmp_path):
        trajs = [interleaved_trajectory(rng, question_id=f"q{i}")
                 for i in range(200)]
        trajs += [random_trajectory(rng, question_id=f"r{i}")
                  for i in range(50)]
        path = tmp_path / "t.jsonl"
        write_trajectories(trajs, path)
        got = read_trajectories(path)
        assert isinstance(got, Community)
        assert_same_columns(got, replay_community(trajs))
        assert_same_columns(replay_community(list(got)), got)
        assert_same_contexts(contexts(got), [
            ctx for t in trajs for ctx in reference_contexts(t)])

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(trajectories())
    def test_property_columns(self, traj):
        line = json.loads(trajectory_to_json_line(traj))
        replayed = replay(traj)
        assert_same_contexts(contexts(replayed), reference_contexts(traj))
        assert_same_columns(replayed, trajectory_from_json(line))
        assert_same_columns(replay_community(list(replayed)), replayed)

    def test_first_vote_mask_drops_first_votes(self, rng):
        trajs = [interleaved_trajectory(rng, question_id=f"q{i}")
                 for i in range(100)]
        community = replay_community(trajs)
        for i, traj in enumerate(trajs):
            rows = slice(community.event_starts[i],
                         community.event_starts[i + 1])
            seen, first = set(), []
            for j, _, _ in traj.events:
                first.append(j not in seen)
                seen.add(j)
            assert community.first_vote[rows].tolist() == first

    def test_sequence_of_trajectories(self, rng):
        trajs = [interleaved_trajectory(rng, question_id=f"q{i}")
                 for i in range(20)]
        community = replay_community(trajs)
        assert len(community) == 20
        assert list(community) == trajs
        assert community[-1].question_id == "q19"
        assert [t.question_id for t in community[2:5]] == ["q2", "q3", "q4"]
        with pytest.raises(IndexError):
            community[20]
        with pytest.raises(ValueError):
            community.sign[0] = 1  # columns are read-only
