import json
import math
from operator import itemgetter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cva.trajectory import (REL_LENGTH_CLIP, Answer, Community,
                            MalformedTrajectoryError, QuestionTrajectory,
                            _Records, read_trajectories,
                            reconstruct_contexts, replay_community,
                            sequential_sum, trajectory_to_json_line,
                            write_trajectories)
import cva.trajectory
from conftest import (assert_same_columns, assert_same_contexts, contexts,
                      oracle_rank, random_trajectory, reference_contexts,
                      trajectory_from_json)
from replay_reference import reference_read, reference_replay
from test_columnar import final_rel_lengths


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

    def test_duplicate_answer_id_rejected(self):
        answers = (Answer("a0", 0, 10), Answer("a1", 1, 10),
                   Answer("a0", 2, 10))
        with pytest.raises(MalformedTrajectoryError) as info:
            replay(QuestionTrajectory("q", answers, ()))
        assert str(info.value) == "q: duplicate answer_id 'a0'"

    def test_duplicate_answer_id_in_reading_order(self):
        # the repeated id comes before the later answer's length
        answers = (Answer("a0", 0, 10), Answer("a0", 1, 0))
        with pytest.raises(MalformedTrajectoryError, match="duplicate"):
            replay(QuestionTrajectory("q", answers, ()))
        # and after the earlier answer's
        answers = (Answer("a0", 0, 0), Answer("a0", 1, 10))
        with pytest.raises(MalformedTrajectoryError, match="text_length"):
            replay(QuestionTrajectory("q", answers, ()))

    def test_same_answer_id_in_two_questions(self):
        community = replay_community([make_traj(2, [(0, +1)]),
                                      replace(make_traj(2, [(1, +1)]),
                                              question_id="r")])
        assert community.answer_keys == (("q", "a0"), ("q", "a1"),
                                         ("r", "a0"), ("r", "a1"))

    def test_repeated_question_id(self):
        # as in a file: the repeat is raised after any earlier rule fault
        valid = make_traj(1, [(0, +1)])
        other = replace(valid, question_id="p")
        broken = replace(make_traj(1, [(0, +2)]), question_id="p")
        with pytest.raises(MalformedTrajectoryError) as info:
            replay_community([valid, other, valid])
        assert str(info.value) == "duplicate question_id 'q'"
        with pytest.raises(MalformedTrajectoryError, match="p: event sign"):
            replay_community([valid, broken, valid])

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

# Each integer field of the second line's first or second answer or vote
# set to a value that is not a 64-bit integer: a string, floats (whole,
# fractional, NaN, infinite), a bool or an integer just outside int64.
_MISTYPED_VALUES = ("1", 1.0, 0.5, math.nan, math.inf, True, 2 ** 63,
                    -2 ** 63 - 1)
_INT_FIELDS = [("events", pos, field) for pos in (0, 1)
               for field in ("answer_index", "sign", "timestamp")] + \
    [("answers", pos, field) for pos in (0, 1)
     for field in ("creation_time", "text_length")] + \
    [("answers", 1, "acceptance_time")]


def _where(part, pos, field) -> str:
    return f"q: vote {pos + 1} {field}" if part == "events" \
        else f"q/a{pos}: {field}"


@pytest.mark.parametrize("part, pos, field", _INT_FIELDS)
@pytest.mark.parametrize("value", _MISTYPED_VALUES, ids=repr)
def test_mistyped_field(tmp_path, part, pos, field, value):
    obj = _line()
    obj[part][pos][field] = value
    path = tmp_path / "t.jsonl"
    path.write_text(json.dumps(dict(_line(), question_id="p")) + "\n"
                    + json.dumps(obj) + "\n")
    expected = "null or a 64-bit integer" if field == "acceptance_time" \
        else "a 64-bit integer"
    with pytest.raises(MalformedTrajectoryError) as info:
        read_trajectories(path)
    assert str(info.value) == \
        f"{path}:2: {_where(part, pos, field)} must be {expected}, " \
        f"got {value!r}"


@pytest.mark.parametrize("obj, message", [
    (dict(_line(), question_id=5), "question_id must be a string, got 5"),
    (dict(_line(), question_id=None),
     "question_id must be a string, got None"),
    (_line(answers=[_answer(0, 0), _answer("a1", 5, 20, True, 50)]),
     "q: answer_id must be a string, got 0"),
    (_line(answers=[_answer("a0", 0, accepted=1),
                    _answer("a1", 5, 20, True, 50)]),
     "q/a0: accepted must be a boolean, got 1"),
    (_line(answers=[_answer("a0", 0, accepted=None),
                    _answer("a1", 5, 20, True, 50)]),
     "q/a0: accepted must be a boolean, got None"),
], ids=["int_question_id", "null_question_id", "int_answer_id",
        "int_accepted", "null_accepted"])
def test_mistyped_id_or_flag(tmp_path, obj, message):
    path = tmp_path / "t.jsonl"
    path.write_text(json.dumps(obj) + "\n")
    with pytest.raises(MalformedTrajectoryError) as info:
        read_trajectories(path)
    assert str(info.value) == f"{path}:1: {message}"


@pytest.mark.parametrize("event, message", [
    (_event(True, 10),
     "q: vote 1 answer_index must be a 64-bit integer, got True"),
    (_event(0, True),
     "q: vote 1 timestamp must be a 64-bit integer, got True"),
    (_event(0, 10, sign=False),
     "q: vote 1 sign must be a 64-bit integer, got False"),
])
def test_bool_vote_value_named_as_written(tmp_path, event, message):
    obj = _line(answers=[_answer("a0", 1)], events=[event])
    path = tmp_path / "t.jsonl"
    path.write_text(json.dumps(obj) + "\n")
    with pytest.raises(MalformedTrajectoryError) as info:
        read_trajectories(path)
    assert str(info.value) == f"{path}:1: {message}"


def test_true_inside_a_string_loads(tmp_path):
    # a `true` inside a string is no bool: the votes' type check passes
    obj = dict(_line(), question_id="true false true")
    path = tmp_path / "t.jsonl"
    path.write_text(json.dumps(obj) + "\n")
    assert_same_columns(read_trajectories(path), trajectory_from_json(obj))


class TestRecordTypes:
    """Records obey the type rule that JSONL lines do."""

    @pytest.mark.parametrize("events, message", [
        (((0, 1, 10), (0, True, 20)),
         "q: vote 2 sign must be a 64-bit integer, got True"),
        (((0, 1, 10.0),),
         "q: vote 1 timestamp must be a 64-bit integer, got 10.0"),
        (((0, 1, np.int64(10)),),
         f"q: vote 1 timestamp must be a 64-bit integer, "
         f"got {np.int64(10)!r}"),
        (((0, 1, 2 ** 63),),
         "q: vote 1 timestamp must be a 64-bit integer, "
         "got 9223372036854775808"),
    ], ids=["bool", "float", "numpy", "overflow"])
    def test_vote(self, events, message):
        traj = QuestionTrajectory("q", (Answer("a0", 0, 10),), events)
        with pytest.raises(MalformedTrajectoryError) as info:
            replay(traj)
        assert str(info.value) == message

    def test_vote_that_is_not_a_triple(self):
        traj = QuestionTrajectory("q", (Answer("a0", 0, 10),),
                                  ((0, 1, 10), (0, 1, 20, 30)))
        with pytest.raises(ValueError, match="too many values to unpack"):
            replay(traj)

    def test_votes_whose_lengths_add_up_to_triples(self):
        # six values, but no vote is a triple: read as flat thirds they
        # would make two valid votes
        traj = QuestionTrajectory("q", (Answer("a0", 0, 10),),
                                  ((0, 1), (5, 0, 1, 20)))
        with pytest.raises(ValueError, match="not enough values to unpack"):
            replay(traj)

    def test_answer(self):
        traj = QuestionTrajectory("q", (Answer("a0", 0.5, 10),), ())
        with pytest.raises(MalformedTrajectoryError) as info:
            replay(traj)
        assert str(info.value) == \
            "q/a0: creation_time must be a 64-bit integer, got 0.5"

    def test_earlier_rule_fault_wins(self):
        broken = make_traj(1, [(0, +2)])
        mistyped = replace(make_traj(1, [(0, +1)]), question_id=5)
        with pytest.raises(MalformedTrajectoryError, match="sign 2"):
            replay_community([broken, mistyped])
        with pytest.raises(MalformedTrajectoryError,
                           match="question_id must be a string"):
            replay_community([mistyped, broken])


def test_failed_line_leaves_no_votes():
    records = _Records()
    bad = _line(events=[_event(0, 10), _event(1, 20, sign=True)])
    with pytest.raises(MalformedTrajectoryError):
        records.add_json(bad)
    records.add_json(_line())
    assert_same_columns(records.community(), trajectory_from_json(_line()))


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
        (_line(answers=[_answer("a0", 0), _answer("a0", 1)]),
         "q: duplicate answer_id 'a0'"),
    ], ids=["two_accepted", "text_length", "acceptance_time",
            "creation_order", "sign", "timestamp_order", "answer_index",
            "vote_before_creation", "duplicate_answer_id"])
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


class TestEarliestErrorWins:
    """A file reports its first bad line. A line reports its first key or
    type fault in reading order, and only then its first broken rule."""

    def _read_error(self, tmp_path, *lines) -> str:
        path = tmp_path / "t.jsonl"
        path.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(MalformedTrajectoryError) as info:
            read_trajectories(path)
        prefix = f"{path}:"
        assert str(info.value).startswith(prefix)
        return str(info.value)[len(prefix):]

    def test_replay_error_before_invalid_json(self, tmp_path):
        bad = _line(events=[_event(0, 10, sign=0)])
        assert self._read_error(
            tmp_path, json.dumps(dict(_line(), question_id="p")),
            json.dumps(bad), "{") == "2: q: event sign 0 not in {+1,-1}"

    def test_invalid_json_before_replay_error(self, tmp_path):
        bad = _line(events=[_event(0, 10, sign=0)])
        assert self._read_error(
            tmp_path, json.dumps(dict(_line(), question_id="p")), "{",
            json.dumps(bad)).startswith("2: invalid JSON")

    def test_malformed_duplicate_reports_the_malformation(self, tmp_path):
        bad = _line(events=[_event(1, 5)])
        assert self._read_error(tmp_path, json.dumps(_line()),
                                json.dumps(bad)) == \
            "2: q: event at t=5 references answer created at t=5"

    def test_duplicate_after_valid_lines(self, tmp_path):
        assert self._read_error(
            tmp_path, json.dumps(_line()),
            json.dumps(dict(_line(), question_id="p")),
            json.dumps(_line())) == \
            "3: duplicate question_id 'q' (first on line 1)"

    def test_missing_vote_key_before_earlier_vote_rule(self, tmp_path):
        bad = _line(events=[_event(0, 10, sign=0), {"answer_index": 0}])
        assert self._read_error(tmp_path, json.dumps(bad)) == \
            "1: missing key 'sign'"

    def test_missing_vote_key_before_later_vote_error(self, tmp_path):
        bad = _line(events=[_event(0, 10), {"answer_index": 0},
                            _event(0, 10, sign=0)])
        assert self._read_error(tmp_path, json.dumps(bad)) == \
            "1: missing key 'sign'"

    def test_missing_vote_key_before_answer_rule(self, tmp_path):
        bad = _line(answers=[_answer("a0", 0, length=0)],
                    events=[{"timestamp": 3}])
        assert self._read_error(tmp_path, json.dumps(bad)) == \
            "1: missing key 'answer_index'"

    def test_question_id_that_is_a_list(self, tmp_path):
        assert self._read_error(
            tmp_path, json.dumps(dict(_line(), question_id=["q"]))) == \
            "1: question_id must be a string, got ['q']"

    def test_type_fault_before_earlier_rule_fault(self, tmp_path):
        # the rule fault is read first, but types are checked first
        bad = _line(answers=[_answer("a0", 0, length=0),
                             _answer("a1", 5, 20, True, 50)],
                    events=[_event(0, 10), _event(1, 20, sign=0.5)])
        assert self._read_error(tmp_path, json.dumps(bad)) == \
            "1: q: vote 2 sign must be a 64-bit integer, got 0.5"

    def test_answer_type_fault_before_later_missing_key(self, tmp_path):
        second = _answer("a1", 5)
        del second["text_length"]
        bad = _line(answers=[_answer("a0", 1.5), second])
        assert self._read_error(tmp_path, json.dumps(bad)) == \
            "1: q/a0: creation_time must be a 64-bit integer, got 1.5"

    def test_rule_fault_before_later_type_fault(self, tmp_path):
        bad = _line(events=[_event(0, 10, sign=0)])
        mistyped = dict(_line(), question_id="p",
                        events=[_event(0, 1e400)])
        assert self._read_error(tmp_path, json.dumps(bad),
                                json.dumps(mistyped)) == \
            "1: q: event sign 0 not in {+1,-1}"

    def test_type_fault_before_later_rule_fault(self, tmp_path):
        mistyped = dict(_line(), question_id="p", events=[_event(0, 1e400)])
        bad = _line(events=[_event(0, 10, sign=0)])
        assert self._read_error(tmp_path, json.dumps(mistyped),
                                json.dumps(bad)) == \
            "1: p: vote 1 timestamp must be a 64-bit integer, got inf"

    def test_vote_list_that_is_not_a_list(self, tmp_path):
        assert self._read_error(
            tmp_path, json.dumps(dict(_line(), events=5))) == \
            "1: 'int' object is not iterable"


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
    column = replay(QuestionTrajectory("q", (), ())).final_rel_length
    assert column.dtype == np.float64 and column.tolist() == []


def test_final_rel_lengths_mean_zero(rng):
    for _ in range(20):
        traj = random_trajectory(rng)
        rels = replay(traj).final_rel_length.tolist()
        raw = [math.log(a.text_length) for a in traj.answers]
        centered = np.array(raw) - np.mean(raw)
        if np.all(np.abs(centered) <= 3.0):
            assert np.isclose(sum(rels), 0.0, atol=1e-9)
        for v in rels:
            assert -3.0 <= v <= 3.0


def test_final_rel_length_bit_for_bit(rng):
    # 1, 2 to 5, and 40 to 60 answers; a third of the questions unvoted
    trajs = []
    for i, k in enumerate([1] * 5 + list(range(2, 6)) * 3
                          + list(range(40, 61)) * 2):
        answers = tuple(Answer(f"a{j}", j, int(n)) for j, n in
                        enumerate(rng.integers(1, 100_000, size=k)))
        events = () if i % 3 == 0 else tuple(
            (int(j), 1, 100 + t) for t, j in
            enumerate(rng.integers(0, k, size=3)))
        trajs.append(QuestionTrajectory(f"q{i}", answers, events))
    c = replay_community(trajs)
    assert c.final_rel_length.dtype == np.float64
    assert not c.final_rel_length.flags.writeable
    want = [v for traj in trajs for v in final_rel_lengths(traj)]
    assert [v.hex() for v in c.final_rel_length.tolist()] == \
        [v.hex() for v in want]
    # the clip is reached, and a correctly rounded sum would differ
    assert max(map(abs, want)) == REL_LENGTH_CLIP
    assert any(sequential_sum(ll) != math.fsum(ll) for ll in (
        [math.log(a.text_length) for a in traj.answers] for traj in trajs))


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


# values of the wrong type or range that a broken record may hold
_ODD_VALUES = ("1", 1.0, 0.5, -0.5, True, False, 2 ** 63, -2 ** 63 - 1,
               1e30, None, [1])


@st.composite
def broken_lines(draw):
    """JSONL objects of a few questions, most valid, some broken: a field
    set to an odd value or to another number, or moved by one, a key
    dropped, a repeated answer_id or question_id, an odd question_id."""
    objs = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(0, 4))
        created = sorted(draw(st.lists(st.integers(0, 6), min_size=n,
                                       max_size=n)))
        accepted = draw(st.sampled_from(((), (0,), (1,), (3,), (0, 2))))
        answers = [_answer(f"a{i}", c, draw(st.integers(1, 3000)),
                           i in accepted, draw(st.integers(0, 30))
                           if i in accepted else None)
                   for i, c in enumerate(created)]
        events, ts = [], 0
        for _ in range(draw(st.integers(0, 12))):
            ts += draw(st.integers(0, 3))
            existing = [i for i, c in enumerate(created) if c < ts]
            if existing:
                events.append(_event(draw(st.sampled_from(existing)), ts,
                                     draw(st.sampled_from((1, -1)))))
        # 5 and 9 rather than 0, which hypothesis draws far more often
        if len(answers) > 1 and draw(st.integers(0, 7)) == 5:
            first, second = draw(st.permutations(answers))[:2]
            second["answer_id"] = first["answer_id"]
        question_id = draw(st.sampled_from(_ODD_VALUES)) \
            if draw(st.integers(0, 15)) == 9 else f"q{draw(st.integers(0, 9))}"
        obj = {"question_id": question_id, "answers": answers,
               "events": events}
        parts = answers + events
        if parts and draw(st.integers(0, 5)) == 0:
            part = draw(st.sampled_from(parts))
            key = draw(st.sampled_from(sorted(part)))
            how = draw(st.sampled_from(("odd", "number", "nudge", "drop")))
            if how == "odd":
                part[key] = draw(st.sampled_from(_ODD_VALUES))
            elif how == "number":  # often one of the question's times
                part[key] = draw(st.sampled_from(sorted(
                    {-1, 0, 2, *created, *(e["timestamp"] for e in events)})))
            elif how == "nudge" and type(part[key]) is int:
                part[key] += draw(st.sampled_from((-1, 1)))
            else:
                del part[key]
        objs.append(obj)
    return objs


def _outcome(read, *args):
    """What `read(*args)` gives: its columns, or its error's type and
    message."""
    try:
        return read(*args)
    except (ValueError, TypeError, KeyError) as exc:
        return type(exc), str(exc)


def _assert_same_outcome(got, want):
    if isinstance(want, Community):
        assert isinstance(got, Community), got
        assert_same_columns(got, want)
    else:
        assert got == want


class TestKernelMatchesLoop:
    """The array kernel gives the per-vote loop's error, or its columns
    bit for bit, on records valid and broken alike."""

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(broken_lines())
    def test_read(self, tmp_path_factory, objs):
        path = tmp_path_factory.mktemp("broken") / "t.jsonl"
        path.write_text("".join(json.dumps(obj) + "\n" for obj in objs))
        _assert_same_outcome(_outcome(read_trajectories, path),
                             _outcome(reference_read, path))

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(broken_lines())
    def test_replay(self, objs):
        try:
            trajs = [QuestionTrajectory(
                obj["question_id"],
                tuple(Answer(a["answer_id"], a["creation_time"],
                             a["text_length"], a["accepted"],
                             a["acceptance_time"]) for a in obj["answers"]),
                tuple(_RAW_EVENT(e) for e in obj["events"]))
                for obj in objs]
        except KeyError:
            return
        _assert_same_outcome(_outcome(replay_community, trajs),
                             _outcome(reference_replay, trajs))


_RAW_EVENT = itemgetter("answer_index", "sign", "timestamp")


class TestBlocks:
    """Votes are replayed in blocks of bounded size; a question may span
    several."""

    def test_small_blocks_match(self, rng, monkeypatch):
        trajs = [interleaved_trajectory(rng, question_id=f"q{i}")
                 for i in range(60)]
        trajs.append(random_trajectory(rng, "long", max_answers=5,
                                       max_events=400))
        default = replay_community(trajs)
        monkeypatch.setattr(cva.trajectory, "_BLOCK_ENTRIES", 7)
        small = replay_community(trajs)
        assert_same_columns(small, default)
        assert_same_columns(small, reference_replay(trajs))
        assert_same_contexts(contexts(small), [
            ctx for t in trajs for ctx in reference_contexts(t)])
        # a question's votes span several blocks of at most 7 // k rows
        assert max(len(t.events) for t in trajs) > 7
