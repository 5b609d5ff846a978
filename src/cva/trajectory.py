"""In-memory data model for helpfulness-voting trajectories.

A question owns an ordered list of answers and a chronological stream of
votes. A `QuestionTrajectory` is that raw record: each vote is an
(answer_index, sign, timestamp) triple, as one JSONL line holds it.
Loading a community's records validates them and works out the context
each voter saw: the answer's displayed rank, its perceived positive-vote
ratio, and its length relative to the answers coexisting at that moment.
Contexts use strictly earlier votes only. Both steps are array kernels
over the community's flat columns: questions with the same number of
answers k are replayed together, each vote's view of its question's
answers one row of a (votes x k) block. A `Community` holds the votes and
contexts as columns, which every stage reads; iterating it yields the raw
records again.
"""

from __future__ import annotations

import json
import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Optional

import numpy as np

from .configio import not_utf8

REL_LENGTH_CLIP = 3.0
NEUTRAL_POS_RATIO = 0.5  # ratio before an answer has received any vote
# (votes x answers) entries per block of the replay kernel, 512 KiB as
# int64: its temporaries stay this small however many votes a question
# has.
_BLOCK_ENTRIES = 1 << 16
_INT64_MIN, _INT64_MAX = -2 ** 63, 2 ** 63 - 1


class MalformedTrajectoryError(ValueError):
    """Raised when a trajectory violates its structural invariants."""


@dataclass(frozen=True)
class Answer:
    answer_id: str
    creation_time: int
    text_length: int
    accepted: bool = False
    acceptance_time: Optional[int] = None


@dataclass(frozen=True)
class QuestionTrajectory:
    """One question as recorded: its answers in creation order and its
    votes as (answer_index, sign, timestamp) triples in chronological
    order. `replay_community` validates it and adds the contexts."""

    question_id: str
    answers: tuple[Answer, ...]
    events: tuple[tuple[int, int, int], ...]

    def accepted_answer_index(self) -> Optional[int]:
        return next((i for i, a in enumerate(self.answers) if a.accepted),
                    None)


def _check_question(question_id: str, answers: tuple[Answer, ...],
                    votes) -> None:
    """Raise the error of the first rule that one question breaks, the
    rules met in reading order: its answers, then vote by vote. Only the
    first question that the array checks of `_Records.community` flag is
    read this way."""
    n_accepted = sum(1 for a in answers if a.accepted)
    if n_accepted > 1:
        raise MalformedTrajectoryError(
            f"{question_id}: {n_accepted} accepted answers")
    seen = set()
    for a in answers:
        if a.answer_id in seen:
            raise MalformedTrajectoryError(
                f"{question_id}: duplicate answer_id {a.answer_id!r}")
        seen.add(a.answer_id)
        if a.text_length < 1:
            raise MalformedTrajectoryError(
                f"{question_id}/{a.answer_id}: text_length < 1")
        if a.accepted != (a.acceptance_time is not None):
            raise MalformedTrajectoryError(
                f"{question_id}/{a.answer_id}: acceptance_time must be "
                "present iff accepted")
    created = [a.creation_time for a in answers]
    if created != sorted(created):
        raise MalformedTrajectoryError(
            f"{question_id}: answers not ordered by creation_time")
    prev_ts = None
    for j, sign, ts in votes:
        if sign not in (+1, -1):
            raise MalformedTrajectoryError(
                f"{question_id}: event sign {sign} not in {{+1,-1}}")
        if prev_ts is not None and ts < prev_ts:
            raise MalformedTrajectoryError(
                f"{question_id}: events not ordered by timestamp")
        prev_ts = ts
        if not 0 <= j < len(answers):
            raise MalformedTrajectoryError(
                f"{question_id}: answer_index {j} out of range")
        if created[j] >= ts:
            raise MalformedTrajectoryError(
                f"{question_id}: event at t={ts} references answer "
                f"created at t={created[j]}")


# The type rule, checked as a question is taken in (its id, its answers
# field by field, then its votes): ids are strings, `accepted` a bool and
# every other value an int in the int64 range, not a bool or a float.

_JSON_VOTE = ("answer_index", "sign", "timestamp")
_JSON_TRIPLE = itemgetter(*_JSON_VOTE)
_JSON_GETTERS = tuple(map(itemgetter, _JSON_VOTE))


def _is_int64(value) -> bool:
    return type(value) is int and _INT64_MIN <= value <= _INT64_MAX


def _mistyped(field: str, value, expected: str) -> MalformedTrajectoryError:
    return MalformedTrajectoryError(
        f"{field} must be {expected}, got {value!r}")


_ANSWER_TYPES = (
    ("creation_time", _is_int64, "a 64-bit integer"),
    ("text_length", _is_int64, "a 64-bit integer"),
    ("accepted", lambda v: type(v) is bool, "a boolean"),
    ("acceptance_time", lambda v: v is None or _is_int64(v),
     "null or a 64-bit integer"),
)


def _checked_answers(question_id, answers: Iterable[Answer]
                     ) -> tuple[Answer, ...]:
    """`answers`, read one at a time, once the question's id and each
    answer obey the type rule."""
    if type(question_id) is not str:
        raise _mistyped("question_id", question_id, "a string")
    out = []
    for a in answers:
        if type(a.answer_id) is not str:
            raise _mistyped(f"{question_id}: answer_id", a.answer_id,
                            "a string")
        for name, ok, expected in _ANSWER_TYPES:
            if not ok(getattr(a, name)):
                raise _mistyped(f"{question_id}/{a.answer_id}: {name}",
                                getattr(a, name), expected)
        out.append(a)
    return tuple(out)


def _check_votes(question_id: str, triples: Iterable) -> None:
    """Raise for the first vote, counted from 1, that is not an
    (answer_index, sign, timestamp) triple of 64-bit integers."""
    for k, (answer_index, sign, timestamp) in enumerate(triples, 1):
        for name, value in zip(_JSON_VOTE, (answer_index, sign, timestamp)):
            if not _is_int64(value):
                raise _mistyped(f"{question_id}: vote {k} {name}", value,
                                "a 64-bit integer")


class _Records:
    """A community's raw records, question by question, with their votes
    in flat int64 columns, which `community` validates and replays. A
    question is taken in whole or, at a key or type fault, not at all; a
    repeated question_id is taken in, then raised, with `first_at(i)` of
    the question that first had it appended to the message."""

    def __init__(self, first_at: Callable[[int], str] = lambda i: ""):
        self.first_at = first_at
        self.question_ids: list[str] = []
        self._first: dict[str, int] = {}  # each question_id's first record
        self.answers: list[tuple[Answer, ...]] = []
        self.n_votes: list[int] = []
        # answer_index, sign and timestamp
        self.votes = (array("q"), array("q"), array("q"))

    def _add(self, question_id: str, answers: tuple[Answer, ...], columns,
             triples) -> None:
        """Append one question whose id and answers are checked.
        `columns()` gives its votes' answer indices, signs and timestamps,
        three lists of equal length. At a fault in them, or a value
        that is not an int, no vote is appended and `_check_votes` raises
        on `triples()`, the votes in reading order."""
        start = len(self.votes[0])
        try:
            values = columns()
            if not set(map(type, chain.from_iterable(values))) <= {int}:
                raise TypeError("a vote value that is not an int")
            for column, part in zip(self.votes, values):
                column.fromlist(part)  # refuses an int beyond int64
        except (KeyError, TypeError, ValueError, OverflowError):
            for column in self.votes:
                del column[start:]
            # the columns are read one after another: name the first
            # fault in reading order
            _check_votes(question_id, triples())
            raise
        self.question_ids.append(question_id)
        self.answers.append(answers)
        self.n_votes.append(len(self.votes[0]) - start)
        i = len(self.question_ids) - 1
        first = self._first.setdefault(question_id, i)
        if first != i:
            raise MalformedTrajectoryError(
                f"duplicate question_id {question_id!r}"
                + self.first_at(first))

    def add_json(self, obj: dict) -> None:
        """Append the question of one parsed JSONL line."""
        question_id = obj["question_id"]
        answers = _checked_answers(question_id, (
            Answer(a["answer_id"], a["creation_time"], a["text_length"],
                   a["accepted"], a.get("acceptance_time"))
            for a in obj["answers"]))
        events = obj["events"]
        self._add(question_id, answers,
                  lambda: [list(map(get, events)) for get in _JSON_GETTERS],
                  lambda: map(_JSON_TRIPLE, events))

    def add_record(self, traj: QuestionTrajectory) -> None:
        events = traj.events

        def columns():
            values = [list(v) for v in zip(*events, strict=True)]
            if events and len(values) != 3:
                raise ValueError("a vote that is not a triple")
            return values
        self._add(traj.question_id,
                  _checked_answers(traj.question_id, traj.answers), columns,
                  lambda: events)

    def community(self, where=lambda i: "") -> Community:
        """Validate the questions and replay them into a Community. The
        first question i that breaks a rule raises its error, prefixed
        with where(i)."""
        n_questions = len(self.question_ids)
        n_answers = np.fromiter(map(len, self.answers), dtype=np.int64,
                                count=n_questions)
        n_votes = np.array(self.n_votes, dtype=np.int64)
        answer_start = np.cumsum(n_answers) - n_answers
        vote_start = np.cumsum(n_votes) - n_votes
        answer_index, sign, timestamp = (
            np.frombuffer(column, dtype=np.int64) for column in self.votes)

        answers = list(chain.from_iterable(self.answers))
        created, text_length, accepted = (
            np.array(list(map(attrgetter(name), answers)), dtype=np.int64)
            for name in ("creation_time", "text_length", "accepted"))
        has_time = np.array([a.acceptance_time is not None for a in answers],
                            dtype=bool)
        distinct_ids = np.fromiter(
            (len({a.answer_id for a in ans}) for ans in self.answers),
            dtype=np.int64, count=n_questions)

        offending = _offending_questions(
            n_answers, answer_start, distinct_ids, created, text_length,
            accepted, has_time, n_votes, answer_index, sign, timestamp)
        for i in np.flatnonzero(offending).tolist():
            rows = slice(vote_start[i], vote_start[i] + n_votes[i])
            votes = zip(*(column[rows].tolist() for column in
                          (answer_index, sign, timestamp)))
            try:
                _check_question(self.question_ids[i], self.answers[i],
                                votes)
            except MalformedTrajectoryError as exc:
                raise MalformedTrajectoryError(where(i) + str(exc)) from None

        acc = np.full(n_questions, -1, dtype=np.int64)
        acc_key = np.zeros(n_questions, dtype=np.int64)
        answer_pos = np.flatnonzero(accepted)
        owner = np.repeat(np.arange(n_questions), n_answers)[answer_pos]
        acc[owner] = answer_pos - answer_start[owner]
        acc_key[owner] = [answers[i].acceptance_time
                          for i in answer_pos.tolist()]
        log_len = _log_lengths(text_length.tolist())
        contexts = _replay_contexts(n_answers, answer_start, created, log_len,
                                    acc, acc_key, n_votes, vote_start,
                                    answer_index, sign, timestamp)
        time_index = np.arange(1, len(sign) + 1) - np.repeat(vote_start,
                                                             n_votes)
        return Community(tuple(self.question_ids), tuple(self.answers),
                         n_votes, answer_index=answer_index, sign=sign,
                         timestamp=timestamp, time_index=time_index,
                         **contexts)


def _offending_questions(n_answers, answer_start, distinct_ids, created,
                         text_length, accepted, has_time, n_votes,
                         answer_index, sign, timestamp) -> np.ndarray:
    """Which questions break a rule that `_check_question` enforces, as
    array checks over 64-bit integer columns and each question's count of
    distinct answer ids."""
    n_questions = len(n_answers)
    question = np.repeat(np.arange(n_questions), n_answers)
    bad = np.bincount(question[accepted != 0], minlength=n_questions) > 1
    bad |= distinct_ids < n_answers
    bad[question[(text_length < 1) | (accepted != has_time)]] = True
    same = question[1:] == question[:-1]
    bad[question[1:][same & (created[1:] < created[:-1])]] = True

    voter = np.repeat(np.arange(n_questions), n_votes)
    k = n_answers[voter]
    in_range = (answer_index >= 0) & (answer_index < k)
    slot = answer_start[voter[in_range]] + answer_index[in_range]
    too_early = np.zeros(len(voter), dtype=bool)
    too_early[in_range] = created[slot] >= timestamp[in_range]
    bad_vote = ((sign != 1) & (sign != -1)) | ~in_range | too_early
    bad_vote[1:] |= (voter[1:] == voter[:-1]) \
        & (timestamp[1:] < timestamp[:-1])
    bad[voter[bad_vote]] = True
    return bad


def _prior_votes(slot: np.ndarray, sign: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Each vote's count of earlier positive and of earlier negative votes
    on its answer slot, votes of one slot in chronological row order."""
    n = len(slot)
    order = np.argsort(slot, kind="stable")
    by_slot = slot[order]
    starts = np.flatnonzero(np.concatenate(([True],
                                            by_slot[1:] != by_slot[:-1])))
    start = np.repeat(starts, np.diff(np.append(starts, n)))
    positive = (sign[order] > 0).astype(np.int64)
    before = np.cumsum(positive) - positive
    prior_pos = np.empty(n, dtype=np.int64)
    prior_neg = np.empty(n, dtype=np.int64)
    prior_pos[order] = before - before[start]
    prior_neg[order] = np.arange(n) - start - prior_pos[order]
    return prior_pos, prior_neg


def _prefix_sums(values: np.ndarray, cols: np.ndarray, segment: np.ndarray,
                 starts: np.ndarray, k: int, first: np.ndarray,
                 baseline: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row r: the sum of values[r'] at column cols[r'] over the earlier
    rows r' of r's segment, plus `baseline`, plus `first` in segment 0.
    Rows are numbered by segment, ascending from 0, and segment m starts at
    row starts[m]. Also returns the last segment's sum over all its rows
    (with `first` if it is segment 0)."""
    n = len(values)
    # float64 weights add integers exactly below 2**53
    totals = np.bincount(segment * k + cols, weights=values,
                         minlength=len(starts) * k).astype(np.int64)
    totals = totals.reshape(len(starts), k)
    totals[0] += first
    out = np.zeros((n, k), dtype=np.int64)
    out[0] = first + baseline
    out[np.arange(1, n), cols[:-1]] = values[:-1]
    out[starts[1:]] -= totals[:-1]
    np.cumsum(out, axis=0, out=out)
    return out, totals[-1]


def _replay_contexts(n_answers, answer_start, created, log_len, acc,
                     acc_key, n_votes, vote_start, answer_index, sign,
                     timestamp) -> dict[str, np.ndarray]:
    """Each vote's context, from the validated columns of a community.

    Prior vote counts are grouped counts over the answer slots. For the
    rank and relative length, questions with k answers are replayed
    together, their votes in blocks of at most _BLOCK_ENTRIES // k rows.
    In a block, row r holds the vote's view of its question's answers:
    `lead` is each answer's vote difference from the question's earlier
    votes, times k, minus the answer's index. Display order is (-diff,
    creation_time, index), and creation times ascend with the index, so
    an answer ranks ahead of the voted one exactly when its `lead` is
    larger. Only answers that exist at the vote count, and the accepted
    answer leaves the display after its acceptance time unless it is the
    one voted on. Log lengths are summed left to right along a question's
    answers.
    """
    n = len(sign)
    voter = np.repeat(np.arange(len(n_votes)), n_votes)
    prior_pos, prior_neg = _prior_votes(answer_start[voter] + answer_index,
                                        sign)
    seen = prior_pos + prior_neg
    pos_ratio = np.where(seen > 0, prior_pos / np.maximum(seen, 1),
                         NEUTRAL_POS_RATIO)
    rank = np.empty(n, dtype=np.int64)
    rel_length = np.empty(n)
    voted = n_votes > 0
    for k in np.unique(n_answers[voted]).tolist():
        questions = np.flatnonzero(voted & (n_answers == k))
        answers = answer_start[questions, None] + np.arange(k)
        keys, log_lens = created[answers], log_len[answers]
        log_sums = np.cumsum(log_lens, axis=1)
        accepted, accepted_key = acc[questions], acc_key[questions]
        counts = n_votes[questions]
        first_row = np.cumsum(counts) - counts  # of each question, in rows
        local = np.repeat(np.arange(len(questions)), counts)
        rows = np.arange(len(local)) + np.repeat(
            vote_start[questions] - first_row, counts)
        index = np.arange(k)
        any_accepted = bool((accepted >= 0).any())
        step = max(1, _BLOCK_ENTRIES // k)
        carry = (-1, None)  # the question the last block ended in, its leads
        for lo in range(0, len(rows), step):
            r, q = rows[lo:lo + step], local[lo:lo + step]
            j, ts = answer_index[r], timestamp[r]
            b = np.arange(len(r))
            lead, lead_out = _prefix_sums(
                sign[r] * k, j, q - q[0],
                np.maximum(first_row[q[0]:q[-1] + 1] - lo, 0), k,
                carry[1] if carry[0] == q[0] else 0, -index)
            carry = (q[-1], lead_out)

            lead_j = lead[b, j]
            exists = keys[q] < ts[:, None]
            n_existing = exists.sum(axis=1)
            rank[r] = 1 + np.count_nonzero(
                (lead > lead_j[:, None]) & exists, axis=1)
            if any_accepted:
                a = accepted[q]
                rank[r] -= (a >= 0) & (a != j) & (a < n_existing) \
                    & (ts > accepted_key[q]) \
                    & (lead[b, np.maximum(a, 0)] > lead_j)
            mean_log_len = log_sums[q, n_existing - 1] / n_existing
            rel_length[r] = np.clip(log_lens[q, j] - mean_log_len,
                                    -REL_LENGTH_CLIP, REL_LENGTH_CLIP)
    return {"rank": rank, "pos_ratio": pos_ratio, "rel_length": rel_length,
            "prior_pos": prior_pos, "prior_neg": prior_neg}


def _log_lengths(text_length: list[int]) -> np.ndarray:
    """`math.log` of each text length; `np.log` can differ from it in the
    last bit."""
    return np.fromiter(map(math.log, text_length), dtype=float,
                       count=len(text_length))


def _final_rel_length(n_answers, answer_start, log_len) -> np.ndarray:
    """Each answer slot's log-length minus its question's mean log-length,
    clipped. Questions with k answers are taken together, a row each;
    `np.cumsum` along a row adds left to right, as `sequential_sum` does."""
    out = np.empty(len(log_len))
    for k in np.unique(n_answers[n_answers > 0]).tolist():
        slots = answer_start[n_answers == k, None] + np.arange(k)
        log_lens = log_len[slots]
        mean = np.cumsum(log_lens, axis=1)[:, -1] / k
        out[slots] = np.clip(log_lens - mean[:, None], -REL_LENGTH_CLIP,
                             REL_LENGTH_CLIP)
    return out


class Community(Sequence[QuestionTrajectory]):
    """A community's questions and answers plus one row per vote.

    Rows run question by question, each question's votes in
    chronological order. Per-vote columns (read-only numpy arrays):
    `question` (index into `question_ids`), `answer_index`, `sign`,
    `timestamp`, `time_index`, the context the voter saw (`rank`,
    `pos_ratio`, `rel_length`, `prior_pos`, `prior_neg`), `answer_slot`
    and `first_vote`, true on each answer's chronologically first vote.
    Answer slots number the community's answers question by question in
    answer order; `answer_keys[slot]` is (question_id, answer_id),
    `answer_question[slot]` the index of its question and
    `final_rel_length[slot]` its relative length at the end of the
    question: its log-length centred over all the question's answers,
    clipped as the contexts are.

    It is also a read-only sequence of the questions' raw records
    (QuestionTrajectory), each built on access from column slices.
    """

    def __init__(self, question_ids: tuple[str, ...],
                 answers: tuple[tuple[Answer, ...], ...],
                 n_events: np.ndarray, *, answer_index: np.ndarray,
                 sign: np.ndarray, timestamp: np.ndarray,
                 time_index: np.ndarray, rank: np.ndarray,
                 pos_ratio: np.ndarray, rel_length: np.ndarray,
                 prior_pos: np.ndarray, prior_neg: np.ndarray):
        self.question_ids = question_ids
        self.answers = answers
        self.answer_keys = tuple((qid, a.answer_id)
                                 for qid, ans in zip(question_ids, answers)
                                 for a in ans)
        self.n_answers = len(self.answer_keys)
        self.event_starts = np.concatenate(([0], np.cumsum(n_events)))
        per_question = np.array([len(a) for a in answers], dtype=np.int64)
        answer_starts = np.concatenate(([0], np.cumsum(per_question)))
        self.answer_question = np.repeat(np.arange(len(question_ids)),
                                         per_question)
        self.question = np.repeat(np.arange(len(question_ids)), n_events)
        self.answer_index = answer_index
        self.sign = sign
        self.timestamp = timestamp
        self.time_index = time_index
        self.rank = rank
        self.pos_ratio = pos_ratio
        self.rel_length = rel_length
        self.prior_pos = prior_pos
        self.prior_neg = prior_neg
        self.final_rel_length = _final_rel_length(
            per_question, answer_starts[:-1],
            _log_lengths([a.text_length for ans in answers for a in ans]))
        self.answer_slot = answer_starts[self.question] + answer_index
        self.first_vote = np.zeros(len(sign), dtype=bool)
        self.first_vote[np.unique(self.answer_slot, return_index=True)[1]] \
            = True
        for column in (self.event_starts, self.question,
                       self.answer_question, answer_index, sign,
                       timestamp, time_index, rank, pos_ratio, rel_length,
                       prior_pos, prior_neg, self.final_rel_length,
                       self.answer_slot, self.first_vote):
            column.setflags(write=False)

    def __len__(self) -> int:
        return len(self.question_ids)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self)))]
        i = range(len(self))[i]
        rows = slice(self.event_starts[i], self.event_starts[i + 1])
        events = tuple(zip(self.answer_index[rows].tolist(),
                           self.sign[rows].tolist(),
                           self.timestamp[rows].tolist()))
        return QuestionTrajectory(self.question_ids[i], self.answers[i],
                                  events)


def replay_community(trajectories: Iterable[QuestionTrajectory]
                     ) -> Community:
    """The Community of `trajectories`, validated and replayed as
    `read_trajectories` reads a file's lines, a repeated question_id
    included."""
    records = _Records()
    for traj in trajectories:
        try:
            records.add_record(traj)
        except (ValueError, TypeError, KeyError):
            records.community()  # an earlier question's broken rule
            raise
    return records.community()


def reconstruct_contexts(traj: QuestionTrajectory) -> Community:
    """The one-question Community of `traj`. No stage calls it; the
    benchmark's tracer still times calls to this name."""
    return replay_community((traj,))


def sequential_sum(values: Iterable[float]) -> float:
    """Left-to-right float sum, the order in which the replay's
    `np.cumsum` adds log lengths along a question's answers. The built-in
    `sum` compensates rounding from Python 3.12 on, so its result can
    differ in the last bit."""
    total = 0.0
    for value in values:
        total += value
    return total


# --- JSONL wire format -------------------------------------------------
#
# One question per line:
#   {"question_id": ..., "answers": [{"answer_id", "creation_time",
#    "text_length", "accepted", "acceptance_time"}, ...],
#    "events": [{"answer_index", "timestamp", "sign"}, ...]}
# Contexts and time indices are derived state and never serialized;
# reading a file validates its questions and replays their contexts. A
# line that is not UTF-8 or not JSON, lacks a key, breaks the type rule
# or an invariant, or repeats an earlier line's question_id raises
# MalformedTrajectoryError prefixed with `path:line:`; of several such
# lines the first is named.


def trajectory_to_json_line(traj: QuestionTrajectory) -> str:
    obj = {
        "question_id": traj.question_id,
        "answers": [
            {
                "answer_id": a.answer_id,
                "creation_time": a.creation_time,
                "text_length": a.text_length,
                "accepted": a.accepted,
                "acceptance_time": a.acceptance_time,
            }
            for a in traj.answers
        ],
        "events": [{"answer_index": j, "timestamp": ts, "sign": sign}
                   for j, sign, ts in traj.events],
    }
    return json.dumps(obj, separators=(",", ":"))


def write_trajectories(trajs: Iterable[QuestionTrajectory], path) -> None:
    """Write one JSONL line per record, e.g. per question of a Community.
    The records are written as given, not validated."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(trajectory_to_json_line(t) + "\n" for t in trajs)


def _reason(exc: Exception) -> str:
    if isinstance(exc, RecursionError):
        return "invalid JSON: nested too deeply"
    if isinstance(exc, json.JSONDecodeError):
        return f"invalid JSON: {exc.msg} at column {exc.colno}"
    if isinstance(exc, KeyError):
        return f"missing key {exc}"
    return str(exc)


def read_trajectories(path) -> Community:
    """Read, validate and replay a trajectory JSONL into a Community."""
    lines: list[int] = []  # the line of each question
    records = _Records(lambda i: f" (first on line {lines[i]})")

    def at_line(i: int) -> str:
        return f"{path}:{lines[i]}: "

    # Undecodable bytes become lone surrogates, so the line that holds
    # them is the one reported.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            reason = not_utf8(line)
            if reason is None:
                line = line.strip()
                if not line:
                    continue
                lines.append(lineno)
                try:
                    records.add_json(json.loads(line))
                    continue
                except (ValueError, TypeError, KeyError,
                        RecursionError) as exc:
                    reason = _reason(exc)
            # an earlier line's, or this line's, broken rule
            records.community(at_line)
            raise MalformedTrajectoryError(f"{path}:{lineno}: {reason}")
    return records.community(at_line)
