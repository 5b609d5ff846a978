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
from typing import Iterable, Iterator, Optional

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
        for idx, ans in enumerate(self.answers):
            if ans.accepted:
                return idx
        return None


def _check_question(question_id, answers: tuple[Answer, ...], votes,
                    error: Optional[Exception]) -> None:
    """Raise the error of the first rule that one question breaks, the
    rules met in reading order: its answers, then vote by vote. `error`,
    met while reading the votes past `votes`, comes last.

    Values are compared as Python objects, so a mistyped one raises the
    TypeError of the first comparison it meets. Only the first question
    that the array checks of `_Records.community` flag is read this way.
    """
    n_accepted = sum(1 for a in answers if a.accepted)
    if n_accepted > 1:
        raise MalformedTrajectoryError(
            f"{question_id}: {n_accepted} accepted answers")
    acc = None
    for i, a in enumerate(answers):
        if a.text_length < 1:
            raise MalformedTrajectoryError(
                f"{question_id}/{a.answer_id}: text_length < 1")
        if a.accepted != (a.acceptance_time is not None):
            raise MalformedTrajectoryError(
                f"{question_id}/{a.answer_id}: acceptance_time must be "
                "present iff accepted")
        if a.accepted:
            acc = i
    created = [a.creation_time for a in answers]
    if created != sorted(created):
        raise MalformedTrajectoryError(
            f"{question_id}: answers not ordered by creation_time")
    n = len(answers)
    prev_ts = None
    for j, sign, ts in votes:
        if sign not in (+1, -1):
            raise MalformedTrajectoryError(
                f"{question_id}: event sign {sign} not in {{+1,-1}}")
        if prev_ts is not None and ts < prev_ts:
            raise MalformedTrajectoryError(
                f"{question_id}: events not ordered by timestamp")
        prev_ts = ts
        if not 0 <= j < n:
            raise MalformedTrajectoryError(
                f"{question_id}: answer_index {j} out of range")
        if created[j] >= ts:
            raise MalformedTrajectoryError(
                f"{question_id}: event at t={ts} references answer "
                f"created at t={created[j]}")
        if acc is not None and acc != j and created[acc] < ts:
            # the rank rule's comparison, which a mistyped time fails
            ts > answers[acc].acceptance_time
        try:
            array("q", (j, sign, ts))  # fails where the int64 columns do
        except OverflowError:
            raise MalformedTrajectoryError(
                f"{question_id}: timestamp outside the 64-bit range"
            ) from None
    if error is not None:
        raise error


def _int64(values) -> Optional[np.ndarray]:
    """`values` as an int64 array, None unless each is a 64-bit integer
    or a bool (which Python counts as 0 or 1). Unlike
    `np.array(values, dtype=np.int64)` it refuses strings and floats."""
    try:
        return np.frombuffer(array("q", values), dtype=np.int64)
    except (TypeError, OverflowError):
        return None


def _time_key(value) -> int:
    """The int64 k with k < t exactly when value < t for every int64 time
    t, for a creation or acceptance time that is not a 64-bit integer.
    NaN counts as never reached and times below -2**63 as -2**63; a
    value that is not a number is never compared in a valid question."""
    try:
        key = math.floor(value)
    except OverflowError:  # an infinity
        key = value
    except (TypeError, ValueError):  # not a number, or NaN
        key = _INT64_MAX if value != value else 0
    return min(max(key, _INT64_MIN), _INT64_MAX)


def _answer_column(values: list, fallback) -> tuple[np.ndarray,
                                                    Optional[np.ndarray]]:
    """An answer field as int64 and the mask of the values that are not
    64-bit integers, which `fallback` maps (None if there are none)."""
    column = _int64(values)
    if column is not None:
        return column, None
    odd = np.array([_int64((v,)) is None for v in values], dtype=bool)
    return np.array([fallback(v) if o else v for v, o in zip(values, odd)],
                    dtype=np.int64), odd


def _read_votes(triples: Iterator) -> tuple[list, Optional[Exception]]:
    """The votes of `triples` up to the first that cannot be read as an
    (answer_index, sign, timestamp) triple, and the error it raised."""
    votes = []
    try:
        for j, sign, ts in triples:
            votes.append((j, sign, ts))
    except (KeyError, TypeError, ValueError) as exc:
        return votes, exc
    return votes, None


_JSON_VOTE = ("answer_index", "sign", "timestamp")
_RAW_EVENT = itemgetter(*_JSON_VOTE)
_JSON_GETTERS = tuple(map(itemgetter, _JSON_VOTE))
_RECORD_GETTERS = tuple(map(itemgetter, range(3)))


class _BadQuestion(Exception):
    """The first offending question of a community: its position and the
    error of the rule it breaks."""

    def __init__(self, index: int, error: Exception):
        super().__init__(index, error)
        self.index = index
        self.error = error


class _Records:
    """A community's raw records, question by question, with their votes
    in flat int64 columns, which `community` validates and replays."""

    def __init__(self):
        self.question_ids: list[str] = []
        self.answers: list[tuple[Answer, ...]] = []
        self.n_votes: list[int] = []
        # answer_index, sign and timestamp of the votes that fit them
        self.votes = (array("q"), array("q"), array("q"))
        # question -> its votes as given, where the columns may show them
        # otherwise (a bool as 0 or 1) or do not hold them
        self.given: dict[int, Sequence] = {}
        # question -> the error that stopped reading its votes (None if
        # they were read but some value is not a 64-bit integer); the
        # columns hold none of these questions' votes
        self.unread: dict[int, Optional[Exception]] = {}

    def _add(self, question_id, answers: tuple[Answer, ...], events,
             getters, triples: Iterator, given: Optional[Sequence]) -> None:
        """Append one question and keep its votes `given`, unless None.
        The votes go to the columns read with `getters`; if that fails (or
        `getters` is None) they are read from `triples` and kept instead.
        """
        i = len(self.question_ids)
        start = len(self.votes[0])
        try:
            if getters is None:
                raise TypeError("votes are not all triples")
            for column, get in zip(self.votes, getters):
                column.fromlist(list(map(get, events)))
        except (KeyError, TypeError, OverflowError):
            for column in self.votes:
                del column[start:]
            self.given[i], self.unread[i] = _read_votes(triples)
        else:
            if given is not None:
                self.given[i] = given
        self.question_ids.append(question_id)
        self.answers.append(answers)
        self.n_votes.append(len(self.votes[0]) - start)

    def add_json(self, obj: dict, text: Optional[str] = None) -> None:
        """Append the question of one JSONL line, parsed from `text`."""
        question_id = obj["question_id"]
        answers = tuple(
            Answer(
                answer_id=a["answer_id"],
                creation_time=a["creation_time"],
                text_length=a["text_length"],
                accepted=a["accepted"],
                acceptance_time=a.get("acceptance_time"),
            )
            for a in obj["answers"]
        )
        events = obj["events"]
        triples = map(_RAW_EVENT, events)
        # Each bool comes from a `true` or `false` in the text. Unless the
        # answers' `accepted` flags account for all of them, a vote may
        # hold one, which the columns show as 0 or 1: keep it as given.
        given = None
        if text is None or text.count("true") + text.count("false") \
                > sum(type(a.accepted) is bool for a in answers):
            given = _read_votes(map(_RAW_EVENT, events))[0]
        self._add(question_id, answers, events, _JSON_GETTERS, triples,
                  given)

    def add_record(self, traj: QuestionTrajectory) -> None:
        events = traj.events
        try:
            triples = set(map(len, events)) <= {3}
        except TypeError:
            triples = False
        self._add(traj.question_id, traj.answers, events,
                  _RECORD_GETTERS if triples else None, iter(events), events)

    def community(self) -> Community:
        """Validate the questions and replay them into a Community; raise
        _BadQuestion for the first question that breaks a rule."""
        n_questions = len(self.question_ids)
        n_answers = np.fromiter(map(len, self.answers), dtype=np.int64,
                                count=n_questions)
        n_votes = np.array(self.n_votes, dtype=np.int64)
        answer_start = np.cumsum(n_answers) - n_answers
        vote_start = np.cumsum(n_votes) - n_votes
        answer_index, sign, timestamp = (
            np.frombuffer(column, dtype=np.int64) for column in self.votes)

        answers = list(chain.from_iterable(self.answers))
        created, odd_created = _answer_column(
            list(map(attrgetter("creation_time"), answers)), _time_key)
        lengths = list(map(attrgetter("text_length"), answers))
        text_length, odd_length = _answer_column(lengths, lambda v: 1)
        accepted, odd_accepted = _answer_column(
            list(map(attrgetter("accepted"), answers)), bool)
        times = list(map(attrgetter("acceptance_time"), answers))
        has_time = np.array([t is not None for t in times], dtype=bool)
        acc_time, odd_time = _answer_column(
            [0 if t is None else t for t in times], _time_key)

        # Questions with a value that is not a 64-bit integer, or whose
        # votes were not read, are judged by `_check_question` alone.
        question_of_answer = np.repeat(np.arange(n_questions), n_answers)
        offending = np.zeros(n_questions, dtype=bool)
        for odd in (odd_created, odd_length, odd_accepted, odd_time):
            if odd is not None:
                offending[question_of_answer[odd]] = True
        offending[list(self.unread)] = True
        offending |= _offending_questions(
            n_answers, answer_start, created, text_length, accepted,
            has_time, n_votes, answer_index, sign, timestamp)
        for i in np.flatnonzero(offending).tolist():
            rows = slice(vote_start[i], vote_start[i] + n_votes[i])
            votes = self.given[i] if i in self.given else zip(
                *(column[rows].tolist() for column in
                  (answer_index, sign, timestamp)))
            try:
                _check_question(self.question_ids[i], self.answers[i],
                                votes, self.unread.get(i))
            except (ValueError, TypeError, KeyError) as exc:
                raise _BadQuestion(i, exc) from None

        is_accepted = accepted != 0
        acc = np.full(n_questions, -1, dtype=np.int64)
        acc_key = np.zeros(n_questions, dtype=np.int64)
        answer_pos = np.flatnonzero(is_accepted)
        owner = question_of_answer[answer_pos]
        acc[owner] = answer_pos - answer_start[owner]
        acc_key[owner] = acc_time[answer_pos]
        log_len = np.fromiter(map(math.log, lengths), dtype=float,
                              count=len(lengths))
        contexts = _replay_contexts(n_answers, answer_start, created, log_len,
                                    acc, acc_key, n_votes, vote_start,
                                    answer_index, sign, timestamp)
        time_index = np.arange(1, len(sign) + 1) - np.repeat(vote_start,
                                                             n_votes)
        return Community(tuple(self.question_ids), tuple(self.answers),
                         n_votes, answer_index=answer_index, sign=sign,
                         timestamp=timestamp, time_index=time_index,
                         **contexts)


def _offending_questions(n_answers, answer_start, created, text_length,
                         accepted, has_time, n_votes, answer_index, sign,
                         timestamp) -> np.ndarray:
    """Which questions break a rule that `_check_question` enforces, as
    array checks over 64-bit integer columns."""
    n_questions = len(n_answers)
    question = np.repeat(np.arange(n_questions), n_answers)
    bad = np.bincount(question[accepted != 0], minlength=n_questions) > 1
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


class Community(Sequence[QuestionTrajectory]):
    """A community's questions and answers plus one row per vote.

    Rows run question by question, each question's votes in
    chronological order. Per-vote columns (read-only numpy arrays):
    `question` (index into `question_ids`), `answer_index`, `sign`,
    `timestamp`, `time_index`, the context the voter saw (`rank`,
    `pos_ratio`, `rel_length`, `prior_pos`, `prior_neg`), `answer_slot`
    and `first_vote`, true on each answer's chronologically first vote.
    Answer slots number the community's answers question by question in
    answer order; `answer_keys[slot]` is (question_id, answer_id).

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
        answer_starts = np.cumsum([0] + [len(a) for a in answers])
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
        self.answer_slot = answer_starts[self.question] + answer_index
        self.first_vote = np.zeros(len(sign), dtype=bool)
        self.first_vote[np.unique(self.answer_slot, return_index=True)[1]] \
            = True
        for column in (self.event_starts, self.question, answer_index, sign,
                       timestamp, time_index, rank, pos_ratio, rel_length,
                       prior_pos, prior_neg, self.answer_slot,
                       self.first_vote):
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

    def final_rel_lengths(self) -> list[float]:
        """Every answer's relative length at the end of its question, by
        answer slot: its log-length centred over all the question's
        answers, clipped as the contexts are."""
        out = []
        for answers in self.answers:
            log_len = [math.log(a.text_length) for a in answers]
            mean_ll = sequential_sum(log_len) / max(len(log_len), 1)
            out += [max(-REL_LENGTH_CLIP, min(REL_LENGTH_CLIP, ll - mean_ll))
                    for ll in log_len]
        return out


def replay_community(trajectories: Iterable[QuestionTrajectory]
                     ) -> Community:
    """The Community of `trajectories`, validated and replayed as
    `read_trajectories` reads a file's lines."""
    records = _Records()
    for traj in trajectories:
        records.add_record(traj)
    try:
        return records.community()
    except _BadQuestion as bad:
        raise bad.error from None


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
# line that is not UTF-8 or not JSON, lacks a key, breaks an invariant or
# repeats an earlier line's question_id raises MalformedTrajectoryError
# prefixed with `path:line:`; of several such lines the first is named.


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
        for traj in trajs:
            fh.write(trajectory_to_json_line(traj))
            fh.write("\n")


def _reason(exc: Exception) -> str:
    if isinstance(exc, json.JSONDecodeError):
        return f"invalid JSON: {exc.msg} at column {exc.colno}"
    if isinstance(exc, KeyError):
        return f"missing key {exc}"
    return str(exc)


def read_trajectories(path) -> Community:
    """Read, validate and replay a trajectory JSONL into a Community."""
    records = _Records()
    lines: list[int] = []  # the line of each question
    first_line: dict[str, int] = {}

    def replayed() -> Community:
        try:
            return records.community()
        except _BadQuestion as bad:
            raise MalformedTrajectoryError(
                f"{path}:{lines[bad.index]}: {_reason(bad.error)}") from None

    # Undecodable bytes become lone surrogates, so the line that holds
    # them is the one reported.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            reason = not_utf8(line)
            if reason is None:
                line = line.strip()
                if not line:
                    continue
                try:
                    records.add_json(json.loads(line), line)
                    lines.append(lineno)
                    question_id = records.question_ids[-1]
                    first = first_line.setdefault(question_id, lineno)
                    if first == lineno:
                        continue
                    reason = (f"duplicate question_id {question_id!r} "
                              f"(first on line {first})")
                except (ValueError, TypeError, KeyError) as exc:
                    reason = _reason(exc)
            replayed()  # an earlier line's, or this line's, broken rule
            raise MalformedTrajectoryError(f"{path}:{lineno}: {reason}")
    return replayed()
