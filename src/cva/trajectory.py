"""In-memory data model for helpfulness-voting trajectories.

A question owns an ordered list of answers and a chronological stream of
vote events. Every event can be annotated with the context a voter saw at
that instant: the answer's displayed rank, its perceived positive-vote
ratio, and its length relative to the answers coexisting at that moment.
Context reconstruction is deterministic and uses strictly earlier events
only, so replaying it is idempotent. A `Community` holds a whole
community's votes and contexts as columns, which every stage reads.
"""

from __future__ import annotations

import json
import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, replace
from operator import itemgetter
from typing import Iterable, Optional

import numpy as np

from .configio import not_utf8

REL_LENGTH_CLIP = 3.0
NEUTRAL_POS_RATIO = 0.5  # ratio before an answer has received any vote


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
class VoteContext:
    """What the voter saw right before casting the vote."""

    rank: int            # 1-based displayed rank
    pos_ratio: float     # prior positive-vote ratio, 0.5 with no priors
    rel_length: float    # centered log-length, clipped to +-REL_LENGTH_CLIP
    prior_pos: int
    prior_neg: int


@dataclass(frozen=True)
class VoteEvent:
    answer_index: int
    time_index: int      # 1-based, contiguous within the question
    sign: int            # +1 or -1
    timestamp: int
    context: Optional[VoteContext] = None


@dataclass(frozen=True)
class QuestionTrajectory:
    question_id: str
    answers: tuple[Answer, ...]
    events: tuple[VoteEvent, ...]

    def accepted_answer_index(self) -> Optional[int]:
        for idx, ans in enumerate(self.answers):
            if ans.accepted:
                return idx
        return None


def _replay(question_id: str, answers: tuple[Answer, ...],
            raw_events: Iterable[tuple[int, int, int]], cols: "_Columns"
            ) -> int:
    """Validate one question and append each of its votes, with the
    context the voter saw, to `cols`; return the number of votes.

    `raw_events` yields (answer_index, sign, timestamp) in chronological
    order. One replay carries the vote counts, the prefix of answers that
    exist at the current timestamp (answers are ordered by creation_time,
    events by timestamp) and that prefix's log-length sum from vote to
    vote, so no vote re-sorts the answers. Contexts use strictly earlier
    events only.
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
    acc_time = answers[acc].acceptance_time if acc is not None else None
    n = len(answers)
    log_len = [math.log(a.text_length) for a in answers]
    pos = [0] * n
    neg = [0] * n
    diff = [0] * n
    n_existing = 0      # answers[:n_existing] exist at the current vote
    ll_sum = 0.0        # their log-length sum, accumulated in index order
    prev_ts = None
    add_answer, add_sign, add_ts = (cols.answer_index.append,
                                    cols.sign.append, cols.timestamp.append)
    add_rank, add_ratio, add_len = (cols.rank.append, cols.pos_ratio.append,
                                    cols.rel_length.append)
    add_pos, add_neg = cols.prior_pos.append, cols.prior_neg.append
    k = 0
    for k, (j, sign, ts) in enumerate(raw_events, 1):
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
        while n_existing < n and created[n_existing] < ts:
            ll_sum += log_len[n_existing]
            n_existing += 1

        # Display order is (-diff, creation_time, index); creation times
        # ascend with the index, so on a diff tie only earlier answers
        # rank ahead. The accepted answer leaves the display after its
        # acceptance time unless it is the one being voted on.
        dj = diff[j]
        rank = 1
        for d in diff[:j]:
            if d >= dj:
                rank += 1
        for d in diff[j + 1:n_existing]:
            if d > dj:
                rank += 1
        if acc is not None and acc != j and acc < n_existing \
                and ts > acc_time \
                and (diff[acc] > dj or (diff[acc] == dj and acc < j)):
            rank -= 1

        n_pos, n_neg = pos[j], neg[j]
        ratio = n_pos / (n_pos + n_neg) if n_pos + n_neg \
            else NEUTRAL_POS_RATIO
        rel_len = log_len[j] - ll_sum / n_existing
        if rel_len > REL_LENGTH_CLIP:
            rel_len = REL_LENGTH_CLIP
        elif rel_len < -REL_LENGTH_CLIP:
            rel_len = -REL_LENGTH_CLIP
        add_answer(j)
        add_sign(sign)
        add_ts(ts)
        add_rank(rank)
        add_ratio(ratio)
        add_len(rel_len)
        add_pos(n_pos)
        add_neg(n_neg)
        if sign > 0:
            pos[j] = n_pos + 1
        else:
            neg[j] = n_neg + 1
        diff[j] = dj + sign
    return k


class _Columns:
    """Column lists a community is built from, question by question."""

    def __init__(self):
        self.question_ids: list[str] = []
        self.answers: list[tuple[Answer, ...]] = []
        self.n_events: list[int] = []
        # per-vote columns as raw 64-bit values, which numpy then wraps
        self.answer_index = array("q")
        self.sign = array("q")
        self.timestamp = array("q")
        self.time_index = array("q")
        self.rank = array("q")
        self.pos_ratio = array("d")
        self.rel_length = array("d")
        self.prior_pos = array("q")
        self.prior_neg = array("q")

    def replay(self, question_id: str, answers: tuple[Answer, ...],
               raw_events: Iterable[tuple[int, int, int]]) -> None:
        """Append one question, validated and replayed by `_replay`."""
        try:
            n = _replay(question_id, answers, raw_events, self)
        except OverflowError:  # the one column not bounded by the replay
            raise MalformedTrajectoryError(
                f"{question_id}: timestamp outside the 64-bit range"
            ) from None
        self.question_ids.append(question_id)
        self.answers.append(answers)
        self.n_events.append(n)
        self.time_index.extend(range(1, n + 1))

    def reconstruct(self, traj: QuestionTrajectory) -> None:
        """Append one question, replayed from its events' answer indices,
        signs and timestamps."""
        for pos, ev in enumerate(traj.events):
            if ev.time_index != pos + 1:
                raise MalformedTrajectoryError(
                    f"{traj.question_id}: time_index not contiguous from 1")
        self.replay(traj.question_id, traj.answers,
                    ((ev.answer_index, ev.sign, ev.timestamp)
                     for ev in traj.events))

    def add(self, traj: QuestionTrajectory) -> None:
        """Append one question whose events all carry their context."""
        for ev in traj.events:
            ctx = ev.context
            self.answer_index.append(ev.answer_index)
            self.sign.append(ev.sign)
            self.timestamp.append(ev.timestamp)
            self.time_index.append(ev.time_index)
            self.rank.append(ctx.rank)
            self.pos_ratio.append(ctx.pos_ratio)
            self.rel_length.append(ctx.rel_length)
            self.prior_pos.append(ctx.prior_pos)
            self.prior_neg.append(ctx.prior_neg)
        self.question_ids.append(traj.question_id)
        self.answers.append(traj.answers)
        self.n_events.append(len(traj.events))

    def community(self) -> "Community":
        ints = {name: np.frombuffer(getattr(self, name), dtype=np.int64)
                for name in ("answer_index", "sign", "timestamp",
                             "time_index", "rank", "prior_pos", "prior_neg")}
        floats = {name: np.frombuffer(getattr(self, name), dtype=float)
                  for name in ("pos_ratio", "rel_length")}
        return Community(tuple(self.question_ids), tuple(self.answers),
                         np.array(self.n_events, dtype=np.int64),
                         **ints, **floats)


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

    It is also a read-only sequence of QuestionTrajectory, each built on
    access with every event's context.
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
        lo, hi = int(self.event_starts[i]), int(self.event_starts[i + 1])
        rows = slice(lo, hi)
        events = tuple(
            VoteEvent(j, k, s, ts, VoteContext(r, p, rel, n_pos, n_neg))
            for j, k, s, ts, r, p, rel, n_pos, n_neg in zip(
                *(column[rows].tolist() for column in (
                    self.answer_index, self.time_index, self.sign,
                    self.timestamp, self.rank, self.pos_ratio,
                    self.rel_length, self.prior_pos, self.prior_neg))))
        return QuestionTrajectory(self.question_ids[i], self.answers[i],
                                  events)

    def final_rel_lengths(self) -> list[float]:
        """`final_rel_lengths` of every answer, by answer slot."""
        return [rel for ans in self.answers
                for rel in _final_rel_length_values(ans)]


def as_community(trajectories: Iterable[QuestionTrajectory]) -> Community:
    """The columns every stage reads: a Community unchanged, otherwise
    one built from the trajectories in order. A trajectory with an event
    that lacks its context is replayed as `reconstruct_contexts` does."""
    if isinstance(trajectories, Community):
        return trajectories
    cols = _Columns()
    for traj in trajectories:
        if any(ev.context is None for ev in traj.events):
            cols.reconstruct(traj)
        else:
            cols.add(traj)
    return cols.community()


def replay_community(questions: Iterable[tuple]) -> Community:
    """The Community of `questions`, (question_id, answers, raw events)
    triples, each validated and replayed by `_replay` as
    `read_trajectories` replays a line."""
    cols = _Columns()
    for question_id, answers, raw_events in questions:
        cols.replay(question_id, answers, raw_events)
    return cols.community()


def reconstruct_contexts(traj: QuestionTrajectory) -> QuestionTrajectory:
    """Return a copy whose events carry the context each voter saw.

    Contexts are computed from strictly earlier events only, so running
    this twice yields bit-identical results.
    """
    cols = _Columns()
    cols.reconstruct(traj)
    return cols.community()[0]


def drop_first_votes(traj: QuestionTrajectory) -> QuestionTrajectory:
    """Drop each answer's chronologically first vote.

    The surviving events keep the contexts they were given against the
    full history; only the event list shrinks.
    """
    seen: set[int] = set()
    kept = []
    for ev in traj.events:
        if ev.answer_index in seen:
            kept.append(ev)
        else:
            seen.add(ev.answer_index)
    return replace(traj, events=tuple(kept))


def final_vote_diffs(traj: QuestionTrajectory) -> dict[str, int]:
    """Final (positive - negative) vote count per answer_id."""
    diffs = [0] * len(traj.answers)
    for ev in traj.events:
        diffs[ev.answer_index] += ev.sign
    return {a.answer_id: d for a, d in zip(traj.answers, diffs)}


def sequential_sum(values: Iterable[float]) -> float:
    """Left-to-right float sum, the order `_replay` accumulates log
    lengths in. The built-in `sum` compensates rounding from Python 3.12
    on, so its result can differ in the last bit."""
    total = 0.0
    for value in values:
        total += value
    return total


def _final_rel_length_values(answers: Sequence[Answer]) -> list[float]:
    if not answers:
        return []
    log_len = [math.log(a.text_length) for a in answers]
    mean_ll = sequential_sum(log_len) / len(log_len)
    return [max(-REL_LENGTH_CLIP, min(REL_LENGTH_CLIP, ll - mean_ll))
            for ll in log_len]


def final_rel_lengths(traj: QuestionTrajectory) -> dict[str, float]:
    """End-of-trajectory relative length per answer_id.

    Centered log-length over all answers of the question, clipped the same
    way as event contexts.
    """
    return {a.answer_id: rel for a, rel in
            zip(traj.answers, _final_rel_length_values(traj.answers))}


# --- JSONL wire format -------------------------------------------------
#
# One question per line:
#   {"question_id": ..., "answers": [{"answer_id", "creation_time",
#    "text_length", "accepted", "acceptance_time"}, ...],
#    "events": [{"answer_index", "timestamp", "sign"}, ...]}
# Contexts and time indices are derived state and never serialized;
# reading a line validates the question and replays its contexts. A line
# that is not UTF-8 or not JSON, lacks a key, breaks an invariant or
# repeats an earlier line's question_id raises MalformedTrajectoryError
# prefixed with `path:line:`.


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
        "events": [
            {
                "answer_index": ev.answer_index,
                "timestamp": ev.timestamp,
                "sign": ev.sign,
            }
            for ev in traj.events
        ],
    }
    return json.dumps(obj, separators=(",", ":"))


_RAW_EVENT = itemgetter("answer_index", "sign", "timestamp")


def _replay_json(cols: _Columns, obj: dict) -> None:
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
    cols.replay(question_id, answers, map(_RAW_EVENT, obj["events"]))


def write_trajectories(trajs: Iterable[QuestionTrajectory], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for traj in trajs:
            fh.write(trajectory_to_json_line(traj))
            fh.write("\n")


def read_trajectories(path) -> Community:
    """Read, validate and replay a trajectory JSONL into a Community."""
    # Undecodable bytes become lone surrogates, so the line that holds
    # them is the one reported.
    cols = _Columns()
    first_line: dict[str, int] = {}
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            reason = not_utf8(line)
            if reason is not None:
                raise MalformedTrajectoryError(f"{path}:{lineno}: {reason}")
            try:
                line = line.strip()
                if not line:
                    continue
                _replay_json(cols, json.loads(line))
            except json.JSONDecodeError as exc:
                reason = f"invalid JSON: {exc.msg} at column {exc.colno}"
            except KeyError as exc:
                reason = f"missing key {exc}"
            except (ValueError, TypeError) as exc:
                reason = str(exc)
            else:
                question_id = cols.question_ids[-1]
                first = first_line.setdefault(question_id, lineno)
                if first == lineno:
                    continue
                reason = (f"duplicate question_id {question_id!r} "
                          f"(first on line {first})")
            raise MalformedTrajectoryError(f"{path}:{lineno}: {reason}")
    return cols.community()
