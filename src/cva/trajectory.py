"""In-memory data model for helpfulness-voting trajectories.

A question owns an ordered list of answers and a chronological stream of
votes. A `QuestionTrajectory` is that raw record: each vote is an
(answer_index, sign, timestamp) triple, as one JSONL line holds it.
Replaying a question's records validates them and works out the context
each voter saw: the answer's displayed rank, its perceived positive-vote
ratio, and its length relative to the answers coexisting at that moment.
The replay is deterministic and uses strictly earlier votes only. A
`Community` holds a whole community's votes and contexts as columns,
which every stage reads; iterating it yields the raw records again.
"""

from __future__ import annotations

import json
import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
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
    """The Community of `trajectories`, each validated and replayed by
    `_replay` as `read_trajectories` replays a line."""
    cols = _Columns()
    for traj in trajectories:
        cols.replay(traj.question_id, traj.answers, traj.events)
    return cols.community()


def reconstruct_contexts(traj: QuestionTrajectory) -> Community:
    """The one-question Community of `traj`. No stage calls it; the
    benchmark's tracer still times calls to this name."""
    return replay_community((traj,))


def sequential_sum(values: Iterable[float]) -> float:
    """Left-to-right float sum, the order `_replay` accumulates log
    lengths in. The built-in `sum` compensates rounding from Python 3.12
    on, so its result can differ in the last bit."""
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
        "events": [{"answer_index": j, "timestamp": ts, "sign": sign}
                   for j, sign, ts in traj.events],
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
    """Write one JSONL line per record, e.g. per question of a Community.
    The records are written as given, not validated."""
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
