"""The per-vote replay loop that `cva.trajectory`'s array kernel replaced.

Each question's values are first type-checked in reading order (its
id, its answers field by field, its votes), then its rules are checked
answer by answer and vote by vote in one walk that carries the vote
counts, the prefix of answers that exist at the current vote and that
prefix's log-length sum. Kept as the reference that the kernel's errors
and columns must match, on valid and broken records alike:
`reference_replay` for records, `reference_read` for a JSONL file.
"""

import json
import math
from array import array
from operator import itemgetter
from typing import Iterable

import numpy as np

from cva.configio import not_utf8
from cva.trajectory import (NEUTRAL_POS_RATIO, REL_LENGTH_CLIP, Answer,
                            Community, MalformedTrajectoryError,
                            QuestionTrajectory)


_INT64_RANGE = range(-2 ** 63, 2 ** 63)


def _type_error(field: str, value, expected: str) -> MalformedTrajectoryError:
    return MalformedTrajectoryError(
        f"{field} must be {expected}, got {value!r}")


def _integer(value) -> bool:
    """A 64-bit integer: a Python int, not a bool, in the int64 range."""
    return isinstance(value, int) and not isinstance(value, bool) \
        and value in _INT64_RANGE


def _typed_answers(question_id, answers: Iterable[Answer]
                   ) -> tuple[Answer, ...]:
    """`answers`, read one at a time, once the question id and each
    answer's fields, in order, have their types."""
    if not isinstance(question_id, str):
        raise _type_error("question_id", question_id, "a string")
    out = []
    for a in answers:
        if not isinstance(a.answer_id, str):
            raise _type_error(f"{question_id}: answer_id", a.answer_id,
                              "a string")
        where = f"{question_id}/{a.answer_id}: "
        for name in ("creation_time", "text_length"):
            if not _integer(getattr(a, name)):
                raise _type_error(where + name, getattr(a, name),
                                  "a 64-bit integer")
        if not isinstance(a.accepted, bool):
            raise _type_error(where + "accepted", a.accepted, "a boolean")
        if a.acceptance_time is not None \
                and not _integer(a.acceptance_time):
            raise _type_error(where + "acceptance_time", a.acceptance_time,
                              "null or a 64-bit integer")
        out.append(a)
    return tuple(out)


def _typed_votes(question_id: str, raw_events: Iterable) -> list:
    """The (answer_index, sign, timestamp) triples of `raw_events`, read
    one at a time, once each value has its type; votes count from 1."""
    out = []
    for k, (j, sign, ts) in enumerate(raw_events, 1):
        for name, value in (("answer_index", j), ("sign", sign),
                            ("timestamp", ts)):
            if not _integer(value):
                raise _type_error(f"{question_id}: vote {k} {name}", value,
                                  "a 64-bit integer")
        out.append((j, sign, ts))
    return out


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
    ids = set()
    for i, a in enumerate(answers):
        if a.answer_id in ids:
            raise MalformedTrajectoryError(
                f"{question_id}: duplicate answer_id {a.answer_id!r}")
        ids.add(a.answer_id)
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
        n = _replay(question_id, answers, raw_events, self)
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


_RAW_EVENT = itemgetter("answer_index", "sign", "timestamp")


def _replay_json(cols: _Columns, obj: dict) -> None:
    question_id = obj["question_id"]
    answers = _typed_answers(question_id, (
        Answer(
            answer_id=a["answer_id"],
            creation_time=a["creation_time"],
            text_length=a["text_length"],
            accepted=a["accepted"],
            acceptance_time=a.get("acceptance_time"),
        )
        for a in obj["answers"]
    ))
    votes = _typed_votes(question_id, map(_RAW_EVENT, obj["events"]))
    cols.replay(question_id, answers, votes)


def reference_read(path) -> Community:
    """A trajectory JSONL read line by line, each line replayed vote by
    vote."""
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


def reference_replay(trajectories: Iterable[QuestionTrajectory]
                     ) -> Community:
    """The Community of `trajectories`, replayed vote by vote; a repeated
    question_id raises once its record is replayed."""
    cols = _Columns()
    for traj in trajectories:
        answers = _typed_answers(traj.question_id, traj.answers)
        cols.replay(traj.question_id, answers,
                    _typed_votes(traj.question_id, traj.events))
        if traj.question_id in cols.question_ids[:-1]:
            raise MalformedTrajectoryError(
                f"duplicate question_id {traj.question_id!r}")
    return cols.community()
