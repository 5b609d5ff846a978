"""In-memory data model for helpfulness-voting trajectories.

A question owns an ordered list of answers and a chronological stream of
vote events. Every event can be annotated with the context a voter saw at
that instant: the answer's displayed rank, its perceived positive-vote
ratio, and its length relative to the answers coexisting at that moment.
Context reconstruction is deterministic and uses strictly earlier events
only, so replaying it is idempotent.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Optional

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
            raw_events: Iterable[tuple[int, int, int]]
            ) -> tuple[VoteEvent, ...]:
    """Validate one question and build its events, each with its context.

    `raw_events` yields (answer_index, sign, timestamp) in chronological
    order; time indices are assigned 1, 2, ... here. One replay carries
    the vote counts, the prefix of answers that exist at the current
    timestamp (answers are ordered by creation_time, events by timestamp)
    and that prefix's log-length sum from vote to vote, so no vote
    re-sorts the answers. Contexts use strictly earlier events only.
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
    events = []
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

        # positional arguments: this loop builds every context of a load
        n_pos, n_neg = pos[j], neg[j]
        ratio = n_pos / (n_pos + n_neg) if n_pos + n_neg \
            else NEUTRAL_POS_RATIO
        rel_len = log_len[j] - ll_sum / n_existing
        if rel_len > REL_LENGTH_CLIP:
            rel_len = REL_LENGTH_CLIP
        elif rel_len < -REL_LENGTH_CLIP:
            rel_len = -REL_LENGTH_CLIP
        events.append(VoteEvent(j, k, sign, ts,
                                VoteContext(rank, ratio, rel_len, n_pos,
                                            n_neg)))
        if sign > 0:
            pos[j] = n_pos + 1
        else:
            neg[j] = n_neg + 1
        diff[j] = dj + sign
    return tuple(events)


def reconstruct_contexts(traj: QuestionTrajectory) -> QuestionTrajectory:
    """Return a copy whose events carry the context each voter saw.

    Contexts are computed from strictly earlier events only, so running
    this twice yields bit-identical results.
    """
    for pos, ev in enumerate(traj.events):
        if ev.time_index != pos + 1:
            raise MalformedTrajectoryError(
                f"{traj.question_id}: time_index not contiguous from 1")
    events = _replay(traj.question_id, traj.answers,
                     ((ev.answer_index, ev.sign, ev.timestamp)
                      for ev in traj.events))
    return replace(traj, events=events)


def with_contexts(traj: QuestionTrajectory) -> QuestionTrajectory:
    """`traj`, replayed by `reconstruct_contexts` if an event lacks one."""
    if any(ev.context is None for ev in traj.events):
        return reconstruct_contexts(traj)
    return traj


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


def final_rel_lengths(traj: QuestionTrajectory) -> dict[str, float]:
    """End-of-trajectory relative length per answer_id.

    Centered log-length over all answers of the question, clipped the same
    way as event contexts.
    """
    if not traj.answers:
        return {}
    log_len = [math.log(a.text_length) for a in traj.answers]
    mean_ll = sum(log_len) / len(log_len)
    return {a.answer_id: max(-REL_LENGTH_CLIP,
                             min(REL_LENGTH_CLIP, ll - mean_ll))
            for a, ll in zip(traj.answers, log_len)}


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


def trajectory_from_json(obj: dict) -> QuestionTrajectory:
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
    events = _replay(question_id, answers,
                     ((e["answer_index"], e["sign"], e["timestamp"])
                      for e in obj["events"]))
    return QuestionTrajectory(question_id=question_id, answers=answers,
                              events=events)


def write_trajectories(trajs: Iterable[QuestionTrajectory], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for traj in trajs:
            fh.write(trajectory_to_json_line(traj))
            fh.write("\n")


def iter_trajectories(path) -> Iterator[QuestionTrajectory]:
    # Undecodable bytes become lone surrogates, so the line that holds
    # them is the one reported.
    first_line: dict[str, int] = {}
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                if not line.isascii():
                    line.encode("utf-8")
                line = line.strip()
                if not line:
                    continue
                traj = trajectory_from_json(json.loads(line))
            except UnicodeEncodeError as exc:
                byte = ord(exc.object[exc.start]) - 0xDC00
                reason = (f"not UTF-8: byte {byte:#04x} at column "
                          f"{exc.start + 1}")
            except json.JSONDecodeError as exc:
                reason = f"invalid JSON: {exc.msg} at column {exc.colno}"
            except KeyError as exc:
                reason = f"missing key {exc}"
            except (ValueError, TypeError) as exc:
                reason = str(exc)
            else:
                first = first_line.setdefault(traj.question_id, lineno)
                if first == lineno:
                    yield traj
                    continue
                reason = (f"duplicate question_id {traj.question_id!r} "
                          f"(first on line {first})")
            raise MalformedTrajectoryError(f"{path}:{lineno}: {reason}")


def read_trajectories(path) -> list[QuestionTrajectory]:
    return list(iter_trajectories(path))
