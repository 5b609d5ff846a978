"""StackExchange data-dump ingestion.

Parses the Posts, Votes and PostHistory XML files (one <row .../> element
per line) into question trajectories and applies the preprocessing
filters: ever-closed-or-locked questions are dropped, questions need a
minimum number of non-accepted answers, votes cast on an accepted answer
after its acceptance are removed, and a community with too few surviving
questions is rejected outright.

Dump vote timestamps have day granularity, so same-day votes are ordered
by their monotonically assigned vote ids and each vote receives a
synthetic timestamp strictly after both its predecessor and the voted
answer's creation; trajectory invariants then hold exactly.
"""

from __future__ import annotations

import csv
import logging
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Union
from xml.parsers import expat

from .configio import InputError, not_utf8, utf8_lines
from .trajectory import Answer, QuestionTrajectory

log = logging.getLogger(__name__)

VOTE_ACCEPTED = 1
VOTE_UP = 2
VOTE_DOWN = 3

HISTORY_CLOSED = 10
HISTORY_LOCKED = 14

LABEL_SOURCES = ("comment_sentiment", "llm_helpfulness", "synthetic_truth")


@dataclass(frozen=True)
class QualityLabel:
    answer_id: str
    score: float
    source: str


@dataclass(frozen=True)
class ParsedQuestion:
    trajectory: QuestionTrajectory
    closed_or_locked: bool


class RejectLog:
    """Collects skipped input rows as (line number, reason) pairs."""

    def __init__(self):
        self.entries: list[tuple[int, str]] = []

    def add(self, lineno: int, reason: str) -> None:
        self.entries.append((lineno, reason))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for lineno, reason in self.entries:
                fh.write(f"{lineno}\t{reason}\n")

    def __len__(self) -> int:
        return len(self.entries)


def _parse_date(text: str) -> int:
    try:
        dt = datetime.fromisoformat(text)
    except ValueError as exc:
        # before Python 3.11, fromisoformat takes neither a trailing "Z"
        # nor a fraction of other than 3 or 6 digits; 3.11 reads both
        iso = re.sub(r"\.(\d{1,6})(?=[+-]|$)", lambda m: m[0].ljust(7, "0"),
                     re.sub(r"Z$", "+00:00", text))
        try:
            dt = datetime.fromisoformat(iso)
        except ValueError:
            raise exc from None  # the message names the date as given
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


# Attributes converted as a row is read, per dump file.
_CONVERTERS = {
    "posts": {"Id": int, "ParentId": int, "AcceptedAnswerId": int,
              "CreationDate": _parse_date},
    "votes": {"Id": int, "PostId": int, "VoteTypeId": int,
              "CreationDate": _parse_date},
    "posthistory": {"PostHistoryTypeId": int, "PostId": int},
}


def _parse_row(text: str) -> tuple[str, dict]:
    """(tag, attributes) of the element that `text` holds, exactly as
    `ET.fromstring(text)` reads them; ET.ParseError where it fails.

    A line that starts with `<row` is read by one bare expat parser in
    ElementTree's namespace mode, about twice as fast as building an
    ElementTree. Anything expat rejects and any namespaced name goes
    through ElementTree itself, so its names and error messages stay
    ElementTree's own.
    """
    if text.startswith("<row"):
        found = []
        parser = expat.ParserCreate(None, "}")
        parser.StartElementHandler = lambda tag, attrs: \
            found.append((tag, attrs))
        try:
            parser.Parse(text, True)
        except expat.ExpatError:
            pass
        else:
            tag, attrs = found[0]
            if "}" not in tag and "}" not in "".join(attrs):
                return tag, attrs
    elem = ET.fromstring(text)
    return elem.tag, elem.attrib


def _iter_rows(path, rejects: RejectLog, kind: str
               ) -> Iterator[tuple[int, dict]]:
    """Yield (line number, attributes) for each <row/> line of a dump file.

    Anything that is not a parseable row element, holds bytes that are
    not UTF-8, or whose int or date attribute does not convert goes to
    the reject log; wrapper lines (declaration, opening/closing list
    tags) are skipped silently.
    """
    converters = _CONVERTERS[kind].items()
    # Undecodable bytes become lone surrogates, so the line that holds
    # them is the one reported.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            reason = not_utf8(line)
            if reason is not None:
                rejects.add(lineno, f"{kind}: {reason}")
                continue
            stripped = line.strip()
            if "<row" not in stripped:
                continue
            try:
                tag, attrs = _parse_row(stripped)
            except ET.ParseError as exc:
                rejects.add(lineno, f"{kind}: malformed XML row ({exc})")
                continue
            if tag != "row":
                rejects.add(lineno, f"{kind}: unexpected element <{tag}>")
                continue
            try:
                for name, convert in converters:
                    if name in attrs:
                        attrs[name] = convert(attrs[name])
            except ValueError as exc:
                rejects.add(lineno, f"{kind}: bad value ({exc})")
                continue
            yield lineno, attrs


def _require(attrs: dict[str, str], names: Iterable[str]) -> list[str]:
    return [n for n in names if n not in attrs]


@dataclass
class _QuestionRecord:
    question_id: int
    accepted_answer_id: Optional[int]
    closed: bool


@dataclass
class _AnswerRecord:
    answer_id: int
    parent_id: int
    creation_time: int
    text_length: int
    acceptance_time: Optional[int] = None
    # (creation date, vote id, sign) of each up or down vote
    votes: list[tuple[int, int, int]] = field(default_factory=list)


def parse_dump(posts_path, votes_path, posthistory_path,
               rejects: Optional[RejectLog] = None
               ) -> list[ParsedQuestion]:
    """Parse a community dump into per-question trajectories.

    Questions are emitted in ascending post-id order with answers in
    creation order and vote events ordered by (creation date, vote id).
    """
    if rejects is None:
        rejects = RejectLog()

    questions: dict[int, _QuestionRecord] = {}
    answers: dict[int, _AnswerRecord] = {}
    for lineno, attrs in _iter_rows(posts_path, rejects, "posts"):
        missing = _require(attrs, ("Id", "PostTypeId", "CreationDate"))
        if missing:
            rejects.add(lineno, f"posts: missing {','.join(missing)}")
            continue
        post_type = attrs["PostTypeId"]
        if post_type == "1":
            questions[attrs["Id"]] = _QuestionRecord(
                question_id=attrs["Id"],
                accepted_answer_id=attrs.get("AcceptedAnswerId"),
                closed="ClosedDate" in attrs)
        elif post_type == "2":
            missing = _require(attrs, ("ParentId", "Body"))
            if missing:
                rejects.add(lineno, f"posts: missing {','.join(missing)}")
                continue
            if len(attrs["Body"]) < 1:
                rejects.add(lineno, "posts: empty Body")
                continue
            answers[attrs["Id"]] = _AnswerRecord(
                answer_id=attrs["Id"],
                parent_id=attrs["ParentId"],
                creation_time=attrs["CreationDate"],
                text_length=len(attrs["Body"]))
        # other post types (wiki, tag excerpts, ...) are not ingested

    for lineno, attrs in _iter_rows(votes_path, rejects, "votes"):
        missing = _require(attrs, ("Id", "PostId", "VoteTypeId",
                                   "CreationDate"))
        if missing:
            rejects.add(lineno, f"votes: missing {','.join(missing)}")
            continue
        vote_type = attrs["VoteTypeId"]
        if vote_type not in (VOTE_ACCEPTED, VOTE_UP, VOTE_DOWN):
            continue
        record = answers.get(attrs["PostId"])
        if record is None:
            continue  # vote on a question or an unknown post
        if vote_type == VOTE_ACCEPTED:
            record.acceptance_time = attrs["CreationDate"]
        else:
            record.votes.append((attrs["CreationDate"], attrs["Id"],
                                 +1 if vote_type == VOTE_UP else -1))

    closed_by_history: set[int] = set()
    for lineno, attrs in _iter_rows(posthistory_path, rejects,
                                    "posthistory"):
        missing = _require(attrs, ("Id", "PostHistoryTypeId", "PostId"))
        if missing:
            rejects.add(lineno, f"posthistory: missing "
                                f"{','.join(missing)}")
            continue
        if attrs["PostHistoryTypeId"] in (HISTORY_CLOSED, HISTORY_LOCKED):
            closed_by_history.add(attrs["PostId"])

    by_question: dict[int, list[_AnswerRecord]] = {}
    for record in answers.values():
        if record.parent_id in questions:
            by_question.setdefault(record.parent_id, []).append(record)

    out = []
    for qid in sorted(questions):
        qrec = questions[qid]
        arecs = sorted(by_question.get(qid, []),
                       key=lambda r: (r.creation_time, r.answer_id))
        traj = _assemble(qrec, arecs)
        closed = qrec.closed or qid in closed_by_history
        out.append(ParsedQuestion(trajectory=traj, closed_or_locked=closed))
    return out


def _assemble(qrec: _QuestionRecord,
              arecs: list[_AnswerRecord]) -> QuestionTrajectory:
    answer_objs = tuple(
        Answer(answer_id=str(rec.answer_id),
               creation_time=rec.creation_time,
               text_length=rec.text_length,
               accepted=(qrec.accepted_answer_id == rec.answer_id
                         and rec.acceptance_time is not None),
               acceptance_time=rec.acceptance_time
               if qrec.accepted_answer_id == rec.answer_id else None)
        for rec in arecs
    )
    # flat (creation date, vote id) order across the question's answers;
    # the stable sort keeps rows that share both in answer and file order
    votes = sorted(((date, vote_id, i, sign)
                    for i, rec in enumerate(arecs)
                    for date, vote_id, sign in rec.votes),
                   key=itemgetter(0, 1))
    events = []
    prev_t = None
    for date, _, i, sign in votes:
        t = max(date, arecs[i].creation_time + 1)
        if prev_t is not None:
            t = max(t, prev_t + 1)
        prev_t = t
        events.append((i, sign, t))
    return QuestionTrajectory(question_id=str(qrec.question_id),
                              answers=answer_objs, events=tuple(events))


@dataclass
class FilterReport:
    trajectories: list[QuestionTrajectory]
    community_ok: bool
    min_questions: int
    counts: dict[str, int]


def apply_filters(parsed: Iterable[Union[ParsedQuestion,
                                         QuestionTrajectory]],
                  min_answers: int = 5,
                  min_questions: int = 100) -> FilterReport:
    """Apply the preprocessing filters and report what fired.

    Bare trajectories are treated as never closed or locked. The report's
    community_ok flag turns false when fewer than min_questions questions
    survive; callers must not treat an empty result as success.
    """
    survivors = []
    counts = {"input": 0, "dropped_closed_or_locked": 0,
              "dropped_min_answers": 0, "votes_dropped_post_acceptance": 0,
              "surviving": 0}
    for item in parsed:
        counts["input"] += 1
        if isinstance(item, ParsedQuestion):
            traj, closed = item.trajectory, item.closed_or_locked
        else:
            traj, closed = item, False
        if closed:
            counts["dropped_closed_or_locked"] += 1
            continue
        non_accepted = sum(1 for a in traj.answers if not a.accepted)
        if non_accepted < min_answers:
            counts["dropped_min_answers"] += 1
            continue
        traj, n_dropped = _drop_post_acceptance_votes(traj)
        counts["votes_dropped_post_acceptance"] += n_dropped
        survivors.append(traj)
    counts["surviving"] = len(survivors)
    ok = len(survivors) >= min_questions
    if not ok:
        log.warning("community rejected: %d surviving questions < %d",
                    len(survivors), min_questions)
    return FilterReport(trajectories=survivors, community_ok=ok,
                        min_questions=min_questions, counts=counts)


def _drop_post_acceptance_votes(traj: QuestionTrajectory
                                ) -> tuple[QuestionTrajectory, int]:
    acc = traj.accepted_answer_index()
    if acc is None:
        return traj, 0
    cutoff = traj.answers[acc].acceptance_time
    kept = tuple(ev for ev in traj.events
                 if not (ev[0] == acc and ev[2] > cutoff))
    n_dropped = len(traj.events) - len(kept)
    if n_dropped == 0:
        return traj, 0
    return replace(traj, events=kept), n_dropped


def load_labels(path) -> dict[str, QualityLabel]:
    """Read the answer-quality label CSV (answer_id,score,source).

    Out-of-range scores and unknown sources are rejected row by row;
    duplicate answer ids keep the last occurrence.
    """
    labels: dict[str, QualityLabel] = {}
    n_duplicates = 0
    n_rejected = 0
    with open(path, "r", encoding="utf-8", errors="surrogateescape",
              newline="") as fh:
        reader = csv.DictReader(utf8_lines(path, fh))
        expected = ["answer_id", "score", "source"]
        if reader.fieldnames != expected:
            raise InputError(path, f"label CSV header must be "
                                   f"{','.join(expected)}, got "
                                   f"{reader.fieldnames}")
        for row in reader:
            try:
                score = float(row["score"])
            except (TypeError, ValueError):
                n_rejected += 1
                log.warning("label row rejected (bad score): %r", row)
                continue
            if not -1.0 <= score <= 1.0:
                n_rejected += 1
                log.warning("label row rejected (score out of [-1,1]): %r",
                            row)
                continue
            if row["source"] not in LABEL_SOURCES:
                n_rejected += 1
                log.warning("label row rejected (unknown source): %r", row)
                continue
            if row["answer_id"] in labels:
                n_duplicates += 1
            labels[row["answer_id"]] = QualityLabel(
                answer_id=row["answer_id"], score=score,
                source=row["source"])
    if n_duplicates:
        log.warning("%d duplicate label rows (last occurrence wins)",
                    n_duplicates)
    if n_rejected:
        log.warning("%d label rows rejected", n_rejected)
    return labels
