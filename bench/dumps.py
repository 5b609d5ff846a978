"""StackExchange-format dumps written from simulated trajectories.

Each source question becomes a question post with its answers; each
simulator step is given its own calendar day, so day-granular vote dates
keep the simulated vote order. Into the dump go the cases ingestion must
filter or reject, with their expected effect recorded:

- closed questions (ClosedDate), and questions closed or locked through
  PostHistory;
- questions under the answer minimum (they occur naturally and are
  counted);
- accepted answers, with the votes cast on them after acceptance;
- votes of other types, and up/down votes on questions;
- malformed rows in all three files, which must land in the reject log.

`write_dump` returns what a correct ingestion yields: the surviving
trajectories as (question id, answers, (answer index, sign) votes), the
filter counts and the reject-log rows.
"""

from __future__ import annotations

from datetime import datetime, timedelta, timezone

import numpy as np

BASE = datetime(2000, 1, 1, tzinfo=timezone.utc)
OTHER_VOTE_TYPES = (5, 8, 10, 16)


def _day(step: int) -> str:
    return (BASE + timedelta(days=step)).strftime("%Y-%m-%dT00:00:00.000")


def _noon(step: int) -> str:
    return (BASE + timedelta(days=step, hours=12)).strftime(
        "%Y-%m-%dT%H:%M:%S.000")


class _File:
    """Row writer that knows the line number of every row it writes."""

    def __init__(self, path, root: str):
        self.fh = open(path, "w", encoding="utf-8")
        self.fh.write('<?xml version="1.0" encoding="utf-8"?>\n')
        self.fh.write(f"<{root}>\n")
        self.root = root
        self.lineno = 2
        self.rows = 0

    def row(self, text: str) -> int:
        self.fh.write(f"  {text}\n")
        self.lineno += 1
        self.rows += 1
        return self.lineno

    def close(self) -> None:
        self.fh.write(f"</{self.root}>\n")
        self.fh.close()


def write_dump(source: list[dict], out_dir, seed: int, replicas: int,
               min_answers: int) -> dict:
    """Write Posts.xml, Votes.xml and PostHistory.xml into `out_dir`.

    `source` holds trajectory records as read from the simulator's JSONL
    (timestamps are simulator steps). The source is written `replicas`
    times under fresh post ids.
    """
    rng = np.random.default_rng(seed)
    posts = _File(out_dir / "Posts.xml", "posts")
    votes = _File(out_dir / "Votes.xml", "votes")
    history = _File(out_dir / "PostHistory.xml", "posthistory")
    expected = {"trajectories": [], "rejects": set(),
                "counts": {"input": 0, "dropped_closed_or_locked": 0,
                           "dropped_min_answers": 0,
                           "votes_dropped_post_acceptance": 0,
                           "surviving": 0}}
    counts = expected["counts"]
    next_id = 1
    vote_id = 1
    hist_id = 1
    for _ in range(replicas):
        for q in source:
            qid = next_id
            aids = list(range(qid + 1, qid + 1 + len(q["answers"])))
            next_id = qid + 1 + len(q["answers"])
            fate = rng.random()
            closed_attr = fate < 0.02
            history_type = 10 if fate < 0.03 else 14 if fate < 0.04 \
                else None
            closed = closed_attr or history_type is not None

            # accept one answer in a fifth of the questions that have an
            # answer with two or more votes, on the day of one of its votes
            # but the last: that vote's synthetic timestamp equals the
            # acceptance time and stays, the later ones are dropped
            per_answer = [[] for _ in q["answers"]]
            for ev in q["events"]:
                per_answer[ev["answer_index"]].append(ev["timestamp"])
            accepted, accept_step = None, None
            candidates = [i for i, s in enumerate(per_answer) if len(s) >= 2]
            if candidates and rng.random() < 0.2:
                accepted = candidates[int(rng.integers(len(candidates)))]
                steps = per_answer[accepted]
                accept_step = steps[int(rng.integers(len(steps) - 1))]
            attrs = (f'Id="{qid}" PostTypeId="1" '
                     f'CreationDate="{_day(0)}" Score="0"')
            if accepted is not None:
                attrs += f' AcceptedAnswerId="{aids[accepted]}"'
            if closed_attr:
                attrs += f' ClosedDate="{_day(1)}"'
            posts.row(f"<row {attrs} />")
            if history_type is not None:
                history.row(f'<row Id="{hist_id}" PostHistoryTypeId='
                            f'"{history_type}" PostId="{qid}" '
                            f'CreationDate="{_day(1)}" />')
                hist_id += 1
            for i, a in enumerate(q["answers"]):
                posts.row(f'<row Id="{aids[i]}" PostTypeId="2" '
                          f'ParentId="{qid}" '
                          f'CreationDate="{_noon(a["creation_time"])}" '
                          f'Body="{"x" * a["text_length"]}" />')
            for ev in q["events"]:
                vtype = 2 if ev["sign"] > 0 else 3
                votes.row(f'<row Id="{vote_id}" PostId="'
                          f'{aids[ev["answer_index"]]}" VoteTypeId="{vtype}" '
                          f'CreationDate="{_day(ev["timestamp"])}" />')
                vote_id += 1
            if accepted is not None:
                votes.row(f'<row Id="{vote_id}" PostId="{aids[accepted]}" '
                          f'VoteTypeId="1" CreationDate="{_day(accept_step)}" />')
                vote_id += 1
            # noise the ingester must ignore
            for _ in range(int(rng.integers(0, 3))):
                target = aids[int(rng.integers(len(aids)))]
                vtype = OTHER_VOTE_TYPES[int(rng.integers(4))]
                votes.row(f'<row Id="{vote_id}" PostId="{target}" '
                          f'VoteTypeId="{vtype}" CreationDate="{_day(1)}" />')
                vote_id += 1
            if rng.random() < 0.1:
                votes.row(f'<row Id="{vote_id}" PostId="{qid}" VoteTypeId='
                          f'"{2 + int(rng.integers(2))}" '
                          f'CreationDate="{_day(1)}" />')
                vote_id += 1

            counts["input"] += 1
            if closed:
                counts["dropped_closed_or_locked"] += 1
                continue
            if len(q["answers"]) - (accepted is not None) < min_answers:
                counts["dropped_min_answers"] += 1
                continue
            kept = [(ev["answer_index"], ev["sign"]) for ev in q["events"]
                    if not (ev["answer_index"] == accepted
                            and ev["timestamp"] > accept_step)]
            counts["votes_dropped_post_acceptance"] += \
                len(q["events"]) - len(kept)
            answers = [(str(aids[i]), a["text_length"], i == accepted)
                       for i, a in enumerate(q["answers"])]
            expected["trajectories"].append((str(qid), answers, kept))
        # malformed rows, one kind per file and replica
        line = posts.row(f'<row Id="{next_id}" PostTypeId="2" ParentId=')
        expected["rejects"].add(("posts", line))
        line = posts.row(f'<rowx Id="{next_id + 1}" PostTypeId="1" />')
        expected["rejects"].add(("posts", line))
        next_id += 2
        line = votes.row(f'<row Id="{vote_id}" VoteTypeId="2" '
                         f'CreationDate="{_day(1)}" />')
        expected["rejects"].add(("votes", line))
        vote_id += 1
        line = history.row(f'<row Id="{hist_id}" PostId="1" '
                           f'CreationDate="{_day(1)}" />')
        expected["rejects"].add(("posthistory", line))
        hist_id += 1
    counts["surviving"] = len(expected["trajectories"])
    expected["vote_rows"] = votes.rows
    for f in (posts, votes, history):
        f.close()
    return expected
