import pytest

from cva.ingest import (RejectLog, apply_filters, load_labels, parse_dump)
from cva.trajectory import (read_trajectories, reconstruct_contexts,
                            trajectory_to_json_line, write_trajectories)
from conftest import GOLDEN_DIR


@pytest.fixture(scope="module")
def golden_parsed():
    rejects = RejectLog()
    parsed = parse_dump(GOLDEN_DIR / "Posts.xml", GOLDEN_DIR / "Votes.xml",
                        GOLDEN_DIR / "PostHistory.xml", rejects=rejects)
    return parsed, rejects


class TestParseDump:
    def test_question_inventory(self, golden_parsed):
        parsed, _ = golden_parsed
        by_id = {p.trajectory.question_id: p for p in parsed}
        assert set(by_id) == {"1", "2", "3", "4"}
        assert not by_id["1"].closed_or_locked
        assert by_id["2"].closed_or_locked   # ClosedDate attribute
        assert by_id["4"].closed_or_locked   # lock row in PostHistory

    def test_bookmark_and_question_votes_ignored(self, golden_parsed):
        parsed, _ = golden_parsed
        q1 = next(p.trajectory for p in parsed
                  if p.trajectory.question_id == "1")
        # 14 up/down votes on answers; bookmark (id 120) and the vote on
        # the question post (id 130) produce no events
        assert len(q1.events) == 14

    def test_same_day_votes_ordered_by_vote_id(self, golden_parsed):
        parsed, _ = golden_parsed
        q1 = next(p.trajectory for p in parsed
                  if p.trajectory.question_id == "1")
        # 2020-01-02 has vote ids 103 (a10, down), 104 (a12), 107 (a13);
        # 107 appears first in the file but must sort last
        day_events = [e for e in q1.events
                      if 1577923200 <= e.timestamp < 1578009600]
        signs = [e.sign for e in day_events]
        answer_ids = [q1.answers[e.answer_index].answer_id
                      for e in day_events]
        assert answer_ids == ["10", "12", "13"]
        assert signs == [-1, +1, +1]

    def test_event_timestamps_strictly_after_answer_creation(self,
                                                             golden_parsed):
        parsed, _ = golden_parsed
        for p in parsed:
            traj = p.trajectory
            for ev in traj.events:
                assert ev.timestamp > \
                    traj.answers[ev.answer_index].creation_time

    def test_acceptance_metadata(self, golden_parsed):
        parsed, _ = golden_parsed
        q1 = next(p.trajectory for p in parsed
                  if p.trajectory.question_id == "1")
        accepted = [a for a in q1.answers if a.accepted]
        assert len(accepted) == 1
        assert accepted[0].answer_id == "12"
        assert accepted[0].acceptance_time == 1578182400

    def test_reject_log_entries(self, golden_parsed):
        _, rejects = golden_parsed
        reasons = {reason for _, reason in rejects.entries}
        assert any("missing VoteTypeId" in r for r in reasons)
        assert any("malformed XML row" in r for r in reasons)

    def test_reject_log_format(self, golden_parsed, tmp_path):
        _, rejects = golden_parsed
        path = tmp_path / "rejects.txt"
        rejects.write(path)
        for line in path.read_text().splitlines():
            lineno, reason = line.split("\t", 1)
            assert lineno.isdigit() and reason

    @pytest.mark.parametrize("kind, row", [
        ("posts", '<row Id="x1" PostTypeId="2" ParentId="1" '
                  'CreationDate="2020-01-01T10:00:00.000" Body="b" />'),
        ("posts", '<row Id="16" PostTypeId="2" ParentId="1" '
                  'CreationDate="yesterday" Body="b" />'),
        ("votes", '<row Id="160" PostId="1o" VoteTypeId="2" '
                  'CreationDate="2020-01-02T00:00:00.000" />'),
        ("posthistory", '<row Id="9006" PostHistoryTypeId="1O" PostId="1" '
                        'CreationDate="2020-01-09T00:00:00.000" />'),
    ], ids=["posts_id", "posts_date", "votes_post_id", "history_type"])
    def test_unconvertible_attribute_rejected(self, golden_parsed, tmp_path,
                                              kind, row):
        # the row goes to the reject log with its line number and the
        # rest of the dump parses as before
        names = {"posts": "Posts.xml", "votes": "Votes.xml",
                 "posthistory": "PostHistory.xml"}
        paths = {}
        for k, name in names.items():
            lines = (GOLDEN_DIR / name).read_text().splitlines(True)
            if k == kind:
                lines.insert(2, row + "\n")
            paths[k] = tmp_path / name
            paths[k].write_text("".join(lines))
        rejects = RejectLog()
        parsed = parse_dump(paths["posts"], paths["votes"],
                            paths["posthistory"], rejects=rejects)
        golden, golden_rejects = golden_parsed
        assert parsed == golden
        assert len(rejects) == len(golden_rejects) + 1
        assert [r for n, r in rejects.entries
                if n == 3 and r.startswith(f"{kind}: bad value")]


class TestApplyFilters:
    def test_golden_counts_every_filter_fires(self, golden_parsed):
        parsed, _ = golden_parsed
        report = apply_filters(parsed, min_answers=5, min_questions=1)
        assert report.counts["dropped_closed_or_locked"] == 2
        assert report.counts["dropped_min_answers"] == 1
        assert report.counts["votes_dropped_post_acceptance"] == 2
        assert report.counts["surviving"] == 1
        assert report.community_ok

    def test_expected_jsonl_byte_identical(self, golden_parsed, tmp_path):
        parsed, _ = golden_parsed
        report = apply_filters(parsed, min_answers=5, min_questions=1)
        out = tmp_path / "out.jsonl"
        write_trajectories(report.trajectories, out)
        assert out.read_bytes() == (GOLDEN_DIR / "expected.jsonl").read_bytes()

    def test_round_trip_reparse(self, golden_parsed):
        parsed, _ = golden_parsed
        report = apply_filters(parsed, min_answers=5, min_questions=1)
        lines = [trajectory_to_json_line(t) for t in report.trajectories]
        back = read_trajectories(GOLDEN_DIR / "expected.jsonl")
        assert [trajectory_to_json_line(t) for t in back] == lines

    def test_community_too_small_flagged(self, golden_parsed):
        parsed, _ = golden_parsed
        report = apply_filters(parsed, min_answers=5, min_questions=100)
        assert not report.community_ok
        assert report.trajectories  # output still produced, never silent

    def test_no_post_acceptance_votes_survive(self, golden_parsed):
        parsed, _ = golden_parsed
        report = apply_filters(parsed, min_answers=5, min_questions=1)
        for traj in report.trajectories:
            acc = traj.accepted_answer_index()
            if acc is None:
                continue
            cutoff = traj.answers[acc].acceptance_time
            for ev in traj.events:
                if ev.answer_index == acc:
                    assert ev.timestamp <= cutoff

    def test_five_answers_with_accepted_dropped(self, golden_parsed):
        # question 3 has 5 answers, one accepted: 4 non-accepted < 5
        parsed, _ = golden_parsed
        report = apply_filters(parsed, min_answers=5, min_questions=1)
        assert all(t.question_id != "3" for t in report.trajectories)

    def test_filtered_output_reconstructs_cleanly(self, golden_parsed):
        parsed, _ = golden_parsed
        report = apply_filters(parsed, min_answers=5, min_questions=1)
        for traj in report.trajectories:
            reconstruct_contexts(traj)

    def test_accepts_bare_trajectories(self, golden_parsed):
        parsed, _ = golden_parsed
        bare = [p.trajectory for p in parsed]
        report = apply_filters(bare, min_answers=5, min_questions=1)
        # closed/locked information is gone, min-answers still applies:
        # question 2 (1 answer) and question 3 (4 non-accepted) drop,
        # the formerly locked question 4 now survives
        assert report.counts["dropped_closed_or_locked"] == 0
        assert report.counts["dropped_min_answers"] == 2
        assert report.counts["surviving"] == 2


class TestLoadLabels:
    def write(self, tmp_path, body):
        path = tmp_path / "labels.csv"
        path.write_text("answer_id,score,source\n" + body)
        return path

    def test_basic_row(self, tmp_path):
        labels = load_labels(self.write(tmp_path,
                                        "a42,0.5,llm_helpfulness\n"))
        assert labels["a42"].score == 0.5
        assert labels["a42"].source == "llm_helpfulness"

    def test_duplicates_last_wins(self, tmp_path):
        body = ("a1,0.1,comment_sentiment\n"
                "a1,0.9,comment_sentiment\n"
                "a2,0.3,synthetic_truth\n")
        labels = load_labels(self.write(tmp_path, body))
        assert len(labels) == 2
        assert labels["a1"].score == 0.9

    def test_out_of_range_score_rejected(self, tmp_path):
        labels = load_labels(self.write(tmp_path,
                                        "a7,1.7,comment_sentiment\n"
                                        "a8,-0.2,comment_sentiment\n"))
        assert set(labels) == {"a8"}

    def test_unknown_source_rejected(self, tmp_path):
        labels = load_labels(self.write(tmp_path, "a7,0.2,vibes\n"))
        assert labels == {}

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("id,value\n1,2\n")
        with pytest.raises(ValueError):
            load_labels(path)
