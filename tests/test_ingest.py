import xml.etree.ElementTree as ET
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings, strategies as st

from cva import ingest
from cva.ingest import (RejectLog, apply_filters, load_labels, parse_dump)
from cva.trajectory import (read_trajectories, replay_community,
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
                      if 1577923200 <= e[2] < 1578009600]
        signs = [sign for _, sign, _ in day_events]
        answer_ids = [q1.answers[j].answer_id for j, _, _ in day_events]
        assert answer_ids == ["10", "12", "13"]
        assert signs == [-1, +1, +1]

    def test_event_timestamps_strictly_after_answer_creation(self,
                                                             golden_parsed):
        parsed, _ = golden_parsed
        for p in parsed:
            traj = p.trajectory
            for j, _, ts in traj.events:
                assert ts > traj.answers[j].creation_time

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


    @pytest.mark.parametrize("text, seconds", [
        ("2020-01-02T03:04:05Z", 1577934245),
        ("2020-01-02T03:04:05.12", 1577934245),
        ("2020-01-02T03:04:05.1Z", 1577934245),
        ("2020-01-02T03:04:05.12345+01:00", 1577930645),
        ("2020-01-02T03:04:05.123", 1577934245),
    ])
    def test_dates_read_as_from_python_311(self, text, seconds):
        # Python 3.10's fromisoformat rejects all but the last of these,
        # which 3.11 and later read; on 3.11 and later this passes
        # without the fallback too, so it guards the 3.10 CI leg.
        assert ingest._parse_date(text) == seconds

    @pytest.mark.parametrize("text", ["yesterday", "yesterdayZ",
                                      "2020-13-01",
                                      "2020-01-02T03:04:05.12Zx"])
    def test_bad_date_keeps_its_error(self, text):
        with pytest.raises(ValueError) as exc:
            ingest._parse_date(text)
        with pytest.raises(ValueError) as direct:
            datetime.fromisoformat(text)
        assert str(exc.value) == str(direct.value)


def reference_rows(path, rejects, kind):
    """The dump row reader built on `ET.fromstring` alone: what
    `ingest._iter_rows` must yield and reject, line for line."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as exc:
                byte = ord(exc.object[exc.start]) - 0xDC00
                rejects.add(lineno, f"{kind}: not UTF-8: byte {byte:#04x} "
                                    f"at column {exc.start + 1}")
                continue
            stripped = line.strip()
            if "<row" not in stripped:
                continue
            try:
                elem = ET.fromstring(stripped)
            except ET.ParseError as exc:
                rejects.add(lineno, f"{kind}: malformed XML row ({exc})")
                continue
            if elem.tag != "row":
                rejects.add(lineno, f"{kind}: unexpected element "
                                    f"<{elem.tag}>")
                continue
            attrs = elem.attrib
            try:
                for name, convert in ingest._CONVERTERS[kind].items():
                    if name in attrs:
                        attrs[name] = convert(attrs[name])
            except ValueError as exc:
                rejects.add(lineno, f"{kind}: bad value ({exc})")
                continue
            yield lineno, attrs


# Pieces of dump lines: well-formed rows, the XML that ElementTree reads
# in its own way (entities, namespaces, nested markup) and what it
# rejects. A lone surrogate is written as the undecodable byte 0xff.
ROW_STARTS = ["<row", "<row", "<row", "  <row", "<rowx", "<p:row",
              "<row xmlns='urn:r'", "<!DOCTYPE row><row", "<!-- c --><row",
              "x<row", "<?pi x?><row", "<rows>", "<row\t"]
ROW_ATTRS = [' Id="7"', ' Id="x"', " Id='8'", ' PostId="3"', ' PostId=""',
             ' VoteTypeId="2"', ' VoteTypeId="1"', ' PostTypeId="2"',
             ' ParentId="1"', ' AcceptedAnswerId="12"',
             ' PostHistoryTypeId="10"',
             ' CreationDate="2020-01-02T00:00:00.000"',
             ' CreationDate="2020-01-02T00:00:00.000"',
             ' CreationDate="2020-01-03"',
             ' CreationDate="2020-01-02T00:00:00+02:00"',
             ' CreationDate="2020-13-01"', ' CreationDate="yesterday"',
             ' Body="&amp;&lt;p&gt;"', ' Body="&foo;"', ' Body="&#0;"',
             ' Body="&#x41;&#66;"', ' Body="\u00e9\u4e2d"', ' Body="\x01"',
             ' Body="\t\r"', ' Body="}"', ' Body="<"', ' Body=1',
             ' Body="\udcff"', ' Id="1" Id="2"', ' xmlns="urn:x"',
             ' xmlns:a="urn:a"', ' a:B="1"', ' xml:lang="en"', ' a:Id="4"',
             " Body='\"'", ' ', '\t', ' =', ' ClosedDate="2020"']
ROW_ENDS = ["/>", "/>", " />", ">", "></row>", "><![CDATA[x]]></row>",
            "><a:b xmlns:a='urn:a'/></row>", "><row/></row>", "/><row/>",
            "/><!-- c -->", "", "></rowx>", ">&foo;</row>", ">&amp;</row>",
            "/>x"]

WELL_FORMED_ATTRS = [
    ' Id="7"', ' Id="x"', " Id='8'", ' Id="&#x31;&#50;"', ' PostId="3"',
    ' PostId=""', ' VoteTypeId="2"', ' VoteTypeId="1"',
    ' CreationDate="2020-01-02T00:00:00.000"', ' CreationDate="2020-01-03"',
    ' CreationDate="2020-13-01"', ' Body="&amp;&lt;p&gt;"',
    ' Body="\u00e9\u4e2d"', ' Body="}"', ' Body="\t a\r"',
    ' xml:lang="en"', ' xmlns:a="urn:a"', ' a:B="1"', ' xmlns="urn:x"',
    ' ClosedDate="2020"']

row_line = st.builds(lambda start, attrs, end: start + "".join(attrs) + end,
                     st.sampled_from(ROW_STARTS),
                     st.lists(st.sampled_from(ROW_ATTRS), max_size=6),
                     st.sampled_from(ROW_ENDS))
# rows that expat accepts far more often, so both paths are exercised
well_formed_row = st.builds(
    lambda attrs, end: "<row" + "".join(attrs) + end,
    st.lists(st.sampled_from(WELL_FORMED_ATTRS), max_size=6,
             unique_by=lambda attr: attr.split("=")[0]),
    st.sampled_from(["/>", " />", "></row>", "><x/></row>"]))
dump_lines = st.lists(
    row_line | well_formed_row
    | st.sampled_from(["<votes>", "</votes>", "",
                       '<?xml version="1.0" encoding="utf-8"?>']),
    min_size=10, max_size=60)


class TestRowParser:
    """`_iter_rows` reads each row line the way ElementTree does."""

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(lines=dump_lines,
           kind=st.sampled_from(["posts", "votes", "posthistory"]))
    def test_same_rows_and_rejects_as_elementtree(self, tmp_path_factory,
                                                  lines, kind):
        path = tmp_path_factory.getbasetemp() / "rows.xml"
        with open(path, "w", encoding="utf-8",
                  errors="surrogateescape") as fh:
            fh.write("".join(line + "\n" for line in lines))
        rejects, expected_rejects = RejectLog(), RejectLog()
        got = list(ingest._iter_rows(path, rejects, kind))
        expected = list(reference_rows(path, expected_rejects, kind))
        assert got == expected
        assert [type(v) for _, attrs in got for v in attrs.values()] == \
            [type(v) for _, attrs in expected for v in attrs.values()]
        assert rejects.entries == expected_rejects.entries

    def test_yields_one_item_per_accepted_row(self, tmp_path):
        good = '<row Id="{}" PostId="3" VoteTypeId="2" ' \
               'CreationDate="2020-01-0{}T00:00:00.000" />'
        lines = ["<votes>"]
        for i in range(1, 10):
            lines.append(good.format(i, i % 3 + 1))
            lines.append(['<row Id="1" Id="2" />', "<rowx />", "<row",
                          '<row Id="x" />', '<row Id="1" A="\udcff" />',
                          '<row CreationDate="2020-02-30" />'][i % 6])
        lines.append("</votes>")
        path = tmp_path / "Votes.xml"
        with open(path, "w", encoding="utf-8",
                  errors="surrogateescape") as fh:
            fh.write("\n".join(lines) + "\n")
        rejects = RejectLog()
        rows = list(ingest._iter_rows(path, rejects, "votes"))
        assert [lineno for lineno, _ in rows] == list(range(2, 20, 2))
        assert [attrs["Id"] for _, attrs in rows] == list(range(1, 10))
        assert [lineno for lineno, _ in rejects.entries] == \
            list(range(3, 21, 2))


DAY = 86_400
EPOCH = 1_577_836_800  # 2020-01-01T00:00:00 UTC


def _date(t: int) -> str:
    return datetime.fromtimestamp(t, timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%S.000")


@st.composite
def whole_dumps(draw):
    """(Posts, Votes, PostHistory) text of a small dump. Votes are dated
    at midnight, so several share a day and many predate their answer's
    creation; acceptance votes land before, among and after the votes on
    the accepted answer; questions are closed by attribute or by a
    history row."""
    posts, votes, history = [], [], []
    next_id = 1
    for _ in range(draw(st.integers(1, 4))):
        qid = next_id
        answer_ids = list(range(qid + 1, qid + 1 + draw(st.integers(0, 4))))
        next_id = qid + 1 + len(answer_ids)
        row = f'Id="{qid}" PostTypeId="1" CreationDate="{_date(EPOCH)}"'
        if answer_ids and draw(st.booleans()):
            row += f' AcceptedAnswerId="{draw(st.sampled_from(answer_ids))}"'
        if draw(st.integers(0, 3)) == 0:
            row += f' ClosedDate="{_date(EPOCH + 9 * DAY)}"'
        posts.append(f"<row {row} />")
        kind = draw(st.sampled_from([None, None, 4, 10, 14]))
        if kind is not None:
            history.append(f'<row Id="{qid}" PostHistoryTypeId="{kind}" '
                           f'PostId="{qid}" />')
        for aid in answer_ids:
            created = EPOCH + draw(st.integers(0, 3 * DAY))
            body = "x" * draw(st.integers(1, 40))
            posts.append(f'<row Id="{aid}" PostTypeId="2" ParentId="{qid}" '
                         f'CreationDate="{_date(created)}" Body="{body}" />')
        if answer_ids:
            votes += draw(st.lists(st.tuples(
                st.sampled_from(answer_ids), st.sampled_from([1, 2, 2, 3]),
                st.integers(0, 5)), max_size=12))
    order = draw(st.permutations(range(len(votes))))
    vote_rows = [f'<row Id="{k + 1}" PostId="{post}" VoteTypeId="{kind}" '
                 f'CreationDate="{_date(EPOCH + day * DAY)}" />'
                 for k, (post, kind, day) in enumerate(votes)]
    return tuple("\n".join([f"<{tag}>", *rows, f"</{tag}>"]) + "\n"
                 for tag, rows in (("posts", posts),
                                   ("votes", [vote_rows[k] for k in order]),
                                   ("posthistory", history)))


class TestValidByConstruction:
    """Ingested records are valid by construction: written, they read
    back through the replay's checks with the same votes."""

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(dump=whole_dumps(), min_answers=st.integers(0, 2))
    def test_written_records_read_back(self, tmp_path_factory, dump,
                                       min_answers):
        root = tmp_path_factory.getbasetemp()
        paths = [root / name for name in ("Posts.xml", "Votes.xml",
                                          "PostHistory.xml")]
        for path, text in zip(paths, dump):
            path.write_text(text, encoding="utf-8")
        report = apply_filters(parse_dump(*paths), min_answers=min_answers,
                               min_questions=0)
        out = root / "out.jsonl"
        write_trajectories(report.trajectories, out)
        community = read_trajectories(out)
        assert list(community) == report.trajectories
        assert list(zip(community.answer_index.tolist(),
                        community.sign.tolist(),
                        community.timestamp.tolist())) == \
            [ev for t in report.trajectories for ev in t.events]


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
            for j, _, ts in traj.events:
                if j == acc:
                    assert ts <= cutoff

    def test_five_answers_with_accepted_dropped(self, golden_parsed):
        # question 3 has 5 answers, one accepted: 4 non-accepted < 5
        parsed, _ = golden_parsed
        report = apply_filters(parsed, min_answers=5, min_questions=1)
        assert all(t.question_id != "3" for t in report.trajectories)

    def test_filtered_output_reconstructs_cleanly(self, golden_parsed):
        parsed, _ = golden_parsed
        report = apply_filters(parsed, min_answers=5, min_questions=1)
        replay_community(report.trajectories)

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
