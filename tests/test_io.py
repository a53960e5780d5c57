"""CSV ingestion/emission round trips and the fixed output dialect."""

import csv
import gc
import io
import json
import os
import pathlib
import re
import tracemalloc
import types

import pytest
from hypothesis import given
from hypothesis import strategies as st

import emit_oracle
import prevthresh.dataio as dataio
from prevthresh import _arrays, _ingest
from emit_oracle import (
    emit_curves_scalar,
    emit_ratio_curves_scalar,
    ingest_predictions_scalar,
    write_predictions_scalar,
)
from prevthresh import (
    ConfusionCounts,
    DiagnosticProfile,
    EmptyInput,
    ParseError,
    PrevthreshError,
    emit_curves,
    emit_ratio_curves,
    ingest_predictions,
    threshold_summary,
    write_predictions,
)

PHI_E = 0.1907435698305462
RHO_E = 0.8092564301694538
PHI_N = 0.7550344704135896

P_9095 = DiagnosticProfile(0.9, 0.95)


class TestIngest:
    def test_one_of_each(self):
        text = "label,prediction\n1,1\n0,1\n1,0\n0,0\n"
        assert ingest_predictions(io.StringIO(text)) == ConfusionCounts(1, 1, 1, 1)

    def test_all_true_positives(self):
        text = "label,prediction\n" + "1,1\n" * 10
        assert ingest_predictions(io.StringIO(text)) == ConfusionCounts(10, 0, 0, 0)

    def test_header_casing_and_padding(self):
        text = " Label , PREDICTION \n1,1\n"
        assert ingest_predictions(io.StringIO(text)) == ConfusionCounts(1, 0, 0, 0)

    def test_extra_and_reordered_columns(self):
        text = "id,prediction,score,label\nx,1,0.93,1\ny,0,0.12,0\n"
        assert ingest_predictions(io.StringIO(text)) == ConfusionCounts(1, 0, 0, 1)

    def test_blank_lines_are_skipped(self):
        text = "label,prediction\n1,1\n\n0,0\n"
        assert ingest_predictions(io.StringIO(text)) == ConfusionCounts(1, 0, 0, 1)

    def test_bad_value_names_row(self):
        text = "label,prediction\n1,1\n2,0\n"
        with pytest.raises(ParseError) as exc:
            ingest_predictions(io.StringIO(text))
        assert exc.value.row == 3
        assert "label" in str(exc.value)

    def test_bad_prediction_value(self):
        text = "label,prediction\n1,yes\n"
        with pytest.raises(ParseError) as exc:
            ingest_predictions(io.StringIO(text))
        assert "prediction" in str(exc.value)

    def test_short_row(self):
        text = "label,prediction\n1\n"
        with pytest.raises(ParseError) as exc:
            ingest_predictions(io.StringIO(text))
        assert exc.value.row == 2

    def test_missing_column(self):
        with pytest.raises(ParseError) as exc:
            ingest_predictions(io.StringIO("label,output\n1,1\n"))
        assert exc.value.row == 1

    def test_empty_file(self):
        with pytest.raises(EmptyInput):
            ingest_predictions(io.StringIO(""))

    def test_header_only(self):
        with pytest.raises(EmptyInput):
            ingest_predictions(io.StringIO("label,prediction\n"))

    def test_reads_byte_streams(self):
        counts = ingest_predictions(io.BytesIO(b"label,prediction\n1,1\n0,0\n"))
        assert counts == ConfusionCounts(1, 0, 0, 1)

    @pytest.mark.parametrize(
        "body", [b"label,prediction\n1,1\n0,0\n", b"label,prediction\n1,1\n7,0\n"], ids=["counts", "parse-error"]
    )
    def test_leaves_caller_byte_stream_open(self, body):
        stream = io.BytesIO(body)
        try:
            ingest_predictions(stream)
        except ParseError:
            pass
        gc.collect()
        assert not stream.closed
        assert stream.getvalue() == body

    def test_reads_paths(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("label,prediction\n1,1\n1,0\n", encoding="utf-8")
        assert ingest_predictions(path) == ConfusionCounts(1, 0, 1, 0)
        assert ingest_predictions(str(path)) == ConfusionCounts(1, 0, 1, 0)

    def test_reads_path_like_objects(self, tmp_path):
        class Located:
            def __init__(self, path):
                self.path = path

            def __fspath__(self):
                return str(self.path)

        path = tmp_path / "preds.csv"
        path.write_text("label,prediction\n1,1\n1,0\n", encoding="utf-8")
        assert isinstance(Located(path), os.PathLike)
        assert ingest_predictions(pathlib.Path(str(path))) == ConfusionCounts(1, 0, 1, 0)
        assert ingest_predictions(Located(path)) == ConfusionCounts(1, 0, 1, 0)

    @pytest.mark.parametrize("pairs", [2_500, 25_000])
    def test_non_utf8_bytes_are_a_parse_error_without_an_offset(self, tmp_path, pairs):
        # The last of 2 * pairs + 1 data rows holds a byte that is not UTF-8.
        body = b"label,prediction\n" + b"1,1\n0,0\n" * pairs + b"1,\xff\n"
        path = tmp_path / "latin1.csv"
        path.write_bytes(body)
        for source in (path, io.BytesIO(body)):
            with pytest.raises(ParseError) as exc:
                ingest_predictions(source)
            message = str(exc.value)
            match = re.fullmatch(r"input is not UTF-8 \(invalid start byte\); decoding failed after data row (\d+)",
                                 message)
            assert match and 0 < int(match[1]) <= 2 * pairs
            assert "position" not in message and exc.value.row is None

    def test_non_utf8_header_is_a_parse_error(self):
        with pytest.raises(ParseError) as exc:
            ingest_predictions(io.BytesIO(b"label,predicti\xf3n\n1,1\n"))
        assert str(exc.value) == (
            "input is not UTF-8 (invalid continuation byte); decoding failed before any data row was tallied"
        )

    def test_reads_text_streams_that_are_not_text_io(self):
        class Reader:
            def __init__(self, text):
                self._text = io.StringIO(text)

            def read(self, size=-1):
                return self._text.read(size)

        source = Reader("label,prediction\n1,1\n0,1\n1,0\n0,0\n0,0\n")
        assert not isinstance(source, io.TextIOBase)
        assert ingest_predictions(source) == ConfusionCounts(1, 1, 1, 2)

    def test_rejects_unreadable_source(self):
        with pytest.raises(TypeError):
            ingest_predictions(42)

    def test_bom_header_reads_like_plain_header(self, tmp_path):
        body = "label,prediction\n1,1\n0,1\n1,0\n0,0\n0,0\n"
        expected = ConfusionCounts(1, 1, 1, 2)
        path = tmp_path / "bom.csv"
        path.write_text("\ufeff" + body, encoding="utf-8")
        assert ingest_predictions(path) == expected
        assert ingest_predictions(io.BytesIO(path.read_bytes())) == expected
        assert ingest_predictions(io.StringIO("\ufeff" + body)) == expected
        assert ingest_predictions(io.StringIO(body)) == expected

    def test_bom_in_data_row_is_parse_error(self):
        with pytest.raises(ParseError) as exc:
            ingest_predictions(io.StringIO("\ufefflabel,prediction\n1,1\n\ufeff0,0\n"))
        assert exc.value.row == 3
        assert "label" in str(exc.value)


def _ingest_outcome(ingest, text: str):
    """Counts, or the error type, row and message, of one ingest of text."""
    try:
        return ingest(io.StringIO(text))
    except (ParseError, EmptyInput) as exc:
        return type(exc).__name__, getattr(exc, "row", None), str(exc)


HEADER = "label,prediction\n"


class TestIngestOracleParity:
    """ingest_predictions against the row-by-row parse of tests/emit_oracle.py."""

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param(HEADER + "1,1\n\n0,0\n\n\n1,0\n0,1\n\n", id="blank-lines"),
            pytest.param(HEADER + "\n\n", id="only-blank-lines"),
            pytest.param(HEADER + " 1 , 1\n1,1\n0 ,1\n\t0,0\n1,\t0 \n", id="padded-tokens"),
            pytest.param(HEADER + "1,1\n1,1\n1\n", id="short-row"),
            pytest.param(HEADER + "1,1\n1\n2,2\n", id="short-row-before-bad-tokens"),
            pytest.param(HEADER + "1,1\n2,0\n", id="bad-label"),
            pytest.param(HEADER + "1,1\n0,yes\n", id="bad-prediction"),
            pytest.param(HEADER + "1,1\nx,y\n", id="bad-label-and-prediction"),
            pytest.param(HEADER + "1,1\n0,0\n" * 5000 + "1,x\n", id="bad-after-10000-rows"),
            pytest.param(HEADER + "1,1\n0,1\n1,1\n1, 1\n0,1\n1, 1\n1,2\n", id="seen-pair-then-new-bad-pair"),
            pytest.param('id,label,prediction\n"a\nb",1,1\nc,1,1\n"d\ne\nf",0,0\ng,0,9\n', id="multiline-field"),
            pytest.param("id,label,prediction,score\nx,1,1,0.9\ny,0,0,0.1\nz,0,1\nw,1,0,0.5,extra\n", id="extra-columns"),
            pytest.param("prediction,label\n1,0\n0,1\n1,1\n0,0\n", id="swapped-columns"),
            pytest.param("prediction,label\n1,0\nx,y\n", id="swapped-columns-bad-row"),
            pytest.param("id,prediction,label\nx,1,1\ny,0\n", id="swapped-columns-short-row"),
        ],
    )
    def test_matches_row_by_row_parse(self, text):
        assert _ingest_outcome(ingest_predictions, text) == _ingest_outcome(ingest_predictions_scalar, text)

    @given(
        st.lists(
            st.one_of(
                st.just(""),
                st.just("1"),
                st.tuples(*[st.sampled_from(["0", "1", " 1", "0 ", "2", "", "x"])] * 2).map(",".join),
            ),
            max_size=40,
        )
    )
    def test_matches_row_by_row_parse_on_random_tables(self, rows):
        text = HEADER + "".join(row + "\n" for row in rows)
        assert _ingest_outcome(ingest_predictions, text) == _ingest_outcome(ingest_predictions_scalar, text)


# Tables larger than one ingest block (_ingest._READ_CHARS characters).
BLOCK = _ingest._READ_CHARS
ROWS = "1,1\n0,0\n1,0\n0,1\n" * 1500  # 24,000 characters
EARLY = "1,1\n" * 4090  # ends 17 characters short of a block after HEADER


def _crlf_split_across_reads() -> str:
    """A CRLF table whose first read ends between a carriage return and its line feed."""
    head = "label,prediction\r\n1,1,"
    pad = next(n for n in range(5) if (BLOCK - 4 - len(head) - n - 2) % 5 == 0)
    text = head + "x" * pad + "\r\n" + "0,0\r\n" * 4000 + "1,7\r\n"
    assert text[BLOCK - 1 : BLOCK + 1] == "\r\n"
    return text


def _runs_meeting_at_a_read(first: str, second: str) -> str:
    """A table whose second read ends where a run of first ends and a run of second begins.

    Blank lines after the header pad the first run to end the read, so
    the blocks after the first hold the lines of one run each.
    """
    pad = (2 * BLOCK - len(HEADER)) % len(first)
    text = HEADER + "\n" * pad + first * ((2 * BLOCK - len(HEADER)) // len(first))
    assert len(text) == 2 * BLOCK
    return text + second * 6000


class _Unseekable(io.BytesIO):
    """A byte stream that cannot seek or tell, like a pipe."""

    def seekable(self):
        return False

    def seek(self, *args):
        raise io.UnsupportedOperation("seek")

    def tell(self):
        raise io.UnsupportedOperation("tell")


def _source(text: str, kind: str, tmp_path):
    if kind == "path":
        path = tmp_path / "predictions.csv"
        path.write_bytes(text.encode("utf-8"))
        return path
    if kind == "text":
        return io.StringIO(text)
    if kind == "bytes":
        return io.BytesIO(text.encode("utf-8"))
    return _Unseekable(text.encode("utf-8"))


def _oracle_outcome(source, monkeypatch):
    """The row-by-row parse's counts, or its error as ingest_predictions reports it.

    Where csv itself fails, the expected error is a ParseError at the
    oracle reader's line_num, carrying csv's message.
    """
    readers = []

    def reader(stream):
        readers.append(csv.reader(stream))
        return readers[-1]

    with monkeypatch.context() as patch:
        patch.setattr(emit_oracle, "csv", types.SimpleNamespace(reader=reader))
        try:
            return ingest_predictions_scalar(source)
        except (ParseError, EmptyInput) as exc:
            return type(exc).__name__, getattr(exc, "row", None), str(exc)
        except csv.Error as exc:
            row = readers[-1].line_num
            return "ParseError", row, f"row {row}: {exc}"


def _outcome(source):
    try:
        return ingest_predictions(source)
    except (ParseError, EmptyInput) as exc:
        return type(exc).__name__, getattr(exc, "row", None), str(exc)


BLOCK_TABLES = [
    pytest.param(HEADER + ROWS, id="rows"),
    pytest.param(HEADER + EARLY + "0,1,straddles-the-block-boundary\n" + ROWS, id="line-straddles-block"),
    pytest.param(HEADER + EARLY + "0,1,straddles\n" + ROWS + "1,1,straddles\n0,9,straddles\n", id="straddler-then-bad"),
    pytest.param(HEADER + EARLY + "1," + "0" * 3 * BLOCK + "\n" + ROWS, id="line-longer-than-blocks"),
    pytest.param(HEADER + ROWS + "1,1\n1,7\n" + ROWS, id="bad-row-in-second-block"),
    pytest.param(HEADER + ROWS + "1\n" + ROWS, id="short-row-in-second-block"),
    pytest.param(HEADER + ROWS + "1,2\n" * 3, id="bad-row-repeated"),
    pytest.param(HEADER + ROWS + "label,prediction\n", id="header-repeated-as-row"),
    pytest.param("id,label,prediction\n" + "a,1,1\n" * 4000 + '"q\nr",0,1\nb,0,0\nc,1,x\n', id="quote-in-later-block"),
    pytest.param(HEADER + ROWS + "0,0\r\n" * 10 + "1,x\r\n", id="crlf-in-later-block"),
    pytest.param(HEADER + ROWS + "0,0\r1,1\n" + ROWS + "1,x\n", id="lone-cr-in-later-block"),
    pytest.param("id,label,prediction\n" + "a,1,0\n" * 4000 + '"a\rb",1,1\n' + "c,0,0\n" * 5 + "d,5,0\n", id="quoted-cr"),
    pytest.param(HEADER + ROWS + '1,1\n"1\r2",0\n', id="lone-cr-inside-quoted-token"),
    pytest.param("id,label,prediction\r\n" + "a,1,0\r\n" * 4000 + "d,1,0,\r\n", id="crlf-throughout"),
    pytest.param(_crlf_split_across_reads(), id="crlf-split-across-reads"),
    pytest.param(HEADER + ROWS + "1,1\r", id="cr-at-end-of-file"),
    pytest.param(HEADER + ROWS + "\r\n\r\n" + ROWS + "1,1\r\n\r0,0\n", id="crlf-blank-lines-then-lone-cr"),
    pytest.param(HEADER + ROWS + '1,1\n"1",0\n' + ROWS[:BLOCK] + "5,5\n", id="quoted-token-then-bad"),
    pytest.param(HEADER + ROWS + "\ufeff0,0\n", id="bom-in-data-row"),
    pytest.param(HEADER + "\n\n" + ROWS.replace("0,0\n", "0,0\n\n") + "\n\n0,x\n", id="blank-lines"),
    pytest.param(HEADER + ROWS.replace("\n", "\n\n") * 2 + "1,1\n\n1,x\n", id="blank-line-after-each-row"),
    pytest.param(HEADER + ROWS.replace("\n", "\n\n") + ROWS.replace("\n", "\n\r\n") + "0,x\n", id="blank-crlf-lines"),
    pytest.param(HEADER + ROWS.replace("1,0\n", " 1 ,\t0\n") + " 1, 1\n", id="padded-tokens"),
    pytest.param(
        "id,label,prediction,score\n" + "x,1,1,0.9\ny,0,0,0.1\nw,1,0,0.5,extra\n" * 800 + "z,0,1\nv,1\n",
        id="extra-columns",
    ),
    pytest.param("prediction,label\n" + ROWS + "x,y\n", id="swapped-columns"),
    pytest.param(HEADER + ROWS + "1,1", id="no-final-newline"),
    pytest.param(HEADER + ROWS + "1,x", id="bad-row-without-final-newline"),
    pytest.param(HEADER + ROWS + "1,1\x0c\n0,0\u2028\n0\u2029,1\n1\x0c1,0\n", id="formfeed-and-line-separator"),
    pytest.param(HEADER + ROWS + "1 ,0\n" + ROWS + "1\x0b\x1c\x1d\x1e\x85,1\n1\u20280,1\n", id="unicode-line-breaks"),
    pytest.param(HEADER + "\n" * (2 * BLOCK), id="header-and-blank-lines"),
    pytest.param(HEADER, id="header-only"),
    pytest.param("", id="empty"),
    pytest.param("\n" * BLOCK + HEADER, id="blank-header"),
    pytest.param(
        "id,label,prediction\n" + "".join(f"{i},{i % 2},1\n" for i in range(4000)) + "x,1,2\n", id="distinct-lines"
    ),
    pytest.param(
        "id,label,prediction\n" + "a,1,1\n" * 4000 + "".join(f"{i},1,{i % 2}\n" for i in range(4000)) + "x,0,\n",
        id="distinct-lines-from-second-block",
    ),
    pytest.param(HEADER + ROWS + "1," + "9" * 140_000 + "\n", id="oversized-field"),
    pytest.param(HEADER + ROWS + "1," + "9" * 140_000 + "\n" + ROWS, id="oversized-field-among-repeated-lines"),
    pytest.param("label,prediction," + "h" * 140_000 + "\n" + ROWS, id="oversized-header-field"),
    pytest.param(HEADER + ROWS + '1,1\n"' + "9" * 140_000 + '",1\n', id="oversized-quoted-field"),
    pytest.param(HEADER + ROWS + '"' + "9\n" * 70_000 + '",1\n', id="oversized-multiline-field"),
    pytest.param(HEADER + ROWS + "1,1\x00\n", id="nul"),
    # Counted lines of which one ends in the other would count "0,1,1" (" 1,1")
    # twice, as often as "0,0" occurs and no count covers it.
    pytest.param(_runs_meeting_at_a_read("1,1\n0,1,1\n", "0,1,1\n0,0\n"), id="suffix-pair-then-other-line"),
    pytest.param(_runs_meeting_at_a_read("1,1\n 1,1\n", " 1,1\n0,0\n"), id="padded-pair-then-other-line"),
]


class TestIngestBlockParity:
    """ingest_predictions on tables over a block long against the row-by-row oracle, from every kind of source."""

    @pytest.mark.parametrize("kind", ["path", "text", "bytes", "unseekable"])
    @pytest.mark.parametrize("text", BLOCK_TABLES)
    def test_matches_row_by_row_parse(self, text, kind, tmp_path, monkeypatch):
        expected = _oracle_outcome(_source(text, kind, tmp_path), monkeypatch)
        assert _outcome(_source(text, kind, tmp_path)) == expected

    @pytest.mark.parametrize("kind", ["path", "text", "bytes"])
    @pytest.mark.parametrize("text", BLOCK_TABLES[:8])
    def test_bom_header_matches_parse_without_it(self, text, kind, tmp_path, monkeypatch):
        # The oracle reads no byte-order mark; ingest ignores one on the header.
        expected = _oracle_outcome(_source(text, kind, tmp_path), monkeypatch)
        assert _outcome(_source("\ufeff" + text, kind, tmp_path)) == expected

    def test_each_distinct_line_is_parsed_once_per_block(self, monkeypatch):
        parsed = _record_parsed_lines(monkeypatch)
        assert ingest_predictions(io.StringIO(HEADER + ROWS)) == ConfusionCounts(1500, 1500, 1500, 1500)
        assert len(parsed) <= 1 + 4 * (len(ROWS) // BLOCK + 2)

    def test_reads_in_blocks(self):
        class Recording(io.StringIO):
            sizes = []

            def read(self, size=-1):
                self.sizes.append(size)
                return super().read(size)

        stream = Recording(HEADER + ROWS * 4)
        assert ingest_predictions(stream) == ConfusionCounts(6000, 6000, 6000, 6000)
        assert BLOCK in stream.sizes and set(stream.sizes) <= {0, BLOCK}

    @given(
        st.lists(
            st.sampled_from(["1,1", "0,0", "1,0", "0,1", "", " 1,0", "1", "2,0", '"1",0', "0,0\r", '"x\ny",1', "1,1,"]),
            min_size=1,
            max_size=12,
        ),
        st.integers(0, 3000),
    )
    def test_random_tables_past_a_block(self, rows, repeat):
        # A long valid run, then random rows; quotes and carriage returns force the fallback mid-stream.
        text = HEADER + "0,1\n" * repeat + "".join(row + "\n" for row in rows)
        assert _ingest_outcome(ingest_predictions, text) == _ingest_outcome(ingest_predictions_scalar, text)


def _long_row_tables() -> list:
    """Repetitive tables with a row longer than a block, which makes a block of few lines."""
    head = HEADER + "1,1\n0,0\n"
    long_row = "1,1," + "9" * (100_000 - 4)
    # After a first block of many lines, a long row padded so that its line
    # feed ends a read: its block is that line alone.
    many = HEADER + "1,1\n0,0\n" * 100
    alone = "1,1," + "9" * (7 * BLOCK - len(many) - 5)
    assert len(many + alone + "\n") == 7 * BLOCK
    return [
        pytest.param(head + long_row + "\n" + ROWS * 2, id="few-lines-then-long-row"),
        pytest.param(many + alone + "\n" + ROWS * 2, id="long-row-alone-in-its-block"),
    ]


def _record_parsed_lines(monkeypatch) -> list:
    """Patch csv.reader, as _ingest calls it, to record every line it is given to parse."""
    parsed = []
    real_reader = csv.reader

    def reader(lines):
        lines = list(lines)
        parsed.extend(lines)
        return real_reader(lines)

    monkeypatch.setattr(_ingest.csv, "reader", reader)
    return parsed


def _record_tally_csv(monkeypatch) -> list:
    """Patch _ingest._tally_csv to record the offset of each call, then run as before."""
    offsets = []
    real = _ingest._tally_csv

    def tally_csv(reader, offset, columns, tally):
        offsets.append(offset)
        return real(reader, offset, columns, tally)

    monkeypatch.setattr(_ingest, "_tally_csv", tally_csv)
    return offsets


# Lines of the count-path tables: "1,1" is a suffix of "0,1,1" and of the
# padded " 1,1", a blank line, or a blank CRLF line ("\r"), has no cell,
# and a carriage return before the line feed makes a CRLF row.
COUNT_PATH_LINES = ["1,1", "0,1,1", " 1,1", "0,0", "1, 0 ", "", "\r", "0,0\r", "1,1\r"]
# Rows that end a table with an error, or send the rest of it row by row.
LATE_ROWS = ["\ufeff0,0", "1,7", "1", "0,1,", '"1",0']


class TestIngestCountPath:
    """Blocks made only of the data lines the header implies, tallied with str.count."""

    @given(
        st.lists(
            st.tuples(st.lists(st.sampled_from(COUNT_PATH_LINES), min_size=1, max_size=3), st.integers(1, 2)),
            min_size=1,
            max_size=3,
        ),
        st.one_of(st.none(), st.tuples(st.sampled_from(LATE_ROWS), st.floats(0.4, 1.0))),
    )
    def test_matches_row_by_row_parse(self, runs, late):
        # Each run repeats a group of lines over one or two blocks; the
        # runs are repeated to fill at least three blocks.
        body = ""
        for lines, blocks in runs:
            group = "".join(line + "\n" for line in lines)
            body += group * -(-blocks * BLOCK // len(group))
        body *= -(-3 * BLOCK // len(body))
        if late is not None:
            # At a line start past the first block.
            row, where = late
            at = body.find("\n", int(where * (len(body) - 1))) + 1
            body = body[:at] + row + "\n" + body[at:]
        text = HEADER + body
        assert _ingest_outcome(ingest_predictions, text) == _ingest_outcome(ingest_predictions_scalar, text)

    def test_csv_parses_only_the_header(self, monkeypatch):
        parsed = _record_parsed_lines(monkeypatch)
        text = HEADER + ROWS * 8
        assert len(text) > 11 * BLOCK
        assert ingest_predictions(io.StringIO(text)) == ConfusionCounts(12000, 12000, 12000, 12000)
        assert parsed == ["label,prediction"]

    @pytest.mark.parametrize(
        "header, rows",
        [
            # More "0,1" than "1,0" rows, so that a swap of fp and fn shows.
            pytest.param("prediction,label\n", ROWS.replace("0,1\n", "0,1\n0,1\n"), id="prediction-first"),
            pytest.param("label,prediction\r\n", ROWS.replace("\n", "\r\n"), id="crlf"),
            pytest.param("label,prediction,score\n", ROWS, id="extra-column"),
        ],
    )
    def test_counts_the_lines_the_header_implies(self, header, rows, monkeypatch):
        text = header + rows * 3
        expected = _ingest_outcome(ingest_predictions_scalar, text)
        parsed = _record_parsed_lines(monkeypatch)
        assert _ingest_outcome(ingest_predictions, text) == expected
        assert parsed == [header.split("\n")[0]]

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param('"id\nx",label,prediction\n' + ROWS.replace("\n", ",1\n"), id="quoted-line-feed"),
            pytest.param("label,prediction\r" + ROWS.replace("\n", "\r"), id="lone-cr"),
        ],
    )
    @pytest.mark.parametrize("kind", ["path", "text"])
    def test_header_csv_reads_across_lines_before_any_count(self, text, kind, tmp_path, monkeypatch):
        expected = _oracle_outcome(_source(text, kind, tmp_path), monkeypatch)
        assert _outcome(_source(text, kind, tmp_path)) == expected

    def test_label_past_column_1_implies_no_lines(self, monkeypatch):
        # Every block is split and counted, so each parses its distinct lines.
        text = "prediction,flag,label\n" + ROWS.replace("\n", ",1\n") * 3
        expected = _ingest_outcome(ingest_predictions_scalar, text)
        parsed = _record_parsed_lines(monkeypatch)
        assert _ingest_outcome(ingest_predictions, text) == expected
        assert parsed[0] == "prediction,flag,label"
        assert parsed.count("1,1,1") >= len(text) // BLOCK
        # Under this header the lines a label-first one implies are short rows.
        short = "prediction,flag,label\n" + ROWS * 3
        assert _ingest_outcome(ingest_predictions, short) == _ingest_outcome(ingest_predictions_scalar, short)

    def test_counts_again_after_a_padded_row(self, monkeypatch):
        text = HEADER + ROWS + " 1,0\n" + ROWS * 2
        expected = _ingest_outcome(ingest_predictions_scalar, text)
        parsed = _record_parsed_lines(monkeypatch)
        assert _ingest_outcome(ingest_predictions, text) == expected
        # Only the padded row's block is split: csv sees its distinct lines once.
        assert parsed[0] == "label,prediction"
        assert sorted(parsed[1:]) == sorted(["1,1", "0,0", "1,0", "0,1", " 1,0"])

    @given(
        st.lists(
            st.one_of(
                st.integers(0, 40),
                st.sampled_from([BLOCK // 4 - 5, BLOCK // 4 - 4, BLOCK // 4, BLOCK // 4 + 1, 2 * BLOCK // 4]),
                st.integers(0, 2 * BLOCK),
            ),
            min_size=4,
            max_size=4,
        )
    )
    def test_written_predictions_parse_only_the_header(self, cells):
        counts = ConfusionCounts(*cells)
        sink = io.StringIO()
        write_predictions(counts, sink)
        with pytest.MonkeyPatch.context() as patch:
            parsed = _record_parsed_lines(patch)
            outcome = _ingest_outcome(ingest_predictions, sink.getvalue())
        empty = ("EmptyInput", None, "prediction file has a header but no data rows")
        assert outcome == (counts if counts.n else empty)
        assert parsed == ["label,prediction"]

    @pytest.mark.parametrize("text", _long_row_tables())
    def test_few_lines_before_a_long_row_stay_on_the_block_path(self, text, monkeypatch):
        offsets = _record_tally_csv(monkeypatch)
        assert _ingest_outcome(ingest_predictions, text) == _ingest_outcome(ingest_predictions_scalar, text)
        assert offsets == []

    @pytest.mark.parametrize("last", ["", "0,1,0\r"], ids=["crlf", "crlf-then-unterminated-cr"])
    def test_crlf_lines_stay_on_the_block_path(self, last, monkeypatch):
        # Label past column 1 implies no lines, so every block is split and
        # counted; a CRLF pair ends each of its few distinct lines, and a
        # carriage return with no line feed after it ends the last line.
        offsets = _record_tally_csv(monkeypatch)
        text = "prediction,flag,label\r\n" + ROWS.replace("\n", ",1\r\n") * 3 + last
        assert _ingest_outcome(ingest_predictions, text) == _ingest_outcome(ingest_predictions_scalar, text)
        assert offsets == []

    def test_mostly_distinct_lines_still_go_row_by_row(self, monkeypatch):
        offsets = _record_tally_csv(monkeypatch)
        text = "id,label,prediction\n" + "".join(f"{i},{i % 2},1\n" for i in range(4000))
        assert _ingest_outcome(ingest_predictions, text) == _ingest_outcome(ingest_predictions_scalar, text)
        assert offsets == [1]


class TestWritePredictions:
    def test_round_trip(self):
        counts = ConfusionCounts(tp=3, fp=2, fn=1, tn=4)
        sink = io.StringIO()
        assert write_predictions(counts, sink) == 10
        assert ingest_predictions(io.StringIO(sink.getvalue())) == counts

    def test_layout(self):
        sink = io.StringIO()
        write_predictions(ConfusionCounts(1, 1, 0, 1), sink)
        assert sink.getvalue() == "label,prediction\n1,1\n0,1\n0,0\n"

    @pytest.mark.parametrize(
        "counts",
        [
            ConfusionCounts(0, 0, 0, 0),
            ConfusionCounts(2 * dataio._BLOCK_ROWS + 3, 0, dataio._BLOCK_ROWS, 5),
        ],
    )
    def test_matches_row_by_row_writer(self, counts):
        sink, expected = io.StringIO(), io.StringIO()
        assert write_predictions(counts, sink) == write_predictions_scalar(counts, expected)
        assert sink.getvalue() == expected.getvalue()


class TestEmitCurves:
    def test_header_and_row_count(self):
        sink = io.StringIO()
        rows = emit_curves(P_9095, 0.5, sink)
        lines = sink.getvalue().splitlines()
        assert rows == 3
        assert lines[0] == "phi,ppv,npv,kappa_ppv,kappa_npv"
        assert len(lines) == 4

    def test_lf_only(self):
        sink = io.StringIO()
        emit_curves(P_9095, 0.5, sink)
        assert "\r" not in sink.getvalue()

    def test_cells_round_trip_through_repr(self):
        sink = io.StringIO()
        emit_curves(P_9095, 0.25, sink)
        rows = [line.split(",") for line in sink.getvalue().splitlines()[1:]]
        from prevthresh import ppv_at

        for cells in rows:
            phi = float(cells[0])
            if cells[1]:
                assert float(cells[1]) == float(ppv_at(P_9095, phi))

    def test_monotone_columns_for_informative_profile(self):
        sink = io.StringIO()
        emit_curves(P_9095, 0.01, sink)
        rows = [line.split(",") for line in sink.getvalue().splitlines()[1:]]
        ppv = [float(c[1]) for c in rows]
        npv = [float(c[2]) for c in rows]
        assert ppv == sorted(ppv)
        assert npv == sorted(npv, reverse=True)

    def test_undefined_cells_are_empty(self):
        # Perfect specificity leaves ppv undefined at phi = 0; the row stays.
        sink = io.StringIO()
        emit_curves(DiagnosticProfile(0.9, 1.0), 0.5, sink)
        first = sink.getvalue().splitlines()[1].split(",")
        assert first[0] == "0.0"
        assert first[1] == ""
        assert first[2] != ""

    def test_sidecar_contents(self):
        sink, sidecar = io.StringIO(), io.StringIO()
        emit_curves(P_9095, 0.5, sink, sidecar=sidecar)
        payload = json.loads(sidecar.getvalue())
        assert payload["phi_e"] == pytest.approx(PHI_E, abs=1e-15)
        assert payload["ppv_at_phi_e"] == pytest.approx(RHO_E, abs=1e-15)
        assert payload["phi_n"] == pytest.approx(PHI_N, abs=1e-15)
        assert payload["npv_at_phi_n"] == pytest.approx(PHI_N, abs=1e-15)
        assert payload["informative"] is True
        assert payload["degenerate"] is False

    def test_irregular_step_appends_endpoint(self):
        sink = io.StringIO()
        rows = emit_curves(P_9095, 0.3, sink)
        grid = [float(line.split(",")[0]) for line in sink.getvalue().splitlines()[1:]]
        assert rows == 5
        assert grid[0] == 0.0
        assert grid[-1] == 1.0

    @pytest.mark.parametrize("step", [0.0, -0.1, 0.6, 9e-7, 1e-9])
    def test_rejects_bad_step(self, step):
        with pytest.raises(ValueError):
            emit_curves(P_9095, step, io.StringIO())


class TestThresholdSummary:
    def test_degenerate_profile_keeps_all_keys(self):
        payload = threshold_summary(DiagnosticProfile(0.0, 1.0))
        assert payload["phi_e"] is None
        assert payload["ppv_at_phi_e"] is None
        assert payload["phi_n"] == 0.5
        assert payload["npv_at_phi_n"] == 0.5
        assert payload["informative"] is False

    def test_chance_profile_flagged_degenerate(self):
        payload = threshold_summary(DiagnosticProfile(0.3, 0.7))
        assert payload["degenerate"] is True
        # Thresholds still exist; the curves are straight lines through them.
        assert payload["phi_e"] is not None

    def test_json_serializable(self):
        json.dumps(threshold_summary(P_9095))


class TestEmitRatioCurves:
    def test_header(self):
        sink = io.StringIO()
        emit_ratio_curves(P_9095, [0.5, 2.0], 0.5, sink)
        assert (
            sink.getvalue().splitlines()[0]
            == "phi,f1_chi,fbeta_0.5_chi,fbeta_2_chi,fm_chi"
        )

    def test_full_prevalence_row_is_unity(self):
        sink = io.StringIO()
        emit_ratio_curves(P_9095, [0.5], 0.5, sink)
        last = sink.getvalue().splitlines()[-1].split(",")
        assert last[0] == "1.0"
        assert all(cell == "1.0" for cell in last[1:])

    def test_zero_prevalence_row_is_empty(self):
        sink = io.StringIO()
        emit_ratio_curves(P_9095, [0.5], 0.5, sink)
        first = sink.getvalue().splitlines()[1].split(",")
        assert first[0] == "0.0"
        assert all(cell == "" for cell in first[1:])

    def test_columns_non_increasing(self):
        sink = io.StringIO()
        rows = emit_ratio_curves(P_9095, [0.5, 2.0], 0.05, sink)
        assert rows == 21
        parsed = [line.split(",") for line in sink.getvalue().splitlines()[1:]]
        for col in range(1, 5):
            values = [float(r[col]) for r in parsed if r[col]]
            assert values == sorted(values, reverse=True)

    def test_irregular_step(self):
        sink = io.StringIO()
        assert emit_ratio_curves(P_9095, [], 0.3, sink) == 5
        assert sink.getvalue().splitlines()[0] == "phi,f1_chi,fm_chi"

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            emit_ratio_curves(P_9095, [0.5], 0.6, io.StringIO())

    def test_rejects_bad_beta(self):
        with pytest.raises(ValueError):
            emit_ratio_curves(P_9095, [0.0], 0.5, io.StringIO())

    def test_overflowing_beta_square_column_is_empty_like_oracle(self):
        # beta**2 overflows, so the f_beta reference at full prevalence is inf/inf: no cell is defined.
        got = _emit_outcome(emit_ratio_curves, P_9095, (2.0, 1e200), 0.5)
        assert got == _emit_outcome(emit_ratio_curves_scalar, P_9095, (2.0, 1e200), 0.5)
        rows = [line.split(",") for line in got[1].splitlines()]
        assert got[0] == 3 and rows[0][3] == "fbeta_1e+200_chi"
        assert [row[3] for row in rows[1:]] == ["", "", ""]
        assert rows[-1] == ["1.0", "1.0", "1.0", "", "1.0"]

    @pytest.mark.parametrize("a, b", [(0.9, 0.95), (0.83, 0.71), (1e-300, 0.5), (1.0, 0.0)])
    def test_large_beta_keeps_its_limit_like_oracle(self, a, b):
        # beta**2 is finite but beta**2 / sensitivity overflows; F-beta tends to the recall, so each ratio to 1.
        profile = DiagnosticProfile(a, b)
        got = _emit_outcome(emit_ratio_curves, profile, (1.3e154, 1e154), 0.25)
        assert got == _emit_outcome(emit_ratio_curves_scalar, profile, (1.3e154, 1e154), 0.25)
        rows = [line.split(",") for line in got[1].splitlines()]
        assert rows[0][2:4] == ["fbeta_1.3e+154_chi", "fbeta_1e+154_chi"]
        for row in rows[2:]:
            assert float(row[2]) == pytest.approx(1.0, abs=1e-15)
            assert float(row[3]) == pytest.approx(1.0, abs=1e-15)


# Profiles of the emitter parity matrix: interior, flat and vanishing
# curves, chance, and the kappa underflow (1e-300, 1e-120) and overflow
# (1e-104 at specificity 0) profiles.
PARITY_PROFILES = [
    (0.83, 0.71),
    (0.9, 1.0),
    (1.0, 0.9),
    (0.5, 0.5),
    (0.01, 0.99),
    (1e-300, 1.0),
    (1e-120, 1.0),
    (1e-104, 0.0),
    (1.0, 1.0),
    (0.0, 0.3),
    (0.3, 0.0),
    (1.0, 0.0),
    (0.999999, 1e-6),
]
PARITY_BETAS = (0.5, 2.0, 1.0, 3.7)


def _emit_outcome(emit, *args):
    """Bytes written, return value or error of one emitter call."""
    sink = io.StringIO()
    try:
        result = emit(*args, sink)
    except (PrevthreshError, ValueError) as exc:
        result = (type(exc).__name__, str(exc))
    return result, sink.getvalue()


class TestEmitOracleParity:
    """The array emitters against the per-cell ones of tests/emit_oracle.py, byte for byte."""

    @pytest.mark.parametrize("step", [5e-4, 0.013, 0.5])
    @pytest.mark.parametrize("a, b", PARITY_PROFILES)
    def test_curves_bytes_match(self, a, b, step):
        profile = DiagnosticProfile(a, b)
        sink, sidecar = io.StringIO(), io.StringIO()
        expected, expected_sidecar = io.StringIO(), io.StringIO()
        assert emit_curves(profile, step, sink, sidecar) == emit_curves_scalar(profile, step, expected, expected_sidecar)
        assert sink.getvalue() == expected.getvalue()
        assert sidecar.getvalue() == expected_sidecar.getvalue()

    @pytest.mark.parametrize("step", [5e-4, 0.013, 0.5])
    @pytest.mark.parametrize("a, b", PARITY_PROFILES)
    def test_ratio_bytes_match(self, a, b, step):
        profile = DiagnosticProfile(a, b)
        got = _emit_outcome(emit_ratio_curves, profile, PARITY_BETAS, step)
        assert got == _emit_outcome(emit_ratio_curves_scalar, profile, PARITY_BETAS, step)

    def test_fine_step_bytes_match(self):
        profile = DiagnosticProfile(0.83, 0.71)
        assert _emit_outcome(emit_curves, profile, 1e-5) == _emit_outcome(emit_curves_scalar, profile, 1e-5)
        assert _emit_outcome(emit_ratio_curves, profile, (3.7,), 1e-5) == _emit_outcome(
            emit_ratio_curves_scalar, profile, (3.7,), 1e-5
        )

    def test_block_boundaries_keep_the_bytes(self, monkeypatch):
        # Blocks of 7 and 3 rows (for 5 and 17 columns) cut the grids at rows no other test reaches.
        monkeypatch.setattr(_arrays, "_BLOCK_CELLS", 37)
        profile = DiagnosticProfile(0.83, 0.71)
        assert _emit_outcome(emit_curves, profile, 0.01) == _emit_outcome(emit_curves_scalar, profile, 0.01)
        betas = [0.5 * (i + 1) for i in range(14)]
        assert _emit_outcome(emit_ratio_curves, profile, betas, 0.01) == _emit_outcome(
            emit_ratio_curves_scalar, profile, betas, 0.01
        )

    def test_memory_does_not_grow_with_the_rows(self):
        class Discard:
            def write(self, text):
                return len(text)

        profile = DiagnosticProfile(0.9, 0.95)
        betas = [0.25 * (i + 1) for i in range(30)]  # 33 columns with phi, f1 and fm
        emit_ratio_curves(profile, betas, 0.5, Discard())  # numpy's first-use allocations
        peaks = []
        for step in (1 / 2000, 1 / 20000):
            tracemalloc.start()
            try:
                emit_ratio_curves(profile, betas, step, Discard())
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # Only the grid list grows, by 18,000 floats (under 1 MB); computing
        # every column first would add about 18,000 rows x 33 cells x 100 bytes.
        assert peaks[1] - peaks[0] < 4_000_000

    @pytest.mark.parametrize("betas, step", [((0.5, 0.0), 0.5), ((0.5,), 0.6), ((float("nan"),), 0.5)])
    def test_errors_match_before_any_output(self, betas, step):
        for profile in (P_9095, DiagnosticProfile(0.0, 0.9)):
            got = _emit_outcome(emit_ratio_curves, profile, betas, step)
            assert got == _emit_outcome(emit_ratio_curves_scalar, profile, betas, step)
            assert got[1] == ""

    def test_zero_sensitivity_raises_before_any_output(self):
        got = _emit_outcome(emit_ratio_curves, DiagnosticProfile(0.0, 0.9), (2.0,), 0.5)
        assert got == _emit_outcome(emit_ratio_curves_scalar, DiagnosticProfile(0.0, 0.9), (2.0,), 0.5)
        assert got == (("DegenerateProfile", "reference value at full prevalence is undefined when sensitivity is 0"), "")
