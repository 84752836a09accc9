"""CSV and JSON formats: parsing, validation messages, round trips."""

import csv
import functools
import io
import json
import os
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prioradapt import ClassCatalog, ConfusionMatrix, ParseError, PriorAdaptError, ScoreRecord
from prioradapt.estimators import estimate_naive
from prioradapt.core import DecisionHistogram
from prioradapt.fileio import (
    TextInput,
    _truth_index,
    parse_scores_header,
    format_float,
    priors_document,
    read_confusion_csv,
    read_decision_stream,
    read_priors_json,
    read_scenario_json,
    read_score_records,
    stream_kind,
    write_confusion_csv,
    write_json,
)

from conftest import make_catalog, random_confusion, small_blocks


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestFormatFloat:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(0)
        for x in rng.uniform(-1, 1, 200):
            assert float(format_float(x)) == x

    def test_seventeen_digits(self):
        assert format_float(0.1) == "0.10000000000000001"


class TestConfusionCsv:
    def test_round_trip_bitwise(self, tmp_path):
        conf = random_confusion(5, np.random.default_rng(1))
        buf = io.StringIO()
        write_confusion_csv(conf, buf)
        path = write(tmp_path, "c.csv", buf.getvalue())
        again = read_confusion_csv(path)
        assert again.catalog == conf.catalog
        assert np.array_equal(again.rows, conf.rows)

    def test_counts_are_normalized(self, tmp_path):
        path = write(tmp_path, "c.csv", "a,b\n8,2\n4,6\n")
        conf = read_confusion_csv(path)
        assert np.allclose(conf.rows, [[0.8, 0.2], [0.4, 0.6]])

    def test_non_square(self, tmp_path):
        path = write(tmp_path, "c.csv", "a,b\n1,0\n")
        with pytest.raises(ParseError, match="square"):
            read_confusion_csv(path)

    def test_negative_entry(self, tmp_path):
        path = write(tmp_path, "c.csv", "a,b\n1,-1\n0,1\n")
        with pytest.raises(ParseError, match="nonnegative"):
            read_confusion_csv(path)

    def test_zero_row_names_label(self, tmp_path):
        path = write(tmp_path, "c.csv", "a,b\n1,0\n0,0\n")
        with pytest.raises(ParseError, match="'b'"):
            read_confusion_csv(path)

    def test_bad_number_names_line(self, tmp_path):
        path = write(tmp_path, "c.csv", "a,b\n1,0\n0,oops\n")
        with pytest.raises(ParseError, match="c.csv:3"):
            read_confusion_csv(path)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "c.csv", "")
        with pytest.raises(ParseError, match="empty"):
            read_confusion_csv(path)

    def test_reads_a_pipe(self, tmp_path):
        conf = random_confusion(60, np.random.default_rng(2))
        buf = io.StringIO()
        write_confusion_csv(conf, buf)
        assert len(buf.getvalue()) > 1 << 16  # more than one read of the pipe
        fifo = tmp_path / "c.csv"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text, args=(buf.getvalue(),), daemon=True)
        writer.start()
        try:
            again = read_confusion_csv(str(fifo))
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        plain = read_confusion_csv(write(tmp_path, "plain.csv", buf.getvalue()))
        assert again.rows.tobytes() == plain.rows.tobytes()


def score_rows(records):
    """The concatenated score blocks of a read_score_records iterator."""
    blocks = list(records)
    assert all(isinstance(scores, np.ndarray) and scores.ndim == 2 for scores in blocks)
    return np.concatenate(blocks)


def lenient_items(records):
    """The blocks of a lenient read_score_records iterator, and the messages of the errors among them."""
    items = list(records)
    blocks = [item for item in items if not isinstance(item, ParseError)]
    return blocks, [str(item) for item in items if isinstance(item, ParseError)]


class TestScoresCsv:
    def test_with_label_column(self, tmp_path):
        path = write(tmp_path, "s.csv", "label,s_a,s_b\na,0.9,0.1\n,0.2,0.8\n")
        with TextInput(path) as stream:
            catalog, records = read_score_records(stream)
            scores = score_rows(records)
        assert catalog.labels == ("a", "b")
        assert scores.tolist() == [[0.9, 0.1], [0.2, 0.8]]

    def test_without_label_column(self, tmp_path):
        path = write(tmp_path, "s.csv", "s_a,s_b\n0.9,0.1\n")
        with TextInput(path) as stream:
            catalog, records = read_score_records(stream)
            scores = score_rows(records)
        assert scores.tolist() == [[0.9, 0.1]]

    def test_numeric_label(self, tmp_path):
        path = write(tmp_path, "s.csv", "label,s_a,s_b\n1,0.9,0.1\n")
        with TextInput(path) as stream:
            _, records = read_score_records(stream)
            assert score_rows(records).tolist() == [[0.9, 0.1]]

    def test_digit_class_names_read_as_names(self, tmp_path):
        # A truth cell naming a class is that class, even when it is all
        # digits; an index is only the fallback for cells that name none.
        # So "3" names the third class, though index 3 is out of range.
        path = write(tmp_path, "s.csv", "label,s_1,s_2,s_3\n1,0.6,0.3,0.1\n3,0.1,0.2,0.7\n0,0.5,0.5,0\n")
        with TextInput(path) as stream:
            _, records = read_score_records(stream)
            assert len(score_rows(records)) == 3
        path = write(tmp_path, "s.csv", "label,s_1,s_2,s_3\n1,0.6,0.3,0.1\n4,0.1,0.2,0.7\n")
        with TextInput(path) as stream, pytest.raises(ParseError, match=r"s\.csv:3: true_label 4 out of range"):
            list(read_score_records(stream)[1])

    def test_bad_header(self, tmp_path):
        path = write(tmp_path, "s.csv", "x,y\n0.5,0.5\n")
        with TextInput(path) as stream, pytest.raises(ParseError, match="header"):
            read_score_records(stream)

    def test_bad_sum_names_line(self, tmp_path):
        path = write(tmp_path, "s.csv", "s_a,s_b\n0.5,0.5\n0.9,0.3\n")
        with TextInput(path) as stream:
            _, records = read_score_records(stream)
            with pytest.raises(ParseError, match="s.csv:3"):
                list(records)

    def test_lenient_skips_with_warning(self, tmp_path):
        path = write(tmp_path, "s.csv", "s_a,s_b\n0.5,0.5\n0.9,0.3\n0.2,0.8\n")
        with TextInput(path) as stream:
            _, records = read_score_records(stream, lenient=True)
            blocks, warnings = lenient_items(records)
        scores = score_rows(blocks)
        assert scores.tolist() == [[0.5, 0.5], [0.2, 0.8]]
        assert len(warnings) == 1
        assert "3" in warnings[0]

    @pytest.mark.parametrize("first", ["a", '"a"'])  # a quote sends the body to csv
    @pytest.mark.parametrize("cell, message", [
        ("zz", "unknown class label 'zz'"),
        ("2", "true_label 2 out of range for 2 classes"),
        ("-1", "true_label -1 out of range for 2 classes"),
    ])
    def test_bad_truth_cell_fails_at_its_line(self, tmp_path, first, cell, message):
        # 8000 rows of 10 bytes: the first 64 KiB block is accepted whole.
        rows = [f"{first},0.25,0.75\n"] + ["b,0.5,0.5\n"] * 7999
        rows[6999] = f"{cell},0.5,0.5\n"
        path = write(tmp_path, "s.csv", "label,s_a,s_b\n" + "".join(rows))
        got = []
        with TextInput(path) as stream, pytest.raises(ParseError, match=f"s\\.csv:7001: {message}"):
            for scores in read_score_records(stream)[1]:
                got.append(scores)
        assert len(got) > 1 and len(np.concatenate(got)) == 6999
        with TextInput(path) as stream:
            items = list(read_score_records(stream, lenient=True)[1])
        warning = next(i for i, item in enumerate(items) if isinstance(item, ParseError))
        assert sum(len(scores) for scores in items[:warning]) == 6999
        assert str(items[warning]) == f"{path}:7001: {message}"
        blocks, warnings = lenient_items(items)
        assert len(warnings) == 1
        assert score_rows(blocks).tobytes() == np.array([[0.25, 0.75]] + [[0.5, 0.5]] * 7998).tobytes()

    def test_wrong_column_count(self, tmp_path):
        path = write(tmp_path, "s.csv", "s_a,s_b\n0.5,0.4,0.1\n")
        with TextInput(path) as stream:
            _, records = read_score_records(stream)
            with pytest.raises(ParseError, match="columns"):
                list(records)


class TestDecisionStream:
    def test_reads_indices(self, tmp_path):
        path = write(tmp_path, "d.txt", "0\n2\n1\n\n2\n")
        with TextInput(path) as stream:
            assert np.concatenate(list(read_decision_stream(stream, 3))).tolist() == [0, 2, 1, 2]

    def test_out_of_range(self, tmp_path):
        path = write(tmp_path, "d.txt", "0\n7\n")
        with TextInput(path) as stream, pytest.raises(ParseError, match="d.txt:2"):
            list(read_decision_stream(stream, 3))

    def test_non_integer(self, tmp_path):
        path = write(tmp_path, "d.txt", "zero\n")
        with TextInput(path) as stream, pytest.raises(ParseError):
            list(read_decision_stream(stream, 3))

    def test_stream_kind_sniffing(self, tmp_path):
        decisions = write(tmp_path, "d.txt", "0\n1\n")
        scores = write(tmp_path, "s.csv", "s_a,s_b\n0.5,0.5\n")
        with TextInput(decisions) as stream:
            assert stream_kind(stream) == "decisions"
        with TextInput(scores) as stream:
            assert stream_kind(stream) == "scores"
        empty = write(tmp_path, "e.txt", "\n")
        with TextInput(empty) as stream, pytest.raises(ParseError):
            stream_kind(stream)


# Line-at-a-time readers, kept as the references for the block readers.

def reference_lines(path):
    """The lines of ``path`` as ``open(path, newline="")`` splits them.

    Each ``\\n``-ended line is decoded on its own, so a bad byte raises only
    once the lines before it have been read.
    """
    with open(path, "rb") as fp:
        for line_no, raw in enumerate(fp, start=1):
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise ParseError("not valid UTF-8", path=path, line=line_no) from None
            yield from io.StringIO(text, newline="").readlines()


def reference_records(path):
    """``(line_no, record)`` for each CSV record of ``path``."""
    reader = csv.reader(reference_lines(path))
    while True:
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise ParseError(str(exc), path=path, line=reader.line_num) from None
        yield reader.line_num, row


def is_blank(row):
    return not row or (len(row) == 1 and not row[0].strip())


def reference_decision_stream(path, k):
    for line_no, line in enumerate(reference_lines(path), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            value = int(stripped)
        except ValueError:
            raise ParseError(
                f"expected a class index, got {stripped!r}", path=path, line=line_no
            ) from None
        if value < 0 or value >= k:
            raise ParseError(
                f"class index {value} out of range for {k} classes",
                path=path, line=line_no,
            )
        yield value


def reference_confusion_csv(path):
    records = reference_records(path)
    header = next(records, None)
    if header is None:
        raise ParseError("empty confusion file", path=path)
    labels = [h.strip() for h in header[1]]
    rows = []
    for line_no, row in records:
        if is_blank(row):
            continue
        if len(row) != len(labels):
            raise ParseError(
                f"expected {len(labels)} columns, got {len(row)}", path=path, line=line_no
            )
        try:
            rows.append([float(x) for x in row])
        except ValueError as exc:
            raise ParseError(str(exc), path=path, line=line_no) from None
    if len(rows) != len(labels):
        raise ParseError(
            f"confusion matrix must be square: {len(labels)} labels but {len(rows)} rows",
            path=path,
        )
    try:
        catalog = ClassCatalog(tuple(labels))
        return ConfusionMatrix(catalog, np.array(rows))
    except PriorAdaptError as exc:
        raise ParseError(str(exc), path=path) from exc


def reference_score_records(path, lenient=False):
    """The row-at-a-time scores reader: the scores of each accepted row, and a skipped row's error in its place."""
    records = reference_records(path)
    header = next(records, None)
    if header is None:
        raise ParseError("empty scores file", path=path)
    catalog, has_label = parse_scores_header(header[1], path)
    for line_no, row in records:
        if is_blank(row):
            continue
        try:
            yield reference_score_row(row, catalog, has_label, path, line_no)
        except ParseError as exc:
            if not lenient:
                raise
            yield exc


def reference_score_row(row, catalog, has_label, path, line_no):
    expected = catalog.k + (1 if has_label else 0)
    if len(row) != expected:
        raise ParseError(f"expected {expected} columns, got {len(row)}", path=path, line=line_no)
    true_label = None
    values = row
    try:
        if has_label:
            raw = row[0].strip()
            values = row[1:]
            if raw:
                true_label = _truth_index(raw, catalog)
        record = ScoreRecord([float(x) for x in values], true_label=true_label)
    except (ValueError, PriorAdaptError) as exc:
        raise ParseError(str(exc), path=path, line=line_no) from None
    return record.scores


def outcome(read, content):
    """What ``read`` makes of a file holding the bytes ``content``: a value, or (type, message)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in")
        with open(path, "wb") as fp:
            fp.write(content)
        try:
            return read(path)
        except PriorAdaptError as exc:
            return type(exc), str(exc).replace(path, "PATH")


_DECISION_TOKENS = [
    *"0123456789", "12", "+1", "-1", "1_0", "\u0663", "1 2", "0.5", "nan", "#", ",", '"', "\x00",
    " ", "\t", "\x0b", "\x0c", "\x1c", "\x85", "\u00a0", "\u2028",
    "\r", "\n", "\r\n",
]
# Most lines should hold a valid index, so that whole blocks get accepted.
_decision_tokens = st.one_of(
    st.sampled_from("0123456789"), st.just("\n"), st.sampled_from(_DECISION_TOKENS)
)

#: Byte sequences that are not UTF-8: a stray byte, a lead byte cut short,
#: an encoded surrogate and an over-long form.
_BAD_BYTES = [b"\xff", b"\x80", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\xc0\xaf"]


@st.composite
def with_bad_bytes(draw, texts):
    """A drawn text as UTF-8, often with undecodable bytes put in at any positions."""
    data = draw(texts).encode("utf-8")
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2]))):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(_BAD_BYTES)) + data[at:]
    return data


#: Block sizes in bytes: a line per block, a few lines, and the default.
_block_bytes = st.sampled_from([1, 30, 100, 1 << 16])

_CONFUSION_HEADERS = ["a,b\n", "a,b\r\n", '"a\nx",b\n', "a,b,c\n"]
_CONFUSION_CELLS = [
    "0", "1", "2", "0.25", "3e-1", "nan", "inf", "1e999", "1_0", " 1 ", "\t0.5", '"1"', "",
]


@st.composite
def confusion_texts(draw):
    """A header, then rows that mostly have two numeric cells."""
    cell = st.one_of(st.sampled_from(["0", "1", "0.5", "7"]), st.sampled_from(_CONFUSION_CELLS))
    width = st.sampled_from([2, 2, 2, 2, 1, 3])
    row = width.flatmap(lambda n: st.lists(cell, min_size=n, max_size=n)).map(",".join)
    rows = draw(st.sampled_from([2, 2, 2, 1, 3]).flatmap(
        lambda n: st.lists(row, min_size=n, max_size=n)
    ))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(["", " "])))
    ends = st.sampled_from(["\n", "\n", "\r\n"])
    body = "".join(row + draw(ends) for row in rows)
    return draw(st.sampled_from(_CONFUSION_HEADERS)) + body


class TestBlockReadersMatchLineReaders:
    @given(with_bad_bytes(st.lists(_decision_tokens, max_size=60).map("".join)),
           st.integers(1, 15), _block_bytes)
    @settings(max_examples=400, deadline=None)
    def test_decision_stream(self, content, k, block_bytes):
        def blocks(path):
            with TextInput(path) as stream:
                return np.concatenate([np.empty(0, np.int64), *read_decision_stream(stream, k)]).tolist()

        def lines(path):
            return list(reference_decision_stream(path, k))

        with small_blocks(block_bytes):
            got = outcome(blocks, content)
        assert got == outcome(lines, content)

    def test_decision_stream_across_blocks(self, tmp_path):
        rng = np.random.default_rng(3)
        values = rng.integers(0, 7, 50_000)
        lines = [f"{v}\n" for v in values]
        lines[9_999] = "\u0663\n"  # accepted by int() only
        lines[20_000] = "\n"
        path = write(tmp_path, "d.txt", "".join(lines))
        with TextInput(path) as stream:
            blocks = list(read_decision_stream(stream, 7))
        assert len(blocks) > 1
        assert np.concatenate(blocks).tolist() == list(reference_decision_stream(path, 7))
        lines[41_234] = "7\n"
        path = write(tmp_path, "d.txt", "".join(lines))
        with TextInput(path) as stream, pytest.raises(ParseError, match=r"d\.txt:41235: class index 7 out of range"):
            list(read_decision_stream(stream, 7))

    @given(with_bad_bytes(confusion_texts()), _block_bytes)
    @settings(max_examples=400, deadline=None)
    def test_confusion_csv(self, content, block_bytes):
        def read(reader):
            def run(path):
                conf = reader(path)
                return conf.catalog.labels, conf.rows.tobytes()
            return run

        with small_blocks(block_bytes):
            got = outcome(read(read_confusion_csv), content)
        assert got == outcome(read(reference_confusion_csv), content)


_SCORE_HEADERS = [
    ("label,s_a,s_b\n", 2), ("s_a,s_b\r\n", 2), ("label,s_1,s_2,s_3\n", 3),
    ('label,"s_a",s_b\r', 2), ('"s_a\nb",s_b\n', 2),
]
_TRUTH_CELLS = ["", "a", "b", "1", "2", "3", "0", "-1", "7", "1_0", " a ", '"b"', "zz", "\u0663"]
_SCORE_VECTORS = {
    2: [("0.5", "0.5"), ("0.25", "0.75"), ("1", "0"), ("0", "1"), ("0.5000009", "0.5"),
        ("0.4999991", "0.5"), ("0.500001", "0.5000001"), ("0.4999989", "0.5")],
    3: [("0.5", "0.25", "0.25"), ("0.6", "0.3", "0.1"), ("1", "0", "0"), ("0.2", "0.2", "0.6000009"),
        ("0.2", "0.2", "0.5999989")],
}
_ODD_SCORES = ["nan", "inf", "-0.25", "1.5", "1_0", '"0.5"', "", " 0.5 ", "0.5e0", '"0.5\n"', "\u0663"]


@st.composite
def score_texts(draw):
    """A scores header, then rows that are mostly well-formed probability vectors."""
    header, k = draw(st.sampled_from(_SCORE_HEADERS))
    has_label = header.split(",")[0].strip('"') == "label"
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        cells = list(draw(st.sampled_from(_SCORE_VECTORS[k])))
        if draw(st.integers(0, 4)) == 0:
            cells[draw(st.integers(0, k - 1))] = draw(st.sampled_from(_ODD_SCORES))
        if has_label:
            cells.insert(0, draw(st.sampled_from(_TRUTH_CELLS)))
        width = draw(st.sampled_from([0, 0, 0, 0, 0, 1, -1]))
        cells = cells + ["0"] * width if width >= 0 else cells[:width]
        line = ",".join(cells)
        if draw(st.integers(0, 9)) == 0:
            line = draw(st.sampled_from(["", " ", "\t"]))
        lines.append(line + draw(st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"])))
    return header + "".join(lines)


def score_outcome(read, content, lenient):
    """The rows ``read`` yields from ``content``, the error ending them, and the warnings.

    Each warning is paired with the number of rows yielded before it.
    """
    warnings = []
    rows = []

    def run(path):
        seen = 0
        try:
            for item in read(path, lenient):
                if isinstance(item, ParseError):
                    warnings.append((seen, str(item).replace(path, "PATH")))
                    continue
                assert item.ndim == 2
                rows.append(item.tobytes())
                seen += len(item)
        except PriorAdaptError as exc:
            return type(exc), str(exc).replace(path, "PATH")

    error = outcome(run, content)
    return error, rows, warnings


class TestScoreBlocksMatchRowReader:
    @staticmethod
    def blocks(path, lenient):
        with TextInput(path) as stream:
            _, records = read_score_records(stream, lenient)
            yield from records

    @staticmethod
    def rows(path, lenient):
        for item in reference_score_records(path, lenient):
            yield item if isinstance(item, ParseError) else item[np.newaxis]

    @given(with_bad_bytes(score_texts()), st.booleans(), _block_bytes)
    @settings(max_examples=500, deadline=None)
    def test_scores_csv(self, content, lenient, block_bytes):
        with small_blocks(block_bytes):
            got = score_outcome(self.blocks, content, lenient)
        want = score_outcome(self.rows, content, lenient)
        assert got[0] == want[0]
        assert b"".join(got[1]) == b"".join(want[1])
        assert got[2] == want[2]

    def test_bad_row_deep_in_a_long_file(self, tmp_path):
        rows = ["label,s_a,s_b,s_c\n"] + ["b,0.25,0.5,0.25\n"] * 30_000
        rows[22_222] = "b,0.25,0.5,0.35\n"
        path = write(tmp_path, "s.csv", "".join(rows))
        with TextInput(path) as stream:
            _, records = read_score_records(stream)
            got = []
            with pytest.raises(ParseError, match=r"s\.csv:22223: scores must sum to 1"):
                for scores in records:
                    got.append(len(scores))
        assert len(got) > 1 and sum(got) == 22_221
        with TextInput(path) as stream:
            _, records = read_score_records(stream, lenient=True)
            blocks, warnings = lenient_items(records)
        assert sum(len(scores) for scores in blocks) == 29_999
        assert [w.split(": ")[0] for w in warnings] == [f"{path}:22223"]


class TestPriorsJson:
    def test_document_round_trip(self, tmp_path):
        catalog = make_catalog(3)
        estimate = estimate_naive(DecisionHistogram(np.array([2, 1, 1])))
        doc = priors_document(catalog, {"naive": estimate}, total_decisions=4)
        buf = io.StringIO()
        write_json(doc, buf)
        path = write(tmp_path, "p.json", buf.getvalue())
        values, tag = read_priors_json(path, catalog)
        assert tag == "naive"
        assert np.array_equal(values, estimate.values)

    def test_bare_mapping(self, tmp_path):
        catalog = make_catalog(2)
        path = write(tmp_path, "p.json", '{"x00": 0.25, "x01": 0.75}')
        values, tag = read_priors_json(path, catalog)
        assert tag == "ground_truth"
        assert np.allclose(values, [0.25, 0.75])

    def test_multiple_methods_need_choice(self, tmp_path):
        catalog = make_catalog(2)
        doc = {
            "methods": {
                "naive": {"priors": {"x00": 0.5, "x01": 0.5}},
                "quadratic_program": {"priors": {"x00": 0.3, "x01": 0.7}},
            }
        }
        path = write(tmp_path, "p.json", json.dumps(doc))
        with pytest.raises(ParseError, match="--method"):
            read_priors_json(path, catalog)
        values, tag = read_priors_json(path, catalog, method="quadratic_program")
        assert tag == "quadratic_program"
        assert np.allclose(values, [0.3, 0.7])

    def test_unknown_label(self, tmp_path):
        path = write(tmp_path, "p.json", '{"nope": 1.0}')
        with pytest.raises(ParseError, match="nope"):
            read_priors_json(path, make_catalog(2))

    def test_missing_label(self, tmp_path):
        path = write(tmp_path, "p.json", '{"x00": 1.0}')
        with pytest.raises(ParseError, match="missing"):
            read_priors_json(path, make_catalog(2))

    def test_invalid_json(self, tmp_path):
        path = write(tmp_path, "p.json", "{")
        with pytest.raises(ParseError, match="invalid JSON"):
            read_priors_json(path, make_catalog(2))

    @pytest.mark.parametrize("content, message", [
        # json counts positions after text-mode newline translation.
        (b'{"a": 0.5,\r\n "b": 0.5,\r\n "c" 0}\r\n', "Expecting ':' delimiter: line 3 column 6 (char 27)"),
        (b'{"a": 0.5,\r "b": 0.5,\r "c" 0}\r', "Expecting ':' delimiter: line 3 column 6 (char 27)"),
        (b'{"a": 1}\r\n\r\nx', "Extra data: line 3 column 1 (char 10)"),
        (b'{"a": "\r"}', "Invalid control character at: line 1 column 8 (char 7)"),
        (b"", "Expecting value: line 1 column 1 (char 0)"),
        (b"\xef\xbb\xbf{}", "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
    ])
    def test_invalid_json_message(self, tmp_path, content, message):
        path = tmp_path / "p.json"
        path.write_bytes(content)
        with pytest.raises(ParseError) as info:
            read_priors_json(str(path), make_catalog(3))
        assert str(info.value) == f"{path}: invalid JSON: {message}"

    def test_crlf_document(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_bytes(b'\r\n{"x00": 1,\r\n "x01": 3}\r\n')
        values, _ = read_priors_json(str(path), make_catalog(2))
        assert values.tolist() == [1.0, 3.0]


def scenario_doc(**overrides):
    doc = {
        "labels": ["a", "b", "c"],
        "active_classes": ["a", "b"],
        "true_priors": {"a": 0.7, "b": 0.3},
        "transfer_size": 10,
        "test_size": 10,
        "seed": 7,
        "classifier": {"diagonal": 0.8, "confusion_seed": 1},
    }
    doc.update(overrides)
    return doc


class TestScenarioJson:
    def test_valid(self, tmp_path):
        path = write(tmp_path, "scen.json", json.dumps(scenario_doc()))
        spec, clf = read_scenario_json(path)
        assert spec.catalog.labels == ("a", "b", "c")
        assert spec.active_classes == (0, 1)
        assert np.allclose(spec.true_priors, [0.7, 0.3, 0.0])
        assert clf is not None
        assert np.allclose(np.diag(clf.confusion.rows), 0.8)

    def test_seed_override(self, tmp_path):
        path = write(tmp_path, "scen.json", json.dumps(scenario_doc()))
        spec, _ = read_scenario_json(path, seed_override=99)
        assert spec.seed == 99

    def test_missing_field_names_path(self, tmp_path):
        doc = scenario_doc()
        del doc["transfer_size"]
        path = write(tmp_path, "scen.json", json.dumps(doc))
        with pytest.raises(ParseError, match="scenario.transfer_size"):
            read_scenario_json(path)

    @pytest.mark.parametrize("field, value, message", [
        ("test_size", None, "scenario.test_size is required"),
        ("transfer_size", 10.0, "scenario.transfer_size must be of type int"),
    ])
    def test_size_error_names_the_file_once(self, tmp_path, field, value, message):
        doc = scenario_doc(**{field: value})
        if value is None:
            del doc[field]
        path = write(tmp_path, "scen.json", json.dumps(doc))
        with pytest.raises(ParseError) as info:
            read_scenario_json(path)
        assert str(info.value) == f"{path}: {message}"

    def test_unknown_active_class(self, tmp_path):
        doc = scenario_doc(active_classes=["a", "zzz"])
        path = write(tmp_path, "scen.json", json.dumps(doc))
        with pytest.raises(ParseError, match="scenario.active_classes"):
            read_scenario_json(path)

    def test_bad_priors_value(self, tmp_path):
        doc = scenario_doc(true_priors={"a": "lots", "b": 0.3})
        path = write(tmp_path, "scen.json", json.dumps(doc))
        with pytest.raises(ParseError, match="scenario.true_priors.a"):
            read_scenario_json(path)

    def test_top_level_sharpness_is_classifier_default(self, tmp_path):
        path = write(tmp_path, "scen.json", json.dumps(scenario_doc(sharpness=2.0)))
        _, clf = read_scenario_json(path)
        assert clf.sharpness == 2.0
        doc = scenario_doc(sharpness=2.0, classifier={"diagonal": 0.8, "sharpness": 9.0})
        path = write(tmp_path, "scen.json", json.dumps(doc))
        _, clf = read_scenario_json(path)
        assert clf.sharpness == 9.0

    @pytest.mark.parametrize("sharpness", ["25", True, 0, -1.0, float("inf")])
    @pytest.mark.parametrize("where", ["scenario", "scenario.classifier"])
    def test_bad_sharpness_names_field(self, tmp_path, sharpness, where):
        write(tmp_path, "conf.csv", "a,b,c\n1,0,0\n0,1,0\n0,0,1\n")
        doc = scenario_doc(classifier={"confusion_csv": "conf.csv"})
        (doc if where == "scenario" else doc["classifier"])["sharpness"] = sharpness
        path = write(tmp_path, "scen.json", json.dumps(doc))
        with pytest.raises(ParseError, match=rf"scen.json: {where}.sharpness must be"):
            read_scenario_json(path)

    def test_bad_drift_entry(self, tmp_path):
        doc = scenario_doc(drift=[{"start": 5}])
        path = write(tmp_path, "scen.json", json.dumps(doc))
        with pytest.raises(ParseError, match=r"scenario.drift\[0\].priors"):
            read_scenario_json(path)

    def test_classifier_from_csv(self, tmp_path):
        conf = ConfusionMatrix(
            ClassCatalog(("a", "b")), np.array([[0.9, 0.1], [0.2, 0.8]])
        )
        buf = io.StringIO()
        write_confusion_csv(conf, buf)
        write(tmp_path, "conf.csv", buf.getvalue())
        doc = {
            "labels": ["a", "b"],
            "active_classes": ["a"],
            "true_priors": {"a": 1.0},
            "transfer_size": 5,
            "test_size": 5,
            "classifier": {"confusion_csv": "conf.csv"},
        }
        path = write(tmp_path, "scen.json", json.dumps(doc))
        spec, clf = read_scenario_json(path)
        assert np.allclose(clf.confusion.rows, [[0.9, 0.1], [0.2, 0.8]])

    def test_classifier_label_mismatch(self, tmp_path):
        write(tmp_path, "conf.csv", "x,y\n1,0\n0,1\n")
        doc = scenario_doc(classifier={"confusion_csv": "conf.csv"})
        path = write(tmp_path, "scen.json", json.dumps(doc))
        with pytest.raises(ParseError, match="labels"):
            read_scenario_json(path)

    def test_classifier_needs_a_source(self, tmp_path):
        doc = scenario_doc(classifier={"sharpness": 10.0})
        path = write(tmp_path, "scen.json", json.dumps(doc))
        with pytest.raises(ParseError, match="confusion_csv or diagonal"):
            read_scenario_json(path)

    def test_no_classifier_section(self, tmp_path):
        doc = scenario_doc()
        del doc["classifier"]
        path = write(tmp_path, "scen.json", json.dumps(doc))
        spec, clf = read_scenario_json(path)
        assert clf is None


def on_stream(read):
    """``read``, which takes an open TextInput, as a reader of a path; it keeps ``read``'s name."""
    @functools.wraps(read)
    def run(path):
        with TextInput(path) as stream:
            return read(stream)
    return run


@pytest.mark.parametrize("read, content", [
    (read_confusion_csv, b"a,b\n1,0\n\xff,1\n"),
    (on_stream(lambda s: list(read_score_records(s)[1])), b"s_a,s_b\n0.5,0.5\n\xff,0.5\n"),
    (on_stream(lambda s: list(read_decision_stream(s, 2))), b"0\n1\n\xff\n"),
    (on_stream(stream_kind), b"\n\n\xff\xfe0\n"),
    (lambda p: read_priors_json(p, make_catalog(2)), b'{"x00": 0.5,\n"x01": 0.5,\n"\xff": 0}'),
    (read_scenario_json, b'{"labels": ["a", "b"],\n"name": 1,\n"\xff": 0}'),
])
def test_non_utf8_input_names_line(tmp_path, read, content):
    path = tmp_path / "in"
    path.write_bytes(content)
    with pytest.raises(ParseError, match="in:3: not valid UTF-8"):
        read(str(path))
