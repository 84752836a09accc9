"""File formats used by the command line.

Everything is UTF-8 with LF line endings.  Floats in CSVs are written
with 17 significant digits so a round trip through disk is exact;
JSON relies on Python's shortest-round-trip float repr.

* confusion CSV — header row of class labels, then one row of K values
  per true class (raw counts or already-normalized rates).
* scores CSV — header ``label,s_<class>,...`` where the leading truth
  column is optional, and checked but not used; one record per row.
* decision stream — one class index per line.
* priors JSON — keyed by method, then by class label, with per-method
  diagnostics alongside.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import os
import stat
import sys
import tempfile
import warnings
from _blake2 import blake2b
from functools import partial
from typing import IO, Iterator, Optional

import numpy as np

from .core import (
    METHODS,
    SCORE_SUM_TOL,
    ClassCatalog,
    ConfusionMatrix,
    PriorEstimate,
    ScoreRecord,  # unused; bound because bench/traced.py patches it
    check_probability_rows,
    probability_vector,
)
from .errors import ParseError, PriorAdaptError, ValidationError


def format_float(x: float) -> str:
    """17-significant-digit decimal form; parses back to the same double."""
    return f"{float(x):.17g}"


def format_rows(rows: np.ndarray) -> str:
    """An (n, K) array as n CSV lines of :func:`format_float` cells, each ending in ``\n``.

    A column that is +0.0 in every row is a literal ``0`` in the line
    template; only the other columns go through ``%.17g``.  A -0.0 keeps
    its ``-0``.
    """
    n = len(rows)
    live = ((rows != 0) | np.signbit(rows)).any(axis=0)
    line = ",".join(["%.17g" if cell else "0" for cell in live.tolist()]) + "\n"
    return (line * n) % tuple(rows[:, live].ravel().tolist())


def csv_cell(text: str) -> str:
    """Quote a cell holding a comma, a quote or a line break, bare ``\\r`` included."""
    if any(c in text for c in ',"\n\r'):
        return '"' + text.replace('"', '""') + '"'
    return text


def csv_line(cells) -> str:
    """The cells as one CSV line, each through :func:`csv_cell`, ending in ``\\n``."""
    return ",".join(map(csv_cell, cells)) + "\n"


def _is_number(value) -> bool:
    """Whether a parsed JSON value is a number that fits a float (bools are not)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, float) or abs(value) <= sys.float_info.max


def read_json(path: str):
    with TextInput(path) as stream:
        # Line ends are translated as text-mode open() translates them, which
        # the positions in json's messages count.
        text = "".join(stream).replace("\r\n", "\n").replace("\r", "\n")
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}", path=path) from None


# ---------------------------------------------------------------------------
# text input and CSV bodies
# ---------------------------------------------------------------------------

class TextInput:
    """A UTF-8 file or pipe, opened once and read as lines, a block at a time.

    Lines split as ``open(path, newline="")`` splits them: at ``\\n``,
    ``\\r\\n`` or a bare ``\\r``, and each line keeps its ending.  Bytes that
    are not UTF-8 raise :class:`ParseError` naming their line, counted by
    that same rule, once the lines before it have been handed out.
    Iterating yields single lines; :meth:`raw_block` hands out the rest of
    the current block at once as bytes, which :meth:`lines` splits.
    ``line_no`` counts the lines handed out so far.
    """

    def __init__(self, path: str):
        self.path = path
        self.line_no = 0
        self._fp = open(path, "rb")
        self._lines: list[str] = []
        self._pos = 0
        self._raw_lines = 0
        self._error: Optional[ParseError] = None

    def __enter__(self) -> "TextInput":
        return self

    def __exit__(self, *exc) -> None:
        self._fp.close()

    def __iter__(self) -> "TextInput":
        return self

    def __next__(self) -> str:
        if self._pos == len(self._lines) and not self._fill(_BLOCK_BYTES):
            raise StopIteration
        line = self._lines[self._pos]
        self._pos += 1
        self.line_no += 1
        return line

    def empty(self) -> bool:
        """Whether the input holds no bytes at all; at most one line is read to tell."""
        return self._pos == len(self._lines) and not self._fill(0)

    def first_line(self) -> Optional[str]:
        """The first line that is not blank, or None, read a line at a time; nothing is handed out."""
        pos = self._pos
        while pos < len(self._lines) or self._fill(0):
            if self._lines[pos].strip():
                return self._lines[pos]
            pos += 1
        return None

    def raw_block(self) -> bytes:
        """The lines not yet handed out as UTF-8 bytes, reading a block of about ``_BLOCK_BYTES`` if none are left.

        ``line_no`` counts the lines as iterating would split them.  The
        bytes end at ``\\n`` or at the end of the input; empty bytes mean the
        input is exhausted.  Bytes that are not UTF-8 are handed out as they
        are: :meth:`lines` finds them.
        """
        if self._pos < len(self._lines):
            lines = self._lines[self._pos:]
            self._lines, self._pos = [], 0
            self.line_no += len(lines)
            return "".join(lines).encode("utf-8")
        before = self._raw_lines
        data = self._read(_BLOCK_BYTES)
        self.line_no += self._raw_lines - before
        if data and not data.endswith((b"\n", b"\r")):
            self.line_no += 1
        return data

    def lines(self, data: bytes) -> list[str]:
        """The lines of ``data``, the bytes :meth:`raw_block` handed out last.

        If ``data`` holds undecodable bytes, only the lines before the first
        bad one are returned, and the next read raises the error that names
        its line; it raises here if there are none.
        """
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            # A line break never occurs inside a multi-byte UTF-8 sequence,
            # so the first bad byte lies on the first line that fails alone.
            good = max(data.rfind(b"\n", 0, exc.start), data.rfind(b"\r", 0, exc.start)) + 1
            line = self._raw_lines - _line_ends(data[good:]) + 1
            self._error = ParseError("not valid UTF-8", path=self.path, line=line)
            if not good:
                raise self._error from None
            text = data[:good].decode("utf-8")
        return io.StringIO(text, newline="").readlines()

    def _read(self, size: int) -> bytes:
        """The next ``size`` bytes, or one line if it is 0, extended to the next ``\\n``; empty at the end."""
        if self._error is not None:
            raise self._error
        data = self._fp.read(size) if size else self._fp.readline()
        if data and not data.endswith(b"\n"):
            data += self._fp.readline()
        self._raw_lines += _line_ends(data)
        return data

    def _fill(self, size: int) -> bool:
        """Append the lines of ``_read(size)`` to those not handed out; False at the end of the input.

        Bytes holding undecodable ones give the lines before the first bad
        one; the next call raises the error that names its line.
        """
        data = self._read(size)
        if not data:
            return False
        lines = self.lines(data)
        if self._pos == len(self._lines):
            self._lines, self._pos = lines, 0
        else:
            self._lines += lines
        return True


def _line_ends(data: bytes) -> int:
    """Each ``\\n``, ``\\r\\n`` or bare ``\\r`` in ``data``, which ends at ``\\n`` or at the end of the input."""
    # numpy counts a frequent byte many times faster than bytes.count.
    ends = int(np.count_nonzero(np.frombuffer(data, dtype=np.uint8) == ord("\n")))
    if b"\r" in data:
        ends += data.count(b"\r") - data.count(b"\r\n")
    return ends


#: Bytes per block read from a text input.
_BLOCK_BYTES = 1 << 16
#: Rows the csv rule gathers before it yields them as a block.
_CSV_BLOCK_ROWS = 1024


def _next_record(reader, path: str, offset: int = 0) -> Optional[list[str]]:
    """A CSV ``reader``'s next record, or None at the end; its error raises a ParseError naming the line.

    ``offset`` is the number of lines before the first one ``reader`` reads.
    """
    try:
        return next(reader, None)
    except csv.Error as exc:
        raise ParseError(str(exc), path=path, line=offset + reader.line_num) from None


def _csv_header(stream: TextInput, what: str) -> list[str]:
    """The first CSV record of ``stream``, which may span lines."""
    header = _next_record(csv.reader(stream), stream.path)
    if header is None:
        raise ParseError(f"empty {what} file", path=stream.path)
    return header


def _csv_body(stream: TextInput, fast, parse, lenient: bool = False) -> Iterator:
    """Yield the rows of a CSV body, the rest of ``stream``, in blocks.

    Each block of lines that are not blank is parsed at once by
    ``fast(lines)``, which returns the block or None when it refuses it.  A
    refused block is read again by :func:`_csv_rows`, which names the bad
    line.  From the first block holding a ``"``, the rest of the input
    goes to csv, because a quoted cell may hold a line break.
    """
    rows = partial(_csv_rows, parse=parse, path=stream.path, lenient=lenient)
    while True:
        first = stream.line_no + 1
        lines = stream.lines(stream.raw_block())
        if not lines:
            return
        if any('"' in line for line in lines):
            yield from rows(itertools.chain(lines, stream), first)
            return
        data = [line for line in lines if not line.isspace()]
        block = fast(data) if data else None
        if block is not None:
            yield block
        elif data:
            yield from rows(lines, first)


def _csv_rows(lines, first: int, parse, path: str, lenient: bool) -> Iterator:
    """Yield rows parsed one at a time, ``lines`` starting at line ``first``.

    ``parse(row, line_no)`` returns a row's values or raises the
    :class:`ParseError` naming its line; under ``lenient`` that row is
    skipped, and the error is yielded in its place.  The parsed rows are
    yielded as arrays of up to ``_CSV_BLOCK_ROWS`` rows; the rows read
    before an error are yielded before it is raised or yielded, so a
    consumer handles them first, as it would row by row.
    """
    reader = csv.reader(lines)
    parsed = []
    while True:
        try:
            row = _next_record(reader, path, first - 1)
        except ParseError:  # bad bytes or quoting: never skipped
            if parsed:
                yield np.array(parsed)
            raise
        if row is None:
            break
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        try:
            parsed.append(parse(row, first - 1 + reader.line_num))
        except ParseError as exc:
            if parsed:
                yield np.array(parsed)
                parsed = []
            if not lenient:
                raise
            yield exc
            continue
        if len(parsed) == _CSV_BLOCK_ROWS:
            yield np.array(parsed)
            parsed = []
    if parsed:
        yield np.array(parsed)


def _float_block(lines, k: int) -> Optional[np.ndarray]:
    """Lines of ``k`` comma-separated numbers as an (n, k) array; None if ``loadtxt`` refuses one or warns.

    ``loadtxt`` refuses, among others, empty cells and the spellings only
    ``float`` accepts (``1_0``, non-ASCII digits), and warns that blank
    lines "contained no data"; the csv rule then reads the lines and names
    the line of a real error.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = np.loadtxt(lines, dtype=np.float64, delimiter=",", comments=None, ndmin=2)
    except (ValueError, Warning):
        return None
    return values if values.shape == (len(lines), k) else None


# ---------------------------------------------------------------------------
# confusion CSV
# ---------------------------------------------------------------------------

def read_confusion_csv(path: str) -> ConfusionMatrix:
    """Read a confusion CSV and return the row-normalized matrix, its body cached by content (:func:`_cache_key`)."""
    with TextInput(path) as stream:
        key = _cache_key(stream._fp)
        labels = [h.strip() for h in _csv_header(stream, "confusion")]
        k = len(labels)
        rows = None if key is None else _cached_body(key[0], k)
        store = False
        # A cached body is taken, and a parsed one stored, only for the file
        # as it was when hashed.
        if rows is None or key[1] != _identity(stream._fp):
            rows = np.empty((k, k))
            n = 0
            for block in _csv_body(stream, partial(_float_block, k=k),
                                   partial(_confusion_row, k=k, path=path)):
                if n + len(block) <= k:
                    rows[n:n + len(block)] = block
                n += len(block)  # rows past the K-th are counted for the message
            if n != k:
                raise ParseError(f"confusion matrix must be square: {k} labels but {n} rows", path=path)
            store = key is not None and key[1] == _identity(stream._fp)
    try:
        conf = ConfusionMatrix(ClassCatalog(tuple(labels)), rows)
    except PriorAdaptError as exc:
        raise ParseError(str(exc), path=path) from exc
    if store:
        _store_body(key[0], rows)
    return conf


def _cache_key(fp) -> Optional[tuple[str, tuple]]:
    """The cache entry of the regular file open as ``fp``, ``$XDG_CACHE_HOME/prioradapt/<blake2b>.npy``, and its identity when hashed.

    The bytes are read through ``fp``'s descriptor with ``os.pread``, which
    leaves its position where it was, so the hash is of the file the parse
    reads, whatever is renamed onto its path meanwhile.
    """
    fd = fp.fileno()
    try:
        if not stat.S_ISREG(os.fstat(fd).st_mode):
            return None  # a pipe is read once, by the parse
        # The tag names the entries' layout: a new layout takes a new tag.
        identity, digest = _identity(fp), blake2b(b"prioradapt confusion body v1\n", digest_size=32)
        offset = 0
        while chunk := os.pread(fd, 1 << 20, offset):
            digest.update(chunk)
            offset += len(chunk)
    except OSError:
        return None
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "prioradapt", digest.hexdigest() + ".npy"), identity


def _identity(fp) -> tuple[int, int, int]:
    """An open file's size, inode and modification time, which a rewrite or a new file at its path changes."""
    st = os.fstat(fp.fileno())
    return st.st_size, st.st_ino, st.st_mtime_ns


def _cached_body(entry: str, k: int) -> Optional[np.ndarray]:
    """The C-ordered K x K float64 array a cache entry holds, or None."""
    try:
        with open(entry, "rb") as fp:
            rows = np.lib.format.read_array(fp, allow_pickle=False)
    except (OSError, ValueError, EOFError):
        return None
    return rows if rows.dtype == np.float64 and rows.shape == (k, k) and rows.flags.c_contiguous else None


def _store_body(entry: str, rows: np.ndarray) -> None:
    """Write ``rows`` to a cache entry through a temp file beside it; a failure is ignored and leaves no file."""
    try:
        os.makedirs(os.path.dirname(entry), mode=0o700, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=os.path.dirname(entry))
    except OSError:
        return
    try:
        with open(fd, "wb") as fp:
            np.save(fp, rows, allow_pickle=False)
        os.replace(tmp, entry)
    except (OSError, ValueError):
        with contextlib.suppress(OSError):
            os.remove(tmp)


def _confusion_row(row: list[str], line_no: int, k: int, path: str) -> list[float]:
    if len(row) != k:
        raise ParseError(f"expected {k} columns, got {len(row)}", path=path, line=line_no)
    try:
        return [float(x) for x in row]
    except ValueError as exc:
        raise ParseError(str(exc), path=path, line=line_no) from None


def write_confusion_csv(conf: ConfusionMatrix, fp: IO[str]) -> None:
    fp.write(csv_line(conf.catalog.labels))
    fp.write(format_rows(conf.rows))


# ---------------------------------------------------------------------------
# scores CSV and decision streams
# ---------------------------------------------------------------------------

def parse_scores_header(header: list[str], path: str) -> tuple[ClassCatalog, bool]:
    """Return (catalog, has_label_column) from a scores CSV header."""
    cols = [h.strip() for h in header]
    has_label = bool(cols) and cols[0] == "label"
    score_cols = cols[1:] if has_label else cols
    if not score_cols or not all(c.startswith("s_") for c in score_cols):
        raise ParseError(
            "scores header must be 'label,s_<class>,...' or 's_<class>,...'",
            path=path, line=1,
        )
    try:
        catalog = ClassCatalog(tuple(c[2:] for c in score_cols))
    except PriorAdaptError as exc:
        raise ParseError(str(exc), path=path, line=1) from exc
    return catalog, has_label


def read_score_records(
    stream: TextInput,
    lenient: bool = False,
) -> tuple[ClassCatalog, Iterator]:
    """Return a scores CSV's catalog and a lazy iterator of score blocks.

    ``stream`` is an open :class:`TextInput`, which the caller closes once
    the iterator is done; the header is read before this returns.  Each
    block is an (n, K) float64 array whose rows are probability vectors.
    A truth cell is checked, as a class name first, else an integer index
    in [0, K), and then dropped: nothing downstream reads it.

    A malformed row raises :class:`ParseError` naming its line.  When
    ``lenient`` is set, the row is skipped instead and the iterator yields
    that error where the row stood, so items are blocks and errors in file
    order.  The rows before a bad row are yielded first either way.
    """
    path = stream.path
    catalog, has_label = parse_scores_header(_csv_header(stream, "scores"), path)
    return catalog, _csv_body(
        stream,
        partial(_score_block, catalog=catalog, has_label=has_label),
        partial(_parse_score_row, catalog=catalog, has_label=has_label, path=path),
        lenient,
    )


def _score_block(lines: list[str], catalog: ClassCatalog, has_label: bool) -> Optional[np.ndarray]:
    """Unquoted score lines as an (n, K) array; None if a row breaks a rule."""
    values = lines
    if has_label:
        cells, _, values = zip(*(line.partition(",") for line in lines))
        if not _valid_truth(cells, catalog):
            return None
    scores = _float_block(list(values), catalog.k)
    if scores is None:
        return None
    try:
        check_probability_rows(scores, "scores", SCORE_SUM_TOL)
    except ValidationError:
        return None
    return scores


def _valid_truth(cells, catalog: ClassCatalog) -> bool:
    """Whether every truth cell is empty or names a class (see :func:`_truth_index`)."""
    for raw in {cell.strip() for cell in cells} - {""}:
        try:
            label = _truth_index(raw, catalog)
        except (ValueError, PriorAdaptError):
            return False
        if not 0 <= label < catalog.k:
            return False
    return True


def _parse_score_row(
    row: list[str],
    line_no: int,
    catalog: ClassCatalog,
    has_label: bool,
    path: str,
) -> np.ndarray:
    """One row's scores, its truth cell checked, or the ParseError naming its line."""
    expected = catalog.k + (1 if has_label else 0)
    if len(row) != expected:
        raise ParseError(
            f"expected {expected} columns, got {len(row)}", path=path, line=line_no
        )
    label: Optional[int] = None
    try:
        if has_label and row[0].strip():
            label = _truth_index(row[0].strip(), catalog)
        scores = probability_vector([float(x) for x in row[int(has_label):]], "scores", SCORE_SUM_TOL)
        if label is not None and not 0 <= label < catalog.k:
            raise ValidationError(f"true_label {label} out of range for {catalog.k} classes")
    except (ValueError, PriorAdaptError) as exc:
        raise ParseError(str(exc), path=path, line=line_no) from None
    return scores


def _truth_index(raw: str, catalog: ClassCatalog) -> int:
    """A truth cell as a class index: a class name first, else an integer index."""
    try:
        return catalog.index_of(raw)
    except ValidationError:
        if not raw.lstrip("-").isdigit():
            raise
        return int(raw)


def stream_kind(stream: TextInput) -> str:
    """Classify an input as 'decisions' (index per line) or 'scores' CSV.

    ``stream`` is an open :class:`TextInput`; the lines read to classify
    it are not handed out.
    """
    line = stream.first_line()
    if line is None:
        raise ParseError("empty stream file", path=stream.path)
    stripped = line.strip()
    first = stripped.split(",")[0].strip()
    return "decisions" if first.isdigit() and "," not in stripped else "scores"


def read_decision_stream(stream: TextInput, k: int) -> Iterator[np.ndarray]:
    """Yield a decision stream's class indices, one int64 array per block of lines.

    ``stream`` is an open :class:`TextInput`, read in blocks of about
    ``_BLOCK_BYTES``.  A block in the canonical spelling (see
    :func:`_canonical_block`), with ``\\n`` or ``\\r\\n`` line ends, is parsed
    from its bytes in one step.  Any other block is decoded and read line
    by line with :func:`_decision`, which raises the :class:`ParseError`
    naming the bad line.
    """
    width = len(str(k - 1))
    while True:
        first = stream.line_no + 1
        data = stream.raw_block()
        if not data:
            return
        # The byte step names no line, so dropping the \r of each \r\n moves
        # no line number; bytes.replace copies even a block with no \r.
        values = _canonical_block(data.replace(b"\r\n", b"\n") if b"\r" in data else data, k, width)
        yield values if values is not None else _decision_block(stream.lines(data), k, stream.path, first)


def _canonical_block(data: bytes, k: int, width: int) -> Optional[np.ndarray]:
    """The indices of a block of canonical lines, or None if a line is not canonical.

    A canonical line is 1 to ``width`` ASCII digits, ``width`` being the
    number of digits of ``k - 1``, then ``\\n``, and its value is below
    ``k``.  The line rule reads such a line to the same value, and no value
    can overflow.
    """
    if not data.endswith(b"\n"):
        return None
    raw = np.frombuffer(data, dtype=np.uint8)
    digits = raw - np.uint8(ord("0"))  # wraps every byte that is not a digit to 10 or more
    ends = np.flatnonzero(raw == ord("\n"))
    if np.count_nonzero(digits < 10) != len(raw) - len(ends):
        return None
    sizes = np.diff(ends, prepend=-1)
    sizes -= 1
    if sizes.min() < 1 or sizes.max() > width:
        return None
    sizes = sizes.astype(np.uint8)  # 1 to width; the intp array is freed
    # Horner's rule over the j-th digit from each line's end, j = width - 1
    # down to 0.  A line of j digits or fewer has no j-th digit and adds 0;
    # "clip" keeps the first line's positions in range.  The positions move
    # in place and the digit buffer is reused, so a block allocates only a
    # few arrays of its line count.
    at = ends
    at -= width
    values = np.zeros(len(at), np.int64)
    digit = np.empty(len(at), np.uint8)
    for j in range(width - 1, -1, -1):
        digits.take(at, mode="clip", out=digit)
        digit *= sizes > j
        values *= 10
        values += digit
        at += 1
    return values if values.max() < k else None


def _decision_block(lines: list[str], k: int, path: str, line_no: int) -> np.ndarray:
    decisions = (_decision(line, k, path, n) for n, line in enumerate(lines, start=line_no))
    return np.array([d for d in decisions if d is not None], dtype=np.int64)


def _decision(line: str, k: int, path: str, line_no: int) -> Optional[int]:
    """One line's class index, or None for a blank line."""
    stripped = line.strip()
    if not stripped:
        return None
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
    return value


# ---------------------------------------------------------------------------
# priors JSON
# ---------------------------------------------------------------------------

def priors_document(
    catalog: ClassCatalog,
    estimates: dict[str, PriorEstimate],
    failures: dict[str, str],
    total_decisions: int,
) -> dict:
    methods: dict[str, dict] = {}
    for name, estimate in estimates.items():
        d = estimate.diagnostics
        methods[name] = {
            "priors": {
                label: float(v) for label, v in zip(catalog.labels, estimate.values)
            },
            "diagnostics": {
                "residual": d.residual,
                "iterations": d.iterations,
                "clipped_mass": d.clipped_mass,
            },
        }
    for name, message in failures.items():
        methods[name] = {"error": message}
    return {"labels": list(catalog.labels), "methods": methods, "total_decisions": total_decisions}


def write_json(doc: dict, fp: IO[str]) -> None:
    json.dump(doc, fp, indent=2)
    fp.write("\n")


def read_priors_mapping(path: str, method: Optional[str] = None) -> dict:
    """The ``{label: prior}`` mapping a priors JSON holds; no label is checked.

    Accepts either the document written by the ``estimate`` command or a
    bare ``{label: probability}`` mapping.  With several methods present,
    ``method`` selects one (required unless only one exists), and a method
    that is not one of :data:`~prioradapt.core.METHODS` is refused.  A bare
    mapping holds no methods to pick from, so it refuses ``method``.
    """
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise ParseError("priors JSON must be an object", path=path)
    if "methods" not in doc:
        if method is not None:
            raise ParseError(f"priors JSON has no methods to pick {method!r} from", path=path)
        return doc
    if not isinstance(doc["methods"], dict):
        raise ParseError("priors JSON methods must be an object", path=path)
    methods = {
        name: entry["priors"]
        for name, entry in doc["methods"].items()
        if isinstance(entry, dict) and "priors" in entry
    }
    if not methods:
        raise ParseError("no successful method entries in priors JSON", path=path)
    if method is None:
        if len(methods) == 1:
            method = next(iter(methods))
        else:
            raise ParseError(
                f"priors JSON holds several methods ({', '.join(sorted(methods))}); "
                "pick one with --method",
                path=path,
            )
    if method not in methods:
        raise ParseError(f"method {method!r} not present in priors JSON", path=path)
    if method not in {m.name for m in METHODS}:
        raise ParseError(f"unknown estimation method {method!r}", path=path)
    if not isinstance(methods[method], dict):
        raise ParseError(f"priors of method {method!r} must be an object", path=path)
    return methods[method]


def read_priors_json(
    path: str,
    catalog: ClassCatalog,
    method: Optional[str] = None,
) -> np.ndarray:
    """Extract one prior vector, aligned to ``catalog``, from a priors JSON.

    The mapping is chosen by :func:`read_priors_mapping`.  The entries must
    be nonnegative with positive mass; they need not sum to 1.
    """
    mapping = read_priors_mapping(path, method)
    values = np.zeros(catalog.k)
    for label, value in mapping.items():
        if label not in catalog.labels:
            raise ParseError(f"priors JSON names unknown class {label!r}", path=path)
        if not _is_number(value) or not math.isfinite(value) or value < 0:
            raise ParseError(f"prior for {label!r} is not a finite nonnegative number", path=path)
        values[catalog.index_of(label)] = float(value)
    missing = set(catalog.labels) - set(mapping)
    if missing:
        raise ParseError(
            f"priors JSON missing classes: {', '.join(sorted(missing))}", path=path
        )
    with np.errstate(over="ignore"):
        mass = values.sum()
    if not math.isfinite(mass):
        raise ParseError("priors JSON mass is too large to normalize", path=path)
    if not mass > 0.0:
        raise ParseError("priors JSON has no positive mass", path=path)
    return values
