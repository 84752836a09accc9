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
* scenario JSON — a deployment context plus the synthetic classifier to
  drive it.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import sys
import warnings
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
from .harness import (
    DEFAULT_SHARPNESS,
    DriftSegment,
    ScenarioSpec,
    SyntheticClassifier,
    diagonal_confusion_rows,
)


def format_float(x: float) -> str:
    """17-significant-digit decimal form; parses back to the same double."""
    return f"{float(x):.17g}"


def format_rows(rows: np.ndarray) -> str:
    """An (n, K) array as n CSV lines of :func:`format_float` cells, each ending in ``\n``."""
    n, k = rows.shape
    return ((",".join(["%.17g"] * k) + "\n") * n) % tuple(rows.ravel().tolist())


def _is_number(value) -> bool:
    """Whether a parsed JSON value is a number that fits a float (bools are not)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, float) or abs(value) <= sys.float_info.max


def _is_seed(value) -> bool:
    """A JSON integer that ``np.random.default_rng`` accepts."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


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
    are not UTF-8 raise :class:`ParseError` naming their line, counted at
    ``\\n`` bytes, once the lines before it have been handed out.
    Iterating yields single lines; :meth:`block` hands out the rest of the
    current block at once.  ``line_no`` counts the lines handed out so far.
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
        if self._pos == len(self._lines) and not self._fill(_LINE_BLOCK_BYTES):
            raise StopIteration
        line = self._lines[self._pos]
        self._pos += 1
        self.line_no += 1
        return line

    def block(self, size: int) -> list[str]:
        """The lines not yet handed out, reading a block of about ``size`` bytes if none are left.

        An empty list means the input is exhausted.
        """
        if self._pos == len(self._lines):
            self._fill(size)
        block = self._lines[self._pos:] if self._pos else self._lines
        self._lines, self._pos = [], 0
        self.line_no += len(block)
        return block

    def empty(self) -> bool:
        """Whether the input holds no bytes at all."""
        return self._pos == len(self._lines) and not self._fill(_LINE_BLOCK_BYTES)

    def first_line(self) -> Optional[str]:
        """The first line that is not blank, or None; nothing is handed out."""
        pos = self._pos
        while pos < len(self._lines) or self._fill(_LINE_BLOCK_BYTES):
            if self._lines[pos].strip():
                return self._lines[pos]
            pos += 1
        return None

    def _fill(self, size: int) -> bool:
        """Append the next block's lines to those not handed out; False at the end of the input.

        A block holding undecodable bytes gives the lines before the first
        bad one; the next call raises the error that names its line.
        """
        if self._error is not None:
            raise self._error
        data = self._fp.read(size)
        if data and not data.endswith(b"\n"):
            data += self._fp.readline()
        if not data:
            return False
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            # A line break never occurs inside a multi-byte UTF-8 sequence,
            # so the first bad byte lies on the first line that fails alone.
            good = data.rfind(b"\n", 0, exc.start) + 1
            line = self._raw_lines + data.count(b"\n", 0, good) + 1
            self._error = ParseError("not valid UTF-8", path=self.path, line=line)
            if not good:
                raise self._error from None
            data = data[:good]
            text = data.decode("utf-8")
        self._raw_lines += data.count(b"\n")
        lines = io.StringIO(text, newline="").readlines()
        if self._pos == len(self._lines):
            self._lines, self._pos = lines, 0
        else:
            self._lines += lines
        return True


#: Bytes per block of a CSV body.
_CSV_BLOCK_BYTES = 1 << 16
#: Bytes per block of a decision stream, and per read of lines one at a time.
_LINE_BLOCK_BYTES = 1 << 14
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
    while lines := stream.block(_CSV_BLOCK_BYTES):
        first = stream.line_no - len(lines) + 1
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


def _loadtxt(source, **options) -> Optional[np.ndarray]:
    """``np.loadtxt`` into a 2-D array, or None for input it refuses or warns about.

    It warns, for one, that a block of blank lines "contained no data".
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(source, comments=None, ndmin=2, **options)
    except (ValueError, Warning):
        return None


def _float_block(lines, k: int) -> Optional[np.ndarray]:
    """Lines of ``k`` comma-separated numbers as an (n, k) array; None if ``loadtxt`` refuses one.

    ``loadtxt`` refuses, among others, empty cells and the spellings only
    ``float`` accepts (``1_0``, non-ASCII digits); the csv rule then reads
    the lines and names the line of a real error.
    """
    values = _loadtxt(lines, dtype=np.float64, delimiter=",")
    return values if values is not None and values.shape == (len(lines), k) else None


# ---------------------------------------------------------------------------
# confusion CSV
# ---------------------------------------------------------------------------

def read_confusion_csv(path: str) -> ConfusionMatrix:
    """Read a confusion CSV and return the row-normalized matrix."""
    with TextInput(path) as stream:
        labels = [h.strip() for h in _csv_header(stream, "confusion")]
        k = len(labels)
        rows = np.empty((k, k))
        n = 0
        for block in _csv_body(stream, partial(_float_block, k=k),
                               partial(_confusion_row, k=k, path=path)):
            if n + len(block) <= k:
                rows[n:n + len(block)] = block
            n += len(block)  # rows past the K-th are counted for the message
    if n != k:
        raise ParseError(f"confusion matrix must be square: {k} labels but {n} rows", path=path)
    try:
        catalog = ClassCatalog(tuple(labels))
        return ConfusionMatrix(catalog, rows)
    except PriorAdaptError as exc:
        raise ParseError(str(exc), path=path) from exc


def _confusion_row(row: list[str], line_no: int, k: int, path: str) -> list[float]:
    if len(row) != k:
        raise ParseError(f"expected {k} columns, got {len(row)}", path=path, line=line_no)
    try:
        return [float(x) for x in row]
    except ValueError as exc:
        raise ParseError(str(exc), path=path, line=line_no) from None


def write_confusion_csv(conf: ConfusionMatrix, fp: IO[str]) -> None:
    fp.write(",".join(conf.catalog.labels) + "\n")
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

    ``stream`` is an open :class:`TextInput`.  Each block of about 16 KiB
    is parsed in one ``loadtxt`` call.  A block it refuses, or one holding
    an index outside [0, k), is read again line by line with
    :func:`_decision`, which raises the :class:`ParseError` naming the bad
    line.
    """
    while lines := stream.block(_LINE_BLOCK_BYTES):
        yield _decision_block(lines, k, stream.path, stream.line_no - len(lines) + 1)


def _decision_block(lines: list[str], k: int, path: str, line_no: int) -> np.ndarray:
    values = _loadtxt(lines, dtype=np.int64)
    if values is not None and values.shape[1] == 1 and values.min() >= 0 and values.max() < k:
        return values[:, 0]
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
    failures: Optional[dict[str, str]] = None,
    total_decisions: Optional[int] = None,
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
    for name, message in (failures or {}).items():
        methods[name] = {"error": message}
    doc = {"labels": list(catalog.labels), "methods": methods}
    if total_decisions is not None:
        doc["total_decisions"] = total_decisions
    return doc


def write_json(doc: dict, fp: IO[str]) -> None:
    json.dump(doc, fp, indent=2)
    fp.write("\n")


def read_priors_json(
    path: str,
    catalog: ClassCatalog,
    method: Optional[str] = None,
) -> tuple[np.ndarray, str]:
    """Extract one prior vector, aligned to ``catalog``, from a priors JSON.

    Accepts either the document written by the ``estimate`` command or a
    bare ``{label: probability}`` mapping.  With several methods present,
    ``method`` selects one (required unless only one exists).  Returns the
    vector and the method tag; a bare mapping is tagged ``ground_truth``
    since it represents externally known priors.  The entries must be
    nonnegative with positive mass; they need not sum to 1.
    """
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise ParseError("priors JSON must be an object", path=path)

    tag = "ground_truth"
    if "methods" in doc:
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
        mapping = methods[method]
        tag = method
        if not isinstance(mapping, dict):
            raise ParseError(f"priors of method {method!r} must be an object", path=path)
    else:
        mapping = doc

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
    return values, tag


# ---------------------------------------------------------------------------
# scenario JSON
# ---------------------------------------------------------------------------

def _require(doc: dict, key: str, kind, where: str, path: str):
    if key not in doc:
        raise ParseError(f"{where}.{key} is required", path=path)
    value = doc[key]
    if kind is int and isinstance(value, bool):
        raise ParseError(f"{where}.{key} must be an integer", path=path)
    if not isinstance(value, kind):
        raise ParseError(f"{where}.{key} must be of type {kind.__name__}", path=path)
    return value


def _priors_from_mapping(
    mapping, catalog: ClassCatalog, where: str, path: str
) -> np.ndarray:
    if not isinstance(mapping, dict):
        raise ParseError(f"{where} must map class labels to probabilities", path=path)
    priors = np.zeros(catalog.k)
    for label, value in mapping.items():
        if label not in catalog.labels:
            raise ParseError(f"{where}: unknown class {label!r}", path=path)
        if not _is_number(value):
            raise ParseError(f"{where}.{label} must be a number", path=path)
        priors[catalog.index_of(label)] = float(value)
    return priors


def read_scenario_json(
    path: str,
    seed_override: Optional[int] = None,
) -> tuple[ScenarioSpec, Optional[SyntheticClassifier]]:
    """Parse a scenario file; validation failures name the offending field."""
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise ParseError("scenario JSON must be an object", path=path)

    labels = _require(doc, "labels", list, "scenario", path)
    if not all(isinstance(l, str) for l in labels):
        raise ParseError("scenario.labels must be strings", path=path)
    try:
        catalog = ClassCatalog(tuple(labels))
    except PriorAdaptError as exc:
        raise ParseError(f"scenario.labels: {exc}", path=path) from exc

    active_labels = _require(doc, "active_classes", list, "scenario", path)
    active = []
    for label in active_labels:
        if label not in catalog.labels:
            raise ParseError(f"scenario.active_classes: unknown class {label!r}", path=path)
        active.append(catalog.index_of(label))

    priors = _priors_from_mapping(
        _require(doc, "true_priors", dict, "scenario", path),
        catalog, "scenario.true_priors", path,
    )

    drift = None
    if "drift" in doc and doc["drift"] is not None:
        if not isinstance(doc["drift"], list):
            raise ParseError("scenario.drift must be a list", path=path)
        segments = []
        for i, entry in enumerate(doc["drift"]):
            where = f"scenario.drift[{i}]"
            if not isinstance(entry, dict):
                raise ParseError(f"{where} must be an object", path=path)
            start = _require(entry, "start", int, where, path)
            seg_priors = _priors_from_mapping(
                _require(entry, "priors", dict, where, path),
                catalog, f"{where}.priors", path,
            )
            try:
                segments.append(DriftSegment(start=start, priors=seg_priors))
            except PriorAdaptError as exc:
                raise ParseError(f"{where}: {exc}", path=path) from exc
        drift = tuple(segments)

    seed = doc.get("seed", 0)
    if not _is_seed(seed):
        raise ParseError("scenario.seed must be a non-negative integer", path=path)
    if seed_override is not None:
        seed = seed_override
    sharpness = _sharpness(doc.get("sharpness", DEFAULT_SHARPNESS), "scenario", path)
    transfer_size = _require(doc, "transfer_size", int, "scenario", path)
    test_size = _require(doc, "test_size", int, "scenario", path)
    try:
        spec = ScenarioSpec(
            catalog=catalog,
            active_classes=tuple(active),
            true_priors=priors,
            transfer_size=transfer_size,
            test_size=test_size,
            drift=drift,
            seed=int(seed),
            name=str(doc.get("name", os.path.splitext(os.path.basename(path))[0])),
        )
    except PriorAdaptError as exc:
        raise ParseError(f"scenario: {exc}", path=path) from exc

    classifier = None
    if "classifier" in doc and doc["classifier"] is not None:
        classifier = _build_classifier(doc["classifier"], catalog, sharpness, path)
    return spec, classifier


def _sharpness(value, where: str, path: str) -> float:
    if not _is_number(value) or not 0 < value < math.inf:
        raise ParseError(f"{where}.sharpness must be a positive finite number", path=path)
    return float(value)


def _build_classifier(
    section, catalog: ClassCatalog, default_sharpness: float, path: str
) -> SyntheticClassifier:
    """The synthetic classifier; its sharpness defaults to the scenario's."""
    where = "scenario.classifier"
    if not isinstance(section, dict):
        raise ParseError(f"{where} must be an object", path=path)
    sharpness = _sharpness(section.get("sharpness", default_sharpness), where, path)
    if "confusion_csv" in section:
        csv_path = section["confusion_csv"]
        if not isinstance(csv_path, str):
            raise ParseError(f"{where}.confusion_csv must be a path", path=path)
        if not os.path.isabs(csv_path):
            csv_path = os.path.join(os.path.dirname(os.path.abspath(path)), csv_path)
        conf = read_confusion_csv(csv_path)
        if conf.catalog != catalog:
            raise ParseError(
                f"{where}.confusion_csv labels do not match scenario.labels", path=path
            )
        return SyntheticClassifier(conf, sharpness=sharpness)
    if "diagonal" in section:
        diagonal = section["diagonal"]
        conf_seed = section.get("confusion_seed", 0)
        if not _is_seed(conf_seed):
            raise ParseError(f"{where}.confusion_seed must be a non-negative integer", path=path)
        rng = np.random.default_rng(conf_seed)
        if _is_number(diagonal):
            diag = np.full(catalog.k, float(diagonal))
        elif (
            isinstance(diagonal, list) and len(diagonal) == catalog.k
            and all(_is_number(d) for d in diagonal)
        ):
            diag = np.array([float(d) for d in diagonal])
        else:
            raise ParseError(
                f"{where}.diagonal must be a number or a list of {catalog.k} numbers",
                path=path,
            )
        if np.any(diag <= 0.0) or np.any(diag > 1.0):
            raise ParseError(f"{where}.diagonal entries must lie in (0, 1]", path=path)
        rows = diagonal_confusion_rows(diag, rng)
        try:
            return SyntheticClassifier(ConfusionMatrix(catalog, rows), sharpness=sharpness)
        except PriorAdaptError as exc:
            raise ParseError(f"{where}: {exc}", path=path) from exc
    raise ParseError(
        f"{where} needs either confusion_csv or diagonal", path=path
    )
