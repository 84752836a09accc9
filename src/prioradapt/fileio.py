"""File formats used by the command line.

Everything is UTF-8 with LF line endings.  Floats in CSVs are written
with 17 significant digits so a round trip through disk is exact;
JSON relies on Python's shortest-round-trip float repr.

* confusion CSV — header row of class labels, then one row of K values
  per true class (raw counts or already-normalized rates).
* scores CSV — header ``label,s_<class>,...`` where the leading truth
  column is optional; one record per row.
* decision stream — one class index per line.
* priors JSON — keyed by method, then by class label, with per-method
  diagnostics alongside.
* scenario JSON — a deployment context plus the synthetic classifier to
  drive it.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import sys
from typing import IO, Iterator, Optional

import numpy as np

from .core import (
    METHODS,
    ClassCatalog,
    ConfusionMatrix,
    PriorEstimate,
    ScoreRecord,
)
from .errors import ParseError, PriorAdaptError, ValidationError
from .harness import (
    DEFAULT_SHARPNESS,
    DriftSegment,
    ScenarioSpec,
    SyntheticClassifier,
)


def format_float(x: float) -> str:
    """17-significant-digit decimal form; parses back to the same double."""
    return f"{float(x):.17g}"


@contextlib.contextmanager
def _text_errors(path: str, reader=None):
    """Re-raise undecodable bytes, or a CSV ``reader``'s error, as a ParseError."""
    try:
        yield
    except UnicodeDecodeError:
        raise ParseError("not valid UTF-8", path=path, line=_first_non_utf8_line(path)) from None
    except csv.Error as exc:
        raise ParseError(str(exc), path=path, line=reader.line_num) from None


def _first_non_utf8_line(path: str) -> Optional[int]:
    # A line break is one byte that never occurs inside a multi-byte UTF-8
    # sequence, so each line decodes on its own.
    with open(path, "rb") as fp:
        for line_no, raw in enumerate(fp, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                return line_no
    return None


def _is_number(value) -> bool:
    """Whether a parsed JSON value is a number that fits a float (bools are not)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, float) or abs(value) <= sys.float_info.max


def _is_seed(value) -> bool:
    """A JSON integer that ``np.random.default_rng`` accepts."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def read_json(path: str):
    with open(path, "r", encoding="utf-8") as fp, _text_errors(path):
        text = fp.read()
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}", path=path) from None


# ---------------------------------------------------------------------------
# confusion CSV
# ---------------------------------------------------------------------------

def read_confusion_csv(path: str) -> ConfusionMatrix:
    """Read a confusion CSV and return the row-normalized matrix."""
    with open(path, "r", encoding="utf-8", newline="") as fp:
        reader = csv.reader(fp)
        with _text_errors(path, reader):
            header = next(reader, None)
            if header is None:
                raise ParseError("empty confusion file", path=path)
            labels = [h.strip() for h in header]
            rows = []
            for line_no, row in enumerate(reader, start=2):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != len(labels):
                    raise ParseError(
                        f"expected {len(labels)} columns, got {len(row)}",
                        path=path, line=line_no,
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


def write_confusion_csv(conf: ConfusionMatrix, fp: IO[str]) -> None:
    fp.write(",".join(conf.catalog.labels) + "\n")
    for row in conf.rows:
        fp.write(",".join(format_float(x) for x in row) + "\n")


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
    path: str,
    lenient: bool = False,
    warn=None,
) -> tuple[ClassCatalog, Iterator[tuple[int, ScoreRecord]]]:
    """Return a scores CSV's catalog and a lazy iterator of (line_no, record).

    The header is read in a block of its own; the iterator opens the file
    again and closes it when exhausted or closed, so a caller that fails
    before iterating leaves no file open.  Malformed rows raise
    :class:`ParseError` naming the line, or are skipped with a
    ``warn(message)`` callback when ``lenient`` is set.
    """
    with open(path, "r", encoding="utf-8", newline="") as fp:
        reader = csv.reader(fp)
        with _text_errors(path, reader):
            header = next(reader, None)
    if header is None:
        raise ParseError("empty scores file", path=path)
    catalog, has_label = parse_scores_header(header, path)

    def records() -> Iterator[tuple[int, ScoreRecord]]:
        with open(path, "r", encoding="utf-8", newline="") as fp:
            reader = csv.reader(fp)
            with _text_errors(path, reader):
                next(reader, None)  # the header, parsed above
                for line_no, row in enumerate(reader, start=2):
                    if not row or (len(row) == 1 and not row[0].strip()):
                        continue
                    try:
                        yield line_no, _parse_score_row(row, catalog, has_label, path, line_no)
                    except ParseError as exc:
                        if not lenient:
                            raise
                        if warn is not None:
                            warn(str(exc))

    return catalog, records()


def _parse_score_row(
    row: list[str],
    catalog: ClassCatalog,
    has_label: bool,
    path: str,
    line_no: int,
) -> ScoreRecord:
    expected = catalog.k + (1 if has_label else 0)
    if len(row) != expected:
        raise ParseError(
            f"expected {expected} columns, got {len(row)}", path=path, line=line_no
        )
    true_label: Optional[int] = None
    values = row
    try:
        if has_label:
            raw = row[0].strip()
            values = row[1:]
            if raw:
                true_label = _truth_index(raw, catalog)
        scores = [float(x) for x in values]
        return ScoreRecord(scores, true_label=true_label)
    except (ValueError, PriorAdaptError) as exc:
        raise ParseError(str(exc), path=path, line=line_no) from None


def _truth_index(raw: str, catalog: ClassCatalog) -> int:
    """A truth cell as a class index: a class name first, else an integer index."""
    try:
        return catalog.index_of(raw)
    except ValidationError:
        if not raw.lstrip("-").isdigit():
            raise
        return int(raw)


def stream_kind(path: str) -> str:
    """Classify an input file as 'decisions' (index per line) or 'scores' CSV."""
    with open(path, "r", encoding="utf-8") as fp, _text_errors(path):
        for line in fp:
            stripped = line.strip()
            if not stripped:
                continue
            first = stripped.split(",")[0].strip()
            return "decisions" if first.isdigit() and "," not in stripped else "scores"
    raise ParseError("empty stream file", path=path)


def read_decision_stream(path: str, k: int) -> Iterator[int]:
    with open(path, "r", encoding="utf-8") as fp, _text_errors(path):
        for line_no, line in enumerate(fp, start=1):
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
    if not values.sum() > 0.0:
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
    try:
        spec = ScenarioSpec(
            catalog=catalog,
            active_classes=tuple(active),
            true_priors=priors,
            transfer_size=_require(doc, "transfer_size", int, "scenario", path),
            test_size=_require(doc, "test_size", int, "scenario", path),
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
        rows = np.zeros((catalog.k, catalog.k))
        for i in range(catalog.k):
            spread = rng.dirichlet(np.ones(catalog.k - 1))
            rows[i] = np.insert(spread * (1.0 - diag[i]), i, diag[i])
        try:
            return SyntheticClassifier(ConfusionMatrix(catalog, rows), sharpness=sharpness)
        except PriorAdaptError as exc:
            raise ParseError(f"{where}: {exc}", path=path) from exc
    raise ParseError(
        f"{where} needs either confusion_csv or diagonal", path=path
    )
