"""CSV and JSON formats: parsing, validation messages, round trips."""

import io
import json

import numpy as np
import pytest

from prioradapt import ClassCatalog, ConfusionMatrix, ParseError
from prioradapt.estimators import estimate_naive
from prioradapt.core import DecisionHistogram
from prioradapt.fileio import (
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

from conftest import make_catalog, random_confusion


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


class TestScoresCsv:
    def test_with_label_column(self, tmp_path):
        path = write(tmp_path, "s.csv", "label,s_a,s_b\na,0.9,0.1\n,0.2,0.8\n")
        catalog, records = read_score_records(path)
        rows = list(records)
        assert catalog.labels == ("a", "b")
        assert rows[0][1].true_label == 0
        assert rows[1][1].true_label is None

    def test_without_label_column(self, tmp_path):
        path = write(tmp_path, "s.csv", "s_a,s_b\n0.9,0.1\n")
        catalog, records = read_score_records(path)
        (line_no, record), = list(records)
        assert line_no == 2
        assert record.true_label is None

    def test_numeric_label(self, tmp_path):
        path = write(tmp_path, "s.csv", "label,s_a,s_b\n1,0.9,0.1\n")
        _, records = read_score_records(path)
        (_, record), = list(records)
        assert record.true_label == 1

    def test_bad_header(self, tmp_path):
        path = write(tmp_path, "s.csv", "x,y\n0.5,0.5\n")
        with pytest.raises(ParseError, match="header"):
            read_score_records(path)

    def test_bad_sum_names_line(self, tmp_path):
        path = write(tmp_path, "s.csv", "s_a,s_b\n0.5,0.5\n0.9,0.3\n")
        _, records = read_score_records(path)
        with pytest.raises(ParseError, match="s.csv:3"):
            list(records)

    def test_lenient_skips_with_warning(self, tmp_path):
        path = write(tmp_path, "s.csv", "s_a,s_b\n0.5,0.5\n0.9,0.3\n0.2,0.8\n")
        warnings = []
        _, records = read_score_records(path, lenient=True, warn=warnings.append)
        rows = list(records)
        assert len(rows) == 2
        assert len(warnings) == 1
        assert "3" in warnings[0]

    def test_wrong_column_count(self, tmp_path):
        path = write(tmp_path, "s.csv", "s_a,s_b\n0.5,0.4,0.1\n")
        _, records = read_score_records(path)
        with pytest.raises(ParseError, match="columns"):
            list(records)


class TestDecisionStream:
    def test_reads_indices(self, tmp_path):
        path = write(tmp_path, "d.txt", "0\n2\n1\n\n2\n")
        assert list(read_decision_stream(path, 3)) == [0, 2, 1, 2]

    def test_out_of_range(self, tmp_path):
        path = write(tmp_path, "d.txt", "0\n7\n")
        with pytest.raises(ParseError, match="d.txt:2"):
            list(read_decision_stream(path, 3))

    def test_non_integer(self, tmp_path):
        path = write(tmp_path, "d.txt", "zero\n")
        with pytest.raises(ParseError):
            list(read_decision_stream(path, 3))

    def test_stream_kind_sniffing(self, tmp_path):
        decisions = write(tmp_path, "d.txt", "0\n1\n")
        scores = write(tmp_path, "s.csv", "s_a,s_b\n0.5,0.5\n")
        assert stream_kind(decisions) == "decisions"
        assert stream_kind(scores) == "scores"
        empty = write(tmp_path, "e.txt", "\n")
        with pytest.raises(ParseError):
            stream_kind(empty)


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


@pytest.mark.parametrize("read, content", [
    (read_confusion_csv, b"a,b\n1,0\n\xff,1\n"),
    (lambda p: list(read_score_records(p)[1]), b"s_a,s_b\n0.5,0.5\n\xff,0.5\n"),
    (lambda p: list(read_decision_stream(p, 2)), b"0\n1\n\xff\n"),
    (stream_kind, b"\n\n\xff\xfe0\n"),
    (lambda p: read_priors_json(p, make_catalog(2)), b'{"x00": 0.5,\n"x01": 0.5,\n"\xff": 0}'),
    (read_scenario_json, b'{"labels": ["a", "b"],\n"name": 1,\n"\xff": 0}'),
])
def test_non_utf8_input_names_line(tmp_path, read, content):
    path = tmp_path / "in"
    path.write_bytes(content)
    with pytest.raises(ParseError, match="in:3: not valid UTF-8"):
        read(str(path))
