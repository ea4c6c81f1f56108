"""Tests for the shared benchmark-artifact schema (repro.artifacts)."""

from __future__ import annotations

import json

import pytest

from repro.artifacts import (
    SCHEMA_VERSION,
    load_document,
    make_document,
    upsert_row,
    write_document,
)
from repro.exceptions import ConfigurationError


class TestMakeDocument:
    def test_shape(self):
        document = make_document("demo", [{"x": 1}])
        assert document == {
            "schema_version": SCHEMA_VERSION,
            "experiment": "demo",
            "rows": [{"x": 1}],
        }

    def test_defaults_and_extra_context(self):
        document = make_document("demo", shape=[32, 32])
        assert document["rows"] == []
        assert document["shape"] == [32, 32]

    def test_rows_are_copied(self):
        rows = [{"x": 1}]
        document = make_document("demo", rows)
        rows.append({"x": 2})
        assert document["rows"] == [{"x": 1}]

    def test_empty_experiment_rejected(self):
        with pytest.raises(ConfigurationError):
            make_document("")


class TestLoadDocument:
    def test_absent_file_yields_fresh_document(self, tmp_path):
        document = load_document(tmp_path / "missing.json", "demo")
        assert document["experiment"] == "demo"
        assert document["rows"] == []

    def test_corrupt_file_degrades_gracefully(self, tmp_path):
        path = tmp_path / "artifact.json"
        path.write_text("{not json")
        assert load_document(path, "demo")["rows"] == []
        path.write_text('["a", "list"]')  # shapeless
        assert load_document(path, "demo")["rows"] == []

    def test_legacy_document_accepted_and_stamped_on_write(self, tmp_path):
        path = tmp_path / "artifact.json"
        path.write_text(json.dumps({"experiment": "demo", "rows": [{"x": 1}]}))
        document = load_document(path, "demo")
        assert "schema_version" not in document  # accepted as-is
        assert document["rows"] == [{"x": 1}]
        write_document(path, document)
        reloaded = json.loads(path.read_text())
        assert reloaded["schema_version"] == SCHEMA_VERSION


class TestWriteDocument:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "artifact.json"
        write_document(path, make_document("demo", [{"x": 1}]))
        assert json.loads(path.read_text()) == {
            "schema_version": SCHEMA_VERSION,
            "experiment": "demo",
            "rows": [{"x": 1}],
        }

    def test_rejects_shapeless_documents(self, tmp_path):
        path = tmp_path / "artifact.json"
        with pytest.raises(ConfigurationError):
            write_document(path, {"rows": "not-a-list", "experiment": "d"})
        with pytest.raises(ConfigurationError):
            write_document(path, {"rows": []})  # no experiment


class TestUpsertRow:
    def test_replaces_matching_row(self):
        document = make_document("demo", [{"k": 1, "v": "old"}, {"k": 2, "v": "b"}])
        upsert_row(document, {"k": 1, "v": "new"}, ("k",))
        assert document["rows"] == [{"k": 2, "v": "b"}, {"k": 1, "v": "new"}]

    def test_appends_new_key(self):
        document = make_document("demo")
        upsert_row(document, {"k": 1}, ("k",))
        upsert_row(document, {"k": 2}, ("k",))
        assert [row["k"] for row in document["rows"]] == [1, 2]

    def test_composite_keys(self):
        document = make_document("demo", [{"a": 1, "b": 1, "v": 0}])
        upsert_row(document, {"a": 1, "b": 2, "v": 9}, ("a", "b"))
        assert len(document["rows"]) == 2
