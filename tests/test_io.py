"""Tests for JSON persistence."""

from __future__ import annotations

import json

import pytest

from repro import faults
from repro.errors import CodecError, SchemaError, StorageError
from repro.io import (
    check_format,
    dump_cells,
    dump_exceptions,
    isb_from_dict,
    isb_to_dict,
    load_cells,
    load_exceptions,
    write_atomic,
)
from repro.regression.isb import ISB


class TestISBPayload:
    def test_round_trip(self):
        isb = ISB(3, 12, -1.5, 0.25)
        assert isb_from_dict(isb_to_dict(isb)) == isb

    def test_missing_field_raises(self):
        with pytest.raises(SchemaError):
            isb_from_dict({"t_b": 0, "t_e": 1, "base": 0.0})


class TestCellsFile:
    def test_round_trip(self, tmp_path):
        cells = {
            (0, 5): ISB(0, 9, 1.0, 0.1),
            ("a", "*"): ISB(0, 9, 2.0, -0.2),
        }
        path = tmp_path / "cells.json"
        dump_cells(cells, path)
        assert load_cells(path) == cells

    def test_value_types_preserved(self, tmp_path):
        cells = {(1, "x"): ISB(0, 1, 0.0, 0.0)}
        path = tmp_path / "cells.json"
        dump_cells(cells, path)
        loaded = load_cells(path)
        key = next(iter(loaded))
        assert isinstance(key[0], int) and isinstance(key[1], str)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(SchemaError):
            load_cells(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "cells.json"
        path.write_text(
            json.dumps({"format": "repro-cells", "version": 99, "cells": []})
        )
        with pytest.raises(SchemaError):
            load_cells(path)

    def test_duplicate_cells_rejected(self, tmp_path):
        path = tmp_path / "cells.json"
        row = {"values": [1], "isb": isb_to_dict(ISB(0, 1, 0, 0))}
        path.write_text(
            json.dumps(
                {"format": "repro-cells", "version": 1, "cells": [row, row]}
            )
        )
        with pytest.raises(SchemaError):
            load_cells(path)


class TestExceptionsFile:
    def test_round_trip(self, tmp_path):
        retained = {
            (1, 2): {(0, 3): ISB(0, 9, 1.0, 0.5)},
            (2, 1): {},
        }
        path = tmp_path / "exc.json"
        dump_exceptions(retained, path)
        assert load_exceptions(path) == retained

    def test_from_cubing_result(self, tmp_path, small_dataset):
        from repro.cubing.mo_cubing import mo_cubing
        from repro.cubing.policy import GlobalSlopeThreshold

        result = mo_cubing(
            small_dataset.layers, small_dataset.cells, GlobalSlopeThreshold(0.3)
        )
        path = tmp_path / "exc.json"
        dump_exceptions(result.retained_exceptions, path)
        loaded = load_exceptions(path)
        assert set(loaded) == set(result.retained_exceptions)
        for coord, cells in loaded.items():
            assert cells == result.retained_exceptions[coord]

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "exc.json"
        path.write_text(json.dumps({"format": "repro-cells", "version": 1}))
        with pytest.raises(SchemaError):
            load_exceptions(path)

    def test_generated_dataset_round_trip(self, tmp_path, tiny_dataset):
        path = tmp_path / "dataset.json"
        dump_cells(tiny_dataset.cells, path)
        assert load_cells(path) == tiny_dataset.cells


class TestCheckFormat:
    @pytest.mark.parametrize("payload", [[], "repro-cells", None])
    def test_payload_must_be_an_object(self, payload):
        with pytest.raises(CodecError, match="expected a JSON object"):
            check_format("cells", payload, "repro-cells", 1)

    def test_matching_envelope_passes(self):
        check_format("cells", {"format": "f", "version": 2}, "f", 2)


class TestWriteAtomic:
    @pytest.fixture(autouse=True)
    def disarm(self):
        faults.clear()
        yield
        faults.clear()

    def arm(self, kind, count):
        faults.install(
            faults.FaultPlan.from_dict(
                {"rules": [{"site": "snapshot.write", "kind": kind, "count": count}]}
            )
        )

    def test_replaces_the_previous_file(self, tmp_path):
        path = tmp_path / "state.json"
        write_atomic(path, "old")
        write_atomic(path, "new")
        assert path.read_text() == "new"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["state.json"]

    def test_torn_write_is_retried_whole(self, tmp_path):
        path = tmp_path / "state.json"
        self.arm("torn", 1)
        write_atomic(path, "x" * 100)
        assert path.read_text() == "x" * 100
        assert sorted(p.name for p in tmp_path.iterdir()) == ["state.json"]

    def test_persistent_failure_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "state.json"
        write_atomic(path, "old")
        self.arm("eio", 0)  # count 0: every attempt fails
        with pytest.raises(StorageError, match="failed even after retry"):
            write_atomic(path, "new")
        assert path.read_text() == "old"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["state.json"]
