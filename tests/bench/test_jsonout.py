"""The ``BENCH_*.json`` writer the regression gate reads.

``benchmarks/check_regression.py`` trusts the document shape and the
``machine_score`` normalizer, and every bench script resolves its output
path through :func:`json_path_from_args`, so both are pinned here.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.bench.jsonout import (
    json_path_from_args,
    machine_score,
    peak_rss_mb,
    write_bench_json,
)


@pytest.fixture(autouse=True)
def no_env(monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_JSON", raising=False)


class TestJsonPathFromArgs:
    def test_absent_flag_and_env_means_tables_only(self):
        assert json_path_from_args([]) is None
        assert json_path_from_args(["--quick"]) is None

    def test_separate_flag_value(self):
        assert json_path_from_args(["--quick", "--json", "out.json"]) == "out.json"

    def test_equals_form(self):
        assert json_path_from_args(["--json=out/"]) == "out/"

    def test_flag_without_path_is_an_error(self):
        with pytest.raises(SystemExit, match="requires a PATH"):
            json_path_from_args(["--json"])

    def test_env_var_used_without_flag(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_JSON", "env.json")
        assert json_path_from_args([]) == "env.json"

    def test_flag_wins_over_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_JSON", "env.json")
        assert json_path_from_args(["--json", "flag.json"]) == "flag.json"

    def test_empty_env_var_is_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_JSON", "")
        assert json_path_from_args([]) is None


class TestWriteBenchJson:
    ENTRIES = [{"op": "ingest_batch", "records_per_s": 1000.0, "shards": 2}]

    def test_document_shape(self, tmp_path):
        target = write_bench_json(
            tmp_path / "run.json", "demo", "small", self.ENTRIES
        )
        assert target == tmp_path / "run.json"
        doc = json.loads(target.read_text())
        assert doc["bench"] == "demo"
        assert doc["scale"] == "small"
        assert doc["entries"] == self.ENTRIES
        assert doc["machine_score"] > 0
        assert doc["created_utc"].endswith("+00:00")
        assert doc["peak_rss_mb"] is None or doc["peak_rss_mb"] > 0

    def test_directory_target_gets_canonical_name(self, tmp_path):
        target = write_bench_json(tmp_path, "demo", "small", self.ENTRIES)
        assert target == tmp_path / "BENCH_demo.json"
        assert target.exists()

    def test_trailing_separator_creates_the_directory(self, tmp_path):
        out = str(tmp_path / "new") + os.sep
        target = write_bench_json(out, "demo", "small", self.ENTRIES)
        assert target == tmp_path / "new" / "BENCH_demo.json"
        assert target.exists()

    def test_extra_keys_merge_into_the_document(self, tmp_path):
        target = write_bench_json(
            tmp_path / "run.json",
            "demo",
            "small",
            self.ENTRIES,
            extra={"workers": 2},
        )
        assert json.loads(target.read_text())["workers"] == 2

    def test_entries_are_copied(self, tmp_path):
        entry = {"op": "query"}
        write_bench_json(tmp_path / "run.json", "demo", "small", [entry])
        assert entry == {"op": "query"}


class TestMachineProbes:
    def test_machine_score_is_positive(self):
        assert machine_score(budget_s=0.01) > 0

    def test_peak_rss_is_positive(self):
        rss = peak_rss_mb()
        assert rss is None or rss > 0
