"""Package-level contracts: the error hierarchy and the public API surface."""

from __future__ import annotations

import pytest

import repro
from repro import errors


class TestErrorHierarchy:
    def test_all_domain_errors_derive_from_repro_error(self):
        for name in errors.__all__:
            exc = getattr(errors, name)
            assert issubclass(exc, errors.ReproError)

    def test_repro_error_is_exception(self):
        assert issubclass(errors.ReproError, Exception)

    def test_catching_the_base_catches_subsystem_errors(self):
        with pytest.raises(errors.ReproError):
            raise errors.TiltFrameError("x")
        with pytest.raises(errors.ReproError):
            raise errors.CubingError("x")

    def test_distinct_subsystem_errors_are_siblings(self):
        assert not issubclass(errors.CubingError, errors.TiltFrameError)
        assert not issubclass(errors.StreamError, errors.QueryError)


class TestPublicAPI:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version_string(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(p.isdigit() for p in parts)

    def test_key_entry_points_present(self):
        for name in (
            "ISB",
            "merge_standard",
            "merge_time",
            "mo_cubing",
            "popular_path_cubing",
            "buc_cubing",
            "multiway_cubing",
            "TiltTimeFrame",
            "StreamCubeEngine",
            "execute",
            "ExceptionDriller",
        ):
            assert name in repro.__all__


class TestMainModule:
    def test_demo_runs_and_validates_captions(self, capsys):
        from repro.__main__ import main

        assert main() == 0
        out = capsys.readouterr().out
        assert "Theorem 3.2 vs Fig 2 caption: OK" in out
        assert "Theorem 3.3 vs Fig 3 caption: OK" in out
        assert "footnote 7" in out
