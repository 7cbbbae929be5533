"""Tests for sibling queries and sibling-deviation analysis."""

from __future__ import annotations

import math

import pytest

from repro.cube.hierarchy import FanoutHierarchy
from repro.cube.layers import CriticalLayers
from repro.cube.schema import CubeSchema, Dimension
from repro.cubing.mo_cubing import mo_cubing
from repro.cubing.policy import GlobalSlopeThreshold
from repro.errors import QueryError
from repro.query import Q, execute
from repro.regression.isb import ISB


@pytest.fixture
def result():
    schema = CubeSchema(
        [
            Dimension("a", FanoutHierarchy("a", 2, 2)),
            Dimension("b", FanoutHierarchy("b", 2, 2)),
        ]
    )
    layers = CriticalLayers(schema, (2, 2), (1, 1))
    # Leaves 0 and 1 share parent 0 on dim a; leaf (0,0) trends alone.
    cells = {
        (0, 0): ISB(0, 9, 1.0, 2.0),
        (1, 0): ISB(0, 9, 1.0, 0.1),
        (2, 0): ISB(0, 9, 1.0, 0.1),  # parent 1: not a sibling of 0/1
        (0, 1): ISB(0, 9, 1.0, 0.2),
    }
    return mo_cubing(layers, cells, GlobalSlopeThreshold(0.5))


def siblings(result, coord, values, dim):
    return execute(result, Q.siblings(coord, values, dim)).value


def deviation(result, coord, values, dim):
    return execute(result, Q.sibling_deviation(coord, values, dim)).value


class TestSiblings:
    def test_siblings_share_parent_and_other_dims(self, result):
        sibs = siblings(result, (2, 2), (0, 0), "a")
        # Only (1, 0) qualifies: same b value, same a-parent (0).
        assert set(sibs) == {(1, 0)}

    def test_cell_itself_excluded(self, result):
        sibs = siblings(result, (2, 2), (0, 0), "a")
        assert (0, 0) not in sibs

    def test_different_parent_excluded(self, result):
        sibs = siblings(result, (2, 2), (0, 0), "a")
        assert (2, 0) not in sibs

    def test_other_dim_must_match(self, result):
        sibs = siblings(result, (2, 2), (0, 0), "a")
        assert (0, 1) not in sibs

    def test_star_dimension_rejected(self, result):
        # Build an o-layer at '*' for dim a to exercise the guard.
        star_layers = CriticalLayers(result.layers.schema, (2, 2), (0, 1))
        star = mo_cubing(
            star_layers,
            dict(result.m_layer.items()),
            GlobalSlopeThreshold(0.5),
        )
        with pytest.raises(QueryError):
            siblings(star, star_layers.o_coord, ("*", 0), "a")

    def test_no_siblings_empty(self, result):
        # (2, 0) has a-parent 1, whose only other child is 3 — absent.
        sibs = siblings(result, (2, 2), (2, 0), "a")
        assert sibs == {}


class TestSiblingDeviation:
    def test_lone_trender_deviates(self, result):
        got = deviation(result, (2, 2), (0, 0), "a")
        assert math.isclose(got, 2.0 - 0.1, rel_tol=1e-9)

    def test_symmetric_view_from_the_flat_sibling(self, result):
        got = deviation(result, (2, 2), (1, 0), "a")
        assert math.isclose(got, 0.1 - 2.0, rel_tol=1e-9)

    def test_no_siblings_raises(self, result):
        with pytest.raises(QueryError):
            deviation(result, (2, 2), (2, 0), "a")
