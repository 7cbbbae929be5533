"""The execution engine: ``execute(result, spec)`` against the oracle.

Every observation-deck operation is a spec run over a cubing result: point
queries (materialized or rolled up on the fly from the m-layer), slices,
roll-ups, drill-downs, top slopes, the o-layer and its watch list.  The
answers must match a full materialization, specs round-trip through the
JSON codec, whole-cuboid scans serve from *complete* materialized cuboids
(popular-path cuboids included) without changing answers, and malformed
plans fail with the documented error types.
"""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cube.hierarchy import ALL
from repro.cube.lattice import PopularPath
from repro.cubing.full import full_materialization, intermediate_slopes
from repro.cubing.mo_cubing import mo_cubing
from repro.cubing.policy import GlobalSlopeThreshold, calibrate_threshold
from repro.cubing.popular_path import popular_path_cubing
from repro.errors import HierarchyError, QueryError, SchemaError
from repro.io import result_to_dict, spec_from_dict, spec_to_dict
from repro.query import Q, execute, execute_batch
from repro.regression.isb import ISB
from repro.stream.generator import DatasetSpec, generate_dataset
from tests.conftest import isb_close


@pytest.fixture(scope="module")
def setup():
    data = generate_dataset("D2L3C3T300", seed=8)
    oracle = full_materialization(data.layers, data.cells)
    tau = calibrate_threshold(intermediate_slopes(oracle), 0.1)
    policy = GlobalSlopeThreshold(tau)
    oracle = full_materialization(data.layers, data.cells, policy)
    mo = mo_cubing(data.layers, data.cells, policy)
    pp = popular_path_cubing(data.layers, data.cells, policy)
    return data, oracle, mo, pp


@pytest.fixture(params=["mo", "pp"])
def each(setup, request):
    """``(data, oracle, result)`` for the m/o and popular-path results."""
    data, oracle, mo, pp = setup
    return data, oracle, mo if request.param == "mo" else pp


def sample_cells(oracle, coord, n=3):
    return list(oracle.cuboids[coord].cells)[:n]


class TestEquivalenceWithOracle:
    def test_cell_sweep_every_cuboid(self, each):
        data, oracle, result = each
        for coord in data.layers.lattice.coords():
            for values in sample_cells(oracle, coord):
                spec = Q.cell(coord, values)
                got = execute(result, spec).value
                assert isb_close(got, oracle.cuboids[coord][values], tol=1e-7)
                # ... and the spec survives the wire.
                assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_unmaterialized_cell_rolled_up_on_the_fly(self, setup):
        data, oracle, result, _ = setup
        # A non-exception intermediate cell is absent from the m/o result
        # but recoverable by rolling up the m-layer (Theorem 3.2).
        for coord in data.layers.intermediate_coords:
            for values, isb in oracle.cuboids[coord].items():
                if values not in result.cuboids[coord]:
                    got = execute(result, Q.cell(coord, values)).value
                    assert isb_close(got, isb, tol=1e-7)
                    return
        pytest.skip("every intermediate cell was exceptional")

    def test_cell_addressed_by_level_names(self, each):
        data, oracle, result = each
        o = data.layers.o_coord
        names = data.layers.schema.describe_coord(o)
        for values, isb in oracle.o_layer.items():
            got = execute(result, Q.cell(names, values))
            assert got.spec.coord == o
            assert isb_close(got.value, isb, tol=1e-7)

    def test_slice_sweep_every_cuboid(self, each):
        data, oracle, result = each
        dim0 = data.layers.schema.names[0]
        for coord in data.layers.lattice.coords():
            anchor = next(iter(oracle.cuboids[coord].cells))
            expected = {
                v: isb
                for v, isb in oracle.cuboids[coord].items()
                if v[0] == anchor[0]
            }
            got = execute(result, Q.slice(coord, {dim0: anchor[0]})).value
            assert set(got) == set(expected)
            for v, isb in got.items():
                assert isb_close(isb, expected[v], tol=1e-7)

    def test_top_slopes_sweep_every_cuboid(self, each):
        data, oracle, result = each
        for coord in data.layers.lattice.coords():
            steepest = max(
                abs(isb.slope) for isb in oracle.cuboids[coord].cells.values()
            )
            ranked = execute(result, Q.top_slopes(coord, k=3)).value
            slopes = [abs(isb.slope) for _, isb in ranked]
            assert len(ranked) <= 3
            assert slopes == sorted(slopes, reverse=True)
            assert math.isclose(slopes[0], steepest, rel_tol=1e-7)

    def test_roll_up_step(self, each):
        data, oracle, result = each
        m = data.layers.m_coord
        dim0 = data.layers.schema.names[0]
        for values in sample_cells(oracle, m):
            coord, parent, isb = execute(result, Q.roll_up(m, values, dim0)).value
            assert coord == (m[0] - 1,) + m[1:]
            assert isb_close(isb, oracle.cuboids[coord][parent], tol=1e-7)

    def test_drill_down_children_partition_parent(self, each):
        data, oracle, result = each
        o = data.layers.o_coord
        dim0 = data.layers.schema.names[0]
        child = (o[0] + 1,) + o[1:]
        for values, isb in oracle.o_layer.items():
            children = execute(result, Q.drill_down(o, values, dim0)).value
            assert all(v[1:] == values[1:] for v in children)
            for v, got in children.items():
                assert isb_close(got, oracle.cuboids[child][v], tol=1e-7)
            if children:
                base = math.fsum(c.base for c in children.values())
                slope = math.fsum(c.slope for c in children.values())
                assert math.isclose(base, isb.base, rel_tol=1e-6)
                assert math.isclose(slope, isb.slope, rel_tol=1e-6, abs_tol=1e-9)

    def test_sibling_deviation_matches_oracle(self, each):
        data, oracle, result = each
        m = data.layers.m_coord
        dim0 = data.layers.schema.names[0]
        for cell in sample_cells(oracle, m, n=20):
            siblings = execute(result, Q.siblings(m, cell, dim0)).value
            if not siblings:
                continue
            got = execute(result, Q.sibling_deviation(m, cell, dim0)).value
            mean = sum(oracle.m_layer[v].slope for v in siblings) / len(siblings)
            expected = oracle.m_layer[cell].slope - mean
            assert math.isclose(got, expected, rel_tol=1e-9, abs_tol=1e-12)
            return
        pytest.skip("no cell with siblings in the sample")

    def test_observation_deck_and_watch_list(self, each):
        data, oracle, result = each
        o = data.layers.o_coord
        deck = execute(result, Q.observation_deck()).value
        watch = execute(result, Q.watch_list()).value
        assert set(deck) == set(oracle.o_layer.cells)
        assert watch == {
            v: isb
            for v, isb in deck.items()
            if result.policy.is_exception(isb, o)
        }

    @settings(max_examples=40, deadline=None)
    @given(data_=st.data())
    def test_property_cell_matches_oracle(self, setup, data_):
        data, oracle, mo, pp = setup
        coord = data_.draw(
            st.sampled_from(sorted(data.layers.lattice.coords()))
        )
        values = data_.draw(
            st.sampled_from(sorted(oracle.cuboids[coord].cells))
        )
        result = data_.draw(st.sampled_from([mo, pp]))
        spec = Q.cell(coord, values)
        got = execute(result, spec).value
        assert isb_close(got, oracle.cuboids[coord][values], tol=1e-7)
        assert spec_from_dict(spec_to_dict(spec)) == spec


def _empty_m_key(data, oracle):
    """A valid m-layer key with no supporting data."""
    m = data.layers.m_coord
    card = data.layers.schema.hierarchy(0).cardinality(m[0])
    for key in itertools.product(range(card), repeat=2):
        if key not in oracle.m_layer:
            return key
    pytest.skip("dataset saturates the m-layer key space")


def _any_o_cell(oracle):
    return next(iter(oracle.o_layer.cells))


def _any_m_cell(oracle):
    return next(iter(oracle.m_layer.cells))


#: (what is wrong, spec factory over (data, oracle), expected error).
ERROR_CASES = [
    (
        "cell without data",
        lambda d, o: Q.cell(d.layers.m_coord, _empty_m_key(d, o)),
        QueryError,
    ),
    (
        "values outside the hierarchy",
        lambda d, o: Q.cell(d.layers.o_coord, (99, 99)),
        HierarchyError,
    ),
    (
        "cuboid above the o-layer",
        lambda d, o: Q.cell((0, 0), (ALL, ALL)),
        SchemaError,
    ),
    (
        "unknown level name",
        lambda d, o: Q.cell(("not_a_level", "d11"), (0, 0)),
        HierarchyError,
    ),
    (
        "roll-up past the o-layer",
        lambda d, o: Q.roll_up(d.layers.o_coord, _any_o_cell(o), "d0"),
        QueryError,
    ),
    (
        "drill-down past the m-layer",
        lambda d, o: Q.drill_down(d.layers.m_coord, _any_m_cell(o), "d0"),
        QueryError,
    ),
    (
        "unknown dimension",
        lambda d, o: Q.siblings(d.layers.m_coord, _any_m_cell(o), "nope"),
        SchemaError,
    ),
    ("top_slopes k=0", lambda d, o: Q.top_slopes(d.layers.o_coord, k=0), QueryError),
    ("top_slopes k<0", lambda d, o: Q.top_slopes(d.layers.o_coord, k=-3), QueryError),
    ("unknown op", lambda d, o: {"op": "magic"}, QueryError),
    ("a batch", lambda d, o: Q.batch(Q.watch_list()), QueryError),
]


@pytest.mark.parametrize(
    "make_spec, error",
    [case[1:] for case in ERROR_CASES],
    ids=[case[0] for case in ERROR_CASES],
)
def test_malformed_plans_raise(setup, make_spec, error):
    data, oracle, mo, _ = setup
    with pytest.raises(error):
        execute(mo, make_spec(data, oracle))


class TestCompleteCuboidServing:
    """Whole-cuboid scans use materialized *complete* cuboids."""

    @pytest.fixture
    def poisoned(self):
        """A full materialization with a sentinel cell planted mid-lattice.

        The sentinel is not derivable from the m-layer, so any answer
        containing it *must* have been served from the materialized cuboid.
        """
        layers = DatasetSpec(2, 2, 3, 1).build_layers()
        cells = {
            (i, j): ISB(0, 3, 1.0, 0.01 * (i + 1)) for i in range(9) for j in range(9)
        }
        result = full_materialization(layers, cells, GlobalSlopeThreshold(1.0))
        mid = layers.intermediate_coords[0]
        sentinel_key = next(iter(result.cuboids[mid].cells))
        sentinel = ISB(0, 3, 123.0, 9.0)
        result.cuboids[mid].cells[sentinel_key] = sentinel
        return result, mid, sentinel_key, sentinel

    def test_slice_serves_from_complete_cuboid(self, poisoned):
        result, mid, key, sentinel = poisoned
        assert execute(result, Q.slice(mid, {})).value[key] == sentinel

    def test_top_slopes_serves_from_complete_cuboid(self, poisoned):
        result, mid, key, sentinel = poisoned
        assert execute(result, Q.top_slopes(mid, k=1)).value == [(key, sentinel)]

    def test_partial_cuboids_fall_back_to_m_layer(self, poisoned):
        result, mid, key, sentinel = poisoned
        result.complete_coords = frozenset()  # demote: nothing complete
        assert execute(result, Q.slice(mid, {})).value[key] != sentinel
        assert execute(result, Q.top_slopes(mid, k=1)).value[0][1] != sentinel

    def test_popular_path_marks_exactly_the_path(self, setup):
        data, _, _, pp = setup
        path = PopularPath.default(data.layers.lattice)
        for coord in data.layers.lattice.coords():
            assert pp.is_complete(coord) == (
                coord in path.coords
                or coord in (data.layers.m_coord, data.layers.o_coord)
            )


class TestTopSlopesRobustness:
    def test_empty_cube(self):
        layers = DatasetSpec(2, 2, 3, 1).build_layers()
        result = mo_cubing(layers, {}, GlobalSlopeThreshold(0.1))
        for coord in (layers.o_coord, layers.intermediate_coords[0]):
            assert execute(result, Q.top_slopes(coord, k=5)).value == []


class TestBatchesAndEnvelopes:
    def test_batch_reports_results_and_errors_in_order(self, setup):
        data, _, mo, _ = setup
        o = data.layers.o_coord
        items = execute_batch(
            mo,
            Q.batch(
                Q.watch_list(),
                Q.cell((9, 9), (0, 0)),  # invalid: out of schema range
                Q.top_slopes(o, k=2),
            ),
        )
        assert [item.ok for item in items] == [True, False, True]
        assert items[0].result.value == mo.o_layer_exceptions()
        assert items[1].error_type == "SchemaError"
        assert items[1].error
        assert items[2].result.value == execute(mo, Q.top_slopes(o, 2)).value

    def test_batch_accepts_wire_dicts(self, setup):
        _, _, mo, _ = setup
        items = execute_batch(mo, [{"op": "watch_list"}, {"op": "magic"}])
        assert items[0].ok and not items[1].ok
        assert items[1].error_type == "QueryError"

    def test_execute_accepts_wire_dict(self, setup):
        _, _, mo, _ = setup
        got = execute(mo, {"op": "observation_deck"}).value
        assert got == execute(mo, Q.observation_deck()).value

    def test_result_envelope_shapes(self, setup):
        data, _, mo, _ = setup
        m, o = data.layers.m_coord, data.layers.o_coord
        cell = next(iter(mo.m_layer.cells))
        dim0 = data.layers.schema.names[0]
        payload = result_to_dict(execute(mo, Q.cell(m, cell)))
        assert payload["op"] == "cell" and set(payload["isb"]) == {
            "t_b", "t_e", "base", "slope",
        }
        payload = result_to_dict(execute(mo, Q.roll_up(m, cell, dim0)))
        assert set(payload) == {"op", "coord", "values", "isb"}
        payload = result_to_dict(execute(mo, Q.top_slopes(o, k=2)))
        assert payload["op"] == "top_slopes"
        assert all(set(row) == {"values", "isb"} for row in payload["cells"])
        payload = result_to_dict(execute(mo, Q.watch_list()))
        assert isinstance(payload["cells"], list)
