"""QuerySpec plans: builder fluency, canonical identity, JSON codecs."""

from __future__ import annotations

import pytest

from repro.errors import HierarchyError, QueryError, SchemaError
from repro.io import batch_from_dict, batch_to_dict, spec_from_dict, spec_to_dict
from repro.query.spec import (
    BatchQuery,
    Q,
    QuerySpec,
    SliceSpec,
    TopSlopesSpec,
)
from repro.stream.generator import DatasetSpec


@pytest.fixture(scope="module")
def schema():
    return DatasetSpec(2, 2, 3, 1).build_layers().schema


def every_op_specs():
    """One representative spec per operation (the full family)."""
    return [
        Q.cell((1, 1), (0, 0)),
        Q.slice((1, 2), {"d0": 0}),
        Q.roll_up((2, 2), (3, 3), "d0"),
        Q.drill_down((1, 1), (0, 0), "d1"),
        Q.siblings((2, 2), (3, 3), "d0"),
        Q.sibling_deviation((2, 2), (3, 3), "d1"),
        Q.top_slopes((1, 1), k=7),
        Q.observation_deck(),
        Q.watch_list(window=6),
    ]


class TestBuilder:
    def test_fluent_equals_kwargs(self):
        fluent = Q.cell().at((1, 1)).of(0, 0).window(8)
        direct = Q.cell((1, 1), (0, 0), window=8)
        assert fluent == direct
        assert fluent.cache_key() == direct.cache_key()

    def test_steps_return_new_frozen_specs(self):
        base = Q.cell((1, 1), (0, 0))
        windowed = base.window(8)
        assert base.window_quarters is None
        assert windowed.window_quarters == 8
        with pytest.raises(Exception):
            base.coord = (2, 2)  # frozen

    def test_normalization_makes_equal_plans_equal(self):
        assert Q.cell([1, 1], [0, 0]) == Q.cell((1, 1), (0, 0))
        a = Q.slice((1, 1), {"d0": 0, "d1": 2})
        b = Q.slice((1, 1)).where(d1=2, d0=0)
        assert a == b
        assert a.cache_key() == b.cache_key()

    def test_of_accepts_tuple_or_varargs(self):
        assert Q.cell((1, 1)).of(0, 3) == Q.cell((1, 1)).of((0, 3))

    def test_chained_where_accumulates_constraints(self):
        chained = Q.slice((1, 1)).where(d0=3).where(d1=4)
        assert chained == Q.slice((1, 1), {"d0": 3, "d1": 4})
        # A later call overrides the same dimension, never drops others.
        assert Q.slice((1, 1)).where(d0=3).where(d0=5) == (
            Q.slice((1, 1), {"d0": 5})
        )

    def test_field_guard_on_foreign_fluent_step(self):
        with pytest.raises(QueryError):
            Q.watch_list().at((1, 1))
        with pytest.raises(QueryError):
            Q.cell((1, 1), (0, 0)).top(3)

    def test_window_and_k_validated_at_construction(self):
        with pytest.raises(QueryError):
            Q.cell((1, 1), (0, 0), window=0)
        with pytest.raises(QueryError):
            Q.top_slopes((1, 1), k=0)
        with pytest.raises(QueryError):
            Q.top_slopes((1, 1), k="many")

    def test_garbage_fields_rejected(self):
        with pytest.raises(QueryError):
            Q.cell(coord="nope")
        with pytest.raises(QueryError):
            Q.cell((1, 1), values="nope")
        with pytest.raises(QueryError):
            Q.roll_up((1, 1), (0, 0), dim=3)
        with pytest.raises(QueryError):
            Q.slice((1, 1), fixed=[("d0",)])

    @pytest.mark.parametrize("coord", [7, 1.5, object()])
    def test_non_sequence_coord_rejected(self, coord):
        with pytest.raises(QueryError, match="coord must be a sequence"):
            Q.cell(coord, (0, 0))

    @pytest.mark.parametrize("values", [7, 1.5])
    def test_non_sequence_values_rejected(self, values):
        with pytest.raises(QueryError, match="values must be a sequence"):
            Q.cell((1, 1), values)

    def test_fixed_keys_must_be_dimension_names(self):
        with pytest.raises(QueryError, match="fixed keys must be dimension"):
            Q.slice((1, 1), {0: 0})

    def test_cache_key_distinguishes_plans(self):
        keys = {spec.cache_key() for spec in every_op_specs()}
        assert len(keys) == len(every_op_specs())
        assert Q.cell((1, 1), (0, 0)).cache_key() != (
            Q.cell((1, 1), (0, 0), window=2).cache_key()
        )


class TestResolve:
    def test_level_names_resolve_to_coordinates(self, schema):
        names = schema.describe_coord((1, 2))
        spec = Q.cell(tuple(names), (0, 0)).resolve(schema, require=False)
        assert spec.coord == (1, 2)

    def test_bound_builder_resolves_at_construction(self, schema):
        names = schema.describe_coord((2, 1))
        q = Q.bind(schema)
        assert q.cell(tuple(names), (0, 0)).coord == (2, 1)

    def test_bound_builder_validates_eagerly(self, schema):
        q = Q.bind(schema)
        with pytest.raises(SchemaError):
            q.cell((9, 9), (0, 0))
        with pytest.raises(SchemaError):
            q.roll_up((1, 1), (0, 0), "nope")
        with pytest.raises(HierarchyError):
            q.cell((2, 2), (99, 0))
        with pytest.raises(HierarchyError):
            q.cell(("not_a_level", "d11"), (0, 0))

    def test_required_fields_enforced_on_full_resolve(self, schema):
        with pytest.raises(QueryError):
            Q.cell().resolve(schema)
        with pytest.raises(QueryError):
            Q.roll_up((1, 1), (0, 0)).resolve(schema)
        # Partial resolve (the builder's eager mode) tolerates gaps.
        assert Q.cell().resolve(schema, require=False) == Q.cell()

    def test_coord_arity_checked(self, schema):
        with pytest.raises(QueryError, match="3 entries for 2 dimensions"):
            Q.cell((1, 1, 1), (0, 0, 0)).resolve(schema)

    def test_fixed_dimensions_checked(self, schema):
        with pytest.raises(SchemaError):
            Q.slice((1, 1), {"nope": 0}).resolve(schema)


class TestCodec:
    @pytest.mark.parametrize(
        "spec", every_op_specs(), ids=lambda s: s.op
    )
    def test_round_trip_every_op(self, spec):
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_round_trip_with_window_and_mixed_values(self):
        spec = Q.cell((1, 2), ("*", 3), window=8)
        payload = spec_to_dict(spec)
        assert payload == {
            "op": "cell",
            "coord": [1, 2],
            "values": ["*", 3],
            "window": 8,
        }
        assert spec_from_dict(payload) == spec

    def test_retired_point_alias_rejected(self):
        with pytest.raises(QueryError, match="unknown query op 'point'"):
            spec_from_dict({"op": "point", "coord": [1, 1], "values": [0, 0]})

    def test_unknown_op_rejected(self):
        with pytest.raises(QueryError):
            spec_from_dict({"op": "magic"})
        with pytest.raises(QueryError):
            spec_from_dict({"coord": [1, 1]})

    @pytest.mark.parametrize("payload", [["cell"], "cell", None])
    def test_query_must_be_an_object(self, payload):
        with pytest.raises(QueryError, match="must be a JSON object"):
            spec_from_dict(payload)

    def test_unknown_field_rejected(self):
        with pytest.raises(QueryError):
            spec_from_dict({"op": "cell", "coord": [1, 1], "valeus": [0, 0]})
        with pytest.raises(QueryError):
            spec_from_dict({"op": "watch_list", "coord": [1, 1]})


class TestBatch:
    def test_build_iterate_add(self):
        batch = Q.batch(Q.watch_list(), Q.top_slopes((1, 1)))
        assert len(batch) == 2
        batch = batch.add(Q.observation_deck())
        assert [spec.op for spec in batch] == [
            "watch_list",
            "top_slopes",
            "observation_deck",
        ]

    def test_only_specs_allowed(self):
        with pytest.raises(QueryError):
            BatchQuery(({"op": "watch_list"},))  # type: ignore[arg-type]

    def test_round_trip(self):
        batch = Q.batch(*every_op_specs())
        assert batch_from_dict(batch_to_dict(batch)) == batch

    def test_decode_requires_queries_list(self):
        with pytest.raises(QueryError):
            batch_from_dict({"queries": "nope"})

    def test_cache_key_covers_members_in_order(self):
        a = Q.batch(Q.watch_list(), Q.observation_deck())
        b = Q.batch(Q.observation_deck(), Q.watch_list())
        assert a.cache_key() != b.cache_key()


class TestFamily:
    def test_every_view_operation_has_a_spec(self):
        ops = {spec.op for spec in every_op_specs()}
        assert ops == {
            "cell",
            "slice",
            "roll_up",
            "drill_down",
            "siblings",
            "sibling_deviation",
            "top_slopes",
            "observation_deck",
            "watch_list",
        }

    def test_specs_are_hashable(self):
        assert len({spec for spec in every_op_specs()}) == len(every_op_specs())

    def test_defaults(self):
        assert TopSlopesSpec().k == 5
        assert SliceSpec().fixed is None
        assert isinstance(Q.slice((1, 1)), QuerySpec)
