"""The single query execution engine: ``execute(result, spec) -> QueryResult``.

The observation-deck operations of Sections 4.2-4.3 — point, slice, roll-up,
drill-down, siblings, top slopes, the o-layer and its watch list — run
directly over a :class:`~repro.cubing.result.CubeResult`.  Every surface
(library callers, the cached :class:`~repro.service.router.QueryRouter`, the
HTTP service) funnels through :func:`execute`: the spec is resolved against
the result's schema, dispatched to the one implementation of its operation,
and the answer is wrapped in a typed :class:`QueryResult` envelope that
knows its wire encoding.  :func:`execute_batch` runs many specs against one
result and reports per-spec results *and* errors, so one bad plan never
sinks a batch.

Cuboid scans go through :func:`_cuboid_cells`, which serves from a
*complete* materialized cuboid when the cubing result has one (m/o layers,
popular-path cuboids, full materialization) and falls back to an exact
Theorem 3.2 roll-up of the m-layer otherwise; a point query on a cell that
was not materialized is aggregated from the m-layer the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable, Mapping

from repro.cube.cell import roll_up_values
from repro.cubing.result import CubeResult
from repro.errors import QueryError, ReproError
from repro.io import cells_to_payload, isb_to_dict
from repro.query.spec import BatchQuery, QuerySpec, spec_from_dict
from repro.regression.isb import ISB

__all__ = ["QueryResult", "BatchItem", "execute", "execute_batch"]

Values = tuple[Hashable, ...]
Coord = tuple[int, ...]


# ----------------------------------------------------------------------
# Result envelopes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class QueryResult:
    """A typed result envelope: the resolved spec plus its answer.

    ``value`` is the operation's native Python answer (an :class:`ISB`, a
    cell mapping, a ranked list, a roll-up triple, or a float);
    :meth:`to_dict` is the canonical wire encoding the HTTP layer returns.
    """

    spec: QuerySpec
    value: Any

    @property
    def op(self) -> str:
        return self.spec.op

    def to_dict(self) -> dict[str, Any]:
        return {"op": self.op, **_RESULT_ENCODERS[self.op](self.value)}


@dataclass(frozen=True)
class BatchItem:
    """One entry of a batch response: a result, or a per-spec error."""

    spec: QuerySpec | None
    result: QueryResult | None = None
    error: str | None = None
    error_type: str | None = None

    @property
    def ok(self) -> bool:
        return self.result is not None

    def to_dict(self) -> dict[str, Any]:
        if self.result is not None:
            return {"ok": True, **self.result.to_dict()}
        return {"ok": False, "error": self.error, "type": self.error_type}


# ----------------------------------------------------------------------
# Operation implementations
# ----------------------------------------------------------------------
def _cuboid_cells(result: CubeResult, coord: Coord) -> Iterable[tuple[Values, ISB]]:
    """The cells of one cuboid, from the cheapest exact source.

    A *complete* materialized cuboid (m/o layer, popular-path cuboid, full
    materialization) is served directly; partial cuboids (retained exception
    cells only) and absent ones are re-aggregated from the m-layer, which is
    exact by Theorem 3.2.
    """
    cuboid = result.complete_cuboid(coord)
    if cuboid is not None:
        return cuboid.items()
    return result.m_layer.roll_up(coord).items()


def _cell(result: CubeResult, spec: QuerySpec) -> ISB:
    c = result.layers.lattice.require(spec.coord)
    vals = tuple(spec.values)
    cuboid = result.cuboids.get(c)
    if cuboid is not None:
        isb = cuboid.get(vals)
        if isb is not None:
            return isb
    isb = result.m_layer.roll_up_cell(c, vals)
    if isb is None:
        raise QueryError(f"cell {vals} at {c} has no supporting data")
    return isb


def _slice(result: CubeResult, spec: QuerySpec) -> dict[Values, ISB]:
    c = result.layers.lattice.require(spec.coord)
    schema = result.layers.schema
    fixed_idx = {
        schema.dim_index(name): value for name, value in (spec.fixed or ())
    }
    return {
        values: isb
        for values, isb in _cuboid_cells(result, c)
        if all(values[i] == v for i, v in fixed_idx.items())
    }


def _roll_up(result: CubeResult, spec: QuerySpec) -> tuple[Coord, Values, ISB]:
    layers = result.layers
    c = layers.lattice.require(spec.coord)
    d = layers.schema.dim_index(spec.dim)
    if c[d] - 1 < layers.o_coord[d]:
        raise QueryError(
            f"dimension {spec.dim!r} is already at the o-layer level in {c}"
        )
    parent_coord = c[:d] + (c[d] - 1,) + c[d + 1 :]
    parent_values = roll_up_values(
        layers.schema, tuple(spec.values), c, parent_coord
    )
    parent = _cell(result, spec._with(coord=parent_coord, values=parent_values))
    return parent_coord, parent_values, parent


def _drill_down(result: CubeResult, spec: QuerySpec) -> dict[Values, ISB]:
    layers = result.layers
    c = layers.lattice.require(spec.coord)
    vals = tuple(spec.values)
    d = layers.schema.dim_index(spec.dim)
    if c[d] + 1 > layers.m_coord[d]:
        raise QueryError(
            f"dimension {spec.dim!r} is already at the m-layer level in {c}"
        )
    child_coord = c[:d] + (c[d] + 1,) + c[d + 1 :]
    out: dict[Values, ISB] = {}
    for child_values, isb in _cuboid_cells(result, child_coord):
        if roll_up_values(layers.schema, child_values, child_coord, c) == vals:
            out[child_values] = isb
    return out


def _siblings(result: CubeResult, spec: QuerySpec) -> dict[Values, ISB]:
    schema = result.layers.schema
    c = result.layers.lattice.require(spec.coord)
    vals = tuple(spec.values)
    d = schema.dim_index(spec.dim)
    level = c[d]
    if level == 0:
        raise QueryError(
            f"dimension {spec.dim!r} is '*' in cuboid {c}; a '*' value has "
            "no siblings"
        )
    hier = schema.dimensions[d].hierarchy
    parent = hier.parent(vals[d], level)
    out: dict[Values, ISB] = {}
    for cell_values, isb in _cuboid_cells(result, c):
        if cell_values == vals:
            continue
        if any(
            i != d and v != w
            for i, (v, w) in enumerate(zip(cell_values, vals))
        ):
            continue
        if hier.parent(cell_values[d], level) == parent:
            out[cell_values] = isb
    return out


def _sibling_deviation(result: CubeResult, spec: QuerySpec) -> float:
    cell_isb = _cell(result, spec)
    brothers = _siblings(result, spec)
    if not brothers:
        raise QueryError(
            f"cell {tuple(spec.values)} has no siblings along {spec.dim!r}"
        )
    mean_slope = sum(i.slope for i in brothers.values()) / len(brothers)
    return cell_isb.slope - mean_slope


def _top_slopes(result: CubeResult, spec: QuerySpec) -> list[tuple[Values, ISB]]:
    c = result.layers.lattice.require(spec.coord)
    ranked = sorted(_cuboid_cells(result, c), key=lambda kv: -abs(kv[1].slope))
    return ranked[: spec.k]


def _observation_deck(result: CubeResult, spec: QuerySpec) -> dict[Values, ISB]:
    return dict(result.o_layer.items())


def _watch_list(result: CubeResult, spec: QuerySpec) -> dict[Values, ISB]:
    return result.o_layer_exceptions()


_IMPLS: dict[str, Callable[[CubeResult, QuerySpec], Any]] = {
    "cell": _cell,
    "slice": _slice,
    "roll_up": _roll_up,
    "drill_down": _drill_down,
    "siblings": _siblings,
    "sibling_deviation": _sibling_deviation,
    "top_slopes": _top_slopes,
    "observation_deck": _observation_deck,
    "watch_list": _watch_list,
}


# ----------------------------------------------------------------------
# Result encoders (wire form per operation)
# ----------------------------------------------------------------------
def _encode_isb(value: ISB) -> dict[str, Any]:
    return {"isb": isb_to_dict(value)}


def _encode_cells(value: Mapping[Values, ISB]) -> dict[str, Any]:
    return {"cells": cells_to_payload(value)}


def _encode_roll_up(value: tuple[Coord, Values, ISB]) -> dict[str, Any]:
    coord, values, isb = value
    return {"coord": list(coord), "values": list(values), "isb": isb_to_dict(isb)}


def _encode_ranked(value: list[tuple[Values, ISB]]) -> dict[str, Any]:
    return {
        "cells": [
            {"values": list(values), "isb": isb_to_dict(isb)}
            for values, isb in value
        ]
    }


def _encode_deviation(value: float) -> dict[str, Any]:
    return {"deviation": value}


_RESULT_ENCODERS: dict[str, Callable[[Any], dict[str, Any]]] = {
    "cell": _encode_isb,
    "slice": _encode_cells,
    "roll_up": _encode_roll_up,
    "drill_down": _encode_cells,
    "siblings": _encode_cells,
    "sibling_deviation": _encode_deviation,
    "top_slopes": _encode_ranked,
    "observation_deck": _encode_cells,
    "watch_list": _encode_cells,
}


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
def execute(
    result: CubeResult,
    spec: QuerySpec | Mapping[str, Any],
    *,
    pre_resolved: bool = False,
) -> QueryResult:
    """Run one spec against a result; the sole dispatch point of the library.

    Accepts a :class:`~repro.query.spec.QuerySpec` or its wire ``dict``
    form.  The spec is resolved (names to indices, schema validation) before
    dispatch, so every surface gets identical validation and identical
    errors.  Callers that already resolved the spec against this result's
    schema (the router does, to build its cache key) pass
    ``pre_resolved=True`` to skip the second resolution.
    """
    if isinstance(spec, BatchQuery):
        raise QueryError("a BatchQuery must go through execute_batch")
    if isinstance(spec, Mapping):
        spec = spec_from_dict(spec)
    resolved = spec if pre_resolved else spec.resolve(result.layers.schema)
    impl = _IMPLS.get(resolved.op)
    if impl is None:  # pragma: no cover - registry and impls move together
        raise QueryError(f"no executor registered for op {resolved.op!r}")
    return QueryResult(resolved, impl(result, resolved))


def run_batch(
    entries: Iterable[QuerySpec | Mapping[str, Any]],
    executor: Callable[[QuerySpec], QueryResult],
) -> list[BatchItem]:
    """Decode and run batch entries, collecting per-entry outcomes.

    The shared loop behind :func:`execute_batch` and the router's cached
    batch path: each entry (a spec or its wire form) yields one
    :class:`BatchItem` in order; a domain error in one entry is recorded on
    that item and the rest of the batch still runs.
    """
    items: list[BatchItem] = []
    for entry in entries:
        spec = entry if isinstance(entry, QuerySpec) else None
        try:
            if spec is None:
                spec = spec_from_dict(entry)
            items.append(BatchItem(spec=spec, result=executor(spec)))
        except ReproError as exc:
            items.append(
                BatchItem(
                    spec=spec, error=str(exc), error_type=type(exc).__name__
                )
            )
    return items


def execute_batch(
    result: CubeResult,
    batch: BatchQuery | Iterable[QuerySpec | Mapping[str, Any]],
) -> list[BatchItem]:
    """Run many specs against one result, collecting per-spec outcomes."""
    entries = batch.specs if isinstance(batch, BatchQuery) else tuple(batch)
    return run_batch(entries, lambda spec: execute(result, spec))
