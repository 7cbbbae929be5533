"""A materialized cuboid: cells of one lattice coordinate with ISB measures.

:class:`Cuboid` is the in-memory carrier the cubing algorithms produce and
consume: a mapping from cell value tuples to measures, tagged with its
coordinate.  Aggregation between cuboids (roll-up over standard dimensions
via Theorem 3.2) lives here because it is shared by every algorithm.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterator, Mapping

from repro.cube.cell import roll_up_values
from repro.cube.schema import CubeSchema
from repro.errors import QueryError, SchemaError
from repro.regression.aggregation import merge_standard
from repro.regression.isb import ISB
from repro.regression.kernels import merge_groups

__all__ = ["Cuboid"]

Values = tuple[Hashable, ...]
Coord = tuple[int, ...]


class Cuboid:
    """Cells of one cuboid coordinate, keyed by value tuple."""

    __slots__ = ("schema", "coord", "cells")

    def __init__(
        self,
        schema: CubeSchema,
        coord: Coord,
        cells: Mapping[Values, ISB] | None = None,
    ) -> None:
        self.schema = schema
        self.coord = schema.validate_coord(coord)
        self.cells: dict[Values, ISB] = dict(cells) if cells else {}

    # ------------------------------------------------------------------
    # Mapping-ish interface
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self) -> Iterator[Values]:
        return iter(self.cells)

    def __contains__(self, values: Values) -> bool:
        return tuple(values) in self.cells

    def __getitem__(self, values: Values) -> ISB:
        try:
            return self.cells[tuple(values)]
        except KeyError:
            raise QueryError(
                f"no cell {tuple(values)} in cuboid {self.coord}"
            ) from None

    def get(self, values: Values) -> ISB | None:
        return self.cells.get(tuple(values))

    def items(self) -> Iterator[tuple[Values, ISB]]:
        return iter(self.cells.items())

    # ------------------------------------------------------------------
    # Aggregation (Theorem 3.2 across cells)
    # ------------------------------------------------------------------
    def roll_up(self, to_coord: Coord) -> "Cuboid":
        """Aggregate this cuboid to a coarser coordinate.

        Every cell's values are rolled up through the concept hierarchies and
        cells mapping to the same ancestor are merged with Theorem 3.2.
        """
        to_coord = self.schema.validate_coord(to_coord)
        for i, (f, t) in enumerate(zip(self.coord, to_coord)):
            if t > f:
                raise SchemaError(
                    f"dimension {self.schema.dimensions[i].name!r}: cannot "
                    f"roll up cuboid level {f} to finer level {t}"
                )
        mappers = [
            dim.hierarchy.ancestor_mapper(f, t)
            for dim, f, t in zip(self.schema.dimensions, self.coord, to_coord)
        ]
        groups: dict[Values, list[ISB]] = {}
        for values, isb in self.cells.items():
            key = tuple(m(v) for m, v in zip(mappers, values))
            groups.setdefault(key, []).append(isb)
        out = Cuboid(self.schema, to_coord)
        # Theorem 3.2 for every group in one columnar kernel call (tiny
        # batches stay on per-group merge_standard).
        out.cells = merge_groups(groups)
        return out

    def roll_up_cell(self, to_coord: Coord, target_values: Values) -> ISB | None:
        """Aggregate only the cells that roll up to ``target_values``.

        Used by popular-path drilling, which materializes individual cells of
        a coarser cuboid on demand rather than the whole cuboid.  Returns
        ``None`` when no source cell contributes.
        """
        to_coord = self.schema.validate_coord(to_coord)
        target = tuple(target_values)
        parts = [
            isb
            for values, isb in self.cells.items()
            if roll_up_values(self.schema, values, self.coord, to_coord) == target
        ]
        if not parts:
            return None
        return merge_standard(parts)

    def filtered(self, predicate: Callable[[Values, ISB], bool]) -> "Cuboid":
        """A new cuboid keeping only cells satisfying ``predicate``."""
        out = Cuboid(self.schema, self.coord)
        out.cells = {
            values: isb
            for values, isb in self.cells.items()
            if predicate(values, isb)
        }
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Cuboid({self.coord}, cells={len(self.cells)})"
