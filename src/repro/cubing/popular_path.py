"""Algorithm 2: popular-path cubing (paper Section 4.4).

Materialize only the cuboids along a popular drilling path (they live in the
H-tree's interior nodes after a bottom-up aggregation pass), then compute
exception cells *on demand*: starting at the o-layer, the children of every
exception cell of a computed cuboid are aggregated — by rolling up from the
closest computed path cuboid — and only those children that are themselves
exceptional are retained and drilled further, recursively down to the
m-layer (Framework 4.1, footnote 7).

Cost profile, matching the paper's analysis: at low exception rates almost
no off-path cuboid is touched (fast, but the path cells must be stored); at
high exception rates nearly every cuboid is drilled, and each drill scans a
path source without the cross-cuboid sharing m/o-cubing enjoys (slower).

Drilling is columnar where the schema allows it: integer (fanout)
hierarchies roll up and filter as packed int64 arrays with driver
membership via ``np.isin`` and one grouped Theorem 3.2 kernel per cuboid
(:class:`_ColumnarDrill`); other schemas use the scalar per-key loop.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping

import numpy as np

from repro.cube.cuboid import Cuboid
from repro.cube.lattice import PopularPath
from repro.cube.layers import CriticalLayers
from repro.cubing.build import build_path_htree
from repro.cubing.policy import ExceptionPolicy
from repro.cubing.result import CubeResult
from repro.cubing.stats import CubingStats, Stopwatch
from repro.errors import CubingError
from repro.htree.tree import HTree
from repro.regression import kernels
from repro.regression.isb import ISB
from repro.regression.kernels import merge_groups

__all__ = ["popular_path_cubing", "popular_path_cubing_from_tree"]

Values = tuple[Hashable, ...]
Coord = tuple[int, ...]


def popular_path_cubing(
    layers: CriticalLayers,
    m_cells: Mapping[Values, ISB] | Iterable[tuple[Values, ISB]],
    policy: ExceptionPolicy,
    path: PopularPath | None = None,
) -> CubeResult:
    """Run Algorithm 2 end to end: build the path-order H-tree, then cube.

    ``path`` defaults to :meth:`PopularPath.default` (drill dimensions in
    schema order).
    """
    if path is None:
        path = PopularPath.default(layers.lattice)
    _check_path(layers, path)
    items = m_cells.items() if isinstance(m_cells, Mapping) else m_cells
    tree = build_path_htree(layers, path, items)
    return popular_path_cubing_from_tree(layers, tree, policy, path)


def _check_path(layers: CriticalLayers, path: PopularPath) -> None:
    if path.m_coord != layers.m_coord or path.o_coord != layers.o_coord:
        raise CubingError(
            f"path runs {path.m_coord}->{path.o_coord} but the layers are "
            f"m={layers.m_coord}, o={layers.o_coord}"
        )


def _extract_path_cells(
    tree: HTree, layers: CriticalLayers, path: PopularPath
) -> dict[Coord, dict[Values, ISB]]:
    """Read every path cuboid out of the aggregated tree in one DFS.

    In path attribute order, the node at depth ``n_o_attrs + j`` *is* a cell
    of the ``j``-th path cuboid (counted o-layer-first); its cell key per
    dimension is the prefix value at that dimension's level attribute, or
    ``*`` where the cuboid's level is 0.
    """
    from repro.cube.hierarchy import ALL

    n_o_attrs = sum(layers.o_coord)
    o_first = list(reversed(path.coords))
    plans: dict[int, tuple[Coord, tuple[int | None, ...]]] = {}
    for j, coord in enumerate(o_first):
        plan = tuple(
            None if level == 0 else tree.attr_position(d, level)
            for d, level in enumerate(coord)
        )
        plans[n_o_attrs + j] = (coord, plan)
    out: dict[Coord, dict[Values, ISB]] = {coord: {} for coord in o_first}
    max_depth = max(plans) if plans else 0

    # Iterative pre-order DFS over (node, depth): when a node at depth d is
    # popped, prefix[0..d-2] still holds its ancestors' values (siblings
    # overwrite exactly slot d-1), so one shared buffer replaces recursion
    # frames on this node-count-sized hot path.  Subtrees below the deepest
    # plan depth are never entered.
    prefix: list = [None] * max_depth
    stack: list = [(tree.root, 0)]
    while stack:
        node, depth = stack.pop()
        if depth:
            prefix[depth - 1] = node.value
        entry = plans.get(depth)
        if entry is not None:
            coord, plan = entry
            key = tuple([ALL if p is None else prefix[p] for p in plan])
            out[coord][key] = node.isb
        if depth < max_depth:
            # Reversed push keeps the recursive visit order (and with it the
            # cuboids' cell insertion order) unchanged.
            for child in reversed(node.children.values()):
                stack.append((child, depth + 1))
    return out


class _ColumnarDrill:
    """Vectorized off-path drilling for integer (fanout) hierarchies.

    The synthetic ``DxLyCz`` cubes — and any schema built purely from
    :class:`~repro.cube.hierarchy.FanoutHierarchy` — encode values as
    integers with closed-form ancestors (``v // fanout**k``), so a drilled
    cuboid reduces to array arithmetic: pack each source cell's key into one
    int64, roll up with vectorized divisions, test driver membership with
    ``np.isin``, and merge the surviving groups with one
    :func:`~repro.regression.kernels.segment_merge` call.  No per-row Python
    at all; schemas with explicit (string) hierarchies use the scalar loop
    in :func:`popular_path_cubing_from_tree` instead.
    """

    def __init__(self, layers: CriticalLayers) -> None:
        from repro.cube.hierarchy import FanoutHierarchy

        self.usable = all(
            isinstance(dim.hierarchy, FanoutHierarchy)
            for dim in layers.schema.dimensions
        )
        if not self.usable:
            return
        self.fanouts = [
            dim.hierarchy.fanout for dim in layers.schema.dimensions
        ]
        self._sources: dict[Coord, tuple] = {}
        self._packed_drivers: dict[Coord, "object"] = {}

    def _source(self, src_coord: Coord, src: Mapping[Values, ISB]):
        cached = self._sources.get(src_coord)
        if cached is None:
            n = len(src)
            # Per-dimension columns; a level-0 dimension holds the ALL
            # sentinel (non-numeric) but is also never consulted, since any
            # roll-up target of it is level 0 too.
            columns = [
                np.fromiter(
                    (key[d] for key in src.keys()), dtype=np.int64, count=n
                )
                if level > 0
                else None
                for d, level in enumerate(src_coord)
            ]
            cols = kernels.ISBColumns.from_isbs(src.values())
            cached = (n, columns, cols)
            self._sources[src_coord] = cached
        return cached

    def _pack(self, values: Values, coord: Coord) -> int:
        packed = 0
        for d, level in enumerate(coord):
            if level > 0:
                packed = packed * self.fanouts[d] ** level + int(values[d])
        return packed

    def drill(
        self,
        src_coord: Coord,
        src: Mapping[Values, ISB],
        coord: Coord,
        active_parents: list,
        all_driven: bool,
    ) -> dict[Values, ISB] | None:
        """The drilled cuboid's cells, or ``None`` to use the scalar loop."""
        from repro.cube.hierarchy import ALL

        card = 1
        for d, level in enumerate(coord):
            if level > 0:
                card *= self.fanouts[d] ** level
        if card > 2**62 or not src:  # packing would overflow / nothing to do
            return None
        n, columns, cols = self._source(src_coord, src)

        mapped: list = [None] * len(coord)
        key_id = np.zeros(n, dtype=np.int64)
        for d, (f, t) in enumerate(zip(src_coord, coord)):
            if t == 0:
                continue
            column = columns[d]
            if t < f:
                column = column // self.fanouts[d] ** (f - t)
            mapped[d] = column
            key_id = key_id * self.fanouts[d] ** t + column

        if all_driven:
            mask = None
        else:
            mask = np.zeros(n, dtype=bool)
            for p_coord, p_drivers in active_parents:
                packed = self._packed_drivers.get(p_coord)
                if packed is None:
                    packed = np.fromiter(
                        (self._pack(k, p_coord) for k in p_drivers),
                        dtype=np.int64,
                        count=len(p_drivers),
                    )
                    self._packed_drivers[p_coord] = packed
                parent_id = np.zeros(n, dtype=np.int64)
                for d, (t, p) in enumerate(zip(coord, p_coord)):
                    if p == 0:
                        continue
                    column = mapped[d]
                    if p < t:
                        column = column // self.fanouts[d] ** (t - p)
                    parent_id = (
                        parent_id * self.fanouts[d] ** p + column
                    )
                mask |= np.isin(parent_id, packed)

        rows = np.arange(n) if mask is None else np.flatnonzero(mask)
        if not len(rows):
            return {}
        ids = key_id[rows]
        order = np.argsort(ids, kind="stable")  # keeps source order per group
        rows = rows[order]
        ids = ids[order]
        starts = np.flatnonzero(
            np.concatenate(([True], ids[1:] != ids[:-1]))
        )
        subset = kernels.ISBColumns(
            cols.t_b[rows], cols.t_e[rows], cols.base[rows], cols.slope[rows]
        )
        merged = kernels.segment_merge(subset, starts).to_isbs()
        first_rows = rows[starts]
        key_columns = [
            None if mapped[d] is None else mapped[d][first_rows].tolist()
            for d in range(len(coord))
        ]
        out: dict[Values, ISB] = {}
        for i, isb in enumerate(merged):
            out[
                tuple(
                    ALL if col is None else col[i] for col in key_columns
                )
            ] = isb
        return out


def popular_path_cubing_from_tree(
    layers: CriticalLayers,
    tree: HTree,
    policy: ExceptionPolicy,
    path: PopularPath,
) -> CubeResult:
    """Run Algorithm 2's Steps 2-3 on an already-built path-order H-tree."""
    schema = layers.schema
    lattice = layers.lattice
    _check_path(layers, path)
    stats = CubingStats("popular-path", n_dims=schema.n_dims)
    watch = Stopwatch()

    # ------------------------------------------------------------------
    # Step 2: roll up along the path; the tree stores the path cuboids.
    # ------------------------------------------------------------------
    tree.aggregate_interior()
    stats.rows_scanned += tree.node_count  # one bottom-up pass
    stats.htree_nodes = tree.node_count

    path_cells = _extract_path_cells(tree, layers, path)
    for cells in path_cells.values():
        stats.cells_computed += len(cells)
        stats.cuboids_computed += 1
    stats.htree_leaf_isbs = len(path_cells[layers.m_coord])
    # Every non-leaf node stores a regression point (root included).
    stats.htree_interior_isbs = tree.node_count - stats.htree_leaf_isbs + 1

    # ------------------------------------------------------------------
    # Step 3: exception-guided drilling, o-layer downward.
    # ------------------------------------------------------------------
    path_set = set(path.coords)
    columnar = _ColumnarDrill(layers)
    drivers: dict[Coord, set[Values]] = {}
    # Path cuboids are fully materialized, so "every computed cell is a
    # driver" means every child group's parent exists and drives — the
    # membership scan below can be skipped wholesale.  (Not sound for
    # drilled cuboids: their computed cells are only the driven subset.)
    fully_driven: set[Coord] = set()
    result_cuboids: dict[Coord, Cuboid] = {}
    retained_exceptions: dict[Coord, dict[Values, ISB]] = {}

    for coord in lattice.top_down_order():
        if coord in path_set:
            cells = path_cells[coord]
        else:
            active_parents = [
                (p, drivers[p])
                for p in lattice.parents(coord)
                if drivers.get(p)
            ]
            if not active_parents:
                drivers[coord] = set()
                retained_exceptions[coord] = {}
                result_cuboids[coord] = Cuboid(schema, coord)
                stats.cuboids_skipped += 1
                continue
            src_coord = lattice.closest_descendant(coord, path.coords)
            assert src_coord is not None  # the m-layer is on the path
            src = path_cells[src_coord]
            stats.rows_scanned += len(src)
            all_driven = any(
                p_coord in fully_driven for p_coord, _ in active_parents
            )
            cells = (
                columnar.drill(
                    src_coord, src, coord, active_parents, all_driven
                )
                if columnar.usable
                else None
            )
            if cells is None:
                # Scalar drill: drive-membership is a function of the
                # rolled-up key alone, so it is decided once per distinct
                # key (memoized) rather than once per source cell; only
                # driven cells are grouped at all.
                src_to_here = [
                    dim.hierarchy.ancestor_mapper(f, t)
                    for dim, f, t in zip(schema.dimensions, src_coord, coord)
                ]
                here_to_parent = [
                    (
                        [
                            dim.hierarchy.ancestor_mapper(f, t)
                            for dim, f, t in zip(
                                schema.dimensions, coord, p_coord
                            )
                        ],
                        p_drivers,
                    )
                    for p_coord, p_drivers in active_parents
                ]
                decided: dict[Values, bool] = {}
                groups: dict[Values, list[ISB]] = {}
                for values, isb in src.items():
                    key = tuple([m(v) for m, v in zip(src_to_here, values)])
                    is_driven = True if all_driven else decided.get(key)
                    if is_driven is None:
                        is_driven = False
                        for parent_maps, p_drivers in here_to_parent:
                            parent_key = tuple(
                                [m(v) for m, v in zip(parent_maps, key)]
                            )
                            if parent_key in p_drivers:
                                is_driven = True
                                break
                        decided[key] = is_driven
                    if is_driven:
                        group = groups.get(key)
                        if group is None:
                            groups[key] = group = []
                        group.append(isb)
                # One grouped Theorem 3.2 kernel call per drilled cuboid.
                cells = merge_groups(groups)
            stats.cells_computed += len(cells)
            stats.cuboids_computed += 1
            if len(cells) > stats.transient_peak_cells:
                stats.transient_peak_cells = len(cells)

        exceptions = {
            values: isb
            for values, isb in cells.items()
            if policy.is_exception(isb, coord)
        }
        drivers[coord] = set(exceptions)
        if coord in path_set and cells and len(exceptions) == len(cells):
            fully_driven.add(coord)

        if coord == layers.o_coord:
            result_cuboids[coord] = Cuboid(schema, coord, cells)
            stats.retained_cells += len(cells)
        elif coord == layers.m_coord:
            result_cuboids[coord] = Cuboid(schema, coord, cells)
            # The m-layer is charged to the tree's leaf regression points.
        elif coord in path_set:
            # Path cells stay resident in the tree (charged as interior
            # ISBs); the *output* is the exception cells.
            retained_exceptions[coord] = exceptions
            result_cuboids[coord] = Cuboid(schema, coord, cells)
        else:
            retained_exceptions[coord] = exceptions
            result_cuboids[coord] = Cuboid(schema, coord, exceptions)
            stats.retained_cells += len(exceptions)

    stats.runtime_s = watch.elapsed()
    return CubeResult(
        layers=layers,
        policy=policy,
        cuboids=result_cuboids,
        stats=stats,
        retained_exceptions=retained_exceptions,
        # Path cuboids are fully materialized (step 2), so whole-cuboid
        # queries can serve from them instead of re-aggregating the m-layer.
        complete_coords=frozenset(path_set),
    )
