"""Every answer a run received, checked against ``RawStreamOracle``.

Runs after the timed window.  The oracle is fed exactly the acknowledged
records.  An answer computed when the cube had sealed quarters ``< q``
covers the window ending at quarter ``q - 1``; the cube then tracked every
key first seen before quarter ``q`` and possibly some first seen *in*
quarter ``q`` (batches of the open quarter that reached the server before
the view was refreshed).  Such a key has no record in the window, so its
line is zero there: a cell made only of such keys may be present or
absent, and nothing else about the answer depends on the timing.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.cubing.policy import GlobalSlopeThreshold
from repro.io import cells_from_payload, isb_from_dict
from repro.regression.isb import ISB
from repro.stream.generator import DatasetSpec
from repro.stream.records import StreamRecord
from repro.verify.oracle import (
    DEFAULT_TOLERANCE,
    OracleISB,
    RawStreamOracle,
    VerifyMismatch,
    _flag_sets_equal,
    _floats_agree,
    isb_agree,
)

from workloads import (
    DIMS,
    FANOUT,
    LEVELS,
    O_COORD,
    TICKS_PER_QUARTER,
    Record,
    Values,
    cell_at,
)

#: ``serve``'s default global exception threshold.
THRESHOLD = 0.05
TOL = DEFAULT_TOLERANCE

Cells = dict[Values, OracleISB]


class _SealedOracle(RawStreamOracle):
    """The oracle with per-(cell, quarter) fits memoized.

    Every record is fed before the first check, so a quarter's fit never
    changes; the memo only saves refitting it for each cuboid and window.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._fits: dict[tuple[Values, int], OracleISB] = {}

    def quarter_isb(self, key: Values, quarter: int) -> OracleISB:
        fit = self._fits.get((key, quarter))
        if fit is None:
            fit = self._fits[key, quarter] = super().quarter_isb(key, quarter)
        return fit


class Checker:
    """Oracle checks for one run's acknowledged traffic."""

    def __init__(self, records: Iterable[Record]) -> None:
        layers = DatasetSpec(
            n_dims=len(DIMS), n_levels=LEVELS, fanout=FANOUT, n_tuples=1
        ).build_layers()
        self.oracle = _SealedOracle(
            layers, GlobalSlopeThreshold(THRESHOLD), TICKS_PER_QUARTER
        )
        self.first_seen: dict[Values, int] = {}
        stream = []
        for values, t, z in records:
            quarter = t // TICKS_PER_QUARTER
            if values not in self.first_seen:
                self.first_seen[values] = quarter
            stream.append(StreamRecord(values, t, z))
        self.oracle.ingest(stream)
        self._memo: dict[tuple, tuple[Cells, set[Values]]] = {}

    @property
    def tracked_cells(self) -> int:
        return self.oracle.tracked_cells

    @property
    def records_ingested(self) -> int:
        return self.oracle.records_ingested

    # -- the oracle's view of one cuboid at one read cut -------------------
    def cells(
        self,
        coord: tuple[int, ...],
        quarter: int,
        window: int,
        match: Callable[[Values], bool] | None = None,
    ) -> tuple[Cells, set[Values]]:
        """``(expected, required)`` for a cuboid answered at ``quarter``.

        ``expected`` holds every cell the cube may hold; ``required`` the
        ones it must hold (a member key seen before ``quarter``).
        """
        memo_key = (coord, quarter, window)
        if match is None and memo_key in self._memo:
            return self._memo[memo_key]
        members: dict[Values, list[Values]] = {}
        required: set[Values] = set()
        for key, first in self.first_seen.items():
            if first > quarter:
                continue
            cell = cell_at(key, coord)
            if match is not None and not match(cell):
                continue
            members.setdefault(cell, []).append(key)
            if first < quarter:
                required.add(cell)
        t_b, t_e = self.oracle.window_bounds_at(quarter, window)
        expected = {
            cell: self.oracle.window_isb(keys, t_b, t_e)
            for cell, keys in members.items()
        }
        if match is None:
            self._memo[memo_key] = (expected, required)
        return expected, required

    # -- comparisons --------------------------------------------------------
    @staticmethod
    def _same_cells(
        actual: dict[Values, ISB], expected: Cells, required: set[Values],
        what: str,
    ) -> None:
        missing = required - actual.keys()
        extra = actual.keys() - expected.keys()
        if missing or extra:
            raise VerifyMismatch(
                f"{what}: missing {sorted(missing)[:5]} extra "
                f"{sorted(extra)[:5]}"
            )
        for cell, isb in actual.items():
            problem = isb_agree(isb, expected[cell], TOL)
            if problem:
                raise VerifyMismatch(f"{what}[{cell}]: {problem}")

    def _one_cell(
        self, coord: tuple[int, ...], values: Values, quarter: int,
        window: int,
    ) -> OracleISB:
        expected, _ = self.cells(
            coord, quarter, window, match=lambda cell: cell == values
        )
        if values not in expected:
            raise VerifyMismatch(f"cell {values} at {coord} has no data")
        return expected[values]

    def _ranked(
        self, value: list[tuple[Values, ISB]], k: int, expected: Cells,
        required: set[Values], what: str,
    ) -> None:
        if len(required) >= k and len(value) != k:
            raise VerifyMismatch(f"{what}: {len(value)} cells for k={k}")
        for cell, isb in value:
            if cell not in expected:
                raise VerifyMismatch(f"{what}: unknown cell {cell}")
            problem = isb_agree(isb, expected[cell], TOL)
            if problem:
                raise VerifyMismatch(f"{what}[{cell}]: {problem}")
        ranked = sorted(
            (abs(isb.slope) for isb in expected.values()), reverse=True
        )
        if value and len(ranked) >= k:
            weakest = min(abs(isb.slope) for _, isb in value)
            if weakest < ranked[k - 1] - 1e-9:
                raise VerifyMismatch(
                    f"{what}: weakest |slope| {weakest!r} under the oracle's "
                    f"cut {ranked[k - 1]!r}"
                )

    def check_answer(
        self, spec: dict[str, Any], body: dict[str, Any], quarter: int
    ) -> bool:
        """One query answer (``QueryResult.to_dict``) read at ``quarter``.

        Raises :class:`VerifyMismatch` on a wrong answer; returns False for
        the one answer the oracle cannot pin (see ``sibling_deviation``).
        """
        op = spec["op"]
        window = spec.get("window", 4)
        what = f"{op} {spec} at quarter {quarter}"
        if op in ("watch_list", "observation_deck"):
            expected, required = self.cells(O_COORD, quarter, window)
            actual = cells_from_payload(body["cells"])
            if op == "observation_deck":
                self._same_cells(actual, expected, required, what)
            else:
                flagged = {
                    cell: isb
                    for cell, isb in expected.items()
                    if self.oracle.is_exception(isb, O_COORD)
                }
                _flag_sets_equal(
                    actual, flagged, self.oracle, O_COORD, what, TOL
                )
            return True
        coord = tuple(spec["coord"])
        if op == "top_slopes":
            expected, required = self.cells(coord, quarter, window)
            value = [
                (tuple(row["values"]), isb_from_dict(row["isb"]))
                for row in body["cells"]
            ]
            self._ranked(value, spec["k"], expected, required, what)
            return True
        if op == "slice":
            (name, fixed), = spec["fixed"].items()
            d = DIMS.index(name)
            expected, required = self.cells(
                coord, quarter, window, match=lambda cell: cell[d] == fixed
            )
            self._same_cells(
                cells_from_payload(body["cells"]), expected, required, what
            )
            return True
        values = tuple(spec["values"])
        if op == "cell":
            want = self._one_cell(coord, values, quarter, window)
            problem = isb_agree(isb_from_dict(body["isb"]), want, TOL)
            if problem:
                raise VerifyMismatch(f"{what}: {problem}")
            return True
        d = DIMS.index(spec["dim"])
        if op == "roll_up":
            parent = coord[:d] + (coord[d] - 1,) + coord[d + 1:]
            parent_values = (
                values[:d] + (values[d] // FANOUT,) + values[d + 1:]
            )
            if (tuple(body["coord"]), tuple(body["values"])) != (
                parent, parent_values
            ):
                raise VerifyMismatch(f"{what}: rolled up to {body}")
            want = self._one_cell(parent, parent_values, quarter, window)
            problem = isb_agree(isb_from_dict(body["isb"]), want, TOL)
            if problem:
                raise VerifyMismatch(f"{what}: {problem}")
            return True
        if op == "drill_down":
            child = coord[:d] + (coord[d] + 1,) + coord[d + 1:]
            expected, required = self.cells(
                child, quarter, window,
                match=lambda cell: cell_at_level(cell, child, coord) == values,
            )
            self._same_cells(
                cells_from_payload(body["cells"]), expected, required, what
            )
            return True

        def sibling(cell: Values) -> bool:
            return cell != values and all(
                cell[i] == values[i] if i != d
                else cell[i] // FANOUT == values[i] // FANOUT
                for i in range(len(DIMS))
            )

        expected, required = self.cells(coord, quarter, window, match=sibling)
        if op == "siblings":
            self._same_cells(
                cells_from_payload(body["cells"]), expected, required, what
            )
            return True
        # sibling_deviation: the mean runs over the siblings the cube held,
        # which is exact only when no sibling is a may-be-absent zero cell.
        if set(expected) != required:
            return False
        own = self._one_cell(coord, values, quarter, window)
        mean = sum(i.slope for i in expected.values()) / len(expected)
        if not _floats_agree(body["deviation"], own.slope - mean, TOL):
            raise VerifyMismatch(
                f"{what}: deviation {body['deviation']!r} != "
                f"{own.slope - mean!r}"
            )
        return True

    def check_update(
        self, spec: dict[str, Any], update: dict[str, Any]
    ) -> bool:
        """One pushed update, at the quarter it says it answered."""
        return self.check_answer(spec, update["result"], update["quarter"])


def cell_at_level(
    cell: Values, coord: tuple[int, ...], target: tuple[int, ...]
) -> Values:
    """``cell`` (at ``coord``) rolled up to the coarser ``target``."""
    return tuple(
        v // FANOUT ** (lv - tl) for v, lv, tl in zip(cell, coord, target)
    )
