"""Query layer: declarative specs, one execution engine, drilling.

One query surface: build a plan with :data:`Q` and run it with
``execute(result, spec)`` over any :class:`~repro.cubing.result.CubeResult`.
``repro.query.spec`` defines the frozen :class:`QuerySpec` plan objects and
the fluent :data:`Q` builder; ``repro.query.exec`` is the single engine that
turns a spec into a :class:`QueryResult`; ``repro.query.drill`` holds the
exception-guided drilling workflow built on that engine.
"""

from repro.query.drill import DrillNode, ExceptionDriller
from repro.query.exec import BatchItem, QueryResult, execute, execute_batch
from repro.query.spec import (
    BatchQuery,
    CellSpec,
    DrillDownSpec,
    ObservationDeckSpec,
    Q,
    QueryBuilder,
    QuerySpec,
    RollUpSpec,
    SiblingDeviationSpec,
    SiblingsSpec,
    SliceSpec,
    TopSlopesSpec,
    WatchListSpec,
    spec_from_dict,
)

__all__ = [
    "DrillNode",
    "ExceptionDriller",
    "QuerySpec",
    "CellSpec",
    "SliceSpec",
    "RollUpSpec",
    "DrillDownSpec",
    "SiblingsSpec",
    "SiblingDeviationSpec",
    "TopSlopesSpec",
    "ObservationDeckSpec",
    "WatchListSpec",
    "BatchQuery",
    "QueryBuilder",
    "Q",
    "spec_from_dict",
    "QueryResult",
    "BatchItem",
    "execute",
    "execute_batch",
]
