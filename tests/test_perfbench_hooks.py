"""The traced benchmark's hook points still exist and sit on the live path.

``perfbench/traced_serve.py`` wraps layer functions by module attribute
(``repro.service.router.execute``, ``QueryRouter.execute_versioned``, ...)
to split a benchmark run's wall time by layer.  A refactor that renames or
deletes one of those attributes would break ``--trace 1`` without failing
anything else, so this test installs the wrappers in a fresh interpreter
and drives one request of each kind through the service: every wrapped
attribute must resolve, and the query path's spans must actually fire.
"""

from __future__ import annotations

import subprocess
import sys
import textwrap
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

_SCRIPT = textwrap.dedent(
    """
    import sys
    sys.path.insert(0, "perfbench")
    import traced_serve

    traced_serve.install()

    from repro.cubing.policy import GlobalSlopeThreshold
    from repro.service import QueryRouter, ShardedStreamCube, StreamCubeService
    from repro.stream.generator import DatasetSpec

    layers = DatasetSpec(2, 2, 3, 1).build_layers()
    cube = ShardedStreamCube(
        layers, GlobalSlopeThreshold(0.1), n_shards=2, ticks_per_quarter=2
    )
    service = StreamCubeService(cube, QueryRouter(cube, window_quarters=2))
    rows = [
        {"values": [i, j], "t": t, "z": float(i + j + t)}
        for t in range(6) for i in range(3) for j in range(3)
    ]
    calls = [
        ("POST", "/ingest", {"records": rows}),
        ("POST", "/advance", {"t": 6}),
        ("POST", "/query", {"op": "cell", "coord": [1, 1], "values": [0, 0]}),
        ("POST", "/query", {"op": "watch_list"}),
    ]
    for method, path, payload in calls:
        status, body = service.handle(method, path, payload)
        assert status == 200, (path, body)
    service.close()
    print(" ".join(sorted({span[3] for span in traced_serve.SPANS})))
    """
)

#: Spans a single ingest + seal + query round must record.
EXPECTED_SPANS = {
    "http.handle",
    "query.decode",
    "router.execute",
    "query.exec",
    "query.encode",
    "sharding.ingest_batch",
    "sharding.refresh",
    "sharding.merge",
    "cubing.run",
    "cubing.htree",
    "cubing.mo",
    "engine.apply_segments",
    "engine.advance",
    "engine.window_isbs",
    "tilt.bulk_insert",
    "kernels.group_fit",
}


def test_traced_serve_installs_and_records_the_query_path():
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    recorded = set(proc.stdout.split())
    assert EXPECTED_SPANS <= recorded, EXPECTED_SPANS - recorded
