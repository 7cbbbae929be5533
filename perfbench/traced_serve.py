"""``python -m repro serve`` with a span around every call into each layer.

Usage::

    python perfbench/traced_serve.py SPANS_JSON serve [serve flags...]

Imports :mod:`repro`, wraps the layers' public functions at the module
attribute their callers resolve (``run_cubing``, say, is looked up in
:mod:`repro.service.sharding`, which imported it by name), then runs the
normal ``serve`` entry point.  Each call records a span — name, start, end,
thread, parent — on a thread-local stack; work the cube fans out to its
shard pool keeps the submitting span as its parent.  Spans stay in memory
and are written to ``SPANS_JSON`` after the graceful shutdown.
``StreamCubeService.handle`` is the root of every request (stamped with
the client's request id) and the subscription dispatcher's rounds are roots
of their own.  Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.__main__ import main as repro_main  # noqa: E402
from service import REQUEST_ID_HEADER  # noqa: E402

# Modules by name: some packages re-export a function under its module's
# name (``repro.cubing.mo_cubing``), which attribute imports would return.
(
    backends, mo_cubing, query_exec, kernels, http, merge, router, sharding,
    subscriptions, files, engine, wal,
) = (
    importlib.import_module(f"repro.{name}")
    for name in (
        "cluster.backends", "cubing.mo_cubing", "query.exec",
        "regression.kernels", "service.http", "service.merge",
        "service.router", "service.sharding", "service.subscriptions",
        "storage.files", "stream.engine", "stream.wal",
    )
)

_clock = time.perf_counter
_ids = itertools.count(1)
_local = threading.local()
#: One row per finished span:
#: [id, parent, root, name, start, end, thread, request id, cells in].
SPANS: list[list[Any]] = []


def _stack() -> list[tuple[int, int]]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def _traced(name: str, fn: Callable, root: bool = False) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        stack = _stack()
        span = next(_ids)
        parent, root_id = stack[-1] if stack and not root else (0, span)
        request = getattr(_local, "request", None) if root else None
        cells = len(args[1]) if name == "cubing.run" else None
        stack.append((span, root_id))
        start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _clock()
            stack.pop()
            SPANS.append([
                span, parent, root_id, name, start, end,
                threading.get_ident(), request, cells,
            ])

    return wrapper


def _wrap(owner: Any, attr: str, name: str, root: bool = False) -> None:
    setattr(owner, attr, _traced(name, getattr(owner, attr), root))


def _with_request_id(fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(self: Any) -> None:
        _local.request = self.headers.get(REQUEST_ID_HEADER)
        try:
            fn(self)
        finally:
            _local.request = None

    return wrapper


def _in_context(
    context: tuple[int, int] | None, fn: Callable, *args: Any
) -> Any:
    stack = _stack()
    if context is not None:
        stack.append(context)
    try:
        return fn(*args)
    finally:
        if context is not None:
            stack.pop()


def _propagating_init(init: Callable) -> Callable:
    """Shard-pool tasks inherit the submitting thread's open span."""

    @functools.wraps(init)
    def wrapper(self: Any, *args: Any, **kwargs: Any) -> None:
        init(self, *args, **kwargs)
        submit = self._pool.submit

        def traced_submit(fn: Callable, *a: Any) -> Any:
            stack = _stack()
            return submit(_in_context, stack[-1] if stack else None, fn, *a)

        self._pool.submit = traced_submit

    return wrapper


def install() -> None:
    for method in ("do_GET", "do_POST", "do_DELETE"):
        setattr(
            http._Handler, method,
            _with_request_id(getattr(http._Handler, method)),
        )
    _wrap(http.StreamCubeService, "handle", "http.handle", root=True)
    _wrap(subscriptions.SubscriptionRegistry, "_dispatch",
          "subscriptions.dispatch", root=True)
    # A long-poll parks here; its wait is its own layer, not handle's.
    _wrap(subscriptions.SubscriptionRegistry, "poll", "subscriptions.poll")
    _wrap(http, "spec_from_dict", "query.decode")
    _wrap(router.QueryRouter, "execute_versioned", "router.execute")
    _wrap(router, "execute", "query.exec")
    _wrap(query_exec.QueryResult, "to_dict", "query.encode")
    _wrap(sharding.ShardedStreamCube, "ingest_batch", "sharding.ingest_batch")
    _wrap(sharding.ShardedStreamCube, "refresh", "sharding.refresh")
    _wrap(sharding, "disjoint_union", "sharding.merge")
    _wrap(sharding, "run_cubing", "cubing.run")
    _wrap(merge, "run_cubing", "cubing.run")
    _wrap(mo_cubing, "build_mo_htree", "cubing.htree")
    _wrap(mo_cubing, "mo_cubing_from_tree", "cubing.mo")
    _wrap(engine.StreamCubeEngine, "apply_segments", "engine.apply_segments")
    # Sealing has no public entry on the ingest path: apply_segments seals
    # inline through _seal_through (advance_to reaches it too).
    _wrap(engine.StreamCubeEngine, "_seal_through", "engine.advance")
    _wrap(engine.StreamCubeEngine, "window_isbs", "engine.window_isbs")
    _wrap(engine, "bulk_insert", "tilt.bulk_insert")
    _wrap(kernels, "group_fit", "kernels.group_fit")
    _wrap(wal.QuarterWAL, "append_batch", "wal.append")
    _wrap(files.FileColdStore, "put_segment", "storage.put")
    _wrap(files.FileColdStore, "get_segment", "storage.get")
    backends.InprocBackend.__init__ = _propagating_init(
        backends.InprocBackend.__init__
    )


def main(argv: list[str]) -> int:
    spans_path, serve_argv = Path(argv[0]), argv[1:]
    install()
    status = repro_main(serve_argv)
    tmp = spans_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(SPANS))
    tmp.replace(spans_path)
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
