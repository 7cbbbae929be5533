"""End-to-end benchmark of the live stream-cube service over keep-alive HTTP.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run starts ``python -m repro serve`` as its own process, drives it from
this one process over at most two keep-alive connections, checks every
answer against ``RawStreamOracle`` after the timed window, and prints the
metrics, one per line with unit and sample count, then one JSON object as
the last line.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
repeats the run under ``traced_serve.py`` and reports where the time went,
layer by layer.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from service import (
    SERVER_FLAGS,
    Connection,
    ServerProcess,
    TransportError,
    encode_request,
)
from workloads import WORKLOADS, Plan, build_plan, encode_json

ROOT = Path(__file__).resolve().parent.parent

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
READY_DEADLINE_S = 60.0
SHUTDOWN_DEADLINE_S = 30.0
REQUEST_TIMEOUT_S = 60.0
#: How long after the window pushed updates may still arrive.
PUSH_GRACE_S = 10.0
#: Server-side long-poll wait, seconds.
LONG_POLL_S = 1
#: Distinct request ids per (subscription, since) poll, so re-sent polls
#: stay distinguishable in the trace.
POLL_ATTEMPTS = 8
#: Dashboard answers checked against the oracle per run.
VERIFY_SAMPLE = 24
#: Largest share of a traced request's latency the layer split may miss.
ADDITIVITY_BOUND = 0.01

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("ingest_rps", "1/s"),
    ("answer_rps", "1/s"),
    ("answer_p50_ms", "ms"),
    ("answer_tail_ms", "ms"),
    ("server_peak_rss_mb", "MiB"),
)

#: Span name -> the layer metric its self time adds to.  The shares of one
#: request's spans add up to its ``StreamCubeService.handle`` span.  A
#: dispatcher round's own share counts only in ``subscriptions.eval_ms``.
LAYER_OF_SPAN = {
    "http.handle": "http.handle_self_ms",
    "query.decode": "query.decode_ms",
    "query.exec": "query.exec_ms",
    "query.encode": "query.encode_ms",
    "router.execute": "router.execute_ms",
    "sharding.ingest_batch": "sharding.ingest_batch_self_ms",
    "sharding.refresh": "sharding.refresh_ms",
    "sharding.merge": "sharding.merge_ms",
    "engine.apply_segments": "engine.apply_segments_ms",
    "engine.advance": "engine.advance_ms",
    "engine.window_isbs": "engine.window_isbs_ms",
    "tilt.bulk_insert": "tilt.bulk_insert_ms",
    "kernels.group_fit": "kernels.group_fit_ms",
    "wal.append": "wal.append_ms",
    "storage.put": "storage.put_ms",
    "storage.get": "storage.get_ms",
    "cubing.run": "cubing.run_ms",
    "cubing.htree": "cubing.run_ms",
    "cubing.mo": "cubing.run_ms",
    "subscriptions.poll": "subscriptions.poll_ms",
}
#: (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("http.transport_ms", "ms/s"),
    ("http.handle_self_ms", "ms/s"),
    ("http.requests", "count"),
    ("http.non2xx", "count"),
    ("router.execute_ms", "ms/s"),
    ("router.hit_ratio", "ratio"),
    ("router.refreshes", "count"),
    ("router.single_flight_joins", "count"),
    ("sharding.ingest_batch_self_ms", "ms/s"),
    ("sharding.refresh_ms", "ms/s"),
    ("sharding.merge_ms", "ms/s"),
    ("engine.apply_segments_ms", "ms/s"),
    ("engine.advance_ms", "ms/s"),
    ("engine.window_isbs_ms", "ms/s"),
    ("engine.tracked_cells", "count"),
    ("tilt.bulk_insert_ms", "ms/s"),
    ("kernels.group_fit_ms", "ms/s"),
    ("wal.append_ms", "ms/s"),
    ("wal.bytes", "bytes"),
    ("storage.put_ms", "ms/s"),
    ("storage.get_ms", "ms/s"),
    ("storage.pages_spilled", "count"),
    ("storage.cold_faults", "count"),
    ("cubing.run_ms", "ms/s"),
    ("cubing.htree_ms", "ms/s"),
    ("cubing.mo_self_ms", "ms/s"),
    ("cubing.cells_in", "count"),
    ("query.decode_ms", "ms/s"),
    ("query.exec_ms", "ms/s"),
    ("query.encode_ms", "ms/s"),
    ("subscriptions.eval_ms", "ms/s"),
    ("subscriptions.poll_ms", "ms/s"),
    ("subscriptions.rounds_per_seal", "ratio"),
    ("subscriptions.updates_dropped", "count"),
    ("gen.ingest_p50_ms", "ms"),
    ("gen.ingest_p95_ms", "ms"),
    ("gen.late_p95_ms", "ms"),
    ("gen.cpu_s", "s"),
    ("trace.additivity_err", "ratio"),
) + tuple((f"trace.overhead.{name}", "ratio") for name, _ in END_TO_END)


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolated ``p``-th percentile (numpy's default rule)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


@dataclass
class Exchange:
    """One request of the timed window, as the client saw it."""

    index: int
    due: float
    send: float
    recv: float
    status: int
    body: bytes
    request_id: str = ""

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


@dataclass
class RunLog:
    """Everything one server's timed window produced."""

    setup_s: list[float]
    t0: float
    deadline: float
    seconds: float
    ingest: list[Exchange] = field(default_factory=list)
    queries: list[Exchange] = field(default_factory=list)
    polls: list[Exchange] = field(default_factory=list)
    #: (quarter sealed into, send time) of every sealing window batch.
    seals: list[tuple[int, float]] = field(default_factory=list)
    sub_ids: list[str] = field(default_factory=list)
    stats: tuple[dict, dict] = ({}, {})
    health: dict = field(default_factory=dict)
    rss_mb: float = 0.0
    wal_bytes: int = 0
    cpu_s: float = 0.0
    clean_stop: bool = True
    generator_exhausted: bool = False
    spans: list[list[Any]] = field(default_factory=list)


class Problems:
    """Failed operations, counted and described (the first few printed)."""

    def __init__(self) -> None:
        self.count = 0
        self.notes: list[str] = []

    def add(self, note: str) -> None:
        self.count += 1
        if len(self.notes) < 20:
            self.notes.append(note)


# ----------------------------------------------------------------------
# Driving the server
# ----------------------------------------------------------------------
def _expect_ok(conn: Connection, raw: bytes, what: str) -> dict:
    status, body = conn.send(raw)
    if status != 200:
        raise RuntimeError(f"{what}: HTTP {status} {body[:300]!r}")
    return json.loads(body)


def _read_stats(port: int) -> tuple[dict, dict]:
    """``/stats`` and ``/health`` on a connection of their own."""
    conn = Connection(port, REQUEST_TIMEOUT_S)
    try:
        stats = _expect_ok(
            conn, encode_request("GET", "/stats", None, "st"), "stats"
        )
        health = _expect_ok(
            conn, encode_request("GET", "/health", None, "he"), "health"
        )
    finally:
        conn.close()
    return stats, health


def _set_up(
    plan: Plan, workdir: Path, spans: Path | None
) -> tuple[ServerProcess, list[str], float]:
    """Spawn, wait for ``/readyz``, preload and subscribe; timed."""
    start = time.perf_counter()
    server = ServerProcess(ROOT, workdir, spans)
    try:
        server.wait_ready(READY_DEADLINE_S)
        conn = Connection(server.port, REQUEST_TIMEOUT_S)
        try:
            for i, batch in enumerate(plan.preload):
                raw = encode_request("POST", "/ingest", batch.body, f"s{i}")
                _expect_ok(conn, raw, f"preload quarter {batch.quarter}")
            sub_ids = [
                _expect_ok(
                    conn,
                    encode_request(
                        "POST", "/subscribe", encode_json(sub), f"u{i}"
                    ),
                    "subscribe",
                )["subscription"]
                for i, sub in enumerate(plan.subscriptions)
            ]
        finally:
            conn.close()
    except BaseException:
        server.stop(SHUTDOWN_DEADLINE_S)
        raise
    return server, sub_ids, time.perf_counter() - start


def _send(conn: Connection, raw: bytes) -> tuple[int, bytes]:
    try:
        return conn.send(raw)
    except TransportError:
        return 0, b""


def _ingest_loop(
    conn: Connection, plan: Plan, raws: list[bytes], log: RunLog,
    done: threading.Event,
) -> None:
    open_loop = plan.workload.quarter_seconds is not None
    try:
        for i, (batch, raw) in enumerate(zip(plan.window, raws)):
            if open_loop:
                due = log.t0 + batch.due
                if due >= log.deadline:
                    break
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                send = time.perf_counter()
            else:
                send = due = time.perf_counter()
                if send >= log.deadline:
                    break
            if batch.seals:
                log.seals.append((batch.quarter, send))
            status, body = _send(conn, raw)
            log.ingest.append(
                Exchange(i, due, send, time.perf_counter(), status, body,
                         f"i{i}")
            )
            if status == 0:
                break
        else:
            log.generator_exhausted = not open_loop
    finally:
        done.set()


def _query_loop(
    conn: Connection, plan: Plan, raws: list[bytes], log: RunLog
) -> None:
    for n, (index, raw) in enumerate(zip(plan.query_order, raws)):
        send = time.perf_counter()
        if send >= log.deadline:
            return
        status, body = _send(conn, raw)
        log.queries.append(
            Exchange(index, send, send, time.perf_counter(), status, body,
                     f"q{n}")
        )
        if status == 0:
            return
    log.generator_exhausted = True


def _poll_loop(
    conn: Connection, polls: list[list[list[tuple[str, bytes]]]],
    log: RunLog, ingest_done: threading.Event,
) -> None:
    """Long-poll the first subscription still owed an update; once it
    answers, poll the rest without waiting.  Ends when every seal's
    updates are in, or ``PUSH_GRACE_S`` after the window."""
    received = [0] * len(polls)
    attempts: dict[tuple[int, int], int] = {}
    hard_stop = log.deadline + PUSH_GRACE_S
    while time.perf_counter() < hard_stop:
        owed = [j for j, n in enumerate(received) if n < len(log.seals)]
        if ingest_done.is_set() and not owed:
            return
        for rank, j in enumerate(owed or [0]):
            if received[j] >= len(polls[j]):
                return
            attempt = attempts.get((j, received[j]), 0)
            attempts[j, received[j]] = attempt + 1
            variants = polls[j][received[j]][min(attempt, POLL_ATTEMPTS - 1)]
            request_id, raw = variants[1 if rank else 0]
            send = time.perf_counter()
            status, body = _send(conn, raw)
            log.polls.append(
                Exchange(j, send, send, time.perf_counter(), status, body,
                         request_id)
            )
            if status == 0:
                return
            # Updates carry gapless seq numbers from 1, so the count
            # received is the next ``since``; the body is decoded later.
            fresh = body.count(b'"seq":')
            received[j] += fresh
            if not fresh:
                break


def _window(
    plan: Plan, server: ServerProcess, sub_ids: list[str], seconds: float,
    log: RunLog,
) -> None:
    w = plan.workload
    ingest_raws = [
        encode_request("POST", "/ingest", batch.body, f"i{i}")
        for i, batch in enumerate(plan.window)
    ]
    query_raws = [
        encode_request(
            "POST", "/query", encode_json(plan.specs[index]), f"q{n}"
        )
        for n, index in enumerate(plan.query_order)
    ]
    # One update per seal and subscription; a poll's ``since`` is the
    # count received so far.
    max_updates = sum(batch.seals for batch in plan.window) + 1
    polls = [
        [
            [
                [
                    (
                        f"p{j}.{since}.{attempt}.{wait}",
                        encode_request(
                            "GET",
                            f"/updates?subscription={sub}&since={since}"
                            f"&timeout={wait}",
                            None,
                            f"p{j}.{since}.{attempt}.{wait}",
                        ),
                    )
                    for wait in (LONG_POLL_S, 0)
                ]
                for attempt in range(POLL_ATTEMPTS)
            ]
            for since in range(max_updates)
        ]
        for j, sub in enumerate(sub_ids)
    ]
    log.stats = (_read_stats(server.port)[0], {})
    wal_start = server.wal_bytes()
    conns = [Connection(server.port, REQUEST_TIMEOUT_S)]
    if w.query_specs or w.subscriptions:
        conns.append(Connection(server.port, REQUEST_TIMEOUT_S))
    ingest_done = threading.Event()
    cpu_start = time.process_time()
    log.t0 = time.perf_counter() + 0.05
    log.deadline = log.t0 + seconds
    threads = []
    if w.query_specs:
        threads.append(threading.Thread(
            target=_query_loop, args=(conns[1], plan, query_raws, log)
        ))
    if w.subscriptions:
        threads.append(threading.Thread(
            target=_poll_loop, args=(conns[1], polls, log, ingest_done)
        ))
    try:
        for thread in threads:
            thread.start()
        delay = log.t0 - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        _ingest_loop(conns[0], plan, ingest_raws, log, ingest_done)
        for thread in threads:
            thread.join()
    finally:
        # The drain waits for open keep-alive connections: close them all
        # before the server is asked to stop.
        for conn in conns:
            conn.close()
    log.cpu_s = time.process_time() - cpu_start
    stats_end, log.health = _read_stats(server.port)
    log.stats = (log.stats[0], stats_end)
    log.rss_mb = server.peak_rss_mb()
    log.wal_bytes = server.wal_bytes() - wal_start


def run_server(
    plan: Plan, workdir: Path, seconds: float, traced: bool, setups: int
) -> RunLog:
    """Set up ``setups`` fresh servers (timed), run the window on the last."""
    setup_s: list[float] = []
    spans_path = workdir / "spans.json" if traced else None
    for k in range(setups):
        last = k == setups - 1
        server, sub_ids, took = _set_up(
            plan, workdir / f"server{k}", spans_path if last else None
        )
        setup_s.append(took)
        if not last and not server.stop(SHUTDOWN_DEADLINE_S):
            raise RuntimeError("a set-up server outlived its stop deadline")
    log = RunLog(
        setup_s=setup_s, t0=0.0, deadline=0.0, seconds=seconds,
        sub_ids=sub_ids,
    )
    try:
        _window(plan, server, sub_ids, seconds, log)
    finally:
        log.clean_stop = server.stop(SHUTDOWN_DEADLINE_S)
    if traced and log.clean_stop:
        log.spans = json.loads(spans_path.read_text())
    return log


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class Result:
    e2e: dict[str, float]
    samples: dict[str, int]
    problems: Problems
    attempted: int
    #: request id -> (client latency, status) for the traced split.
    requests: dict[str, tuple[float, int]]
    #: /ingest latencies from each batch's due time.
    ingest_ms: list[float]


def _push_results(
    plan: Plan, log: RunLog, problems: Problems, checker: Any
) -> tuple[list[float], list[float]]:
    """Push lags (ms) and arrival times, one per (seal, subscription)."""
    from verify import VerifyMismatch

    specs = [
        {"op": "watch_list", "window": 4} if sub.get("watch") else sub["spec"]
        for sub in plan.subscriptions
    ]
    arrivals: dict[tuple[int, int], float] = {}
    for j in range(len(log.sub_ids)):
        last_seq, last_epoch = 0, None
        for ex in (p for p in log.polls if p.index == j):
            if not ex.ok:
                problems.add(f"/updates HTTP {ex.status}")
                continue
            reply = json.loads(ex.body)
            sub = log.sub_ids[j]
            if reply["dropped"]:
                problems.add(f"{sub}: {reply['dropped']} updates dropped")
            for update in reply["updates"]:
                epoch = update["epoch"]
                if update["seq"] != last_seq + 1:
                    problems.add(
                        f"{sub}: seq {update['seq']} after {last_seq}"
                    )
                if update["quarter"] != min(epoch[2:]):
                    problems.add(f"{sub}: quarter vs epoch {epoch}")
                if last_epoch and any(
                    c < p for p, c in zip(last_epoch, epoch)
                ):
                    problems.add(f"{sub}: epoch {epoch} after {last_epoch}")
                last_seq, last_epoch = update["seq"], epoch
                arrivals.setdefault((j, update["quarter"]), ex.recv)
                try:
                    checker.check_update(specs[j], update)
                except VerifyMismatch as exc:
                    problems.add(f"pushed update: {exc}")
    lags, arrived_at = [], []
    for quarter, sent in log.seals:
        for j in range(len(log.sub_ids)):
            arrived = arrivals.get((j, quarter))
            if arrived is None:
                problems.add(
                    f"{log.sub_ids[j]}: no update for quarter {quarter}"
                )
            else:
                lags.append((arrived - sent) * 1000.0)
                arrived_at.append(arrived)
    return lags, arrived_at


def _query_quarters(plan: Plan, log: RunLog) -> list[tuple[Exchange, int]]:
    """Answers whose read cut is known: sent after one seal was
    acknowledged and received before the next sealing batch was sent."""
    acked = [(plan.preload[-1].quarter, -math.inf)]
    next_sent = []
    for ex in log.ingest:
        batch = plan.window[ex.index]
        if batch.seals:
            next_sent.append(ex.send)
            acked.append((batch.quarter, ex.recv))
    next_sent.append(math.inf)
    out = []
    for ex in log.queries:
        for (quarter, ack), following in zip(acked, next_sent):
            if ack <= ex.send and ex.recv <= following:
                out.append((ex, quarter))
                break
    return out


def analyse(plan: Plan, log: RunLog, seed: int) -> Result:
    from verify import Checker, VerifyMismatch

    w = plan.workload
    problems = Problems()
    seconds = log.seconds
    records = [r for batch in plan.preload for r in batch.records]
    ingest_ms: list[float] = []
    acked_records = 0
    for ex in log.ingest:
        batch = plan.window[ex.index]
        if not ex.ok:
            problems.add(f"/ingest HTTP {ex.status}")
            continue
        ack = json.loads(ex.body)
        want = {"ingested": len(batch.keys), "current_quarter": batch.quarter}
        if ack != want:
            problems.add(f"/ingest batch {ex.index} acknowledged as {ack}")
        records.extend(batch.records)
        ingest_ms.append((ex.recv - ex.due) * 1000.0)
        acked_records += len(batch.keys)
    # Rates run from window start to the last arrival, so a server that
    # falls behind an open-loop schedule reads slower.
    last_ack = max((ex.recv for ex in log.ingest if ex.ok), default=math.inf)
    checker = Checker(records)
    counts = (log.health["records_ingested"], log.health["tracked_cells"])
    if counts != (checker.records_ingested, checker.tracked_cells):
        problems.add(
            f"final /health {log.health} vs oracle records="
            f"{checker.records_ingested} cells={checker.tracked_cells}"
        )
    attempted = len(log.ingest) + len(log.queries) + len(log.polls) + 1

    if w.answer == "query":
        for ex in log.queries:
            if not ex.ok:
                problems.add(
                    f"/query {plan.specs[ex.index]} HTTP {ex.status} "
                    f"{ex.body[:200]!r}"
                )
        answer_ms = [
            (ex.recv - ex.send) * 1000.0 for ex in log.queries if ex.ok
        ]
        answered = [ex.recv for ex in log.queries if ex.ok]
        known = [(ex, q) for ex, q in _query_quarters(plan, log) if ex.ok]
        sample = random.Random(f"{seed}:verify").sample(
            known, min(VERIFY_SAMPLE, len(known))
        )
        verified = 0
        for ex, quarter in sample:
            try:
                verified += checker.check_answer(
                    plan.specs[ex.index], json.loads(ex.body), quarter
                )
            except VerifyMismatch as exc:
                problems.add(f"query answer: {exc}")
        print(
            f"oracle: {verified} of {len(known)} answers with a known read "
            "cut checked"
        )
    elif w.answer == "push":
        answer_ms, answered = _push_results(plan, log, problems, checker)
        attempted += len(log.seals) * len(log.sub_ids)
        print(f"oracle: {len(answered)} pushed updates checked")
    else:
        answer_ms = ingest_ms
        answered = [ex.recv for ex in log.ingest if ex.ok]
    if not log.clean_stop:
        problems.add("server killed at the shutdown deadline")
    if not answered:
        raise RuntimeError("the window produced no answers")
    e2e = {
        "setup_s": statistics.median(log.setup_s),
        "ingest_rps": acked_records / (last_ack - log.t0),
        "answer_rps": len(answered) / (max(answered) - log.t0),
        "answer_p50_ms": percentile(answer_ms, 50),
        "answer_tail_ms": percentile(answer_ms, w.answer_tail),
        "server_peak_rss_mb": log.rss_mb,
    }
    samples = {
        "setup_s": len(log.setup_s),
        "ingest_rps": len(ingest_ms),
        "answer_rps": len(answered),
        "answer_p50_ms": len(answer_ms),
        "answer_tail_ms": len(answer_ms),
        "server_peak_rss_mb": 1,
    }
    requests = {
        ex.request_id: ((ex.recv - ex.send) * 1000.0, ex.status)
        for ex in (*log.ingest, *log.queries, *log.polls)
    }
    return Result(e2e, samples, problems, attempted, requests, ingest_ms)


def _shares(tree: list[list[Any]], lo: float, hi: float) -> dict[int, float]:
    """Each span's share of ``[lo, hi]``: every instant goes to the spans
    active then with no active child, split evenly among them."""
    children: dict[int, list[list[Any]]] = {}
    for span in tree:
        children.setdefault(span[1], []).append(span)
    edges = sorted(
        {lo, hi}
        | {min(max(t, lo), hi) for s in tree for t in (s[4], s[5])}
    )
    share: dict[int, float] = {}
    for a, b in zip(edges, edges[1:]):
        if b <= a:
            continue
        active = {s[0] for s in tree if s[4] <= a and s[5] >= b}
        leaves = [
            sid for sid in active
            if not any(c[0] in active for c in children.get(sid, ()))
        ]
        for sid in leaves:
            share[sid] = share.get(sid, 0.0) + (b - a) / len(leaves)
    return share


def layer_metrics(plan: Plan, log: RunLog, result: Result) -> dict[str, float]:
    """Per-layer metrics of a traced run (times in ms per window second)."""
    seconds = log.seconds
    totals = dict.fromkeys(
        {*LAYER_OF_SPAN.values(), "http.transport_ms", "cubing.htree_ms",
         "cubing.mo_self_ms", "subscriptions.eval_ms"},
        0.0,
    )
    dispatch = "subscriptions.dispatch"
    by_root: dict[int, list[list[Any]]] = {}
    for span in log.spans:
        by_root.setdefault(span[2], []).append(span)
    worst = 0.0
    matched: set[str] = set()
    cells_in: list[int] = []
    for root_id, tree in by_root.items():
        root = next(s for s in tree if s[0] == root_id)
        name, request = root[3], root[7]
        if name == "http.handle":
            if request not in result.requests:
                continue
            matched.add(request)
        elif name != dispatch or not log.t0 <= root[4] <= log.deadline:
            continue
        share = _shares(tree, root[4], root[5])
        spans = {s[0]: s for s in tree}
        for sid, seconds_share in share.items():
            span_name = spans[sid][3]
            ms = seconds_share * 1000.0
            if span_name in LAYER_OF_SPAN:
                totals[LAYER_OF_SPAN[span_name]] += ms
            if span_name == "cubing.htree":
                totals["cubing.htree_ms"] += ms
            elif span_name == "cubing.mo":
                totals["cubing.mo_self_ms"] += ms
            if name == dispatch:
                totals["subscriptions.eval_ms"] += ms
        cells_in += [s[8] for s in tree if s[3] == "cubing.run"]
        if name == "http.handle":
            latency, _ = result.requests[request]
            handle_ms = (root[5] - root[4]) * 1000.0
            totals["http.transport_ms"] += latency - handle_ms
            split = (latency - handle_ms) + sum(share.values()) * 1000.0
            worst = max(worst, abs(split - latency) / latency)
    if len(matched) < len(result.requests):
        worst = 1.0  # a request without its server span cannot be split
    metrics = {name: total / seconds for name, total in totals.items()}
    stats0, stats1 = log.stats

    def delta(block: str, key: str) -> float:
        return float(stats1[block][key] - stats0[block][key])

    hits = delta("router", "cache_hits")
    lookups = hits + delta("router", "cache_misses")
    seals = delta("subscriptions", "seals_signaled")
    late = [(ex.send - ex.due) * 1000.0 for ex in log.ingest]
    statuses = [status for _, status in result.requests.values()]
    metrics.update({
        "http.requests": float(len(statuses)),
        "http.non2xx": float(sum(not 200 <= s < 300 for s in statuses)),
        "router.hit_ratio": hits / lookups if lookups else 0.0,
        "router.refreshes": delta("router", "refreshes"),
        "router.single_flight_joins": delta("router", "single_flight_joins"),
        "engine.tracked_cells": float(sum(stats1["shard_cells"])),
        "wal.bytes": float(log.wal_bytes),
        "storage.pages_spilled": delta("storage", "pages_spilled"),
        "storage.cold_faults": delta("storage", "cold_faults"),
        "cubing.cells_in": statistics.mean(cells_in) if cells_in else 0.0,
        "subscriptions.rounds_per_seal": (
            delta("subscriptions", "dispatch_rounds") / seals if seals else 0.0
        ),
        "subscriptions.updates_dropped": (
            delta("subscriptions", "updates_dropped")
        ),
        "gen.ingest_p50_ms": percentile(result.ingest_ms, 50),
        "gen.ingest_p95_ms": percentile(result.ingest_ms, 95),
        "gen.late_p95_ms": percentile(late, 95) if late else 0.0,
        "gen.cpu_s": log.cpu_s,
        "trace.additivity_err": worst,
    })
    return metrics


def _print_table(title: str, rows: list[tuple[str, float, str, str]]) -> None:
    print(title)
    for name, value, unit, note in rows:
        print(f"  {name:<34} {value:>14.4f} {unit:<6} {note}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Unwind (and stop the server) when asked to stop, like on Ctrl-C.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    plan = build_plan(WORKLOADS[args.workload], args.seed, args.seconds)
    scratch = ROOT / ".perfbench_runs" / f"{args.workload}-{os.getpid()}"
    try:
        runs = [(
            "untraced",
            run_server(
                plan, scratch / "untraced", args.seconds, False,
                1 if args.trace else SETUPS,
            ),
        )]
        if args.trace:
            runs.append((
                "traced",
                run_server(plan, scratch / "traced", args.seconds, True, 1),
            ))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there

    w = plan.workload
    print(
        f"workload {w.name} seed {args.seed}: {args.seconds:g} s window, "
        f"server {' '.join(SERVER_FLAGS)}\n"
        f"  loads {', '.join(w.loads)}; bypasses {', '.join(w.bypasses)}"
    )
    results = {}
    for label, log in runs:
        result = analyse(plan, log, args.seed)
        results[label] = result
        units = dict(END_TO_END)
        notes = {
            "answer_tail_ms": f"p{w.answer_tail}",
            "setup_s": "median",
        }
        _print_table(
            f"{label} end-to-end ({w.answer} answers)",
            [
                (name, result.e2e[name], units[name],
                 f"n={result.samples[name]} {notes.get(name, '')}".rstrip())
                for name, _ in END_TO_END
            ],
        )
        failed, attempted = result.problems.count, result.attempted
        print(
            f"  fail_ratio {failed / attempted:.6f} ({failed} failed of "
            f"{attempted} operations)"
        )
        for note in result.problems.notes:
            print(f"  FAILED: {note}")
        if log.generator_exhausted:
            print("  note: the pre-encoded traffic ran out in the window")

    problems = sum(r.problems.count for r in results.values())
    attempted = sum(r.attempted for r in results.values())
    if args.trace:
        log = runs[1][1]
        metrics = layer_metrics(plan, log, results["traced"])
        for name, _ in END_TO_END:
            metrics[f"trace.overhead.{name}"] = (
                results["traced"].e2e[name] / results["untraced"].e2e[name]
            )
        if metrics["trace.additivity_err"] > ADDITIVITY_BOUND:
            problems += 1
            print("FAILED: the layer split does not add up to client latency")
        _print_table(
            "per layer (traced run)",
            [(name, metrics[name], unit, "") for name, unit in PER_LAYER],
        )
        table = PER_LAYER
    else:
        metrics, table = results["untraced"].e2e, END_TO_END
    correct = problems == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": problems,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in table
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
