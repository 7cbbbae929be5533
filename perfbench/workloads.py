"""The benchmark's workloads and their seeded, pre-encoded traffic.

Every workload runs against the same server configuration
(:data:`perfbench.service.SERVER_FLAGS` plus the ``serve`` defaults: 3 dims x
3 levels x fanout 10, 15 ticks per quarter, window 4); only the traffic
differs.  A seed fixes every input: the m-cell key pool, each record's tick
and value, the query specs and the order they are sent in.  The *shape* of
the traffic — rates, batch sizes, the op mix by popularity rank — is the
same for every seed, so runs under different seeds measure the same thing.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

TICKS_PER_QUARTER = 15
FANOUT = 10
LEVELS = 3
DIMS = ("d0", "d1", "d2")
M_COORD = (LEVELS,) * len(DIMS)
O_COORD = (1,) * len(DIMS)
#: The server's default analysis window, in quarters.
WINDOW = 4
DEEP_WINDOW = 8

RECORDS_PER_QUARTER = 2_000
#: Records per window ``/ingest``; set-up sends a whole quarter at once.
BATCH_RECORDS = 500
#: Zipf exponent of skewed keys (by pool rank) and of query popularity.
ZIPF_S = 1.1
#: Every fifth query popularity rank asks for the deep window.
DEEP_EVERY = 5

#: Upper bound on the closed-loop firehose's rate.  Its batches are encoded
#: before the window opens, so a run can ingest at most this many records
#: per second; the run reports when it hits the bound.
FIREHOSE_MAX_RPS = 40_000
#: Upper bound on closed-loop query rate, for the same reason.
QUERY_MAX_QPS = 2_000


@dataclass(frozen=True)
class Workload:
    """One named traffic mix (see ``perfbench/README.md`` for the why)."""

    name: str
    preload_quarters: int
    #: ``"uniform"`` over the key pool, or ``"zipf"`` by pool rank.
    keys: str
    key_pool: int = 5_000
    #: Share of each quarter's records that use never-seen keys.
    churn: float = 0.0
    #: Open-loop ingest paces one quarter per this many seconds; ``None``
    #: sends the next batch as soon as the previous one is acknowledged.
    quarter_seconds: float | None = None
    #: Distinct query specs for a closed-loop query connection (0: none).
    query_specs: int = 0
    #: Long-poll ``/updates`` for these ``every_seal`` subscriptions.
    subscriptions: int = 0
    #: The percentile reported as ``answer_tail_ms``: the highest with at
    #: least ten samples beyond it at the seed's rates.
    answer_tail: int = 90
    loads: tuple[str, ...] = ()
    bypasses: tuple[str, ...] = ()

    @property
    def answer(self) -> str:
        """What the workload's reader receives."""
        if self.query_specs:
            return "query"
        return "push" if self.subscriptions else "ack"


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="ingest_firehose",
            preload_quarters=4,
            keys="uniform",
            churn=0.02,
            answer_tail=90,
            loads=(
                "service.http", "service.sharding", "stream.engine",
                "tilt", "regression.kernels", "stream.wal", "storage",
            ),
            bypasses=("service.router", "cubing", "query",
                      "service.subscriptions"),
        ),
        Workload(
            name="query_dashboard",
            preload_quarters=12,
            keys="zipf",
            key_pool=1_500,
            quarter_seconds=1.5,
            query_specs=3_000,
            answer_tail=95,
            loads=(
                "service.http", "service.router", "query", "cubing",
                "service.sharding", "stream.engine", "storage",
            ),
            bypasses=("service.subscriptions",),
        ),
        Workload(
            name="seal_push",
            preload_quarters=8,
            keys="zipf",
            key_pool=3_000,
            quarter_seconds=2.0,
            subscriptions=4,
            answer_tail=75,
            loads=(
                "service.subscriptions", "service.router", "cubing",
                "service.sharding", "stream.engine", "service.http",
            ),
            bypasses=("query decode (no ad-hoc queries)",),
        ),
    )
}


Values = tuple[int, int, int]
Record = tuple[Values, int, float]


@dataclass
class Batch:
    """One ``/ingest`` request: its records and its encoded body."""

    quarter: int
    keys: list[Values]
    ticks: list[int]
    zs: list[float]
    body: bytes
    #: Seconds after window start the batch is due (open loop only).
    due: float = 0.0
    #: The batch's first quarter is past the cube clock: it seals.
    seals: bool = False

    @property
    def records(self) -> list[Record]:
        return list(zip(self.keys, self.ticks, self.zs))


@dataclass
class Plan:
    """Everything a run sends, generated and encoded up front."""

    workload: Workload
    preload: list[Batch]
    window: list[Batch]
    specs: list[dict] = field(default_factory=list)
    #: Indices into :attr:`specs`, in send order.
    query_order: list[int] = field(default_factory=list)
    subscriptions: list[dict] = field(default_factory=list)


def encode_json(payload: object) -> bytes:
    return json.dumps(payload, separators=(",", ":")).encode()


def ancestor(value: int, level: int) -> int:
    """A leaf value's ancestor at ``level`` of the fanout hierarchy."""
    return value // FANOUT ** (LEVELS - level)


class _Stream:
    """Seeded records: a linear trend per cell plus noise.

    Keys are indices into :attr:`keys`, the pool first and the churned
    (never-seen) keys after it.
    """

    def __init__(self, workload: Workload, seed: int) -> None:
        self.w = workload
        self.rng = np.random.default_rng([seed, 1])
        self.key_rng = random.Random(f"{seed}:keys")
        self.keys: list[Values] = []
        self.known: set[Values] = set()
        while len(self.keys) < workload.key_pool:
            self._new_key()
        pool = len(self.keys)
        ranks = 1.0 / np.arange(1, pool + 1) ** ZIPF_S
        self.zipf_p = ranks / ranks.sum()
        self.level = list(self.rng.uniform(0.0, 10.0, pool))
        self.slope = list(self.rng.normal(0.0, 0.03, pool))
        #: The JSON of each key's record up to its tick.
        self.prefix = [
            '{"values":[%d,%d,%d],"t":' % key for key in self.keys
        ]
        # The first quarters pass over the whole pool once, so every pool
        # cell is tracked from the end of set-up on: the cell count, and
        # with it the cost of a seal or a refresh, does not drift with how
        # far the skewed draws have reached into the pool's tail.
        self.warm = self.rng.permutation(pool)
        self.seen: set[int] = set()

    def _new_key(self) -> int:
        while True:
            key = tuple(self.key_rng.randrange(FANOUT**LEVELS) for _ in DIMS)
            if key not in self.known:
                self.known.add(key)
                self.keys.append(key)
                return len(self.keys) - 1

    def quarter(self, q: int, size: int, due: float = 0.0) -> list[Batch]:
        """Quarter ``q``'s records, cut into batches of ``size``."""
        w, rng = self.w, self.rng
        n = RECORDS_PER_QUARTER
        pool = len(self.zipf_p)
        idx, self.warm = self.warm[:n], self.warm[n:]
        rest = n - len(idx)
        if w.keys == "zipf":
            draws = rng.choice(pool, size=rest, p=self.zipf_p)
        else:
            draws = rng.integers(0, pool, rest)
        idx = np.concatenate([idx, draws])
        churn = round(n * w.churn)
        if churn:
            fresh = [self._new_key() for _ in range(churn)]
            self.prefix += [
                '{"values":[%d,%d,%d],"t":' % self.keys[i] for i in fresh
            ]
            self.level += list(rng.uniform(0.0, 10.0, churn))
            self.slope += list(rng.normal(0.0, 0.03, churn))
            idx[rng.choice(n, size=churn, replace=False)] = fresh
        ticks = q * TICKS_PER_QUARTER + rng.integers(0, TICKS_PER_QUARTER, n)
        level = np.asarray(self.level)[idx]
        slope = np.asarray(self.slope)[idx]
        zs = np.round(level + slope * ticks + rng.normal(0.0, 1.0, n), 3)
        idx, ticks, zs = idx.tolist(), ticks.tolist(), zs.tolist()
        self.seen.update(idx)
        prefix, keys = self.prefix, self.keys
        batches = []
        for i in range(0, n, size):
            rows = range(i, min(i + size, n))
            body = ",".join(
                f'{prefix[idx[r]]}{ticks[r]},"z":{zs[r]!r}}}' for r in rows
            )
            batches.append(
                Batch(
                    quarter=q,
                    keys=[keys[idx[r]] for r in rows],
                    ticks=ticks[i:i + size],
                    zs=zs[i:i + size],
                    body=f'{{"records":[{body}]}}'.encode(),
                    due=due + i / n * (w.quarter_seconds or 0.0),
                    seals=(i == 0),
                )
            )
        return batches


def build_plan(workload: Workload, seed: int, seconds: float) -> Plan:
    """Generate and encode every input of one run."""
    stream = _Stream(workload, seed)
    n = RECORDS_PER_QUARTER
    # Set-up sends one quarter per request.
    preload = [
        stream.quarter(q, n)[0] for q in range(workload.preload_quarters)
    ]
    preload[0].seals = False
    preload_keys = sorted(stream.keys[i] for i in stream.seen)

    window: list[Batch] = []
    q = workload.preload_quarters
    size = BATCH_RECORDS
    if workload.quarter_seconds is None:
        for _ in range(int(seconds * FIREHOSE_MAX_RPS) // n + 1):
            window += stream.quarter(q, size)
            q += 1
    else:
        k = 0
        while k * workload.quarter_seconds < seconds:
            window += stream.quarter(q, size, k * workload.quarter_seconds)
            q += 1
            k += 1

    plan = Plan(workload, preload, window)
    if workload.query_specs:
        spec_rng = random.Random(f"{seed}:specs")
        plan.specs = _spec_pool(workload, preload_keys, spec_rng)
        weights = list(
            accumulate(
                1.0 / (rank + 1) ** ZIPF_S
                for rank in range(len(plan.specs))
            )
        )
        plan.query_order = spec_rng.choices(
            range(len(plan.specs)),
            cum_weights=weights,
            k=int(seconds * QUERY_MAX_QPS),
        )
    if workload.subscriptions:
        sub_rng = random.Random(f"{seed}:subscriptions")
        d0 = ancestor(sub_rng.choice(preload_keys)[0], O_COORD[0])
        o_slice = {"op": "slice", "coord": list(O_COORD), "fixed": {"d0": d0}}
        plan.subscriptions = [
            {"watch": True, "every_seal": True},
            {
                "spec": {"op": "top_slopes", "coord": list(O_COORD), "k": 5},
                "every_seal": True,
            },
            # Two subscribers share one spec: one execution per seal.
            {"spec": o_slice, "every_seal": True},
            {"spec": dict(o_slice), "every_seal": True},
        ][: workload.subscriptions]
    return plan


# ----------------------------------------------------------------------
# Query specs for the dashboard
# ----------------------------------------------------------------------
#: Op family by popularity rank (rank modulo the cycle), so every seed sends
#: the same op mix at the same popularity; only the cells differ.
_FAMILY_CYCLE = (
    "cell_m", "slice", "cell_mid", "top_slopes", "roll_up", "cell_m",
    "drill_down", "siblings", "cell_mid", "sibling_deviation",
)
#: Whole-o-layer specs sit at fixed popularity ranks.
_GLOBAL_RANKS = {
    2: {"op": "watch_list", "window": WINDOW},
    5: {"op": "observation_deck", "window": WINDOW},
    11: {"op": "watch_list", "window": DEEP_WINDOW},
    23: {"op": "observation_deck", "window": DEEP_WINDOW},
}
_COORDS = [
    (a, b, c)
    for a in range(1, LEVELS + 1)
    for b in range(1, LEVELS + 1)
    for c in range(1, LEVELS + 1)
]
_MID_COORDS = [c for c in _COORDS if c not in (M_COORD, O_COORD)]


def cell_at(key: Values, coord: tuple[int, ...]) -> Values:
    return tuple(ancestor(v, level) for v, level in zip(key, coord))


def _sibling_group(values: Values, d: int) -> Values:
    """Cells with equal groups are siblings along dimension ``d``."""
    return values[:d] + (values[d] // FANOUT,) + values[d + 1:]


def _one_spec(
    family: str, shape: random.Random, rng: random.Random,
    keys: list[Values], groups: dict[tuple, Counter],
) -> dict | None:
    """One spec of ``family``: ``shape`` picks the coordinate, dimension
    and ``k``, ``rng`` the cell."""
    if family == "cell_m":
        return {"op": "cell", "coord": list(M_COORD),
                "values": list(rng.choice(keys))}
    if family == "cell_mid":
        coord = shape.choice(_MID_COORDS)
        return {"op": "cell", "coord": list(coord),
                "values": list(cell_at(rng.choice(keys), coord))}
    if family == "slice":
        coord = shape.choice(_COORDS)
        d = shape.randrange(len(DIMS))
        value = ancestor(rng.choice(keys)[d], coord[d])
        return {"op": "slice", "coord": list(coord), "fixed": {DIMS[d]: value}}
    if family == "top_slopes":
        return {"op": "top_slopes", "coord": list(shape.choice(_COORDS)),
                "k": shape.choice((3, 5, 10))}
    if family == "roll_up":
        coord = shape.choice([c for c in _COORDS if max(c) >= 2])
        d = shape.choice([i for i, lv in enumerate(coord) if lv >= 2])
        return {"op": "roll_up", "coord": list(coord),
                "values": list(cell_at(rng.choice(keys), coord)),
                "dim": DIMS[d]}
    if family == "drill_down":
        coord = shape.choice([c for c in _COORDS if min(c) <= 2])
        d = shape.choice([i for i, lv in enumerate(coord) if lv <= 2])
        return {"op": "drill_down", "coord": list(coord),
                "values": list(cell_at(rng.choice(keys), coord)),
                "dim": DIMS[d]}
    # siblings / sibling_deviation: only cells that have a sibling, so the
    # deviation is defined (an empty sibling set is a 400).
    coord = shape.choice(_COORDS)
    d = shape.randrange(len(DIMS))
    values = cell_at(rng.choice(keys), coord)
    if (coord, d) not in groups:
        groups[coord, d] = Counter(
            _sibling_group(cell, d)
            for cell in {cell_at(k, coord) for k in keys}
        )
    if groups[coord, d][_sibling_group(values, d)] < 2:
        return None
    return {"op": family, "coord": list(coord), "values": list(values),
            "dim": DIMS[d]}


def _spec_pool(
    workload: Workload, keys: list[Values], rng: random.Random
) -> list[dict]:
    """``query_specs`` distinct specs over cells the preload populates.

    Cells never disappear (no pruning), so every spec stays answerable for
    the whole run: a 400 is a failure, never an expected miss.  A rank's
    op, window, coordinate, dimension and ``k`` do not depend on the seed,
    so every seed's hottest specs cost the same to answer.
    """
    specs: list[dict] = []
    seen: set[bytes] = set()
    groups: dict[tuple, Counter] = {}
    for rank in range(workload.query_specs):
        spec = _GLOBAL_RANKS.get(rank)
        family = _FAMILY_CYCLE[rank % len(_FAMILY_CYCLE)]
        window = DEEP_WINDOW if rank % DEEP_EVERY == DEEP_EVERY - 1 else WINDOW
        for attempt in range(64):
            if spec is not None:
                break
            # Other cells of the same shape first; then other shapes; a
            # family with few distinct specs (top_slopes has 27 coords x 3
            # k values) runs dry and its rank becomes an m-layer cell.
            shape = random.Random(f"shape:{rank}:{attempt // 16}")
            spec = _one_spec(
                family if attempt < 48 else "cell_m", shape, rng, keys,
                groups,
            )
            if spec is not None:
                spec["window"] = window
                if encode_json(spec) in seen:
                    spec = None
        seen.add(encode_json(spec))
        specs.append(spec)
    return specs
