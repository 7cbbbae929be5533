"""The fault-plan machinery itself: parsing, determinism, bounds, guards.

Everything else in the fault-injection PR trusts this module — the
storage/WAL/snapshot seams only ever ask "does a rule fire here, now?" — so
its counters, seeding and validation get direct coverage.
"""

from __future__ import annotations

import json
import sys
import threading

import pytest

from repro import faults
from repro.errors import ServiceError
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultRule,
    PRESETS,
    load_plan,
    preset_plan,
)


@pytest.fixture(autouse=True)
def disarm():
    """Every test leaves the process-global injector clean."""
    faults.clear()
    yield
    faults.clear()


class TestRuleValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ServiceError, match="unknown kind"):
            FaultRule(site="store.read", kind="meteor")

    def test_unknown_site_rejected(self):
        with pytest.raises(ServiceError, match="unknown site"):
            FaultRule(site="disk.write", kind="eio")

    def test_wildcard_site_accepted(self):
        assert FaultRule(site="*", kind="latency").site == "*"

    def test_probability_bounds(self):
        with pytest.raises(ServiceError, match="probability"):
            FaultRule(site="store.read", kind="eio", probability=0.0)
        with pytest.raises(ServiceError, match="probability"):
            FaultRule(site="store.read", kind="eio", probability=1.5)

    def test_negative_counters_rejected(self):
        with pytest.raises(ServiceError, match="count/after"):
            FaultRule(site="store.read", kind="eio", count=-1)

    def test_negative_after_rejected(self):
        with pytest.raises(ServiceError, match="count/after"):
            FaultRule(site="store.read", kind="eio", after=-1)

    def test_negative_seconds_rejected(self):
        with pytest.raises(ServiceError, match="seconds must be >= 0"):
            FaultRule(site="store.read", kind="latency", seconds=-0.5)


class TestPlanParsing:
    def test_from_dict_round_trips(self):
        plan = FaultPlan.from_dict(
            {
                "seed": 7,
                "rules": [
                    {"site": "wal.append", "kind": "torn", "after": 2},
                    {"site": "*", "kind": "latency", "seconds": 0.01},
                ],
            }
        )
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_unknown_rule_field_rejected(self):
        with pytest.raises(ServiceError, match="unknown rule field"):
            FaultPlan.from_dict(
                {"rules": [{"site": "store.read", "kind": "eio", "when": 3}]}
            )

    def test_missing_required_field_rejected(self):
        with pytest.raises(ServiceError, match="missing field"):
            FaultPlan.from_dict({"rules": [{"site": "store.read"}]})

    def test_rules_must_be_a_list(self):
        with pytest.raises(ServiceError, match="'rules' must be a list"):
            FaultPlan.from_dict({"rules": "eio"})

    @pytest.mark.parametrize("payload", [[], "rules", 7, None])
    def test_plan_must_be_an_object(self, payload):
        with pytest.raises(ServiceError, match="expected a JSON object"):
            FaultPlan.from_dict(payload)

    @pytest.mark.parametrize("rule", ["store.read", 3, ["eio"]])
    def test_each_rule_must_be_an_object(self, rule):
        with pytest.raises(ServiceError, match="each rule must be an object"):
            FaultPlan.from_dict({"rules": [rule]})

    @pytest.mark.parametrize(
        "field,value",
        [("count", "twice"), ("after", None), ("probability", "often")],
    )
    def test_malformed_rule_values_rejected(self, field, value):
        rule = {"site": "store.read", "kind": "eio", field: value}
        with pytest.raises(ServiceError, match="malformed rule"):
            FaultPlan.from_dict({"rules": [rule]})

    @pytest.mark.parametrize("seed", ["seven", None, [1]])
    def test_malformed_seed_rejected(self, seed):
        with pytest.raises(ServiceError, match="malformed seed"):
            FaultPlan.from_dict({"seed": seed, "rules": []})

    def test_every_preset_parses(self):
        for name in PRESETS:
            plan = preset_plan(name, seed=5)
            assert plan.seed == 5
            assert plan.rules

    def test_unknown_preset_rejected(self):
        with pytest.raises(ServiceError, match="unknown preset"):
            preset_plan("disk-on-fire")

    def test_load_plan_resolves_preset_then_file(self, tmp_path):
        assert load_plan("wal-torn", seed=3).seed == 3
        path = tmp_path / "plan.json"
        path.write_text(
            json.dumps(
                {"rules": [{"site": "store.read", "kind": "eio"}]}
            )
        )
        plan = load_plan(str(path), seed=9)
        assert plan.seed == 9  # CLI seed fills a file without one
        assert plan.rules[0].site == "store.read"

    def test_load_plan_neither_preset_nor_file(self):
        with pytest.raises(ServiceError, match="neither a preset"):
            load_plan("no/such/plan.json")

    def test_load_plan_rejects_unparseable_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text("{not json")
        with pytest.raises(ServiceError, match="could not read"):
            load_plan(str(path))

    def test_load_plan_keeps_the_file_seed(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"seed": 4, "rules": []}))
        assert load_plan(str(path), seed=9).seed == 4


class TestInjectorSemantics:
    def plan(self, **rule):
        rule.setdefault("site", "store.read")
        rule.setdefault("kind", "eio")
        return FaultPlan.from_dict({"seed": 11, "rules": [rule]})

    def test_count_bounds_firings(self):
        inj = FaultInjector(self.plan(count=2))
        fired = 0
        for _ in range(10):
            try:
                inj.check("store.read")
            except OSError:
                fired += 1
        assert fired == 2
        assert inj.stats()[0]["fired"] == 2

    def test_after_skips_leading_operations(self):
        inj = FaultInjector(self.plan(after=3, count=1))
        for _ in range(3):
            inj.check("store.read")  # must not raise
        with pytest.raises(OSError):
            inj.check("store.read")

    def test_count_zero_is_unlimited(self):
        inj = FaultInjector(self.plan(count=0))
        for _ in range(5):
            with pytest.raises(OSError):
                inj.check("store.read")

    def test_site_isolation(self):
        inj = FaultInjector(self.plan())
        inj.check("store.write")  # different site: no fire, no raise
        with pytest.raises(OSError):
            inj.check("store.read")

    def test_family_isolation(self):
        """Consulting one guard family never burns another family's rule."""
        inj = FaultInjector(self.plan(kind="torn"))
        inj.check("store.read")  # eio/enospc/latency family: no-op
        assert inj.torn("store.read")

    def test_probability_is_seeded_deterministic(self):
        plan = self.plan(probability=0.5, count=0)
        runs = []
        for _ in range(2):
            inj = FaultInjector(plan)
            runs.append(
                [self._fires(inj, "store.read") for _ in range(20)]
            )
        assert runs[0] == runs[1]
        assert True in runs[0] and False in runs[0]

    @staticmethod
    def _fires(inj, site):
        try:
            inj.check(site)
            return False
        except OSError:
            return True

    def test_corrupt_flips_exactly_one_bit_deterministically(self):
        plan = self.plan(kind="bitflip")
        before = b"0123456789"
        mutated = [
            FaultInjector(plan).corrupt("store.read", before)
            for _ in range(2)
        ]
        assert mutated[0] == mutated[1] != before
        diff = [
            a ^ b for a, b in zip(before, mutated[0])
        ]
        assert sum(bin(d).count("1") for d in diff) == 1

    def test_each_scope_counts_its_own_operations(self):
        """A one-shot rule fires once per shard and once outside shards."""
        inj = FaultInjector(self.plan())
        for key in (0, 1, None):
            with faults.scope(key):
                assert self._fires(inj, "store.read")
                assert not self._fires(inj, "store.read")
        assert inj.stats()[0] == {
            "site": "store.read", "kind": "eio", "seen": 6, "fired": 3
        }

    def test_concurrent_scopes_fire_at_their_own_operations(self):
        """Threads racing on one injector: each shard's fault still lands
        on that shard's own fourth read, whatever the interleaving."""
        inj = FaultInjector(self.plan(after=3))
        hits: dict[int, list[int]] = {}

        def shard(index: int) -> None:
            with faults.scope(index):
                hits[index] = [
                    op for op in range(200) if self._fires(inj, "store.read")
                ]

        threads = [
            threading.Thread(target=shard, args=(i,)) for i in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert hits == {i: [3] for i in range(8)}

    def test_enospc_errno(self):
        inj = FaultInjector(self.plan(kind="enospc"))
        with pytest.raises(OSError) as info:
            inj.check("store.read")
        import errno

        assert info.value.errno == errno.ENOSPC


class TestModuleGuards:
    def test_disarmed_guards_are_noops(self):
        faults.clear()
        faults.check("store.read")
        assert faults.torn("wal.append") is False
        assert faults.corrupt("store.read", b"abc") == b"abc"
        assert faults.lie("snapshot.write") is False
        assert faults.stats() is None
        assert faults.active() is None

    def test_install_round_trips_the_plan(self):
        plan = preset_plan("wal-torn", seed=4)
        faults.install(plan)
        assert faults.active().plan.to_dict() == plan.to_dict()
