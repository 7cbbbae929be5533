"""The fault matrix: chaos scenarios replayed with injection armed.

Every preset fault class (torn WAL appends, cold-page bit flips,
ENOSPC mid-snapshot) is one the durability layer repairs in place, so a
scenario run with a plan armed must still pass **bit-identically** —
same oracle agreement, same engine==cube equivalence — not merely
survive.  The default leg keeps CI fast: three recovery-heavy scenarios
x three presets on the file store, plus a crash-recovery spot check on
sqlite.  ``FAULT_MATRIX=full`` (the nightly leg) widens to the whole
catalogue x both stores.
"""

from __future__ import annotations

import os

import pytest

from repro.verify.scenarios import SCENARIOS, run_scenario

PRESETS = ("wal-torn", "page-bitflip", "enospc-snapshot")

#: The quick leg leans on the scenarios that exercise the most
#: durability machinery: full-WAL crash recovery, crash recovery under
#: spilled storage, and the everything-at-once soak.
QUICK_SCENARIOS = ("crash_replay", "spill_crash_replay", "kitchen_sink")

FULL = os.environ.get("FAULT_MATRIX") == "full"


def combos():
    names = tuple(SCENARIOS) if FULL else QUICK_SCENARIOS
    storages = ("file", "sqlite") if FULL else ("file",)
    for name in names:
        for preset in PRESETS:
            for storage in storages:
                yield name, preset, storage
    if not FULL:
        # One sqlite spot check per preset keeps the second cold store's
        # fault seams covered on every CI run.
        for preset in PRESETS:
            yield "crash_replay", preset, "sqlite"


@pytest.mark.parametrize(
    "name,preset,storage",
    list(combos()),
    ids=lambda v: str(v),
)
def test_scenario_passes_bit_identically_under_faults(
    name, preset, storage, tmp_path
):
    report = run_scenario(
        name,
        seed=29,
        workdir=tmp_path,
        storage=storage,
        fault_plan=preset,
    )
    assert report.checks > 0
    assert report.cells_compared > 0
