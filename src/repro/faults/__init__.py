"""Seeded fault injection for every durability I/O path.

See :mod:`repro.faults.plan` for the model.  The idiomatic call-site
import is the package itself::

    from repro import faults
    ...
    faults.check("store.write")          # may raise OSError / sleep
    data = faults.corrupt("store.read", data)
"""

from repro.faults.plan import (
    PRESETS,
    SITES,
    SUPERVISOR_SITES,
    FaultInjector,
    FaultPlan,
    FaultRule,
    active,
    active_plan,
    check,
    clear,
    corrupt,
    install,
    install_for_worker,
    lie,
    load_plan,
    preset_plan,
    scope,
    stats,
    torn,
)

__all__ = [
    "PRESETS",
    "SITES",
    "SUPERVISOR_SITES",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "active",
    "active_plan",
    "check",
    "clear",
    "corrupt",
    "install",
    "install_for_worker",
    "lie",
    "load_plan",
    "preset_plan",
    "scope",
    "stats",
    "torn",
]
