"""Drone-from-truck delivery scheduling on the line.

The namespace is lazy: `import truckdrone` loads no submodule, and each
public name below loads its home module at its first use.  A name is looked
up in its home module on every access and never cached here, so
`truckdrone.X is truckdrone.<home>.X` holds even while that attribute is
replaced (by a test's patch or a tracer's wrapper).
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOMES = {
    **dict.fromkeys((
        "INFEASIBLE", "Envelope", "StartWindow", "reach_envelope", "return_position",
        "return_positions", "round_trip_time", "start_window", "vertical_delivery_time",
        "window_arrays"), "geometry"),
    **dict.fromkeys((
        "Delivery", "DeliveryPoint", "FeasibilityReport", "InfeasibleScheduleError",
        "Instance", "InvalidScheduleError", "Schedule", "earliest_start_pack",
        "instance_scale", "schedule_completion", "verify_schedule"), "model"),
    **dict.fromkeys((
        "NotProperError", "ProperReport", "check_proper", "interval_order_check"), "proper"),
    **dict.fromkeys((
        "BudgetError", "DpTable", "dp_table", "solve_dp_proper", "solve_exact",
        "solve_greedy", "solve_sweep"), "solvers"),
    **dict.fromkeys((
        "GenerationError", "ThreePartitionSpec", "TightnessCertificate",
        "gen_greedy_tightness", "gen_random_band", "gen_random_proper",
        "gen_three_partition"), "generators"),
    "render_svg": "render",
}

__all__ = sorted([*_HOMES, "__version__"])


def __getattr__(name: str):
    """A public name from its home module (PEP 562); submodules import as usual."""
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
