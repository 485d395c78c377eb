"""Problem instances and delivery schedules.

An instance fixes the drone speed v, the range R, the truck's starting
abscissa, and the delivery points.  A schedule is an ordered list of
(point, launch abscissa) decisions; the landing abscissa of each entry is
derived, never trusted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import INFEASIBLE, _check_params, _land, return_position, start_window

DEFAULT_TOL = 1e-9

# violation reasons reported by verify_schedule
START_BEFORE_TRUCK = "start-before-truck"
START_AFTER_WINDOW = "start-after-ls"
OVERLAP_PREVIOUS = "overlap-with-previous"
OUT_OF_BAND = "out-of-band"
DUPLICATE_POINT = "duplicate-point"


class InvalidScheduleError(ValueError):
    """Schedule is malformed (bad point index), as opposed to infeasible."""


class InfeasibleScheduleError(ValueError):
    """Raised when a feasible schedule is required but not given."""


@dataclass(frozen=True)
class DeliveryPoint:
    x: float
    y: float

    def __post_init__(self):
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"delivery point must be finite, got ({self.x}, {self.y})")
        if self.y == 0.0:
            raise ValueError("delivery points must lie off the truck's axis")


@dataclass(frozen=True)
class Instance:
    """Immutable problem input; points keep their given order."""

    v: float
    R: float
    points: tuple[DeliveryPoint, ...] = ()
    truck_start: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "v", float(self.v))
        object.__setattr__(self, "R", float(self.R))
        object.__setattr__(self, "truck_start", float(self.truck_start))
        for name in ("v", "R", "truck_start"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        _check_params(self.v, self.R)
        pts = tuple(
            p if isinstance(p, DeliveryPoint) else DeliveryPoint(*p)
            for p in self.points
        )
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class Delivery:
    """One scheduled flight: point index, launch abscissa, landing abscissa."""

    point: int
    start: float
    ret: float


@dataclass(frozen=True)
class Schedule:
    deliveries: tuple[Delivery, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "deliveries", tuple(self.deliveries))

    @property
    def count(self) -> int:
        return len(self.deliveries)

    @property
    def order(self) -> tuple[int, ...]:
        return tuple(d.point for d in self.deliveries)


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    violations: tuple[tuple[int, str], ...]
    completion: float


def instance_scale(inst: Instance) -> float:
    """Magnitude that turns verify_schedule's relative tolerance into an absolute one."""
    scale = max(1.0, inst.R, abs(inst.truck_start))
    for p in inst.points:
        scale = max(scale, abs(p.x), abs(p.y))
    return scale


def _check_tol(tol: float) -> None:
    if not 0.0 <= tol < math.inf:  # NaN would pass every slack comparison
        raise ValueError(f"tolerance must be finite and nonnegative, got {tol}")


def verify_schedule(inst: Instance, sched: Schedule, tol: float = DEFAULT_TOL) -> FeasibilityReport:
    """Check a schedule against the instance, recomputing every landing.

    Landings stored in the schedule are ignored; only the launch abscissas
    matter.  Comparisons allow slack of tol times the instance scale.
    Point indices outside the instance raise InvalidScheduleError, and a
    tol that is negative or not finite raises ValueError.
    """
    _check_tol(tol)
    n = len(inst.points)
    for j, d in enumerate(sched.deliveries):
        if not 0 <= d.point < n:
            raise InvalidScheduleError(
                f"entry {j} references point {d.point} of an instance with {n} points"
            )
    slack = tol * instance_scale(inst)
    violations: list[tuple[int, str]] = []
    seen: set[int] = set()
    prev_ret = inst.truck_start
    completion = inst.truck_start
    for j, d in enumerate(sched.deliveries):
        if d.point in seen:
            violations.append((j, DUPLICATE_POINT))
        seen.add(d.point)
        if j == 0:
            if d.start < inst.truck_start - slack:
                violations.append((j, START_BEFORE_TRUCK))
        elif d.start < prev_ret - slack:
            violations.append((j, OVERLAP_PREVIOUS))
        p = inst.points[d.point]
        w = start_window(p, inst.v, inst.R)
        if w is None or d.start > w.ls + slack:
            violations.append((j, OUT_OF_BAND if w is None else START_AFTER_WINDOW))
            prev_ret = completion = INFEASIBLE
            continue
        # a start within tolerance past the window still lands from ls
        prev_ret = completion = _land(min(d.start, w.ls), p.x, p.y, w.es, w.er, inst.v)
    return FeasibilityReport(not violations, tuple(violations), completion)


def schedule_completion(inst: Instance, sched: Schedule, tol: float = DEFAULT_TOL) -> float:
    """Landing abscissa of the last delivery (truck start when empty)."""
    report = verify_schedule(inst, sched, tol)
    if not report.feasible:
        reasons = ", ".join(f"entry {j}: {r}" for j, r in report.violations)
        raise InfeasibleScheduleError(f"schedule is infeasible ({reasons})")
    return report.completion


def earliest_start_pack(inst: Instance, order) -> Schedule | None:
    """Launch each point of `order` as early as possible, in that order.

    Every launch is the later of the previous landing and the point's
    window opening.  Returns None when some point's window has already
    closed by then (or is out of reach entirely).
    """
    n = len(inst.points)
    seen: set[int] = set()
    for idx in order:
        if not 0 <= idx < n:
            raise InvalidScheduleError(f"order references point {idx} of {n}")
        if idx in seen:
            raise InvalidScheduleError(f"order repeats point {idx}")
        seen.add(idx)
    entries: list[Delivery] = []
    cur = inst.truck_start
    for idx in order:
        w = start_window(inst.points[idx], inst.v, inst.R)
        if w is None or max(cur, w.es) > w.ls:
            return None
        start = max(cur, w.es)
        cur = return_position(start, inst.points[idx], inst.v, inst.R)
        entries.append(Delivery(idx, start, cur))
    return Schedule(tuple(entries))
