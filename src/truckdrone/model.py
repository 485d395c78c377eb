"""Problem instances and delivery schedules.

An instance fixes the drone speed v, the range R, the truck's starting
abscissa, and the delivery points.  A schedule is an ordered list of
(point, launch abscissa) decisions; the landing abscissa of each entry is
derived, never trusted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (INFEASIBLE, _check_params, return_position, return_positions,
                       start_window, window_arrays)

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
        if type(self.x) is not float or type(self.y) is not float:
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


def _coords(inst: Instance) -> np.ndarray:
    """x and y of every point, the rows of a 2 x n array."""
    return np.array([[p.x for p in inst.points], [p.y for p in inst.points]]).reshape(2, -1)


def _scale(inst: Instance, xs: np.ndarray, ys: np.ndarray) -> float:
    return float(np.abs(np.concatenate(([1.0, inst.R, inst.truck_start], xs, ys))).max())


def instance_scale(inst: Instance) -> float:
    """Magnitude that turns verify_schedule's relative tolerance into an absolute one."""
    return _scale(inst, *_coords(inst))


def _check_tol(tol: float) -> None:
    if not 0.0 <= tol < math.inf:  # NaN would pass every slack comparison
        raise ValueError(f"tolerance must be finite and nonnegative, got {tol}")


def verify_schedule(inst: Instance, sched: Schedule, tol: float = DEFAULT_TOL) -> FeasibilityReport:
    """Check a schedule against the instance, recomputing every landing.

    Stored landings are ignored: each entry launches at min(start, ls),
    and one out of band or past its window lands at INFEASIBLE.  Slack is
    tol times the instance scale.  Violations come by entry, within one as
    duplicate, start or overlap, window.  Bad point indices and NaN launches
    raise InvalidScheduleError; a negative or non-finite tol, ValueError.
    """
    _check_tol(tol)
    n, ds = len(inst.points), sched.deliveries
    for j, d in enumerate(ds):
        if not 0 <= d.point < n:
            raise InvalidScheduleError(
                f"entry {j} references point {d.point} of an instance with {n} points"
            )
        if math.isnan(d.start):
            raise InvalidScheduleError(f"entry {j} launches at NaN")
    idx = np.fromiter((d.point for d in ds), np.intp, len(ds))
    starts = np.fromiter((d.start for d in ds), float, len(ds))
    xs, ys = _coords(inst)
    slack = tol * _scale(inst, xs, ys)
    xs, ys = xs[idx], ys[idx]
    windows = es, ls, er, lr, in_band = window_arrays(xs, ys, inst.v, inst.R)
    # a start within tolerance past the window still lands from ls
    ret = return_positions(np.minimum(starts, ls), xs, ys, inst.v, inst.R, windows)
    late = ~in_band | (starts > ls + slack)
    ret[late] = INFEASIBLE
    early = starts < np.concatenate(([inst.truck_start], ret[:-1])) - slack
    seen: set[int] = set()  # set.add returns None, so only repeats read True
    dup = np.array([d.point in seen or seen.add(d.point) for d in ds], dtype=bool)
    violations: list[tuple[int, str]] = []
    for j in np.flatnonzero(dup | early | late).tolist():
        if dup[j]:
            violations.append((j, DUPLICATE_POINT))
        if early[j]:
            violations.append((j, OVERLAP_PREVIOUS if j else START_BEFORE_TRUCK))
        if late[j]:
            violations.append((j, START_AFTER_WINDOW if in_band[j] else OUT_OF_BAND))
    completion = float(ret[-1]) if ds else inst.truck_start  # a Python float, like the start
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
