"""Problem instances and delivery schedules.

An instance fixes the drone speed v, the range R, the truck's starting
abscissa, and the delivery points.  A schedule is an ordered list of
(point, launch abscissa) decisions; the landing abscissa of each entry is
derived, never trusted.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property

import numpy as np

from .geometry import INFEASIBLE, _check_params, return_position, return_positions, window_arrays

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


class _Record:
    """Frozen, and equal and hashed as the tuple `_record()`, as the frozen
    dataclass of that record would be; subclasses hold their fields as columns."""

    def __setattr__(self, name, value=None):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._record() == other._record()

    def __hash__(self) -> int:
        return hash(self._record())


class Instance(_Record):
    """Immutable problem input; points keep their given order.

    The coordinates are the read-only float64 columns `xs` and `ys`;
    `points` holds them as DeliveryPoints, built on first use.  Equality,
    hash and repr are those of the record (v, R, points, truck_start).
    """

    def __init__(self, v: float, R: float, points=(), truck_start: float = 0.0):
        pts = [p if isinstance(p, DeliveryPoint) else DeliveryPoint(*p) for p in points]
        self._set(v, R, truck_start, [p.x for p in pts], [p.y for p in pts])

    @classmethod
    def _from_columns(cls, v: float, R: float, xs, ys, truck_start: float = 0.0) -> Instance:
        """Instance(v, R, zip(xs, ys), truck_start) without building DeliveryPoints."""
        inst = cls.__new__(cls)
        inst._set(v, R, truck_start, xs, ys)
        return inst

    def _set(self, v, R, truck_start, xs, ys) -> None:
        fields = {"v": float(v), "R": float(R), "truck_start": float(truck_start)}
        for name, value in fields.items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        xs, ys = np.array(xs, dtype=float), np.array(ys, dtype=float)
        if not (np.isfinite(xs).all() and np.isfinite(ys).all() and ys.all()):
            tuple(map(DeliveryPoint, xs.tolist(), ys.tolist()))  # names the first bad point
        xs.flags.writeable = ys.flags.writeable = False
        self.__dict__.update(fields, xs=xs, ys=ys)
        _check_params(self.v, self.R, instance_scale(self))

    @cached_property
    def points(self) -> tuple[DeliveryPoint, ...]:
        return tuple(map(DeliveryPoint, self.xs.tolist(), self.ys.tolist()))

    def _record(self) -> tuple:
        # a DeliveryPoint compares and hashes as its (x, y) tuple
        return self.v, self.R, tuple(zip(self.xs.tolist(), self.ys.tolist())), self.truck_start

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}(v={self.v!r}, R={self.R!r}, "
                f"points={self.points!r}, truck_start={self.truck_start!r})")

    def __len__(self) -> int:
        return len(self.xs)


@dataclass(frozen=True)
class Delivery:
    """One scheduled flight: point index, launch abscissa, landing abscissa."""

    point: int
    start: float
    ret: float


class Schedule(_Record):
    """Immutable ordered deliveries, held as the tuples `order` (point indices),
    `starts` and `rets`; `deliveries` holds them as Delivery records, built on
    first use.  Equality, hash and repr are those of the record (deliveries,).
    """

    def __init__(self, deliveries=()):
        ds = tuple(deliveries)
        self.__dict__.update(order=tuple(d.point for d in ds), starts=tuple(d.start for d in ds),
                             rets=tuple(d.ret for d in ds), deliveries=ds)

    @classmethod
    def _from_columns(cls, order, starts, rets) -> Schedule:
        """Schedule(map(Delivery, order, starts, rets)) without building Deliveries."""
        sched = cls.__new__(cls)
        sched.__dict__.update(order=tuple(order), starts=tuple(starts), rets=tuple(rets))
        return sched

    @cached_property
    def deliveries(self) -> tuple[Delivery, ...]:
        return tuple(map(Delivery, self.order, self.starts, self.rets))

    def _record(self) -> tuple:
        # a Delivery compares and hashes as its (point, start, ret) tuple
        return (tuple(zip(self.order, self.starts, self.rets)),)

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(deliveries={self.deliveries!r})"

    @property
    def count(self) -> int:
        return len(self.order)


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    violations: tuple[tuple[int, str], ...]
    completion: float


def instance_scale(inst: Instance) -> float:
    """max(1, R, |truck_start|, every |x|), which bounds the numeric domain and scales
    verify_schedule's tolerance; a height counts at most as the band's half-height,
    which is below R/2, so none raises it."""
    xs = inst.xs
    return float(max(1.0, inst.R, abs(inst.truck_start), -xs.min(initial=0.0), xs.max(initial=0.0)))


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
    n, order = len(inst), sched.order
    # the range is checked on the tuple, as an index past int64 would not convert
    if ((order and not 0 <= min(order) <= max(order) < n)
            or np.isnan(starts := np.array(sched.starts, dtype=float)).any()):
        for j, (i, start) in enumerate(zip(order, sched.starts)):  # name the first bad entry
            if not 0 <= i < n:
                raise InvalidScheduleError(
                    f"entry {j} references point {i} of an instance with {n} points"
                )
            if math.isnan(start):
                raise InvalidScheduleError(f"entry {j} launches at NaN")
    idx = np.array(order, dtype=np.intp)
    slack = tol * instance_scale(inst)
    xs, ys = inst.xs[idx], inst.ys[idx]
    windows = es, ls, er, lr, in_band = window_arrays(xs, ys, inst.v, inst.R)
    # a start within tolerance past the window still lands from ls
    ret = return_positions(np.minimum(starts, ls), xs, ys, inst.v, inst.R, windows)
    late = ~in_band | (starts > ls + slack)
    ret[late] = INFEASIBLE
    early = starts < np.concatenate(([inst.truck_start], ret[:-1])) - slack
    dup = np.zeros(len(order), dtype=bool)
    if len(set(order)) < len(order):
        seen: set[int] = set()  # set.add returns None, so only repeats read True
        dup[:] = [i in seen or seen.add(i) for i in order]
    violations: list[tuple[int, str]] = []
    for j in np.flatnonzero(dup | early | late).tolist():
        if dup[j]:
            violations.append((j, DUPLICATE_POINT))
        if early[j]:
            violations.append((j, OVERLAP_PREVIOUS if j else START_BEFORE_TRUCK))
        if late[j]:
            violations.append((j, START_AFTER_WINDOW if in_band[j] else OUT_OF_BAND))
    completion = float(ret[-1]) if order else inst.truck_start  # a Python float, like the start
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
    window opening; `order` may be any iterable and is read once.  Returns
    None when return_position answers INFEASIBLE (a window closed, or out of band).
    """
    n, order = len(inst), list(order)
    seen: set[int] = set()
    for idx in order:
        if not 0 <= idx < n:
            raise InvalidScheduleError(f"order references point {idx} of {n}")
        if idx in seen:
            raise InvalidScheduleError(f"order repeats point {idx}")
        seen.add(idx)
    xs, ys = inst.xs[order], inst.ys[order]
    es = window_arrays(xs, ys, inst.v, inst.R)[0].tolist()
    starts, rets = [], []
    cur = inst.truck_start
    for p, first in zip(zip(xs.tolist(), ys.tolist()), es):
        starts.append(max(cur, first))
        cur = return_position(starts[-1], p, inst.v, inst.R)
        if cur == INFEASIBLE:
            return None
        rets.append(cur)
    return Schedule._from_columns(order, starts, rets)
