"""Reach geometry for a drone launched from a truck driving the x-axis.

The truck moves right along the x-axis at unit speed, so abscissas double
as times.  A drone with speed v > 1 and flying range R leaves the truck,
serves one point, and lands back on the truck.  Everything here is derived
from that round-trip constraint: the set of reachable points, the window
of launch abscissas that can serve a given point, and the abscissa where
the drone lands again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

INFEASIBLE = math.inf


def _point_xy(d) -> tuple[float, float]:
    """Accept either an (x, y) pair or an object with .x/.y attributes."""
    x, y = (float(d.x), float(d.y)) if hasattr(d, "x") else map(float, d)
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"point must be finite, got ({x}, {y})")
    return x, y


def _check_params(v: float, R: float) -> None:
    if not v > 1.0:
        raise ValueError(f"drone speed must exceed truck speed 1, got v={v}")
    if not R > 0.0:
        raise ValueError(f"flying range must be positive, got R={R}")


def _minor_radius(v: float, R: float) -> float:
    # single authority for the band half-height; solvers compare against
    # this exact expression so boundary points stay boundary points
    return (R / (2.0 * v)) * math.sqrt(v * v - 1.0)


@dataclass(frozen=True)
class Envelope:
    """Half-axes of the reachable-set ellipse for one launch.

    The reachable points form an ellipse whose foci are the launch and
    the latest-landing abscissa, focal_gap = R/v apart.
    """

    major_radius: float
    minor_radius: float
    focal_gap: float


@dataclass(frozen=True)
class StartWindow:
    """Launch abscissas from which a point can be served.

    es/ls are the earliest and latest feasible launch abscissas; er/lr the
    corresponding landing abscissas (each exactly focal_gap after its
    launch, since both extremes use the full range).
    """

    es: float
    ls: float
    er: float
    lr: float
    half_width: float


def reach_envelope(v: float, R: float) -> Envelope:
    """Ellipse half-axes for speed v and range R."""
    _check_params(v, R)
    return Envelope(
        major_radius=R / 2.0,
        minor_radius=_minor_radius(v, R),
        focal_gap=R / v,
    )


def start_window(d, v: float, R: float) -> StartWindow | None:
    """Window of launch abscissas that can serve point d.

    Returns None when |y| exceeds the band half-height (out of reach from
    any launch).  At |y| equal to the half-height the window degenerates
    to a single abscissa.
    """
    _check_params(v, R)
    x, y = _point_xy(d)
    M = R / 2.0
    m = _minor_radius(v, R)
    if abs(y) > m:
        return None
    half = M * math.sqrt(max(0.0, 1.0 - (y * y) / (m * m)))
    gap = R / v
    es = x - gap / 2.0 - half
    ls = x - gap / 2.0 + half
    return StartWindow(es=es, ls=ls, er=es + gap, lr=ls + gap, half_width=half)


def _flight_time(dx, a, v):
    """Flight time for a launch dx past a point at distance a; arrays work too.

    Meeting condition: a + sqrt((dx + t)^2 + y^2) = v*t.  Squaring it with
    a^2 = dx^2 + y^2 leaves t = 2(v*a + dx)/(v^2 - 1), and adds no root, as
    a >= |dx| and v^2 + 1 >= 2v give v*t >= a.  The inputs are relative to
    the point, so no term cancels far from the origin.
    """
    return 2.0 * (v * a + dx) / (v * v - 1.0)


def _land(s: float, x: float, y: float, es: float, er: float, v: float) -> float:
    """The one landing step: launch s <= ls serves (x, y); before es it lands at er."""
    if s < es:
        return er
    dx = s - x
    return s + _flight_time(dx, math.sqrt(y * y + dx * dx), v)


def return_position(s: float, d, v: float, R: float) -> float:
    """Abscissa where the drone lands after serving d from launch s.

    Launching before the window means the drone sits on the truck until
    the window opens, so the landing clamps to er.  Launching after the
    window (or at an out-of-reach point) is INFEASIBLE.
    """
    x, y = _point_xy(d)
    w = start_window((x, y), v, R)
    if w is None or s > w.ls:
        return INFEASIBLE
    return _land(s, x, y, w.es, w.er, v)


def round_trip_time(s: float, d, v: float, R: float) -> float:
    """Time from launch abscissa s until the drone is back on the truck.

    Includes any wait before the window opens; INFEASIBLE past the window.
    """
    r = return_position(s, d, v, R)
    return r - s if r != INFEASIBLE else INFEASIBLE


def vertical_delivery_time(s: float, y: float, v: float) -> float:
    """Round-trip time to a point offset (s, y) behind the launch, no range cap.

    _flight_time for a point at abscissa 0 behind a launch at s >= 0
    (dx = s):  t = 2(v*sqrt(s^2 + y^2) + s)/(v^2 - 1).  Used as a reference
    curve; solvers never call it.

    Envelope.  For s >= 0 and v/4 <= y <= v/2,

        2y/v  <  t  <  2y/v + (1 + 4s^2 + 2s)/(v^2 - 1).

    The lower bound holds because sqrt(s^2 + y^2) >= y and v^2/(v^2 - 1) > 1.
    The upper bound adds up three inequalities:
      sqrt(s^2 + y^2) <= y + s^2/(2y);
      2vy/(v^2 - 1) = 2y/v + 2y/(v(v^2 - 1)) <= 2y/v + 1/(v^2 - 1), as y <= v/2;
      v*s^2/y <= 4s^2, as y >= v/4;
    and the "+ s" of the closed form contributes the remaining 2s/(v^2 - 1).
    """
    _check_params(v, 1.0)
    return _flight_time(s, math.sqrt(s * s + y * y), v)


# --- array plumbing ---------------------------------------------------------
#
# The solvers sweep the same formulas over many (launch, point) pairs; these
# numpy twins keep the exact operation order of the scalar versions so both
# paths produce bit-identical values.

import numpy as np


def _half_width(y, v: float, R: float):
    """Start-window half-width at height y (start_window's half_width); arrays work too."""
    m = _minor_radius(v, R)
    return (R / 2.0) * np.sqrt(np.maximum(0.0, 1.0 - (y * y) / (m * m)))


def window_arrays(xs, ys, v: float, R: float):
    """Vectorized start windows.

    Returns (es, ls, er, lr, in_band).  Out-of-band rows carry placeholder
    windows and in_band False; callers must mask on in_band.
    """
    _check_params(v, R)
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    in_band = np.abs(ys) <= _minor_radius(v, R)
    half = _half_width(ys, v, R)
    gap = R / v
    es = xs - gap / 2.0 - half
    ls = xs - gap / 2.0 + half
    return es, ls, es + gap, ls + gap, in_band


def return_positions(s, xs, ys, v: float, R: float, windows=None):
    """Vectorized return_position; broadcasts s against point coordinates.

    s may be a scalar, a vector, or a column against row-shaped points.
    Infinite s values pass through as INFEASIBLE.  Callers that sweep many
    launch values over the same points can pass the window_arrays result
    as `windows` to avoid recomputing it.
    """
    _check_params(v, R)
    s = np.asarray(s, dtype=float)
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if windows is None:
        windows = window_arrays(xs, ys, v, R)
    es, ls, er, lr, in_band = windows
    # evaluate on a clamped launch so placeholders and infinities never
    # reach the flight time
    sc = np.clip(s, es, ls)
    dx = sc - xs
    ret = sc + _flight_time(dx, np.sqrt(ys * ys + dx * dx), v)
    ret = np.where(s < es, er, ret)
    ret = np.where(s > ls, np.inf, ret)
    return np.where(in_band, ret, np.inf)
