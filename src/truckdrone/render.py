"""Deterministic SVG pictures of instances and schedules.

Output depends only on the inputs: fixed canvas, fixed decimal formatting,
elements emitted in index order.  Rendering the same instance twice gives
byte-identical files.
"""

from __future__ import annotations

import math

from .geometry import reach_envelope, window_arrays
from .model import Instance, Schedule, verify_schedule

WIDTH = 1200.0
HEIGHT = 400.0

AXIS_COLOR = "#999999"
TRUCK_COLOR = "#cc2222"
DRONE_COLOR = "#2255cc"
POINT_COLOR = "#111111"
WINDOW_COLOR = "#1a7f37"
ELLIPSE_COLOR = "#aaaaaa"


def _fmt(value: float) -> str:
    if not math.isfinite(value):  # a far out-of-band point or launch can overflow
        raise ValueError(f"cannot draw: a coordinate is {value} at double precision")
    return f"{value + 0.0:.2f}"


def _tag(name: str, text: str | None = None, **attrs) -> str:
    """One SVG element.  '_' in an attribute name is written '-'; string
    values are written as given, numbers through _fmt."""
    body = "".join(f' {k.replace("_", "-")}="{v if isinstance(v, str) else _fmt(v)}"'
                   for k, v in attrs.items())
    return f"<{name}{body}/>" if text is None else f"<{name}{body}>{text}</{name}>"


def render_svg(inst: Instance, sched: Schedule | None = None,
               show_windows: bool = False, show_ellipses: bool = False) -> str:
    """Draw the band, the truck's path (red), and each flight (blue).

    Optional extras: start-window brackets on the axis and the full-range
    reach ellipse of every scheduled launch.  A schedule is checked by
    verify_schedule first: a bad index or a NaN launch raises its error.
    """
    if sched is not None:
        verify_schedule(inst, sched)
    env = reach_envelope(inst.v, inst.R)
    xs, ys = inst.xs.tolist(), inst.ys.tolist()
    lo = min(xs, default=inst.truck_start) - inst.R
    hi = max(xs, default=inst.truck_start) + inst.R
    world_w, world_h = hi - lo, 2.0 * env.minor_radius
    scale = min(WIDTH / world_w, HEIGHT / world_h)

    def X(wx: float) -> float:
        return (WIDTH - world_w * scale) / 2.0 + (wx - lo) * scale

    def Y(wy: float) -> float:
        return HEIGHT / 2.0 - wy * scale

    def line(x1, y1, x2, y2, color: str, width: str, **extra) -> str:
        return _tag("line", x1=x1, y1=y1, x2=x2, y2=y2, stroke=color, stroke_width=width, **extra)

    axis = Y(0.0)
    parts = [_tag("rect", x="0", y="0", width=WIDTH, height=HEIGHT, fill="#ffffff"),
             line("0", axis, WIDTH, axis, AXIS_COLOR, "1")]
    order, starts, rets = (sched.order, sched.starts, sched.rets) if sched else ((), (), ())

    if show_ellipses:
        for start in starts:
            parts.append(_tag("ellipse", cx=X(start + env.focal_gap / 2.0), cy=axis,
                              rx=env.major_radius * scale, ry=env.minor_radius * scale,
                              fill="none", stroke=ELLIPSE_COLOR, stroke_width="1",
                              stroke_dasharray="4 3"))

    if show_windows:
        es, ls, _, _, in_band = window_arrays(inst.xs, inst.ys, inst.v, inst.R)
        for first, last in zip(es[in_band].tolist(), ls[in_band].tolist()):
            for t in (first, last):
                parts.append(line(X(t), axis - 5.0, X(t), axis + 5.0, WINDOW_COLOR, "1.5"))
            parts.append(line(X(first), axis, X(last), axis, WINDOW_COLOR, "3", opacity="0.5"))

    truck_end = max(max(rets, default=inst.truck_start), hi)
    parts.append(line(X(inst.truck_start), axis, X(truck_end), axis, TRUCK_COLOR, "2.5"))

    for i, start, ret in zip(order, starts, rets):
        pts = " ".join(f"{_fmt(X(wx))},{_fmt(Y(wy))}"
                       for wx, wy in ((start, 0.0), (xs[i], ys[i]), (ret, 0.0)))
        parts.append(_tag("polyline", points=pts, fill="none", stroke=DRONE_COLOR,
                          stroke_width="1.5"))

    for i, (x, y) in enumerate(zip(xs, ys)):
        parts.append(_tag("circle", cx=X(x), cy=Y(y), r="3", fill=POINT_COLOR))
        parts.append(_tag("text", str(i), x=X(x) + 5.0, y=Y(y) - 5.0, font_size="11",
                          font_family="monospace", fill=POINT_COLOR))

    return _tag("svg", "\n" + "\n".join(parts) + "\n", xmlns="http://www.w3.org/2000/svg",
                width=WIDTH, height=HEIGHT, viewBox=f"0 0 {_fmt(WIDTH)} {_fmt(HEIGHT)}") + "\n"
