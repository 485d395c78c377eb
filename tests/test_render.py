"""Tests for the SVG writer: fixed bytes, checked against the f-string writer
it replaced."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truckdrone.generators import gen_random_band, gen_random_proper
from truckdrone.geometry import reach_envelope, start_window
from truckdrone.model import Delivery, Instance, InvalidScheduleError, Schedule, verify_schedule
from truckdrone.render import (
    AXIS_COLOR,
    DRONE_COLOR,
    ELLIPSE_COLOR,
    HEIGHT,
    POINT_COLOR,
    TRUCK_COLOR,
    WIDTH,
    WINDOW_COLOR,
    _tag,
    render_svg,
)
from truckdrone.solvers import solve_exact, solve_greedy


def _ref_fmt(value: float) -> str:
    return f"{value + 0.0:.2f}"


def _reference_render_svg(inst: Instance, sched: Schedule | None = None,
                          show_windows: bool = False, show_ellipses: bool = False) -> str:
    """Reference: the element-by-element f-string writer render_svg replaced."""
    env = reach_envelope(inst.v, inst.R)
    m = env.minor_radius
    if inst.points:
        lo = min(p.x for p in inst.points) - inst.R
        hi = max(p.x for p in inst.points) + inst.R
    else:
        lo = inst.truck_start - inst.R
        hi = inst.truck_start + inst.R
    world_w = hi - lo
    world_h = 2.0 * m
    scale = min(WIDTH / world_w, HEIGHT / world_h)

    def X(wx: float) -> float:
        return (WIDTH - world_w * scale) / 2.0 + (wx - lo) * scale

    def Y(wy: float) -> float:
        return HEIGHT / 2.0 - wy * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_ref_fmt(WIDTH)}" '
        f'height="{_ref_fmt(HEIGHT)}" viewBox="0 0 {_ref_fmt(WIDTH)} {_ref_fmt(HEIGHT)}">',
        f'<rect x="0" y="0" width="{_ref_fmt(WIDTH)}" height="{_ref_fmt(HEIGHT)}" fill="#ffffff"/>',
        f'<line x1="0" y1="{_ref_fmt(Y(0.0))}" x2="{_ref_fmt(WIDTH)}" y2="{_ref_fmt(Y(0.0))}" '
        f'stroke="{AXIS_COLOR}" stroke-width="1"/>',
    ]

    deliveries = sched.deliveries if sched is not None else ()

    if show_ellipses:
        for d in deliveries:
            cx = d.start + env.focal_gap / 2.0
            parts.append(
                f'<ellipse cx="{_ref_fmt(X(cx))}" cy="{_ref_fmt(Y(0.0))}" '
                f'rx="{_ref_fmt(env.major_radius * scale)}" ry="{_ref_fmt(m * scale)}" '
                f'fill="none" stroke="{ELLIPSE_COLOR}" stroke-width="1" '
                f'stroke-dasharray="4 3"/>'
            )

    if show_windows:
        for i, p in enumerate(inst.points):
            w = start_window(p, inst.v, inst.R)
            if w is None:
                continue
            ya, yb = Y(0.0) - 5.0, Y(0.0) + 5.0
            for tick in (w.es, w.ls):
                parts.append(
                    f'<line x1="{_ref_fmt(X(tick))}" y1="{_ref_fmt(ya)}" '
                    f'x2="{_ref_fmt(X(tick))}" y2="{_ref_fmt(yb)}" '
                    f'stroke="{WINDOW_COLOR}" stroke-width="1.5"/>'
                )
            parts.append(
                f'<line x1="{_ref_fmt(X(w.es))}" y1="{_ref_fmt(Y(0.0))}" '
                f'x2="{_ref_fmt(X(w.ls))}" y2="{_ref_fmt(Y(0.0))}" '
                f'stroke="{WINDOW_COLOR}" stroke-width="3" opacity="0.5"/>'
            )

    truck_end = max((d.ret for d in deliveries), default=inst.truck_start)
    truck_end = max(truck_end, hi)
    parts.append(
        f'<line x1="{_ref_fmt(X(inst.truck_start))}" y1="{_ref_fmt(Y(0.0))}" '
        f'x2="{_ref_fmt(X(truck_end))}" y2="{_ref_fmt(Y(0.0))}" '
        f'stroke="{TRUCK_COLOR}" stroke-width="2.5"/>'
    )

    for d in deliveries:
        p = inst.points[d.point]
        pts = (
            f"{_ref_fmt(X(d.start))},{_ref_fmt(Y(0.0))} "
            f"{_ref_fmt(X(p.x))},{_ref_fmt(Y(p.y))} "
            f"{_ref_fmt(X(d.ret))},{_ref_fmt(Y(0.0))}"
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" '
            f'stroke="{DRONE_COLOR}" stroke-width="1.5"/>'
        )

    for i, p in enumerate(inst.points):
        parts.append(
            f'<circle cx="{_ref_fmt(X(p.x))}" cy="{_ref_fmt(Y(p.y))}" r="3" '
            f'fill="{POINT_COLOR}"/>'
        )
        parts.append(
            f'<text x="{_ref_fmt(X(p.x) + 5.0)}" y="{_ref_fmt(Y(p.y) - 5.0)}" '
            f'font-size="11" font-family="monospace" '
            f'fill="{POINT_COLOR}">{i}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


@st.composite
def _drawings(draw):
    """An instance, a schedule for it (or None) and the two flags."""
    v = draw(st.sampled_from([1.2, 2.0, 3.0]))
    R = draw(st.sampled_from([0.5, 10.0, 300.0]))
    kind = draw(st.sampled_from(["empty", "band", "proper"]))
    n, seed = draw(st.integers(1, 8)), draw(st.integers(0, 10_000))
    if kind == "empty":
        base = Instance(v, R, (), truck_start=draw(st.floats(-50.0, 50.0)))
    elif kind == "band":
        base = gen_random_band(n, v, R, x_span=4.0 * R, seed=seed)
    else:
        base = gen_random_proper(n, v, R, seed=seed)
    # lift every third point by half, past the band for the upper third;
    # flip heights below the axis; move the whole picture along the road
    lift = draw(st.booleans())
    sign = draw(st.sampled_from([1.0, -1.0]))
    T = draw(st.sampled_from([0.0, 1e3, 1e6]))
    pts = [(p.x + T, sign * p.y * (1.5 if lift and i % 3 == 0 else 1.0))
           for i, p in enumerate(base.points)]
    inst = Instance(v, R, pts, truck_start=base.truck_start + T)
    solver = draw(st.sampled_from([None, solve_greedy, solve_exact]))
    sched = solver(inst) if solver is not None else None
    return inst, sched, draw(st.booleans()), draw(st.booleans())


class TestRenderSvg:
    @settings(max_examples=300)
    @given(_drawings())
    def test_bytes_equal_the_reference_writer(self, drawing):
        assert render_svg(*drawing) == _reference_render_svg(*drawing)

    def test_literal_widths_are_not_reformatted(self):
        # written as given: a float 1.5 would read "1.50"
        assert _tag("line", x1=1.5, stroke_width="1.5") == '<line x1="1.50" stroke-width="1.5"/>'
        assert _tag("text", "7", x=0.0) == '<text x="0.00">7</text>'

    def test_every_flag_pair_on_one_schedule(self):
        inst = gen_random_band(6, 2.0, 10.0, x_span=40.0, seed=5)
        sched = solve_greedy(inst)
        assert sched.count > 0
        for windows in (False, True):
            for ellipses in (False, True):
                svg = render_svg(inst, sched, windows, ellipses)
                assert svg == _reference_render_svg(inst, sched, windows, ellipses)
                assert svg.count("<ellipse") == (sched.count if ellipses else 0)

    @pytest.mark.parametrize("point, start, message", [
        (-1, 0.0, "entry 0 references point -1 of an instance with 6 points"),
        (6, 0.0, "entry 0 references point 6 of an instance with 6 points"),
        (0, math.nan, "entry 0 launches at NaN")])
    def test_what_verify_refuses_is_refused_with_its_message(self, point, start, message):
        inst = gen_random_band(6, 2.0, 10.0, x_span=40.0, seed=5)
        sched = Schedule([Delivery(point, start, 1.0)])
        with pytest.raises(InvalidScheduleError) as want:
            verify_schedule(inst, sched)
        with pytest.raises(InvalidScheduleError) as got:
            render_svg(inst, sched)
        assert str(got.value) == str(want.value) == message

    def test_an_infeasible_schedule_is_still_drawn(self):
        # verify's refusal is for malformed entries only; a late launch draws
        inst = gen_random_band(6, 2.0, 10.0, x_span=40.0, seed=5)
        sched = Schedule([Delivery(1, 40.0, 41.0)])
        assert not verify_schedule(inst, sched).feasible
        assert render_svg(inst, sched, True, True) == _reference_render_svg(inst, sched, True, True)
