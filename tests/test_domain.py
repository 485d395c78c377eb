"""The numeric domain: R <= 2**400 and instance_scale <= 2**40 * R / v.

Inside it every solver, the properness check, verify and render run
without a floating-point warning and return finite landings and feasible
schedules; just past each bound, Instance and the geometry refuse.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truckdrone import (
    Instance,
    check_proper,
    dp_table,
    reach_envelope,
    render_svg,
    return_positions,
    solve_dp_proper,
    solve_exact,
    solve_greedy,
    start_window,
    verify_schedule,
    window_arrays,
)
from truckdrone.geometry import _minor_radius

MAX_R, SPREAD = 2.0**400, 2.0**40
V_MIN = 1.0000000000000002


def _up(x):
    return float(np.nextafter(x, math.inf))


def _down(x):
    return float(np.nextafter(x, -math.inf))


def run_everything(inst):
    """Every solver, the properness check, verify and render, with every
    floating-point warning raised; each schedule is feasible with finite landings."""
    with warnings.catch_warnings(), np.errstate(over="raise", divide="raise", invalid="raise"):
        warnings.simplefilter("error")
        scheds = [solve_greedy(inst), solve_dp_proper(inst, require_proper=False)]
        # the DP's order packs to the table's own last landing, bit for bit
        rows = dp_table(inst).completions
        assert scheds[1].rets[-1:] == ((rows[-1].min(),) if len(rows) else ())
        if len(inst) <= 6:
            scheds.append(solve_exact(inst))
        check_proper(inst)
        for sched in scheds:
            report = verify_schedule(inst, sched)
            assert report.feasible, report.violations
            assert all(map(math.isfinite, sched.rets)) and math.isfinite(report.completion)
            render_svg(inst, sched, show_windows=True, show_ellipses=True)
    return scheds


@st.composite
def domain_instances(draw):
    v = draw(st.one_of(st.floats(1.0, SPREAD, exclude_min=True),
                       st.sampled_from([V_MIN, 2.0, SPREAD])))
    R = draw(st.one_of(st.floats(v / SPREAD, MAX_R), st.sampled_from([v / SPREAD, 10.0, MAX_R])))
    bound, m = SPREAD * R / v, _minor_radius(v, R)
    centre = draw(st.floats(-bound, bound))
    # far apart anywhere in the domain, or crowded within a few R of one abscissa
    xs = st.one_of(st.floats(-bound, bound),
                   st.floats(-4.0, 4.0).map(lambda u: min(bound, max(-bound, centre + u * R))))
    heights = st.one_of(st.floats(5e-324, m), st.sampled_from([5e-324, m]))
    n = draw(st.integers(0, 8))
    points = [(draw(xs), draw(heights) * draw(st.sampled_from([1.0, -1.0]))) for _ in range(n)]
    return Instance(v, R, points, truck_start=draw(xs))


class TestInsideTheDomain:
    @settings(max_examples=300)
    @given(inst=domain_instances())
    def test_everything_runs_clean(self, inst):
        run_everything(inst)

    @pytest.mark.parametrize("v, R, points", [
        (SPREAD, MAX_R, [(0.0, 1.0), (MAX_R / 4.0, -_minor_radius(SPREAD, MAX_R))]),
        (V_MIN, V_MIN / SPREAD, [(0.0, 5e-324), (1.0, _minor_radius(V_MIN, V_MIN / SPREAD))]),
        (2.0, 10.0, [(5.0 * SPREAD, 1.0), (5.0 * SPREAD - 3.0, -2.0)]),
    ], ids=["fastest-widest", "slowest-thinnest", "farthest"])
    def test_corners_serve_their_points(self, v, R, points):
        for sched in run_everything(Instance(v, R, points)):
            assert sched.count >= 1

    def test_dp_packs_a_launch_that_waits_until_the_next_window(self):
        # the first launch waits for its window and lands at er, which is the
        # second window's ls; a pack that flew from es landed an ulp past it
        [_, dp, _] = run_everything(Instance(2.0, 3.503562197968246e18,
                                             [(0.0, 1.0), (-1.0, 1.5170869335896727e18)],
                                             truck_start=-3.503562197968246e18))
        assert dp.count == 2

    def test_dp_packs_a_waiting_launch_where_the_flight_form_is_inexact(self):
        # at v = 1 + 2**-52 the flight from es lands at 4.0, not er = 3.0, so
        # a pack that flew from es found the second copy's window closed
        [_, dp, _] = run_everything(Instance(V_MIN, 3.0, [(3.0, 5e-324)] * 2))
        assert dp.count == 2 and dp.rets[0] == 3.0


class TestPastTheDomain:
    @pytest.mark.parametrize("v, R, points, truck_start", [
        (2.0, _up(MAX_R), [], 0.0),  # R past 2**400
        (_up(SPREAD), 1.0, [], 0.0),  # v past 2**40 at scale R
        (V_MIN, _down(V_MIN / SPREAD), [], 0.0),  # R/v below 2**-40 at scale 1
        (2.0, 10.0, [(_up(5.0 * SPREAD), 1.0)], 0.0),  # |x| past 2**40 * R / v
        (2.0, 10.0, [(-_up(5.0 * SPREAD), 1.0)], 0.0),
        (2.0, 10.0, [], _up(5.0 * SPREAD)),  # the truck's start counts too
    ])
    def test_instance_refuses(self, v, R, points, truck_start):
        with pytest.raises(ValueError, match="outside the numeric domain"):
            Instance(v, R, points, truck_start=truck_start)

    def test_instance_admits_each_bound(self):
        Instance(2.0, MAX_R)
        Instance(SPREAD, 1.0)
        Instance(V_MIN, V_MIN / SPREAD)
        Instance(2.0, 10.0, [(-5.0 * SPREAD, 1.0)], truck_start=5.0 * SPREAD)

    @pytest.mark.parametrize("v, R", [(2.0, 5e-324), (1e300, 10.0), (2.0, 1e300)])
    def test_geometry_refuses(self, v, R):
        for call in (lambda: reach_envelope(v, R), lambda: start_window((0.0, 1.0), v, R),
                     lambda: window_arrays([0.0], [1.0], v, R),
                     lambda: return_positions(0.0, [0.0], [1.0], v, R)):
            with pytest.raises(ValueError, match="outside the numeric domain"):
                call()
