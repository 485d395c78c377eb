"""Closed-form geometry against frozen values and the bisection reference."""

import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truckdrone import (
    INFEASIBLE,
    reach_envelope,
    return_position,
    return_positions,
    round_trip_time,
    start_window,
    vertical_delivery_time,
    window_arrays,
)

from oracles import meeting_return


def random_band_point(rng, v, R):
    m = reach_envelope(v, R).minor_radius
    x = rng.uniform(-2.0 * R, 4.0 * R)
    y = 0.0
    while y == 0.0:
        y = rng.uniform(-m, m)
    return x, y


class TestEnvelope:
    def test_frozen_example(self):
        env = reach_envelope(2.0, 10.0)
        assert env.major_radius == 5.0
        assert env.minor_radius == pytest.approx(2.5 * math.sqrt(3.0), abs=1e-12)
        assert env.focal_gap == 5.0

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            reach_envelope(1.0, 10.0)
        with pytest.raises(ValueError):
            reach_envelope(0.5, 10.0)
        with pytest.raises(ValueError):
            reach_envelope(2.0, 0.0)
        with pytest.raises(ValueError):
            reach_envelope(2.0, -1.0)

    def test_minor_below_major(self):
        rng = random.Random(1)
        for _ in range(100):
            env = reach_envelope(rng.uniform(1.01, 20.0), rng.uniform(0.1, 100.0))
            assert 0.0 < env.minor_radius < env.major_radius


class TestStartWindow:
    def test_frozen_interior_point(self):
        m = reach_envelope(2.0, 10.0).minor_radius
        w = start_window((10.0, 0.6 * m), 2.0, 10.0)
        assert w.half_width == pytest.approx(4.0, abs=1e-12)
        assert w.es == pytest.approx(3.5, abs=1e-12)
        assert w.ls == pytest.approx(11.5, abs=1e-12)
        assert w.er == pytest.approx(8.5, abs=1e-12)
        assert w.lr == pytest.approx(16.5, abs=1e-12)

    def test_degenerate_on_band_edge(self):
        m = reach_envelope(2.0, 10.0).minor_radius
        w = start_window((10.0, m), 2.0, 10.0)
        assert w.es == w.ls == pytest.approx(7.5, abs=1e-12)
        assert w.er == w.lr == pytest.approx(12.5, abs=1e-12)
        assert w.half_width == 0.0

    def test_out_of_band_is_none(self):
        assert start_window((0.0, 5.0), 2.0, 10.0) is None
        assert start_window((0.0, -5.0), 2.0, 10.0) is None

    @pytest.mark.parametrize("x, y", [(1.0, math.nan), (math.nan, 1.0), (math.inf, 1.0),
                                      (1.0, -math.inf)])
    def test_rejects_non_finite_point(self, x, y):
        # a NaN height used to give a window, es = ls = x - R/(2v)
        with pytest.raises(ValueError, match="finite"):
            start_window((x, y), 2.0, 10.0)
        with pytest.raises(ValueError, match="finite"):
            return_position(0.0, (x, y), 2.0, 10.0)

    def test_window_shape_invariants(self):
        rng = random.Random(2)
        for _ in range(300):
            v = rng.uniform(1.01, 10.0)
            R = rng.uniform(0.5, 100.0)
            x, y = random_band_point(rng, v, R)
            w = start_window((x, y), v, R)
            gap = R / v
            assert w.es <= w.ls
            assert w.er == pytest.approx(w.es + gap, rel=1e-12, abs=1e-12)
            assert w.lr == pytest.approx(w.ls + gap, rel=1e-12, abs=1e-12)
            assert 0.0 <= w.half_width <= R / 2.0
            # the window is symmetric about x - gap/2
            assert (w.es + w.ls) / 2.0 == pytest.approx(x - gap / 2.0, rel=1e-9, abs=1e-9)


class TestReturnPosition:
    def test_frozen_launch_below_point(self):
        assert return_position(5.0, (5.0, 3.0), 2.0, 10.0) == pytest.approx(9.0, abs=1e-12)

    def test_frozen_launch_at_origin(self):
        expected = (4.0 * math.sqrt(34.0) - 10.0) / 3.0  # 4.441269193127067
        assert return_position(0.0, (5.0, 3.0), 2.0, 10.0) == pytest.approx(expected, abs=1e-12)

    def test_early_launch_clamps_to_earliest_return(self):
        m = reach_envelope(2.0, 10.0).minor_radius
        d = (10.0, 0.6 * m)
        w = start_window(d, 2.0, 10.0)
        for s in (-100.0, 0.0, w.es - 1e-6, w.es):
            assert return_position(s, d, 2.0, 10.0) == w.er

    def test_late_launch_is_infeasible(self):
        m = reach_envelope(2.0, 10.0).minor_radius
        d = (10.0, 0.6 * m)
        w = start_window(d, 2.0, 10.0)
        assert return_position(w.ls + 1e-9, d, 2.0, 10.0) == INFEASIBLE
        assert return_position(1e9, d, 2.0, 10.0) == INFEASIBLE

    def test_out_of_band_point_is_infeasible(self):
        assert return_position(0.0, (0.0, 5.0), 2.0, 10.0) == INFEASIBLE

    def test_matches_bisection(self):
        rng = random.Random(3)
        for _ in range(300):
            v = rng.uniform(1.05, 10.0)
            R = rng.uniform(0.5, 100.0)
            x, y = random_band_point(rng, v, R)
            w = start_window((x, y), v, R)
            s = rng.uniform(w.es, w.ls)
            got = return_position(s, (x, y), v, R)
            assert got == pytest.approx(meeting_return(s, x, y, v, R), abs=1e-6)

    @pytest.mark.parametrize("shift, rel", [(1e5, 1e-9), (1e7, 1e-7)])
    def test_matches_bisection_far_from_origin(self, shift, rel):
        # the flight time must not lose digits to the absolute abscissa
        rng = random.Random(15)
        for _ in range(300):
            v = rng.uniform(1.05, 10.0)
            R = rng.uniform(0.5, 100.0)
            x, y = random_band_point(rng, v, R)
            x += shift
            w = start_window((x, y), v, R)
            s = rng.uniform(w.es, w.ls)
            trip = return_position(s, (x, y), v, R) - s
            assert trip == pytest.approx(meeting_return(s, x, y, v, R) - s, rel=rel)

    def test_full_range_at_window_ends(self):
        rng = random.Random(4)
        for _ in range(300):
            v = rng.uniform(1.01, 10.0)
            R = rng.uniform(0.5, 100.0)
            x, y = random_band_point(rng, v, R)
            w = start_window((x, y), v, R)
            for s in (w.es, w.ls):
                r = return_position(s, (x, y), v, R)
                path = math.dist((s, 0.0), (x, y)) + math.dist((x, y), (r, 0.0))
                assert abs(path - R) <= 1e-9 * R

    def test_kinematic_consistency(self):
        # truck distance times drone speed equals the flown path
        rng = random.Random(5)
        for _ in range(500):
            v = rng.uniform(1.05, 10.0)
            R = rng.uniform(0.5, 100.0)
            x, y = random_band_point(rng, v, R)
            w = start_window((x, y), v, R)
            s = rng.uniform(w.es, w.ls)
            r = return_position(s, (x, y), v, R)
            path = math.dist((s, 0.0), (x, y)) + math.dist((x, y), (r, 0.0))
            assert v * (r - s) == pytest.approx(path, rel=1e-9)

    def test_monotone_in_launch(self):
        # later launch never lands earlier: 10k pairs on each of 5 points
        rng = random.Random(6)
        for _ in range(5):
            v = rng.uniform(1.05, 10.0)
            R = rng.uniform(0.5, 100.0)
            x, y = random_band_point(rng, v, R)
            w = start_window((x, y), v, R)
            a = np.random.default_rng(7).uniform(w.es, w.ls, size=(2, 10_000))
            lo, hi = a.min(axis=0), a.max(axis=0)
            r_lo = return_positions(lo, x, y, v, R)
            r_hi = return_positions(hi, x, y, v, R)
            assert (r_hi >= r_lo - 1e-9 * max(1.0, R)).all()

    def test_trip_profile_unimodal(self):
        # across the window the round trip falls then rises, peaking at the
        # ends with the full-range value R/v
        rng = random.Random(8)
        for _ in range(20):
            v = rng.uniform(1.05, 10.0)
            R = rng.uniform(0.5, 100.0)
            x, y = random_band_point(rng, v, R)
            w = start_window((x, y), v, R)
            if w.ls - w.es < 1e-9:
                continue
            grid = np.linspace(w.es, w.ls, 1000)
            trips = return_positions(grid, x, y, v, R) - grid
            eps = 1e-9 * R
            assert trips.max() <= R / v + eps
            diffs = np.diff(trips)
            rising = False
            for d in diffs:
                if d > eps:
                    rising = True
                elif d < -eps:
                    assert not rising, "trip profile rose and then fell"

    def test_mirror_symmetry_exact(self):
        rng = random.Random(9)
        for _ in range(200):
            v = rng.uniform(1.05, 10.0)
            R = rng.uniform(0.5, 100.0)
            x, y = random_band_point(rng, v, R)
            w = start_window((x, y), v, R)
            s = rng.uniform(w.es, w.ls)
            assert return_position(s, (x, y), v, R) == return_position(s, (x, -y), v, R)

    def test_translation_covariance(self):
        rng = random.Random(10)
        for _ in range(200):
            v = rng.uniform(1.05, 10.0)
            R = rng.uniform(0.5, 100.0)
            x, y = random_band_point(rng, v, R)
            w = start_window((x, y), v, R)
            s = rng.uniform(w.es, w.ls)
            shift = rng.uniform(-100.0, 100.0)
            moved = return_position(s + shift, (x + shift, y), v, R)
            here = return_position(s, (x, y), v, R)
            assert moved == pytest.approx(here + shift, rel=1e-9, abs=1e-9 * max(1.0, R))

    def test_trip_lower_bound(self):
        # the drone must at least cross to the point's height and back
        rng = random.Random(11)
        for _ in range(300):
            v = rng.uniform(1.05, 10.0)
            R = rng.uniform(0.5, 100.0)
            x, y = random_band_point(rng, v, R)
            w = start_window((x, y), v, R)
            s = rng.uniform(w.es, w.ls)
            trip = round_trip_time(s, (x, y), v, R)
            assert trip >= 2.0 * abs(y) / v - 1e-9 * max(1.0, R)


class TestRoundTripTime:
    def test_frozen_value(self):
        assert round_trip_time(5.0, (5.0, 3.0), 2.0, 10.0) == pytest.approx(4.0, abs=1e-12)

    def test_full_range_at_earliest(self):
        m = reach_envelope(2.0, 10.0).minor_radius
        d = (10.0, 0.6 * m)
        w = start_window(d, 2.0, 10.0)
        assert round_trip_time(w.es, d, 2.0, 10.0) == w.er - w.es == 5.0

    def test_infeasible_cases(self):
        assert round_trip_time(100.0, (5.0, 3.0), 2.0, 10.0) == INFEASIBLE
        assert round_trip_time(0.0, (0.0, 99.0), 2.0, 10.0) == INFEASIBLE

    def test_waiting_included_before_window(self):
        d = (5.0, 3.0)
        w = start_window(d, 2.0, 10.0)
        # launching "now" far left of the window means riding along first
        assert round_trip_time(w.es - 7.0, d, 2.0, 10.0) == pytest.approx(
            5.0 + 7.0, abs=1e-9
        )


class TestVerticalDeliveryTime:
    def test_frozen_values(self):
        assert vertical_delivery_time(0.0, 2.0, 8.0) == pytest.approx(32.0 / 63.0, abs=1e-15)
        expected = 2.0 * (8.0 * math.sqrt(5.0) + 1.0) / 63.0  # 0.5996363117459783
        assert vertical_delivery_time(1.0, 2.0, 8.0) == pytest.approx(expected, abs=1e-15)

    def test_matches_range_free_return(self):
        # with a huge range the capped round trip reduces to the closed form
        rng = random.Random(12)
        for _ in range(200):
            v = rng.uniform(1.5, 50.0)
            s = rng.uniform(0.0, 3.0)
            y = rng.uniform(0.1, 10.0)
            R = 1e6
            trip = round_trip_time(s, (0.0, y), v, R)
            assert trip == pytest.approx(vertical_delivery_time(s, y, v), rel=1e-9)

    def test_matches_oracle_on_envelope_box(self):
        # acceptance check 7's box, against the bisection reference only
        rng = random.Random(107)
        for _ in range(1000):
            v = rng.uniform(8.0, 64.0)
            y = rng.uniform(v / 4.0, v / 2.0)
            s = rng.uniform(0.0, 3.0)
            trip = meeting_return(s, 0.0, y, v, 1e3) - s
            assert vertical_delivery_time(s, y, v) == pytest.approx(trip, rel=1e-9)

    def test_linear_term_needs_coefficient_two(self):
        # an envelope with linear term s, not 2s, fails on check 7's box
        s, v, y = 1.116270865053018, 49.13355390681056, 13.997927156410421
        trip = meeting_return(s, 0.0, y, v, 1e3) - s
        lo = 2.0 * y / v
        assert trip > lo + (1.0 + 4.0 * s * s + s) / (v * v - 1.0)
        assert lo < trip < lo + (1.0 + 4.0 * s * s + 2.0 * s) / (v * v - 1.0)

    def test_sandwich_bounds_on_wedge(self):
        # the envelope stated in the vertical_delivery_time docstring
        rng = random.Random(13)
        for _ in range(500):
            v = rng.uniform(8.0, 64.0)
            y = rng.uniform(v / 4.0, v / 2.0)
            s = rng.uniform(0.0, 3.0)
            dt = vertical_delivery_time(s, y, v)
            assert dt > 2.0 * y / v
            assert dt < 2.0 * y / v + (1.0 + 4.0 * s * s + 2.0 * s) / (v * v - 1.0)

    def test_approaches_height_crossing_as_speed_grows(self):
        y = 3.0
        for v in (1e2, 1e4, 1e6):
            ratio = vertical_delivery_time(0.0, y, v) / (2.0 * y / v)
            assert ratio == pytest.approx(1.0, abs=1e-3 if v == 1e2 else 1e-7)

    def test_rejects_slow_drone(self):
        with pytest.raises(ValueError):
            vertical_delivery_time(0.0, 2.0, 1.0)


class TestVectorized:
    def test_matches_scalar_bitwise(self):
        rng = random.Random(14)
        v, R = 2.7, 23.0
        m = reach_envelope(v, R).minor_radius
        xs, ys, ss = [], [], []
        for _ in range(500):
            x, y = random_band_point(rng, v, R)
            xs.append(x)
            ys.append(y)
            ss.append(rng.uniform(x - 2.0 * R, x + 2.0 * R))
        got = return_positions(np.array(ss), np.array(xs), np.array(ys), v, R)
        for i in range(len(xs)):
            assert got[i] == return_position(ss[i], (xs[i], ys[i]), v, R)

    @settings(max_examples=200)
    @given(
        v=st.floats(1.05, 8.0),
        R=st.floats(0.1, 50.0),
        T=st.sampled_from([0.0, 1e3, 1e5, 1e7, -1e7]),
        x=st.floats(-20.0, 20.0),
        frac=st.floats(-1.0, 1.0).filter(bool),
        where=st.floats(-3.0, 3.0),
    )
    def test_property_matches_scalar_bitwise(self, v, R, T, x, frac, where):
        # where < 0 launches before the window, 0..1 inside it, > 1 after it
        y = frac * reach_envelope(v, R).minor_radius
        w = start_window((x + T, y), v, R)
        s = w.es + where * (w.ls - w.es) if w.ls > w.es else w.es + where
        for launch in (s, w.es, w.ls):
            got = return_positions(launch, [x + T], [y], v, R)[0]
            assert got == return_position(launch, (x + T, y), v, R)

    def test_out_of_band_rows_masked(self):
        v, R = 2.0, 10.0
        m = reach_envelope(v, R).minor_radius
        es, ls, er, lr, band = window_arrays([0.0, 0.0], [1.0, 2.0 * m], v, R)
        assert band.tolist() == [True, False]
        got = return_positions(0.0, [0.0, 0.0], [1.0, 2.0 * m], v, R)
        assert math.isfinite(got[0])
        assert got[1] == INFEASIBLE

    def test_far_out_of_band_rows_raise_no_overflow(self):
        # 1e200 squares to inf; the band clamp keeps numpy quiet and the
        # in-band rows unchanged
        xs, ys = [0.0, 1.0, 2.0], [1e200, 3.0, -1e300]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            es, ls, er, lr, band = window_arrays(xs, ys, 2.0, 10.0)
            got = return_positions(0.0, xs, ys, 2.0, 10.0)
        assert band.tolist() == [False, True, False]
        assert (ls - es).tolist()[::2] == [0.0, 0.0]
        assert got[0] == got[2] == INFEASIBLE
        assert got[1] == return_position(0.0, (1.0, 3.0), 2.0, 10.0)

    def test_infinite_launch_passes_through(self):
        got = return_positions(np.array([np.inf, 0.0]), 5.0, 3.0, 2.0, 10.0)
        assert got[0] == INFEASIBLE
        assert math.isfinite(got[1])

    def test_broadcasts_matrix(self):
        xs = np.array([5.0, 30.0])
        ys = np.array([3.0, 3.0])
        launches = np.array([[0.0], [5.0]])
        got = return_positions(launches, xs, ys, 2.0, 10.0)
        assert got.shape == (2, 2)
        assert got[0, 0] == return_position(0.0, (5.0, 3.0), 2.0, 10.0)
        assert got[1, 0] == return_position(5.0, (5.0, 3.0), 2.0, 10.0)
