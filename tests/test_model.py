"""Tests for instances, schedules, verification, and earliest-start packing."""

import math
import random

import pytest

from truckdrone.geometry import INFEASIBLE, return_position, start_window
from truckdrone.model import (
    DUPLICATE_POINT,
    OUT_OF_BAND,
    OVERLAP_PREVIOUS,
    START_AFTER_WINDOW,
    START_BEFORE_TRUCK,
    Delivery,
    DeliveryPoint,
    InfeasibleScheduleError,
    Instance,
    InvalidScheduleError,
    Schedule,
    earliest_start_pack,
    instance_scale,
    schedule_completion,
    verify_schedule,
)


def minor_radius(v, R):
    return (R / (2.0 * v)) * math.sqrt(v * v - 1.0)


def two_point_instance():
    # second point sits at 60% of the band height, well to the right
    m = minor_radius(2.0, 10.0)
    return Instance(v=2.0, R=10.0, points=[(5.0, 3.0), (30.0, 0.6 * m)])


class TestDeliveryPoint:
    def test_rejects_axis_point(self):
        with pytest.raises(ValueError):
            DeliveryPoint(3.0, 0.0)

    def test_coerces_to_float(self):
        p = DeliveryPoint(1, 2)
        assert isinstance(p.x, float) and isinstance(p.y, float)

    def test_frozen(self):
        p = DeliveryPoint(1.0, 2.0)
        with pytest.raises(AttributeError):
            p.x = 5.0

    @pytest.mark.parametrize("x, y", [
        (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (-math.inf, 1.0),
        (1.0, math.inf), (1.0, -math.inf),
    ])
    def test_rejects_non_finite(self, x, y):
        with pytest.raises(ValueError, match="finite"):
            DeliveryPoint(x, y)


class TestInstance:
    def test_rejects_slow_drone(self):
        with pytest.raises(ValueError):
            Instance(v=1.0, R=10.0)

    def test_rejects_nonpositive_range(self):
        with pytest.raises(ValueError):
            Instance(v=2.0, R=0.0)

    @pytest.mark.parametrize("field", ["v", "R", "truck_start"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, field, bad):
        kwargs = {"v": 2.0, "R": 10.0, "truck_start": 0.0, field: bad}
        with pytest.raises(ValueError, match="finite"):
            Instance(points=[(5.0, 1.0)], **kwargs)

    def test_rejects_non_finite_point(self):
        with pytest.raises(ValueError, match="finite"):
            Instance(v=2.0, R=10.0, points=[(5.0, 1.0), (math.nan, 1.0)])

    def test_coerces_pairs(self):
        inst = Instance(v=2.0, R=10.0, points=[(1.0, 1.0), (2.0, -1.0)])
        assert all(isinstance(p, DeliveryPoint) for p in inst.points)
        assert len(inst) == 2

    def test_scale_tracks_largest_magnitude(self):
        inst = Instance(v=2.0, R=10.0, points=[(500.0, 1.0)], truck_start=-3.0)
        assert instance_scale(inst) == 500.0
        assert instance_scale(Instance(v=2.0, R=0.5)) == 1.0


class TestVerifySchedule:
    def test_empty_schedule(self):
        inst = Instance(v=2.0, R=10.0, truck_start=7.0)
        report = verify_schedule(inst, Schedule())
        assert report.feasible
        assert report.violations == ()
        assert report.completion == 7.0

    def test_frozen_two_point_pack_verifies(self):
        inst = two_point_instance()
        sched = earliest_start_pack(inst, (0, 1))
        report = verify_schedule(inst, sched)
        assert report.feasible
        assert report.completion == pytest.approx(28.5, abs=1e-9)

    def test_stored_landing_is_ignored(self):
        # tampering with the recorded landing must not change the verdict
        inst = two_point_instance()
        sched = earliest_start_pack(inst, (0, 1))
        honest = verify_schedule(inst, sched)
        lies = Schedule(
            tuple(Delivery(d.point, d.start, d.ret + 100.0) for d in sched.deliveries)
        )
        report = verify_schedule(inst, lies)
        assert report.feasible
        assert report.completion == honest.completion

    def test_start_before_truck(self):
        inst = two_point_instance()
        report = verify_schedule(inst, Schedule((Delivery(0, -0.5, 0.0),)))
        assert not report.feasible
        assert report.violations == ((0, START_BEFORE_TRUCK),)

    def test_overlap_with_previous(self):
        inst = two_point_instance()
        sched = earliest_start_pack(inst, (0, 1))
        first = sched.deliveries[0]
        early = Delivery(1, first.ret - 1.0, 0.0)
        report = verify_schedule(inst, Schedule((first, early)))
        assert not report.feasible
        assert (1, OVERLAP_PREVIOUS) in report.violations

    def test_start_after_window(self):
        inst = two_point_instance()
        w = start_window(inst.points[0], inst.v, inst.R)
        report = verify_schedule(inst, Schedule((Delivery(0, w.ls + 1.0, 0.0),)))
        assert not report.feasible
        assert (0, START_AFTER_WINDOW) in report.violations
        assert report.completion == INFEASIBLE

    def test_out_of_band_point(self):
        m = minor_radius(2.0, 10.0)
        inst = Instance(v=2.0, R=10.0, points=[(5.0, 2.0 * m)])
        report = verify_schedule(inst, Schedule((Delivery(0, 0.0, 0.0),)))
        assert not report.feasible
        assert (0, OUT_OF_BAND) in report.violations
        assert report.completion == INFEASIBLE

    def test_duplicate_point(self):
        inst = two_point_instance()
        sched = earliest_start_pack(inst, (0,))
        d = sched.deliveries[0]
        report = verify_schedule(inst, Schedule((d, Delivery(0, d.ret, 0.0))))
        assert not report.feasible
        assert (1, DUPLICATE_POINT) in report.violations

    def test_bad_index_raises(self):
        inst = two_point_instance()
        with pytest.raises(InvalidScheduleError):
            verify_schedule(inst, Schedule((Delivery(2, 0.0, 0.0),)))
        with pytest.raises(InvalidScheduleError):
            verify_schedule(inst, Schedule((Delivery(-1, 0.0, 0.0),)))

    def test_nan_launch_raises(self):
        # a NaN launch fails no comparison, so it would verify as feasible
        inst = two_point_instance()
        good = earliest_start_pack(inst, (0,)).deliveries[0]
        for sched in (Schedule((Delivery(0, math.nan, 0.0),)),
                      Schedule((good, Delivery(1, math.nan, 0.0)))):
            with pytest.raises(InvalidScheduleError, match=f"entry {sched.count - 1} "):
                verify_schedule(inst, sched)
            with pytest.raises(InvalidScheduleError):
                schedule_completion(inst, sched)

    def test_infinite_launches_are_violations(self):
        inst = two_point_instance()
        late = verify_schedule(inst, Schedule((Delivery(0, math.inf, 0.0),)))
        assert late.violations == ((0, START_AFTER_WINDOW),)
        assert late.completion == INFEASIBLE
        early = verify_schedule(inst, Schedule((Delivery(0, -math.inf, 0.0),)))
        assert early.violations == ((0, START_BEFORE_TRUCK),)

    def test_start_within_tolerance_past_window_clamps(self):
        inst = two_point_instance()
        w = start_window(inst.points[0], inst.v, inst.R)
        slack = 1e-9 * instance_scale(inst)
        report = verify_schedule(inst, Schedule((Delivery(0, w.ls + 0.5 * slack, 0.0),)))
        assert report.feasible
        assert report.completion == pytest.approx(w.lr, rel=1e-9)

    def test_landings_equal_return_position_bitwise(self):
        # verify lands each entry from min(start, ls); a start before the
        # window opens waits on the truck and lands at er
        rng = random.Random(31)
        for _ in range(200):
            v, R = rng.uniform(1.2, 5.0), rng.uniform(1.0, 20.0)
            m = minor_radius(v, R)
            T = rng.choice([0.0, 1e4, 1e7])
            pts = [(T + rng.uniform(0.0, 50.0), rng.uniform(-m, m) or m) for _ in range(5)]
            inst = Instance(v, R, pts, truck_start=T)
            slack = 1e-9 * instance_scale(inst)
            entries = []
            for i in rng.sample(range(5), 5):
                w = start_window(inst.points[i], v, R)
                start = rng.choice([w.es - 1.0, w.es, 0.5 * (w.es + w.ls), w.ls, w.ls + 0.5 * slack])
                launch = min(start, w.ls)
                prev = return_position(launch, inst.points[i], v, R)
                entries.append(Delivery(i, start, 0.0))
                if start < w.es:
                    assert prev == w.er
                # a huge tolerance forgives overlaps, so only landings count
                report = verify_schedule(inst, Schedule(entries), tol=1e9)
                assert report.completion == prev

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-9])
    def test_bad_tolerance_raises(self, tol):
        # a NaN slack would pass a start pushed far past its window
        inst = two_point_instance()
        w = start_window(inst.points[0], inst.v, inst.R)
        with pytest.raises(ValueError, match="tolerance"):
            verify_schedule(inst, Schedule((Delivery(0, w.ls + 1000.0, 0.0),)), tol=tol)

    def test_entries_after_a_broken_window_are_flagged(self):
        inst = two_point_instance()
        w0 = start_window(inst.points[0], inst.v, inst.R)
        sched = Schedule((Delivery(0, w0.ls + 1.0, 0.0), Delivery(1, 25.0, 0.0)))
        report = verify_schedule(inst, sched)
        assert (0, START_AFTER_WINDOW) in report.violations
        assert (1, OVERLAP_PREVIOUS) in report.violations


class TestScheduleCompletion:
    def test_returns_last_landing(self):
        inst = two_point_instance()
        sched = earliest_start_pack(inst, (0, 1))
        assert schedule_completion(inst, sched) == sched.deliveries[-1].ret

    def test_raises_with_reason(self):
        inst = two_point_instance()
        bad = Schedule((Delivery(0, -5.0, 0.0),))
        with pytest.raises(InfeasibleScheduleError, match=START_BEFORE_TRUCK):
            schedule_completion(inst, bad)


class TestEarliestStartPack:
    def test_frozen_two_point_values(self):
        inst = two_point_instance()
        sched = earliest_start_pack(inst, (0, 1))
        d0, d1 = sched.deliveries
        assert d0.start == 0.0
        assert d0.ret == pytest.approx((4.0 * math.sqrt(34.0) - 10.0) / 3.0, abs=1e-12)
        # the second window opens after the first flight lands, so its
        # launch snaps to the window opening and return_position hits er
        w1 = start_window(inst.points[1], inst.v, inst.R)
        assert d1.start == w1.es
        assert d1.ret == pytest.approx(w1.er, rel=1e-12)
        assert d1.ret == pytest.approx(28.5, abs=1e-9)

    def test_empty_order(self):
        inst = two_point_instance()
        assert earliest_start_pack(inst, ()) == Schedule()

    def test_none_when_window_already_closed(self):
        inst = two_point_instance()
        # serving the far point first leaves the truck past the near window
        assert earliest_start_pack(inst, (1, 0)) is None

    def test_none_on_out_of_band(self):
        m = minor_radius(2.0, 10.0)
        inst = Instance(v=2.0, R=10.0, points=[(5.0, 1.5 * m)])
        assert earliest_start_pack(inst, (0,)) is None

    def test_invalid_orders_raise(self):
        inst = two_point_instance()
        with pytest.raises(InvalidScheduleError):
            earliest_start_pack(inst, (0, 0))
        with pytest.raises(InvalidScheduleError):
            earliest_start_pack(inst, (5,))

    def test_boundary_start_is_feasible(self):
        # launching exactly at the window close is allowed; one tick later is not
        point = (5.0, 3.0)
        w = start_window(point, 2.0, 10.0)
        at_close = Instance(v=2.0, R=10.0, points=[point], truck_start=w.ls)
        sched = earliest_start_pack(at_close, (0,))
        assert sched is not None
        assert sched.deliveries[0].start == w.ls
        assert sched.deliveries[0].ret == pytest.approx(w.lr, rel=1e-9)
        past = Instance(
            v=2.0, R=10.0, points=[point], truck_start=math.nextafter(w.ls, math.inf)
        )
        assert earliest_start_pack(past, (0,)) is None

    def test_pack_output_verifies(self):
        rng = random.Random(21)
        checked = 0
        while checked < 50:
            inst, order = _random_feasible_order(rng)
            sched = earliest_start_pack(inst, order)
            if sched is None:
                continue
            report = verify_schedule(inst, sched)
            assert report.feasible, report.violations
            assert report.completion == sched.deliveries[-1].ret
            checked += 1

    def test_prefix_of_pack_is_pack_of_prefix(self):
        rng = random.Random(22)
        checked = 0
        while checked < 50:
            inst, order = _random_feasible_order(rng)
            full = earliest_start_pack(inst, order)
            if full is None:
                continue
            for k in range(len(order) + 1):
                part = earliest_start_pack(inst, order[:k])
                assert part is not None
                assert part.deliveries == full.deliveries[:k]
            checked += 1

    def test_delaying_one_launch_never_speeds_up_the_rest(self):
        rng = random.Random(23)
        checked = 0
        while checked < 50:
            inst, order = _random_feasible_order(rng)
            sched = earliest_start_pack(inst, order)
            if sched is None or sched.count < 2:
                continue
            j = rng.randrange(sched.count)
            w = start_window(inst.points[order[j]], inst.v, inst.R)
            room = w.ls - sched.deliveries[j].start
            if room <= 0.0:
                continue
            delayed = _repack_with_delay(inst, order, j, rng.uniform(0.0, room))
            if delayed is None:
                continue
            for late, base in zip(delayed, sched.deliveries):
                assert late.ret >= base.ret - 1e-9 * instance_scale(inst)
            checked += 1


def _random_feasible_order(rng):
    """A small random instance plus a left-to-right point order."""
    v = rng.uniform(1.2, 5.0)
    R = rng.uniform(1.0, 20.0)
    m = minor_radius(v, R)
    pts = []
    x = 0.0
    for _ in range(rng.randrange(2, 6)):
        x += rng.uniform(0.1 * R, 2.0 * R)
        y = rng.uniform(0.05, 0.95) * m * rng.choice((-1.0, 1.0))
        pts.append((x, y))
    inst = Instance(v=v, R=R, points=pts)
    return inst, tuple(range(len(pts)))


def _repack_with_delay(inst, order, j, delta):
    """Earliest-start pack, but entry j launches delta later than necessary."""
    entries = []
    cur = inst.truck_start
    for pos, idx in enumerate(order):
        w = start_window(inst.points[idx], inst.v, inst.R)
        start = max(cur, w.es)
        if pos == j:
            start = min(start + delta, w.ls)
        if start > w.ls:
            return None
        cur = return_position(start, inst.points[idx], inst.v, inst.R)
        entries.append(Delivery(idx, start, cur))
    return tuple(entries)
