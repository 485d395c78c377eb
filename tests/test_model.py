"""Tests for instances, schedules, verification, and earliest-start packing."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truckdrone.cli import instance_to_json, load_instance, load_schedule, schedule_to_json
from truckdrone.generators import (ThreePartitionSpec, gen_greedy_tightness, gen_random_band,
                                   gen_random_proper, gen_three_partition)
from truckdrone.geometry import INFEASIBLE, _land, return_position, start_window
from truckdrone.model import (
    DUPLICATE_POINT,
    OUT_OF_BAND,
    OVERLAP_PREVIOUS,
    START_AFTER_WINDOW,
    START_BEFORE_TRUCK,
    Delivery,
    DeliveryPoint,
    FeasibilityReport,
    InfeasibleScheduleError,
    Instance,
    InvalidScheduleError,
    Schedule,
    earliest_start_pack,
    instance_scale,
    schedule_completion,
    verify_schedule,
)
from truckdrone.proper import check_proper
from truckdrone.render import render_svg
from truckdrone.solvers import solve_dp_proper, solve_exact, solve_greedy


def minor_radius(v, R):
    return (R / (2.0 * v)) * math.sqrt(v * v - 1.0)


def two_point_instance():
    # second point sits at 60% of the band height, well to the right
    m = minor_radius(2.0, 10.0)
    return Instance(v=2.0, R=10.0, points=[(5.0, 3.0), (30.0, 0.6 * m)])


def _scalar_verify(inst, sched, tol=1e-9):
    """Reference verify: entry by entry, one scalar window and landing each."""
    n = len(inst.points)
    for j, d in enumerate(sched.deliveries):
        if not 0 <= d.point < n:
            raise InvalidScheduleError(
                f"entry {j} references point {d.point} of an instance with {n} points"
            )
        if math.isnan(d.start):
            raise InvalidScheduleError(f"entry {j} launches at NaN")
    scale = max(1.0, inst.R, abs(inst.truck_start))
    for p in inst.points:
        scale = max(scale, abs(p.x), abs(p.y))
    slack = tol * scale
    violations = []
    seen = set()
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
        prev_ret = completion = _land(min(d.start, w.ls), p.x, p.y, w.es, w.er, inst.v)
    return FeasibilityReport(not violations, tuple(violations), completion)


@st.composite
def _verify_cases(draw):
    """(instance, schedule, tol): a greedy schedule, then a few perturbations.

    Points sit up to 10^7 along the road, some on or past the band edge;
    perturbations shuffle, duplicate, truncate, shift, insert entries, and
    set starts to +-inf or to one ulp either side of ls + slack.
    """
    v, R = draw(st.floats(1.05, 6.0)), draw(st.floats(0.5, 20.0))
    m = minor_radius(v, R)
    shift = draw(st.sampled_from([0.0, -1e3, 1e4, 1e7]))
    heights = st.one_of(st.floats(-1.0, 1.0).map(lambda f: f * m),
                        st.sampled_from([m, -m, 1.5 * m, -3.0 * m]))
    ys = draw(st.lists(heights.filter(lambda y: y != 0.0), min_size=draw(st.sampled_from([0, 3])),
                       max_size=8))
    pts = [(shift + draw(st.floats(0.0, 40.0)), y) for y in ys]
    inst = Instance(v, R, pts, truck_start=shift + draw(st.floats(-5.0, 5.0)))
    tol = draw(st.sampled_from([0.0, 1e-9, 1e-3]))
    slack = tol * instance_scale(inst)
    entries = list(solve_greedy(inst).deliveries)
    for _ in range(draw(st.integers(0, 4))):
        how = draw(st.sampled_from(["shuffle", "duplicate", "truncate", "shift", "inf",
                                    "edge", "insert"]))
        if how == "insert" and pts:
            start = shift + draw(st.floats(-10.0, 50.0))
            entries.insert(draw(st.integers(0, len(entries))),
                           Delivery(draw(st.integers(0, len(pts) - 1)), start, 0.0))
        if not entries:
            continue
        j = draw(st.integers(0, len(entries) - 1))
        d = entries[j]
        if how == "shuffle":
            entries = list(draw(st.permutations(entries)))
        elif how == "duplicate":
            entries.insert(draw(st.integers(0, len(entries))), d)
        elif how == "truncate":
            del entries[j:]
        elif how == "shift":
            entries[j] = Delivery(d.point, d.start + draw(st.floats(-10.0, 10.0)), d.ret)
        elif how == "inf":
            entries[j] = Delivery(d.point, draw(st.sampled_from([math.inf, -math.inf])), d.ret)
        elif how == "edge":
            w = start_window(inst.points[d.point], v, R)
            if w is not None:
                start = math.nextafter(w.ls + slack, draw(st.sampled_from([math.inf, -math.inf])))
                entries[j] = Delivery(d.point, start, d.ret)
    return inst, Schedule(tuple(entries)), tol


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
        assert instance_scale(Instance(v=2.0, R=10.0, points=[(-700.0, 1.0)])) == 700.0

    @pytest.mark.parametrize("height", [1e12, -1e300])
    def test_scale_counts_no_height_past_the_band(self, height):
        # a height counts at most as the band's half-height, below R/2
        inst = Instance(v=2.0, R=10.0, points=[(1.0, 2.0), (9.0, height)])
        assert instance_scale(inst) == 10.0


def _three_kinds(tmp_path, pairs, truck_start=0.0):
    """One instance built from pairs, from DeliveryPoints, and read back from a file."""
    from_pairs = Instance(2.0, 10.0, pairs, truck_start=truck_start)
    from_points = Instance(2.0, 10.0, tuple(DeliveryPoint(*p) for p in pairs),
                           truck_start=truck_start)
    path = tmp_path / f"inst-{len(pairs)}.json"
    path.write_text(instance_to_json(from_pairs))
    return from_pairs, from_points, load_instance(str(path))


class TestInstanceIdentity:
    """Equality, hash and repr are those of the record (v, R, points,
    truck_start), whichever way the instance was built."""

    # the last pair sits at the numeric domain's bound, 2**40 * R / v
    @pytest.mark.parametrize("pairs", [[], [(1.0, 2.0)], [(-0.0, 3.0), (5.0 * 2.0**40, -5e-324)]])
    def test_three_kinds_agree(self, tmp_path, pairs):
        kinds = _three_kinds(tmp_path, pairs, truck_start=-1.5)
        key = (2.0, 10.0, tuple(DeliveryPoint(*p) for p in pairs), -1.5)
        for inst in kinds:
            assert inst == kinds[0] and not inst != kinds[0]
            assert hash(inst) == hash(key)
            assert repr(inst) == repr(kinds[0])
        assert len({*kinds}) == 1

    def test_repr_text(self):
        assert repr(Instance(2.0, 10.0)) == "Instance(v=2.0, R=10.0, points=(), truck_start=0.0)"
        assert repr(Instance(3, 1, [(-0.0, 2)], truck_start=-0.0)) == (
            "Instance(v=3.0, R=1.0, points=(DeliveryPoint(x=-0.0, y=2.0),), truck_start=-0.0)")

    def test_signed_zeros_are_equal_with_distinct_reprs(self, tmp_path):
        pos = _three_kinds(tmp_path, [(0.0, 1.0)], truck_start=0.0)
        neg = _three_kinds(tmp_path, [(-0.0, 1.0)], truck_start=-0.0)
        for a, b in zip(pos, neg):
            assert a == b and hash(a) == hash(b)
            assert repr(a) != repr(b)

    @pytest.mark.parametrize("other", [
        Instance(2.5, 10.0, [(1.0, 2.0)]), Instance(2.0, 11.0, [(1.0, 2.0)]),
        Instance(2.0, 10.0, [(1.0, 2.0)], truck_start=1.0), Instance(2.0, 10.0),
        Instance(2.0, 10.0, [(1.0, -2.0)]), Instance(2.0, 10.0, [(1.0, 2.0), (1.0, 2.0)]),
    ])
    def test_any_field_tells_instances_apart(self, other):
        inst = Instance(2.0, 10.0, [(1.0, 2.0)])
        assert inst != other and not inst == other

    def test_not_equal_to_other_types(self):
        inst = Instance(2.0, 10.0, [(1.0, 2.0)])
        assert inst != (2.0, 10.0, (DeliveryPoint(1.0, 2.0),), 0.0)
        assert inst != "Instance" and inst is not None


def _three_schedules(tmp_path, inst):
    """One schedule built by greedy, from Deliveries, and read back from a file."""
    solved = solve_greedy(inst)
    built = Schedule(tuple(Delivery(d.point, d.start, d.ret) for d in solved.deliveries))
    path = tmp_path / f"sched-{solved.count}.json"
    path.write_text(schedule_to_json(solved))
    return solved, built, load_schedule(str(path))


class TestScheduleIdentity:
    """Equality, hash and repr are those of the record (deliveries,),
    whichever way the schedule was built."""

    @pytest.mark.parametrize("inst", [
        Instance(2.0, 10.0), Instance(2.0, 10.0, [(1.0, 2.0)], truck_start=-0.0),
        gen_random_band(30, 2.0, 10.0, 60.0, 3)])
    def test_three_kinds_agree(self, tmp_path, inst):
        kinds = _three_schedules(tmp_path, inst)
        key = (tuple(Delivery(d.point, d.start, d.ret) for d in kinds[0].deliveries),)
        assert kinds[0].count == len(key[0]) > 0 or len(inst) == 0
        for sched in kinds:
            assert sched == kinds[0] and not sched != kinds[0]
            assert hash(sched) == hash(key)
            assert repr(sched) == repr(kinds[0])
            assert sched.order == tuple(d.point for d in key[0])
        assert len({*kinds}) == 1

    def test_repr_text(self):
        assert repr(Schedule()) == repr(Schedule(())) == "Schedule(deliveries=())"
        assert repr(Schedule([Delivery(0, 0, 0)])) == (
            "Schedule(deliveries=(Delivery(point=0, start=0, ret=0),))")

    def test_int_start_equals_float_start(self):
        ints, floats = Schedule((Delivery(0, 0, 1),)), Schedule((Delivery(0, 0.0, 1.0),))
        assert ints == floats and hash(ints) == hash(floats)
        assert repr(ints) != repr(floats)

    def test_signed_zeros_are_equal_with_distinct_reprs(self, tmp_path):
        pos = _three_schedules(tmp_path, Instance(2.0, 10.0, [(1.0, 2.0)], truck_start=0.0))
        neg = _three_schedules(tmp_path, Instance(2.0, 10.0, [(1.0, 2.0)], truck_start=-0.0))
        for a, b in zip(pos, neg):
            assert math.copysign(1.0, b.deliveries[0].start) == -1.0
            assert a == b and hash(a) == hash(b)
            assert repr(a) != repr(b)

    @pytest.mark.parametrize("other", [
        Schedule(), Schedule((Delivery(1, 0.5, 2.0),)), Schedule((Delivery(0, 0.25, 2.0),)),
        Schedule((Delivery(0, 0.5, 2.5),)),
        Schedule((Delivery(0, 0.5, 2.0), Delivery(1, 2.0, 3.0))),
    ])
    def test_any_field_tells_schedules_apart(self, other):
        sched = Schedule((Delivery(0, 0.5, 2.0),))
        assert sched != other and not sched == other

    def test_not_equal_to_other_types(self):
        sched = Schedule((Delivery(0, 0.5, 2.0),))
        assert sched != ((Delivery(0, 0.5, 2.0),),) and sched != (Delivery(0, 0.5, 2.0),)
        assert sched != "Schedule" and sched is not None

    def test_frozen(self):
        sched = solve_greedy(two_point_instance())
        with pytest.raises(AttributeError):
            sched.deliveries = ()
        with pytest.raises(AttributeError):
            del sched.deliveries
        assert sched.count == 2


class TestColumns:
    def test_frozen_and_read_only(self):
        inst = Instance(2.0, 10.0, [(1.0, 2.0)])
        with pytest.raises(AttributeError):
            inst.v = 3.0
        with pytest.raises(AttributeError):
            del inst.xs
        with pytest.raises(ValueError):
            inst.ys[0] = 1.0
        assert inst.xs.dtype == inst.ys.dtype == np.float64

    def test_timed_paths_leave_points_unbuilt(self, tmp_path):
        # a built tuple of points would count against the benchmark's memory
        # metric, whose base is read after the instances are loaded
        def loaded(inst):
            path = tmp_path / "inst.json"
            path.write_text(instance_to_json(inst))
            return load_instance(str(path))

        proper = loaded(gen_random_proper(12, 2.0, 10.0, 4))
        band = loaded(gen_random_band(200, 2.0, 10.0, 400.0, 4))
        for inst in (proper, band):
            sched = solve_greedy(inst)
            verify_schedule(inst, sched)
            check_proper(inst)
            assert earliest_start_pack(inst, sched.order) == sched
            render_svg(inst, sched, show_windows=True, show_ellipses=True)
        verify_schedule(proper, solve_dp_proper(proper))
        assert solve_exact(proper, max_points=12).count == solve_dp_proper(proper).count
        for inst in (proper, band):
            assert "points" not in vars(inst)
        assert proper.points[0].x == proper.xs[0] and "points" in vars(proper)

    def test_timed_paths_leave_deliveries_unbuilt(self, tmp_path):
        # greedy, pack, verify and the writer read the columns; the reader fills them
        inst = gen_random_proper(12, 2.0, 10.0, 4)
        path = tmp_path / "sched.json"
        scheds = [solve_greedy(inst), solve_dp_proper(inst), solve_exact(inst, max_points=12)]
        for sched in scheds[:3]:
            path.write_text(schedule_to_json(sched))
            scheds.append(load_schedule(str(path)))
        for sched in scheds:
            verify_schedule(inst, sched)
            render_svg(inst, sched, show_windows=True, show_ellipses=True)
            assert "deliveries" not in vars(sched)
        assert scheds[0].deliveries[0].point == scheds[0].order[0]
        assert "deliveries" in vars(scheds[0])

    def test_cold_paths_build_no_records(self, monkeypatch):
        # the generators, the exact search, pack and render read the columns
        built = []
        for cls in (DeliveryPoint, Delivery):
            def counted(self, *args, _cls=cls, _init=cls.__init__):
                built.append(_cls.__name__)
                _init(self, *args)
            monkeypatch.setattr(cls, "__init__", counted)
        part, _ = gen_three_partition(ThreePartitionSpec((1, 1, 1)))
        trap, _ = gen_greedy_tightness(3, 2.0, 10.0)  # certified by greedy, pack and exact
        for inst in (part, trap):
            sched = solve_exact(inst)
            assert earliest_start_pack(inst, sched.order) == sched
            render_svg(inst, sched, show_windows=True, show_ellipses=True)
        assert built == []
        assert trap.points[0].x == trap.xs[0] and sched.deliveries[0].point == sched.order[0]
        assert built == ["DeliveryPoint"] * len(trap) + ["Delivery"] * sched.count


class TestVerifySchedule:
    @pytest.mark.parametrize("height", [1e12, -1e300])
    def test_far_out_of_band_point_leaves_the_slack(self, height):
        # two launches at one abscissa overlap, however high a third point lies
        points = [(1.0, 2.0), (1.5, -2.0)]
        sched = Schedule._from_columns([0, 1], [0.0, 0.0], [0.0, 0.0])
        for inst in (Instance(2.0, 10.0, points), Instance(2.0, 10.0, points + [(9.0, height)])):
            assert verify_schedule(inst, sched).violations == ((1, OVERLAP_PREVIOUS),)

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
        # verify lands each entry from min(start, ls); a start at or before
        # the window's opening waits on the truck and lands at er
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
                if start <= w.es:
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


    def test_first_bad_entry_names_the_error(self):
        inst = two_point_instance()
        nan_first = Schedule((Delivery(0, 0.0, 0.0), Delivery(1, math.nan, 0.0),
                              Delivery(5, 0.0, 0.0)))
        index_first = Schedule((Delivery(-1, 0.0, 0.0), Delivery(1, math.nan, 0.0)))
        # an index past int64, and within one entry the index named before the NaN
        huge = Schedule((Delivery(0, 0.0, 0.0), Delivery(10**30, 0.0, 0.0)))
        nan_before_huge = Schedule((Delivery(0, math.nan, 0.0), Delivery(10**30, 0.0, 0.0)))
        both = Schedule((Delivery(0, 0.0, 0.0), Delivery(2, math.nan, 0.0)))
        for sched, message in ((nan_first, "entry 1 launches at NaN"),
                               (index_first, "entry 0 references point -1 of an instance "
                                             "with 2 points"),
                               (huge, f"entry 1 references point {10**30} of an instance "
                                      "with 2 points"),
                               (nan_before_huge, "entry 0 launches at NaN"),
                               (both, "entry 1 references point 2 of an instance with 2 points")):
            for verify in (verify_schedule, _scalar_verify):
                with pytest.raises(InvalidScheduleError) as err:
                    verify(inst, sched)
                assert str(err.value) == message

    @settings(max_examples=400)
    @given(case=_verify_cases())
    def test_equals_the_scalar_loop(self, case):
        inst, sched, tol = case
        report = verify_schedule(inst, sched, tol)
        assert report == _scalar_verify(inst, sched, tol)
        assert type(report.completion) is float


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
        assert d1.ret == w1.er
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

    @pytest.mark.parametrize("make", [lambda: iter([0, 1, 2]), lambda: (i for i in range(3)),
                                      lambda: np.array([0, 1, 2])],
                             ids=["iterator", "generator", "array"])
    def test_any_iterable_packs_as_its_list(self, make):
        # the order is read once, so an iterator's points are both checked and packed
        inst = gen_random_proper(6, 2.0, 10.0, 0)
        want = earliest_start_pack(inst, [0, 1, 2])
        assert want.count == 3
        assert earliest_start_pack(inst, make()) == want

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
