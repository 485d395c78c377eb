"""Tests for the greedy, dynamic-program, and brute-force schedulers."""

import itertools
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truckdrone import cli, solvers
from truckdrone.generators import gen_greedy_tightness, gen_random_band, gen_random_proper
from truckdrone.geometry import (
    _flight_time,
    _land,
    return_position,
    return_positions,
    round_trip_time,
    start_window,
    window_arrays,
)
from truckdrone.model import (
    Delivery,
    Instance,
    Schedule,
    earliest_start_pack,
    instance_scale,
    schedule_completion,
    verify_schedule,
)
from truckdrone.proper import NotProperError, check_proper
from truckdrone.solvers import (
    GREEDY_TIE_TOL,
    BudgetError,
    DpTable,
    dp_table,
    solve_dp_proper,
    solve_exact,
    solve_greedy,
    solve_sweep,
)

from oracles import meeting_return
from test_acceptance import _scaling_instance


def minor_radius(v, R):
    return (R / (2.0 * v)) * math.sqrt(v * v - 1.0)


def crossing_instance():
    """Three points where taking the early decoy forfeits a band-edge point.

    Windows: point 0 only at 2.5, point 1 over [5, 11], point 2 only at 7.5.
    No order serves all three; the best pairs are (0,1) and (0,2).
    """
    m = minor_radius(2.0, 10.0)
    return Instance(
        v=2.0,
        R=10.0,
        points=[(5.0, m), (10.5, 0.8 * m), (10.0, m)],
    )


class TestGreedy:
    def test_empty(self):
        assert solve_greedy(Instance(v=2.0, R=10.0)) .count == 0

    def test_single_point_launches_immediately(self):
        inst = Instance(v=2.0, R=10.0, points=[(5.0, 3.0)])
        sched = solve_greedy(inst)
        assert sched.order == (0,)
        d = sched.deliveries[0]
        assert d.start == 0.0
        assert d.ret == pytest.approx((4.0 * math.sqrt(34.0) - 10.0) / 3.0, abs=1e-12)

    def test_waits_for_a_window_to_open(self):
        m = minor_radius(2.0, 10.0)
        inst = Instance(v=2.0, R=10.0, points=[(30.0, 0.6 * m)])
        sched = solve_greedy(inst)
        w = start_window(inst.points[0], 2.0, 10.0)
        assert sched.deliveries[0].start == w.es
        assert sched.deliveries[0].ret == w.er == 28.5

    def test_two_point_frozen(self):
        m = minor_radius(2.0, 10.0)
        inst = Instance(v=2.0, R=10.0, points=[(5.0, 3.0), (30.0, 0.6 * m)])
        sched = solve_greedy(inst)
        assert sched.order == (0, 1)
        assert schedule_completion(inst, sched) == pytest.approx(28.5, abs=1e-9)

    def test_takes_the_decoy_on_the_crossing_instance(self):
        inst = crossing_instance()
        sched = solve_greedy(inst)
        assert sched.order == (0, 1)
        want = meeting_return(7.5, 10.5, 0.8 * minor_radius(2.0, 10.0), 2.0, 10.0)
        assert sched.deliveries[-1].ret == pytest.approx(want, abs=1e-9)

    def test_output_is_feasible_on_random_bands(self):
        for seed in range(30):
            inst = gen_random_band(12, v=2.5, R=8.0, x_span=60.0, seed=seed)
            sched = solve_greedy(inst)
            assert verify_schedule(inst, sched).feasible

    def test_deterministic(self):
        inst = gen_random_band(40, v=2.0, R=10.0, x_span=200.0, seed=7)
        assert solve_greedy(inst) == solve_greedy(inst)

    def test_serves_half_on_the_tightness_family(self):
        for k in (1, 2, 3):
            inst, cert = gen_greedy_tightness(k, v=2.0, R=10.0)
            sched = solve_greedy(inst)
            assert sched.count == k == cert.greedy_count
            # greedy falls for every decoy; decoys sit at odd indices
            assert sched.order == tuple(range(1, 2 * k, 2))


def _scan_greedy(inst):
    """Reference greedy: every step rescans all n points with masks, O(n^2)."""
    n = len(inst.points)
    if n == 0:
        return Schedule(())
    xs = np.array([p.x for p in inst.points])
    ys = np.array([p.y for p in inst.points])
    es, ls, er, lr, in_band = window_arrays(xs, ys, inst.v, inst.R)
    windows = (es, ls, er, lr, in_band)

    s = inst.truck_start
    active = in_band.copy()
    entries = []
    while True:
        active &= ls >= s
        if not active.any():
            break
        next_open = es[active].min()
        if s < next_open:
            s = float(next_open)
        cand = np.flatnonzero(active & (es <= s))
        rets = return_positions(s, xs[cand], ys[cand], inst.v, inst.R,
                                windows=tuple(w[cand] for w in windows))
        rmin = rets.min()
        tied = np.flatnonzero(rets <= rmin + GREEDY_TIE_TOL * inst.R)
        pick = tied[np.lexsort((cand[tied], xs[cand[tied]]))[0]]
        chosen = int(cand[pick])
        entries.append(Delivery(chosen, s, float(rets[pick])))
        s = float(rets[pick])
        active[chosen] = False
        active &= lr >= s
    return Schedule(tuple(entries))


def assert_same_greedy(inst):
    # Schedule equality compares every start and landing with float ==
    assert solve_greedy(inst) == _scan_greedy(inst)


def _edge_and_lifted(inst):
    """Every fourth point moved onto the band edge, and every fourth made 1.5x
    higher, which lifts those above two thirds of the band out of reach."""
    m = minor_radius(inst.v, inst.R)
    pts = [(p.x, math.copysign(m, p.y) if i % 4 == 0 else
            (1.5 * p.y if i % 4 == 1 else p.y)) for i, p in enumerate(inst.points)]
    return Instance(inst.v, inst.R, pts, truck_start=inst.truck_start)


class TestGreedyMatchesScan:
    """The event sweep picks what the mask scan picks, ties included."""

    @pytest.mark.parametrize("v", [1.5, 2.0, 3.0, 4.0])
    @pytest.mark.parametrize("R", [0.5, 7.0, 10.0])
    def test_random_bands(self, v, R):
        for n, seed in ((50, 0), (300, 1), (2000, 2)):
            assert_same_greedy(gen_random_band(n, v=v, R=R, x_span=2.0 * n, seed=seed))

    def test_dense_bands(self):
        # hundreds of windows are open at once; at v = 50 the walk passes
        # hundreds of points per step, and near the axis most heights tie
        for seed in range(4):
            inst = gen_random_band(500, v=2.0, R=10.0, x_span=40.0, seed=seed)
            assert_same_greedy(inst)
            assert_same_greedy(_edge_and_lifted(inst))
            assert_same_greedy(gen_random_band(400, v=50.0, R=10.0, x_span=40.0, seed=seed))
            near = gen_random_band(400, v=2.0, R=10.0, x_span=40.0, seed=seed)
            assert_same_greedy(Instance(2.0, 10.0, [(p.x, p.y * 0.01) for p in near.points]))

    @pytest.mark.parametrize("v", [1.001, 1.05, 1.5, 4.0, 50.0])
    def test_dense_bands_pruned_by_bounds(self, v):
        # hundreds of open points, most ruled out by the lower bounds, also
        # near v = 1 where the flight formula cancels, at a far shift where
        # rounding is coarse, and with points crowded near the axis
        for seed in range(3):
            inst = gen_random_band(400, v=v, R=10.0, x_span=30.0, seed=seed)
            assert_same_greedy(inst)
            assert_same_greedy(_shifted(inst, 1e6))
            for lift in (0.01, 1e-7):
                low = [(p.x, p.y * lift if i % 3 else p.y) for i, p in enumerate(inst.points)]
                assert_same_greedy(Instance(v, 10.0, low))

    @pytest.mark.parametrize("lift", [1.0, 0.01])
    def test_dense_band_lands_few_points(self, monkeypatch, lift):
        # about 350 windows are open at each step; the bounds leave 2 to 5
        # landings per step, and the height bound alone takes 24 down to 5
        import truckdrone.solvers as solvers
        calls = []
        land = solvers._land
        monkeypatch.setattr(solvers, "_land", lambda *a: calls.append(1) or land(*a))
        band = gen_random_band(2000, v=2.0, R=10.0, x_span=40.0, seed=0)
        inst = Instance(2.0, 10.0, [(p.x, p.y * lift) for p in band.points])
        sched = solve_greedy(inst)
        assert sched == _scan_greedy(inst)
        # every delivery lands through _land at least once
        assert sched.count <= len(calls) < 8 * sched.count

    # at v = 3 both the bound 2d/(v - 1) and the landing round to exactly d
    @pytest.mark.parametrize("v", [1.1, 1.5, 2.0, 4.0])
    def test_landing_one_ulp_under_the_behind_bound(self, v):
        # from s = 0, point 1, d behind and just off the axis, lands (after
        # rounding) just under 2d/(v - 1), the bound that ends the walk
        # behind s; point 0, just ahead, has its height tuned so that its
        # landing plus the tie allowance equals point 1's.  Only the bound's
        # slack keeps point 1 landed, and then the x rule picks it
        R, tie, made = 10.0, GREEDY_TIE_TOL * 10.0, 0
        rng = random.Random(31)

        def land(x, y):
            w = start_window((x, y), v, R)
            return _land(0.0, x, y, w.es, w.er, v) if w.es <= 0.0 <= w.ls else math.inf

        while made < 3:
            d = rng.uniform(0.1, 1.0)
            r1 = land(-d, 1e-30)
            if not d * (2.0 / (v - 1.0)) > r1:
                continue
            lo, hi = 1e-6, minor_radius(v, R)
            for _ in range(200):
                mid = (lo + hi) / 2.0
                lo, hi = (mid, hi) if land(0.01, mid) + tie < r1 else (lo, mid)
            while land(0.01, lo) + tie < r1:
                lo = math.nextafter(lo, math.inf)
            if land(0.01, lo) + tie != r1:
                continue
            inst = Instance(v, R, [(0.01, lo), (-d, 1e-30)])
            assert_same_greedy(inst)
            assert solve_greedy(inst).deliveries[0].point == 1
            made += 1

    @staticmethod
    def _closing_pair(T):
        # the truck starts at point 0's es; point 1 lands first, at ~0.065 + T,
        # past point 0's ls (~-0.32 + T) but only ~0.065 past point 0 itself,
        # well within R/2 = 5
        v, R = 2.0, 10.0
        pts = [(T, 0.9 * minor_radius(v, R)), (T - 2.0, 4.1)]
        w0 = start_window(pts[0], v, R)
        s1 = return_positions(w0.es, *zip(*pts), v, R)[1]
        assert w0.ls < T < s1 < return_positions(w0.es, *pts[0], v, R) and s1 < T + R / 2.0
        return v, R, pts, w0.es

    @pytest.mark.parametrize("T", [0.0, 1e6])
    def test_window_closes_within_half_range_behind(self, T):
        # at the second step point 0 is still kept, is walked first and has
        # closed; point 2 opened meanwhile and is served
        v, R, pts, start = self._closing_pair(T)
        inst = Instance(v, R, pts + [(T + 3.0, 0.3)], truck_start=start)
        assert_same_greedy(inst)
        assert solve_greedy(inst).order == (1, 2)

    @pytest.mark.parametrize("T", [0.0, 1e6])
    def test_every_kept_point_closed_and_an_opening_ahead(self, T):
        # after the first landing only point 0 is kept, and it has closed:
        # nothing lands, so the truck drives on to point 2's opening
        v, R, pts, start = self._closing_pair(T)
        inst = Instance(v, R, pts + [(T + 20.0, 0.3)], truck_start=start)
        assert_same_greedy(inst)
        sched = solve_greedy(inst)
        assert sched.order == (1, 2)
        assert sched.deliveries[1].start == start_window((T + 20.0, 0.3), v, R).es

    @pytest.mark.parametrize("T", [0.0, 1e6])
    @pytest.mark.parametrize("lead", [False, True])
    def test_points_either_side_of_half_range_behind(self, T, lead):
        # at a step s, the truck start or point 0's landing, points sit at
        # s - R/2 and one ulp either side, all closed, and the widest window,
        # still open at s, sits R/2 - R/(2v) behind it and is served from s
        v, R = 2.0, 10.0
        first = [(T + 0.1, 0.05)] if lead else []
        s = solve_greedy(Instance(v, R, first, truck_start=T)).deliveries[0].ret if lead else T
        wide = s - R / 2.0 + R / (2.0 * v)
        while start_window((wide, 1e-9), v, R).ls < s:
            wide = math.nextafter(wide, math.inf)
        edge = s - R / 2.0
        near = (math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf))
        for y in (1e-9, 0.3, 0.9 * minor_radius(v, R)):
            pts = first + [(wide, 1e-9), (T + 30.0, 0.3)] + [(x, y) for x in near]
            inst = Instance(v, R, pts, truck_start=T)
            assert_same_greedy(inst)
            d = solve_greedy(inst).deliveries[len(first)]
            assert (d.point, d.start) == (len(first), s)

    def test_far_truck_start(self):
        for seed in range(4):
            inst = gen_random_band(300, v=2.5, R=7.0, x_span=300.0, seed=seed)
            assert_same_greedy(_shifted(inst, 1e6))
            late = Instance(inst.v, inst.R, inst.points, truck_start=1e6)
            assert solve_greedy(late).count == 0
            assert_same_greedy(late)

    def test_band_edge_and_out_of_band_points(self):
        for seed in range(6):
            inst = gen_random_band(200, v=2.0, R=10.0, x_span=300.0, seed=seed)
            assert_same_greedy(_edge_and_lifted(inst))

    def test_integer_abscissas_force_ties(self):
        # equal abscissas and mirrored heights give equal landings; the
        # x tie-break and then the index must decide
        rng = random.Random(23)
        for _ in range(300):
            v, R = rng.choice([1.5, 2.0, 3.0]), rng.choice([2.0, 5.0, 10.0])
            m = minor_radius(v, R)
            heights = [m, -m, m / 2, -m / 2, 1.0, -1.0]
            pts = [(rng.randrange(0, 30), rng.choice(heights)) for _ in range(rng.randrange(1, 60))]
            assert_same_greedy(Instance(v, R, pts, truck_start=rng.choice([-5.0, 0.0, 3.0])))

    def test_equal_abscissas_open_against_index_order(self):
        # at each abscissa the heights fall as the index rises, so the higher
        # index opens first and joins the live list first; heights a hair
        # apart, or mirrored, land within the tie allowance, and then the
        # lower index, the later one in the list, wins
        rng = random.Random(37)
        for _ in range(200):
            v, R = rng.choice([1.5, 2.0, 3.0]), rng.choice([2.0, 5.0, 10.0])
            m, pts = minor_radius(v, R), []
            for x in rng.sample(range(40), rng.randrange(1, 12)):
                low, step = rng.uniform(0.05, 0.5) * m, rng.choice([1e-12, 0.1])
                for h in [low * (1.0 + k * step) for k in range(rng.randrange(1, 5), 0, -1)]:
                    pts += [(float(x), h), (float(x), -h)] if rng.random() < 0.5 else [(float(x), h)]
            assert_same_greedy(Instance(v, R, pts, truck_start=rng.choice([-5.0, 0.0, 3.0])))

    def test_point_order_in_the_file(self):
        # admission order is es order whatever the points' order: the band
        # x-sorted, reversed and shuffled gives the scan's schedule each time
        band = gen_random_band(2000, v=2.0, R=10.0, x_span=4000.0, seed=3)
        pts = sorted(zip(band.xs.tolist(), band.ys.tolist()))
        shuffled = pts[:]
        random.Random(41).shuffle(shuffled)
        for order in (pts, pts[::-1], shuffled):
            assert_same_greedy(Instance(band.v, band.R, order))

    def test_landing_ties_go_to_the_smaller_abscissa(self):
        # point 1 lies left of point 0, and its landing from the truck start
        # differs from point 0's by far less than GREEDY_TIE_TOL * R, on
        # either side; the x rule must pick point 1 although its index is higher
        rng = random.Random(29)
        made = 0
        while made < 200:
            v, R = rng.choice([1.5, 2.0, 3.0]), rng.choice([2.0, 7.0, 10.0])
            m, gap, s = minor_radius(v, R), R / v, rng.uniform(-50.0, 50.0)
            y0 = rng.uniform(0.2, 0.8) * m
            x0 = s + gap / 2.0 + rng.uniform(-0.9, 0.9) * start_window((0.0, y0), v, R).half_width
            f = v * math.hypot(s - x0, y0) + (s - x0)
            x1 = x0 - rng.uniform(0.05, 0.5) * R
            y1sq = ((f - (s - x1)) / v) ** 2 - (s - x1) ** 2
            if not 0.0 < y1sq < m * m:
                continue
            y1 = math.sqrt(y1sq) * (1.0 + rng.uniform(-1e-11, 1e-11))
            w1 = start_window((x1, y1), v, R)
            if not w1.es <= s <= w1.ls:
                continue
            inst = Instance(v, R, [(x0, y0), (x1, rng.choice([y1, -y1]))], truck_start=s)
            lands = return_positions(s, [x0, x1], [y0, y1], v, R)
            assert abs(lands[0] - lands[1]) <= GREEDY_TIE_TOL * R
            assert_same_greedy(inst)
            assert solve_greedy(inst).deliveries[0].point == 1
            made += 1

    def test_tightness_family(self):
        for k in range(1, 7):
            for v in (1.5, 2.0, 4.0):
                inst, _ = gen_greedy_tightness(k, v=v, R=10.0)
                assert_same_greedy(inst)

    @settings(max_examples=150)
    @given(
        v=st.sampled_from([1.5, 2.0, 3.0]),
        R=st.floats(0.5, 12.0),
        start=st.one_of(st.floats(-10.0, 40.0), st.just(1e6)),
        pts=st.lists(
            st.tuples(st.integers(-5, 40), st.floats(0.05, 6.0), st.booleans()),
            max_size=40,
        ),
    )
    def test_property_integer_abscissas(self, v, R, start, pts):
        # heights reach past the band for small R, so some points are out of reach
        points = [(x, y if up else -y) for x, y, up in pts]
        assert_same_greedy(Instance(v, R, points, truck_start=start))


class TestEverySolverVerifies:
    @settings(max_examples=60)
    @given(
        v=st.sampled_from([1.5, 2.0, 3.0]),
        R=st.floats(0.5, 12.0),
        n=st.integers(0, 8),
        seed=st.integers(0, 10_000),
        T=st.sampled_from([0.0, 1e3, 1e6]),
    )
    def test_outputs_verify(self, v, R, n, seed, T):
        inst = _shifted(gen_random_band(n, v=v, R=R, x_span=4.0 * R, seed=seed), T)
        for sched in (solve_greedy(inst), solve_dp_proper(inst, require_proper=False),
                      solve_exact(inst, max_points=8)):
            assert verify_schedule(inst, sched).feasible

    @pytest.mark.parametrize("solve", [solve_dp_proper, solve_sweep, solve_exact])
    def test_an_unpackable_order_raises(self, solve, monkeypatch):
        # the exact solvers leave through one packing exit, which raises
        # rather than return None, also under python -O
        monkeypatch.setattr(solvers, "earliest_start_pack", lambda inst, order: None)
        with pytest.raises(RuntimeError, match="unpackable order"):
            solve(gen_random_proper(6, v=2.0, R=10.0, seed=0))


class TestExact:
    def test_budget(self):
        inst = gen_random_band(4, v=2.0, R=10.0, x_span=30.0, seed=1)
        with pytest.raises(BudgetError):
            solve_exact(inst, max_points=3)
        assert solve_exact(inst, max_points=4).count >= 1

    def test_crossing_instance_optimum(self):
        inst = crossing_instance()
        sched = solve_exact(inst)
        assert sched.count == 2
        assert sched.order == (0, 1)
        want = meeting_return(7.5, 10.5, 0.8 * minor_radius(2.0, 10.0), 2.0, 10.0)
        assert schedule_completion(inst, sched) == pytest.approx(want, abs=1e-9)

    def test_crossing_instance_pair_structure(self):
        # exactly the pairs starting with point 0 pack, and no triple does
        inst = crossing_instance()
        feasible_pairs = [
            order
            for order in itertools.permutations(range(3), 2)
            if earliest_start_pack(inst, order) is not None
        ]
        assert feasible_pairs == [(0, 1), (0, 2)]
        for order in itertools.permutations(range(3)):
            assert earliest_start_pack(inst, order) is None

    def test_never_worse_than_greedy(self):
        for seed in range(40):
            inst = gen_random_band(7, v=2.0, R=6.0, x_span=40.0, seed=seed)
            greedy = solve_greedy(inst).count
            exact = solve_exact(inst).count
            assert greedy <= exact <= 2 * greedy or exact == 0

    def test_prefers_earlier_completion_then_lex_order(self):
        # two mirror points are interchangeable; the tie must go to the
        # lexicographically smaller order
        inst = Instance(v=2.0, R=10.0, points=[(5.0, 3.0), (5.0, -3.0)])
        sched = solve_exact(inst)
        assert sched.count == 2
        assert sched.order == (0, 1)

    def test_deterministic(self):
        inst = gen_random_band(7, v=2.0, R=10.0, x_span=50.0, seed=3)
        assert solve_exact(inst) == solve_exact(inst)


def test_far_out_of_band_points_raise_no_warning():
    # heights whose squares overflow; each library call still runs clean
    inst = Instance(2.0, 10.0, [(1.0, 1e200), (5.0, 2.0), (9.0, -1e300), (6.0, -3.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scheds = [solve_greedy(inst), solve_dp_proper(inst, require_proper=False),
                  solve_exact(inst)]
        for sched in scheds:
            assert verify_schedule(inst, sched).feasible
        assert not check_proper(inst).is_proper
    assert {s.count for s in scheds} == {2}


def _reference_solve_exact(inst, max_points=10):
    """Reference search: the DFS with a shared used list, prefix list and
    nonlocal best that solve_exact replaced.  Lands through the name
    solvers.return_position, as solve_exact does."""
    n = len(inst.points)
    if n > max_points:
        raise BudgetError(f"instance has {n} points, budget is {max_points}")
    windows = [start_window(p, inst.v, inst.R) for p in inst.points]

    best_order: tuple[int, ...] = ()
    best_len = 0
    best_completion = inst.truck_start

    used = [False] * n
    prefix: list[int] = []

    def dfs(cur: float) -> None:
        nonlocal best_order, best_len, best_completion
        if len(prefix) > best_len or (len(prefix) == best_len and cur < best_completion):
            best_len = len(prefix)
            best_completion = cur
            best_order = tuple(prefix)
        startable = sum(
            1 for i in range(n)
            if not used[i] and windows[i] is not None and cur <= windows[i].ls
        )
        if len(prefix) + startable < best_len:
            return
        for i in range(n):
            if used[i] or windows[i] is None:
                continue
            start = max(cur, windows[i].es)
            if start > windows[i].ls:
                continue
            used[i] = True
            prefix.append(i)
            dfs(solvers.return_position(start, inst.points[i], inst.v, inst.R))
            prefix.pop()
            used[i] = False

    dfs(inst.truck_start)
    sched = earliest_start_pack(inst, best_order)
    assert sched is not None
    return sched


def _subset_optimum(inst):
    """(count, last landing) of an optimum, by a dynamic program over subsets.

    E(S), the earliest landing after serving exactly the set S, is the
    minimum over j in S of L_j(E(S - j)), which is exact as every landing
    L_j is nondecreasing in the launch.  The optimum is the largest |S| with
    a finite E(S), and its last landing the least such E(S).  One
    return_positions call per popcount layer and point; 2**n floats of memory.
    """
    n = len(inst)
    windows = window_arrays(inst.xs, inst.ys, inst.v, inst.R)
    masks = np.arange(1 << n)
    popcount = np.zeros(1 << n, dtype=int)
    for j in range(n):
        popcount += (masks >> j) & 1
    E = np.full(1 << n, np.inf)
    E[0] = inst.truck_start
    best = (0, inst.truck_start)
    for k in range(1, n + 1):
        layer = masks[popcount == k]
        for j in range(n):
            S = layer[(layer >> j) & 1 == 1]
            land = return_positions(E[S ^ (1 << j)], inst.xs[j], inst.ys[j], inst.v, inst.R,
                                    tuple(w[j] for w in windows))
            E[S] = np.minimum(E[S], land)
        if not np.isfinite(E[layer]).any():
            break
        best = (k, float(E[layer].min()))
    return best


def _count_and_last(inst, sched):
    return sched.count, sched.rets[-1] if sched.count else inst.truck_start


def _recorded(search, inst):
    """search's schedule and the arguments of every landing its DFS makes,
    the point recorded by value as (x, y)."""
    calls = []

    def landing(s, p, v, R):
        x, y = (p.x, p.y) if hasattr(p, "x") else p
        calls.append((s, (float(x), float(y)), v, R))
        return real(s, p, v, R)

    real = solvers.return_position
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solvers, "return_position", landing)
        sched = search(inst)
    return sched, calls


class TestExactMatchesReference:
    """The stateless recursion visits what the shared-state DFS visited."""

    @settings(max_examples=300)
    @given(
        v=st.sampled_from([1.05, 1.5, 2.0, 4.0]),
        R=st.sampled_from([0.5, 6.0, 10.0, 100.0]),
        n=st.integers(0, 10),
        seed=st.integers(0, 10_000),
        family=st.sampled_from(["band", "dense", "proper", "lifted"]),
        T=st.sampled_from([0.0, 1e6]),
    )
    def test_same_schedule_and_landings(self, v, R, n, seed, family, T):
        if family == "proper":
            inst = gen_random_proper(n, v, R, seed=seed)
        else:
            span = 1.0 * R if family == "dense" else 4.0 * R
            inst = gen_random_band(n, v, R, x_span=span, seed=seed)
            if family == "lifted":
                inst = _edge_and_lifted(inst)
        inst = _shifted(inst, T)
        got, got_calls = _recorded(solve_exact, inst)
        want, want_calls = _recorded(_reference_solve_exact, inst)
        assert got == want
        assert got_calls == want_calls

    def test_tightness_trap_and_crossing(self):
        for inst in (gen_greedy_tightness(5, 2.0, 10.0)[0], crossing_instance()):
            got, got_calls = _recorded(solve_exact, inst)
            want, want_calls = _recorded(_reference_solve_exact, inst)
            assert got == want and got_calls == want_calls and got_calls

    def test_budget_refused_the_same(self):
        inst = gen_random_band(5, 2.0, 10.0, x_span=20.0, seed=2)
        for search in (solve_exact, _reference_solve_exact):
            with pytest.raises(BudgetError, match="instance has 5 points, budget is 4"):
                search(inst, max_points=4)


class TestSubsetOptimum:
    """The exact search, the DP and greedy against the subset-DP oracle."""

    @settings(max_examples=150)
    @given(
        v=st.sampled_from([1.05, 1.5, 2.0, 4.0]),
        R=st.sampled_from([0.5, 6.0, 10.0, 100.0]),
        n=st.integers(6, 10),
        seed=st.integers(0, 10_000),
        family=st.sampled_from(["band", "dense", "lifted"]),
        T=st.sampled_from([0.0, 1e6]),
    )
    def test_exact_search_equals_the_oracle(self, v, R, n, seed, family, T):
        inst = gen_random_band(n, v, R, x_span=(1.0 if family == "dense" else 4.0) * R, seed=seed)
        if family == "lifted":
            inst = _edge_and_lifted(inst)
        inst = _shifted(inst, T)
        assert _count_and_last(inst, solve_exact(inst)) == _subset_optimum(inst)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("v", [1.5, 2.0, 4.0])
    def test_exact_search_equals_the_oracle_on_the_tightness_family(self, k, v):
        inst, _ = gen_greedy_tightness(k, v, 10.0)
        optimum = _subset_optimum(inst)
        assert optimum[0] == 2 * k and _count_and_last(inst, solve_exact(inst)) == optimum

    @settings(max_examples=40)
    @given(n=st.integers(8, 16), v=st.sampled_from([1.2, 2.0, 3.0, 7.0]),
           seed=st.integers(0, 10_000))
    def test_dp_count_equals_the_oracle_on_proper_instances(self, n, v, seed):
        # by count only: the DP's completion is the earliest among x-monotone
        # orders, which another order of the same size may beat
        inst = gen_random_proper(n, v, 10.0, seed)
        assert solve_dp_proper(inst).count == _subset_optimum(inst)[0]

    @settings(max_examples=40)
    @given(n=st.integers(8, 16), v=st.sampled_from([1.2, 2.0, 3.0, 7.0]),
           span=st.sampled_from([10.0, 40.0, 160.0]), seed=st.integers(0, 10_000))
    def test_greedy_serves_at_least_half_the_oracle(self, n, v, span, seed):
        inst = gen_random_band(n, v, 10.0, x_span=span, seed=seed)
        assert 2 * solve_greedy(inst).count >= _subset_optimum(inst)[0]

    def test_greedy_serves_half_the_oracle_on_the_tightness_family(self):
        inst, _ = gen_greedy_tightness(8, 2.0, 10.0)
        assert 2 * solve_greedy(inst).count == _subset_optimum(inst)[0] == 16


class TestDpTable:
    def test_row_semantics_on_two_points(self):
        m = minor_radius(2.0, 10.0)
        inst = Instance(v=2.0, R=10.0, points=[(5.0, 3.0), (30.0, 0.6 * m)])
        table = dp_table(inst)
        assert table.ranks == (0, 1)
        assert table.completions.shape == (2, 2)
        # depth 0: direct flights from the truck start
        assert table.completions[0][0] == pytest.approx(
            (4.0 * math.sqrt(34.0) - 10.0) / 3.0, abs=1e-12
        )
        assert table.completions[0][1] == pytest.approx(28.5, abs=1e-9)
        # depth 1: only 0 -> 1 chains exist
        assert table.completions[1][0] == math.inf
        assert table.completions[1][1] == pytest.approx(28.5, abs=1e-9)
        assert table.parents[1][1] == 0

    def test_rows_never_decrease_and_inf_is_sticky(self):
        for seed in range(15):
            inst = gen_random_proper(7, v=2.0, R=10.0, seed=seed)
            table = dp_table(inst)
            for prev, cur in itertools.pairwise(table.completions):
                assert (cur >= prev).all()
                assert not np.isfinite(cur[~np.isfinite(prev)]).any()

    def test_cells_match_brute_force_over_rank_chains(self):
        # each finite cell equals the best completion over increasing-rank
        # orders of that length ending at that point
        for seed in (0, 1, 2):
            inst = gen_random_proper(5, v=2.0, R=10.0, seed=seed)
            table = dp_table(inst)
            scale = instance_scale(inst)
            n = len(inst.points)
            for r in range(len(table.completions)):
                for j in range(n):
                    best = math.inf
                    for mid in itertools.combinations(range(j), r):
                        order = [table.ranks[q] for q in (*mid, j)]
                        packed = earliest_start_pack(inst, order)
                        if packed is not None:
                            best = min(best, packed.deliveries[-1].ret)
                    cell = table.completions[r][j]
                    if math.isinf(best):
                        assert math.isinf(cell)
                    else:
                        assert cell == pytest.approx(best, abs=1e-9 * scale)


def _dense_dp_table(inst):
    """Reference table: every row evaluates the full n x n landing matrix."""
    n = len(inst.points)
    ranks = tuple(sorted(range(n), key=lambda i: (inst.points[i].x, inst.points[i].y, i)))
    xs = np.array([inst.points[i].x for i in ranks])
    ys = np.array([inst.points[i].y for i in ranks])
    windows = window_arrays(xs, ys, inst.v, inst.R)
    rows, parents = [], []
    row = return_positions(inst.truck_start, xs, ys, inst.v, inst.R, windows=windows)
    parent = np.full(n, -1, dtype=int)
    earlier = np.triu(np.ones((n, n), dtype=bool), k=1)
    while np.isfinite(row).any():
        rows.append(row)
        parents.append(parent)
        if len(rows) == n:
            break
        land = return_positions(row[:, None], xs, ys, inst.v, inst.R, windows=windows)
        land = np.where(earlier, land, np.inf)
        row = land.min(axis=0)
        parent = land.argmin(axis=0)
    depth = len(rows)
    return DpTable(np.array(rows, dtype=float).reshape(depth, n),
                   np.array(parents, dtype=int).reshape(depth, n), ranks)


def assert_same_table(inst):
    got, want = dp_table(inst), _dense_dp_table(inst)
    assert got.ranks == want.ranks
    for a, b in ((got.completions, want.completions), (got.parents, want.parents)):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert np.array_equal(a, b)


def _fly(s, x, y, v):
    """The flight form's landing from launch s, whatever the window."""
    dx = s - x
    return s + _flight_time(dx, math.sqrt(y * y + dx * dx), v)


def landing_on_window_edge(edge, T, v=2.0, R=10.0):
    """Two points, left to right: the first's landing from the truck start T
    launches exactly at the second's es (edge 0) or ls (edge 1).

    The second point's x is nudged an ulp at a time until window_arrays
    gives the equality.  At es the launch lands at er; at T = 0 the height
    is chosen so that the flight from es misses er (by about an ulp), so a
    kernel that flew from s = es would land elsewhere.  Far along the road
    the two round to the same double.
    """
    first = (T + 5.0, 3.0)
    s = return_positions(T, [first[0]], [first[1]], v, R)[0]
    for y in np.linspace(0.2, 0.95, 40) * minor_radius(v, R):
        x = s - window_arrays([0.0], [y], v, R)[edge][0]
        for _ in range(64):
            es, ls, er, _, _ = (w[0] for w in window_arrays([x], [y], v, R))
            if (es, ls)[edge] == s:
                break
            x = np.nextafter(x, np.inf if (es, ls)[edge] < s else -np.inf)
        if (es, ls)[edge] == s and x > first[0] and (edge or T or er != _fly(s, x, y, v)):
            return Instance(v, R, [first, (float(x), float(y))], truck_start=T)
    raise AssertionError("no height puts the landing on the window edge")


class TestDpTableMatchesDense:
    """The live-cell table is the dense table, bit for bit."""

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 60, 200])
    def test_random_proper(self, n):
        # at n = 200 about 100 predecessors are live, so a row spans
        # several column blocks
        for seed in range(3 if n == 200 else 8):
            assert_same_table(gen_random_proper(n, v=2.0, R=10.0, seed=seed))

    def test_random_band_with_out_of_band_points(self):
        # not proper, with sparse rows; every third point is lifted out of
        # the band so its column stays +inf
        m = minor_radius(2.5, 8.0)
        for seed in range(10):
            inst = gen_random_band(40, v=2.5, R=8.0, x_span=120.0, seed=seed)
            assert_same_table(inst)
            lifted = [(p.x, p.y * 1.5 if i % 3 == 0 else p.y)
                      for i, p in enumerate(inst.points)]
            assert any(abs(y) > m for _, y in lifted)
            assert_same_table(Instance(2.5, 8.0, lifted))

    def test_out_of_band_points_across_column_blocks(self):
        # 150 points with every third lifted out of band: a row's live
        # predecessors are many enough that its columns span several blocks
        m = minor_radius(2.0, 10.0)
        for seed in range(3):
            band = gen_random_band(150, v=2.0, R=10.0, x_span=150.0, seed=seed)
            inst = Instance(2.0, 10.0, [(p.x, p.y + math.copysign(m, p.y) if i % 3 == 0 else p.y)
                                        for i, p in enumerate(band.points)])
            table = dp_table(inst)
            finite = np.isfinite(table.completions)
            assert not finite[:, [j for j, i in enumerate(table.ranks) if i % 3 == 0]].any()
            assert any(len(inst) - 1 - row.argmax() > solvers._DP_BLOCK_CELLS // row.sum()
                       for row in finite[:-1])
            assert_same_table(inst)

    def test_large_random_band(self):
        assert_same_table(gen_random_band(200, v=2.0, R=10.0, x_span=400.0, seed=4))

    def test_scaling_instance_of_check_9(self):
        assert_same_table(_scaling_instance(150))

    def test_scaling_instance_every_cell_early(self):
        # every landing precedes the next window's opening, and the
        # openings grow with rank, so no cell flies
        inst = _scaling_instance(60)
        es = window_arrays(inst.xs, inst.ys, inst.v, inst.R)[0]
        completions = dp_table(inst).completions
        latest = np.where(np.isfinite(completions), completions, -np.inf).max(axis=0)
        assert (np.diff(es) > 0).all() and (latest[:-1] < es[1:]).all()
        assert_same_table(inst)

    @pytest.mark.parametrize("T", [0.0, 1e6])
    @pytest.mark.parametrize("edge", [0, 1], ids=["es", "ls"])
    def test_landing_on_window_edge(self, edge, T):
        # s == es lands at er, as an earlier launch does; s == ls still flies
        inst = landing_on_window_edge(edge, T)
        table = dp_table(inst)
        s = table.completions[0, 0]
        es, ls, er, _, _ = (w[1] for w in window_arrays(inst.xs, inst.ys, inst.v, inst.R))
        want = _fly(s, inst.xs[1], inst.ys[1], inst.v) if edge else er
        assert table.ranks == (0, 1) and s == (es, ls)[edge]
        assert table.completions[1, 1] == want
        assert_same_table(inst)

    def test_shifted_copies(self):
        for seed in range(4):
            assert_same_table(_shifted(gen_random_proper(60, v=2.0, R=10.0, seed=seed), 1e6))
            assert_same_table(_shifted(gen_random_band(40, 2.5, 8.0, x_span=120.0, seed=seed),
                                       1e6))
        assert_same_table(_shifted(_scaling_instance(60), 1e6))

    @pytest.mark.parametrize("n", [40, 200])
    def test_dense_band(self, n):
        # x-span = R: many launches fall inside later windows
        for seed in range(3):
            assert_same_table(gen_random_band(n, v=2.0, R=10.0, x_span=10.0, seed=seed))

    def test_no_servable_point(self):
        inst = Instance(2.0, 10.0, [(0.0, 100.0), (3.0, -50.0)])
        table = dp_table(inst)
        assert table.completions.shape == table.parents.shape == (0, 2)
        assert table.parents.dtype == int
        assert_same_table(inst)

    @settings(max_examples=60)
    @given(
        v=st.floats(1.1, 5.0),
        R=st.floats(0.5, 12.0),
        start=st.floats(-10.0, 10.0),
        pts=st.lists(
            st.tuples(st.floats(-20.0, 40.0), st.floats(0.05, 6.0), st.booleans()),
            max_size=9,
        ),
    )
    def test_property_small_instances(self, v, R, start, pts):
        # heights reach past the band for small R, so some points are out
        # of reach; equal abscissas exercise the rank tie-break
        points = [(round(x), y if up else -y) for x, y, up in pts]
        assert_same_table(Instance(v, R, points, truck_start=start))

    @settings(max_examples=200)
    @given(data=st.data())
    def test_property_generated_families(self, data):
        # sparse and dense (x-span = R) bands, proper instances, and bands
        # with every third height doubled (past the band's edge for the
        # upper half), near the origin and far along the road
        kind = data.draw(st.sampled_from(["band", "dense", "proper", "lifted"]))
        v = data.draw(st.sampled_from([1.05, 2.0, 50.0]))
        R = data.draw(st.sampled_from([1.0, 10.0]))
        n, seed = data.draw(st.integers(0, 40)), data.draw(st.integers(0, 10_000))
        if kind == "proper":
            inst = gen_random_proper(n, v, R, seed=seed)
        else:
            inst = gen_random_band(n, v, R, x_span=R if kind == "dense" else 3.0 * R + n,
                                   seed=seed)
        if kind == "lifted":
            ys = inst.ys * np.where(np.arange(n) % 3 == 0, 2.0, 1.0)
            inst = Instance(v, R, list(zip(inst.xs.tolist(), ys.tolist())),
                            truck_start=inst.truck_start)
        assert_same_table(_shifted(inst, data.draw(st.sampled_from([0.0, 1e6]))))

    @pytest.mark.parametrize("cells", [1, 37, 8192, "n^2"])
    def test_block_size_does_not_change_the_table(self, monkeypatch, cells):
        # the in-window cells of every block of a row meet in one merge, so
        # the split into blocks must not show in any cell or parent
        for inst in (gen_random_proper(200, v=2.0, R=10.0, seed=5),
                     gen_random_band(200, v=2.0, R=10.0, x_span=10.0, seed=5),
                     _scaling_instance(150)):
            n = len(inst)
            monkeypatch.setattr(solvers, "_DP_BLOCK_CELLS", n * n if cells == "n^2" else cells)
            assert_same_table(inst)


def flight_at_er(flier, v=2.0, R=10.0):
    """Ranks 0 and 1 land before point 2's window closes: `flier` (0 or 1)
    inside it, and its flight lands exactly at point 2's er; the other
    lands before the window opens.

    Rank 0 sits near the band's edge and rank 1 near the axis, so rank 1
    lands first; for flier 1 the two heights swap.  Point 2's abscissa is
    nudged an ulp at a time, from es at the flier's landing, until the
    flight from there rounds to er.
    """
    first = [(0.0, 4.3), (2.0, 0.5)] if flier == 0 else [(0.0, 0.5), (2.0, 4.3)]
    s = dp_table(Instance(v, R, first, truck_start=-10.0)).completions[0, flier]
    for y in np.linspace(0.2, 0.95, 40) * minor_radius(v, R):
        x = s - window_arrays([0.0], [y], v, R)[0][0]
        for _ in range(64):
            es, _, er, _, _ = (w[0] for w in window_arrays([x], [y], v, R))
            if es < s and _fly(s, x, y, v) == er:
                return Instance(v, R, [*first, (float(x), float(y))], truck_start=-10.0)
            x = np.nextafter(x, -np.inf)
    raise AssertionError("no abscissa puts the flight at er")


class TestDpTableTies:
    """Rank 2's cell in row 1, from ranks 0 and 1: the dense argmin's first
    minimum over the predecessors in rank order."""

    @staticmethod
    def cell(inst):
        # (landings of ranks 0 and 1, rank 2's window, the cell, its parent)
        table = dp_table(inst)
        es, ls, er, _, _ = (w[2] for w in window_arrays(inst.xs, inst.ys, inst.v, inst.R))
        assert table.ranks == (0, 1, 2)
        assert_same_table(inst)
        return table.completions[0, :2], (es, ls, er), table.completions[1, 2], table.parents[1, 2]

    def test_early_beats_a_later_flight_from_a_lower_rank(self):
        # rank 0 lands inside the window [0.5, 8.5], rank 1 before it
        inst = Instance(2.0, 10.0, [(0.0, 4.3), (2.0, 0.5), (7.0, 2.598)], truck_start=-10.0)
        (s0, s1), (es, ls, er), cell, parent = self.cell(inst)
        assert s1 <= es < s0 <= ls and _fly(s0, 7.0, 2.598, 2.0) > er
        assert cell == er and parent == 1

    def test_two_early_predecessors_give_the_lower_rank(self):
        # both land before the window [3.5, 11.5] opens, rank 1 first
        inst = Instance(2.0, 10.0, [(0.0, 4.3), (2.0, 0.5), (10.0, 2.598)], truck_start=-10.0)
        (s0, s1), (es, _, er), cell, parent = self.cell(inst)
        assert s1 < s0 <= es
        assert cell == er and parent == 0

    @pytest.mark.parametrize("flier", [0, 1])
    def test_flight_at_er_ties_by_rank(self, flier):
        inst = flight_at_er(flier)
        s, (es, ls, er), cell, parent = self.cell(inst)
        assert s[1 - flier] <= es < s[flier] <= ls
        assert _fly(s[flier], inst.xs[2], inst.ys[2], inst.v) == er
        assert cell == er and parent == 0


class TestDpProper:
    def test_rejects_nonproper(self):
        inst = crossing_instance()
        with pytest.raises(NotProperError):
            solve_dp_proper(inst)

    def test_nonproper_allowed_when_asked(self):
        inst = crossing_instance()
        sched = solve_dp_proper(inst, require_proper=False)
        assert verify_schedule(inst, sched).feasible

    def test_matches_exact_count_on_proper_instances(self):
        # the guarantee is about cardinality; the brute force may still
        # finish earlier via an out-of-x-order schedule of the same size
        for seed in range(30):
            inst = gen_random_proper(7, v=2.0, R=10.0, seed=seed)
            dp = solve_dp_proper(inst)
            exact = solve_exact(inst)
            assert dp.count == exact.count
            scale = instance_scale(inst)
            assert schedule_completion(inst, dp) >= (
                schedule_completion(inst, exact) - 1e-9 * scale
            )

    def test_serves_left_to_right(self):
        for seed in range(10):
            inst = gen_random_proper(8, v=3.0, R=6.0, seed=seed)
            sched = solve_dp_proper(inst)
            xs = [inst.points[i].x for i in sched.order]
            assert xs == sorted(xs)
            assert len(set(xs)) == len(xs)

    def test_feasible_sets_stay_feasible_when_sorted(self):
        # on proper instances any servable set is servable left to right
        # (the completion may land later or earlier, only feasibility holds)
        rng = random.Random(17)
        checked = 0
        while checked < 60:
            inst = gen_random_proper(6, v=2.0, R=10.0, seed=rng.randrange(10_000))
            ids = list(range(len(inst.points)))
            rng.shuffle(ids)
            size = rng.randrange(2, len(ids) + 1)
            order = ids[:size]
            packed = earliest_start_pack(inst, order)
            if packed is None:
                continue
            by_x = sorted(order, key=lambda i: inst.points[i].x)
            if by_x == list(order):
                continue
            assert earliest_start_pack(inst, by_x) is not None
            checked += 1

    def test_deterministic(self):
        inst = gen_random_proper(8, v=2.0, R=10.0, seed=5)
        assert solve_dp_proper(inst) == solve_dp_proper(inst)

    def test_empty(self):
        assert solve_dp_proper(Instance(v=2.0, R=10.0)) == Schedule(())
        late = Instance(2.0, 10.0, [(0.0, 1.0), (1.0, 9.0)], truck_start=50.0)
        assert solve_dp_proper(late, require_proper=False) == Schedule(())

    def test_packs_to_the_table_along_its_chain(self):
        # the table and the pack land a launch at or before es at er, so the
        # packed order lands on the table's own cells, bit for bit
        rng = random.Random(2402)
        for _ in range(600):
            n, v, seed = rng.randrange(3, 41), rng.uniform(1.2, 7.2), rng.randrange(10**6)
            inst = (gen_random_proper(n, v, 10.0, seed) if rng.random() < 0.5 else
                    gen_random_band(n, v, 10.0, x_span=rng.choice([10.0, 30.0 + n]), seed=seed))
            table, sched = dp_table(inst), solve_dp_proper(inst, require_proper=False)
            chain = [int(np.argmin(table.completions[-1]))]
            for r in range(len(table.completions) - 1, 0, -1):
                chain.append(int(table.parents[r][chain[-1]]))
            chain.reverse()
            assert sched.order == tuple(table.ranks[j] for j in chain)
            assert sched.rets == tuple(table.completions[r, j] for r, j in enumerate(chain))
            assert sched.rets[-1] == table.completions[-1].min()


class TestOneLandingRule:
    """A launch at or before es waits for the window and lands at er, exactly,
    in every landing form; a launch an ulp past es flies, alike in all."""

    @pytest.mark.parametrize("where", ["before", "at", "past"])
    def test_every_form_lands_alike(self, where):
        v, R = 3.0, 7.0
        x, y = 13.0, 3.0 * minor_radius(v, R) / 41.0
        w = start_window((x, y), v, R)
        assert _fly(w.es, x, y, v) != w.er  # the flight from es misses er by an ulp
        s = {"before": w.es - 1.0, "at": w.es, "past": math.nextafter(w.es, math.inf)}[where]
        inst = Instance(v, R, [(x, y)], truck_start=s)
        landings = {
            "_land": _land(s, x, y, w.es, w.er, v),
            "return_position": return_position(s, (x, y), v, R),
            "return_positions": return_positions(s, [x], [y], v, R)[0],
            "round_trip_time": s + round_trip_time(s, (x, y), v, R),
            "dp_table": dp_table(inst).completions[0, 0],
            "earliest_start_pack": earliest_start_pack(inst, [0]).rets[0],
            "verify_schedule": verify_schedule(inst, Schedule((Delivery(0, s, 0.0),))).completion,
            # before es, greedy lands nothing and drives to the opening first
            "solve_greedy": solve_greedy(inst).rets[0],
            "solve_exact": solve_exact(inst).rets[0],
        }
        want = _fly(s, x, y, v) if where == "past" else w.er
        assert landings == dict.fromkeys(landings, want)


def _shifted(inst, T):
    return Instance(inst.v, inst.R, [(p.x + T, p.y) for p in inst.points],
                    truck_start=inst.truck_start + T)


def assert_shifted_by(base, moved, T, R):
    assert moved.order == base.order
    tol = 1e-12 * T + 1e-9 * R
    for a, b in zip(base.deliveries, moved.deliveries):
        assert abs(b.start - (a.start + T)) <= tol
        assert abs(b.ret - (a.ret + T)) <= tol


class TestTranslation:
    """Shifting every abscissa by T shifts every launch and landing by T
    and changes nothing else, the properness verdict included."""

    @settings(max_examples=30)
    @given(
        T=st.sampled_from([1e3, 1e5, 1e6]),
        v=st.sampled_from([1.5, 2.0, 4.0]),
        seed=st.integers(0, 10_000),
        proper=st.booleans(),
    )
    def test_greedy_and_dp_commute_with_shift(self, T, v, seed, proper):
        if proper:
            inst = gen_random_proper(40, v=v, R=10.0, seed=seed)
        else:
            inst = gen_random_band(40, v=v, R=10.0, x_span=80.0, seed=seed)
        moved = _shifted(inst, T)
        assert_shifted_by(solve_greedy(inst), solve_greedy(moved), T, inst.R)
        assert_shifted_by(solve_dp_proper(inst, require_proper=proper),
                          solve_dp_proper(moved, require_proper=proper), T, inst.R)

    def test_greedy_ties_do_not_grow_with_abscissa(self):
        # at step 81 two landings 8.9e-4 apart must not tie at T = 1e6
        inst = gen_random_band(200, v=2.0, R=10.0, x_span=400.0, seed=4)
        base = solve_greedy(inst)
        assert_shifted_by(base, solve_greedy(_shifted(inst, 1e6)), 1e6, inst.R)


def _table_count_and_last(inst):
    table = dp_table(inst)
    if not len(table.completions):
        return 0, inst.truck_start
    return len(table.completions), float(table.completions[-1].min())


def assert_sweep_matches_table(inst):
    """Count and last landing equal dp_table's bit for bit; the order packs
    through earliest_start_pack and verifies."""
    sched = solve_sweep(inst, require_proper=False)
    assert _count_and_last(inst, sched) == _table_count_and_last(inst)
    assert earliest_start_pack(inst, sched.order) == sched
    assert verify_schedule(inst, sched).feasible
    return sched


def _drawn(seed, family):
    """The differential's instances: n = 5-64 and v = 1.2-7.2, drawn from the seed."""
    rng = random.Random(seed)
    n, v = rng.randint(5, 64), rng.uniform(1.2, 7.2)
    if family == "proper":
        return gen_random_proper(n, v, 10.0, seed)
    return gen_random_band(n, v, 10.0, x_span=rng.uniform(0.5, 4.0) * n, seed=seed)


class TestSweep:
    """The patience sweep against dp_table, the subset-DP oracle and greedy."""

    @pytest.mark.parametrize("family", ["proper", "band"])
    def test_matches_the_table(self, family):
        for seed in range(100):
            assert_sweep_matches_table(_drawn(seed, family))

    @settings(max_examples=200)
    @given(data=st.data())
    def test_property_generated_families(self, data):
        # the families of the table's own property: sparse and dense bands,
        # proper instances and lifted bands, near the origin and far along the road
        kind = data.draw(st.sampled_from(["band", "dense", "proper", "lifted"]))
        v = data.draw(st.sampled_from([1.05, 2.0, 50.0]))
        R = data.draw(st.sampled_from([1.0, 10.0]))
        n, seed = data.draw(st.integers(0, 40)), data.draw(st.integers(0, 10_000))
        if kind == "proper":
            inst = gen_random_proper(n, v, R, seed=seed)
        else:
            inst = gen_random_band(n, v, R, x_span=R if kind == "dense" else 3.0 * R + n,
                                   seed=seed)
        if kind == "lifted":
            inst = _edge_and_lifted(inst)
        assert_sweep_matches_table(_shifted(inst, data.draw(st.sampled_from([0.0, 1e6]))))

    @settings(max_examples=40)
    @given(n=st.integers(5, 14), v=st.sampled_from([1.2, 2.0, 3.0, 7.0]),
           seed=st.integers(0, 10_000))
    def test_count_equals_the_oracle_on_proper_instances(self, n, v, seed):
        inst = gen_random_proper(n, v, 10.0, seed)
        assert solve_sweep(inst).count == _subset_optimum(inst)[0]

    @settings(max_examples=30)
    @given(
        T=st.sampled_from([1e3, 1e5, 1e6]),
        v=st.sampled_from([1.5, 2.0, 4.0]),
        seed=st.integers(0, 10_000),
        proper=st.booleans(),
    )
    def test_shift_moves_the_completion_by_T(self, T, v, seed, proper):
        if proper:
            inst = gen_random_proper(40, v=v, R=10.0, seed=seed)
        else:
            inst = gen_random_band(40, v=v, R=10.0, x_span=80.0, seed=seed)
        assert_shifted_by(solve_sweep(inst, require_proper=proper),
                          solve_sweep(_shifted(inst, T), require_proper=proper), T, inst.R)

    @pytest.mark.parametrize("n", [1000, 10_000])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_within_the_papers_factor_of_greedy_at_scale(self, n, seed):
        inst = gen_random_proper(n, 2.0, 10.0, seed)
        greedy = solve_greedy(inst).count
        assert greedy <= solve_sweep(inst).count <= 2 * greedy

    def test_rejects_nonproper(self):
        inst, _ = gen_greedy_tightness(2, v=2.0, R=10.0)
        with pytest.raises(NotProperError):
            solve_sweep(inst)
        assert verify_schedule(inst, solve_sweep(inst, require_proper=False)).feasible

    def test_empty_and_unservable(self):
        assert solve_sweep(Instance(2.0, 10.0, [])) == Schedule(())
        late = Instance(2.0, 10.0, [(0.0, 1.0), (1.0, 9.0)], truck_start=50.0)
        assert solve_sweep(late, require_proper=False) == Schedule(())

    def test_a_tie_keeps_the_lower_rank(self):
        # mirror images share a window, so both land at the same er; the one
        # below the axis ranks first and keeps the cell
        inst = Instance(2.0, 10.0, [(0.0, 4.3), (0.0, -4.3)], truck_start=-10.0)
        assert solve_sweep(inst, require_proper=False).order == (1,)

    def test_the_cli_dp_is_the_sweep(self):
        # proper seed 69 of the differential is a tie case: same count and
        # last landing as solve_dp_proper, another order
        inst = _drawn(69, "proper")
        sweep, cubic = solve_sweep(inst), solve_dp_proper(inst)
        assert sweep != cubic and _count_and_last(inst, sweep) == _count_and_last(inst, cubic)
        args = cli._build_parser().parse_args(["solve", "--algo", "dp", "--input", "-"])
        assert cli.SOLVERS["dp"](inst, args) == sweep
