"""Tests for the greedy, dynamic-program, and brute-force schedulers."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truckdrone.generators import gen_greedy_tightness, gen_random_band, gen_random_proper
from truckdrone.geometry import _land, return_positions, start_window, window_arrays
from truckdrone.model import (
    Delivery,
    Instance,
    Schedule,
    earliest_start_pack,
    instance_scale,
    schedule_completion,
    verify_schedule,
)
from truckdrone.proper import NotProperError
from truckdrone.solvers import (
    GREEDY_TIE_TOL,
    BudgetError,
    DpTable,
    dp_table,
    solve_dp_proper,
    solve_exact,
    solve_greedy,
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
        assert sched.deliveries[0].ret == pytest.approx(28.5, abs=1e-9)

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
        # hundreds of windows are open at once
        for seed in range(4):
            inst = gen_random_band(500, v=2.0, R=10.0, x_span=40.0, seed=seed)
            assert_same_greedy(inst)
            assert_same_greedy(_edge_and_lifted(inst))

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
        assert len(calls) < 8 * sched.count

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
    if n == 0:
        return DpTable(np.empty((0, 0)), np.empty((0, 0), dtype=int), ranks)
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
    return DpTable(np.array(rows), np.array(parents), ranks)


def assert_same_table(inst):
    got, want = dp_table(inst), _dense_dp_table(inst)
    assert got.ranks == want.ranks
    assert np.array_equal(got.completions, want.completions)
    assert np.array_equal(got.parents, want.parents)


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

    def test_large_random_band(self):
        assert_same_table(gen_random_band(200, v=2.0, R=10.0, x_span=400.0, seed=4))

    def test_scaling_instance_of_check_9(self):
        assert_same_table(_scaling_instance(150))

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
        assert solve_dp_proper(Instance(v=2.0, R=10.0)).count == 0


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
