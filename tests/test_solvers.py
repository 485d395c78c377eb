"""Tests for the greedy, dynamic-program, and brute-force schedulers."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truckdrone.generators import gen_greedy_tightness, gen_random_band, gen_random_proper
from truckdrone.geometry import return_positions, start_window, window_arrays
from truckdrone.model import (
    Instance,
    earliest_start_pack,
    instance_scale,
    schedule_completion,
    verify_schedule,
)
from truckdrone.proper import NotProperError
from truckdrone.solvers import (
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

    @settings(derandomize=True, max_examples=60, deadline=None)
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

    @settings(derandomize=True, max_examples=30, deadline=None)
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
