"""Tests for the properness checks the cubic solver relies on."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truckdrone import proper
from truckdrone.generators import gen_random_band, gen_random_proper
from truckdrone.geometry import _half_width, _minor_radius, start_window, window_arrays
from truckdrone.model import DEFAULT_TOL, Instance
from truckdrone.proper import (
    _CHUNK,
    NotProperError,
    ProperReport,
    _pair_violations,
    _reach,
    check_proper,
    interval_order_check,
)

from test_solvers import _shifted


def minor_radius(v, R):
    return (R / (2.0 * v)) * math.sqrt(v * v - 1.0)


class TestCheckProper:
    def test_empty_and_single(self):
        assert check_proper(Instance(v=2.0, R=10.0)).is_proper
        assert check_proper(Instance(v=2.0, R=10.0, points=[(5.0, 3.0)])).is_proper

    def test_frozen_two_point_example(self):
        # windows [-1.1056, 6.1056] and [23.5, 31.5] are disjoint
        m = minor_radius(2.0, 10.0)
        inst = Instance(v=2.0, R=10.0, points=[(5.0, 3.0), (30.0, 0.6 * m)])
        report = check_proper(inst)
        assert report == ProperReport(True, (), (), ())
        w0 = start_window(inst.points[0], 2.0, 10.0)
        w1 = start_window(inst.points[1], 2.0, 10.0)
        assert w0.es == pytest.approx(-1.105551, abs=1e-6)
        assert w0.ls == pytest.approx(6.105551, abs=1e-6)
        assert (w1.es, w1.ls) == (pytest.approx(23.5), pytest.approx(31.5))

    def test_identical_points_nest_both_ways(self):
        inst = Instance(v=2.0, R=10.0, points=[(5.0, 3.0), (5.0, 3.0)])
        report = check_proper(inst)
        assert not report.is_proper
        assert (0, 1) in report.nesting_violations
        assert (1, 0) in report.nesting_violations
        # coincident points sit on each other's triangle apex
        assert (0, 1) in report.triangle_violations

    def test_band_edge_points_have_degenerate_windows(self):
        # |y| = band half-height collapses the window to a single abscissa,
        # so two such points at distinct x neither nest nor hit triangles
        v, R = 2.0, 10.0
        m = minor_radius(v, R)
        inst = Instance(v=v, R=R, points=[(5.0, m), (30.0, -m)])
        report = check_proper(inst)
        assert report.is_proper
        for p in inst.points:
            w = start_window(p, v, R)
            assert w.ls - w.es == pytest.approx(0.0, abs=1e-9)

    def test_same_x_band_edge_points_nest(self):
        v, R = 2.0, 10.0
        m = minor_radius(v, R)
        inst = Instance(v=v, R=R, points=[(5.0, m), (5.0, -m)])
        report = check_proper(inst)
        assert not report.is_proper
        assert (0, 1) in report.nesting_violations
        assert (1, 0) in report.nesting_violations

    def test_point_under_a_wide_triangle(self):
        # a low point tucked between a high point's window ends falls
        # inside its triangle
        v, R = 2.0, 10.0
        m = minor_radius(v, R)
        inst = Instance(v=v, R=R, points=[(10.0, 0.5 * m), (10.0, 0.05 * m)])
        report = check_proper(inst)
        assert not report.is_proper
        assert (0, 1) in report.triangle_violations

    def test_opposite_sides_do_not_interact_via_triangles(self):
        v, R = 2.0, 10.0
        m = minor_radius(v, R)
        inst = Instance(v=v, R=R, points=[(10.0, 0.5 * m), (10.0, -0.05 * m)])
        report = check_proper(inst)
        assert (0, 1) not in report.triangle_violations
        # mirrored geometry still nests the lower point's wider window? no:
        # the shallow point has the wider window, so the deep one nests in it
        assert (0, 1) in report.nesting_violations

    def test_out_of_band_points_reported(self):
        m = minor_radius(2.0, 10.0)
        inst = Instance(v=2.0, R=10.0, points=[(5.0, 3.0), (8.0, 2.0 * m)])
        report = check_proper(inst)
        assert not report.is_proper
        assert report.out_of_band == (1,)

    def test_not_proper_error_carries_report(self):
        inst = Instance(v=2.0, R=10.0, points=[(5.0, 3.0), (5.0, 3.0)])
        report = check_proper(inst)
        err = NotProperError(report)
        assert err.report is report
        assert "nesting" in str(err)

    def test_permutation_consistency(self):
        # shuffling the point list relabels violations but never changes
        # the verdict
        rng = random.Random(31)
        v, R = 2.0, 10.0
        m = minor_radius(v, R)
        for _ in range(20):
            pts = []
            x = 0.0
            for _ in range(5):
                x += rng.uniform(0.5, 8.0)
                pts.append((x, rng.uniform(0.05, 0.95) * m * rng.choice((-1, 1))))
            base = check_proper(Instance(v=v, R=R, points=pts))
            perm = list(range(len(pts)))
            rng.shuffle(perm)
            shuffled = check_proper(Instance(v=v, R=R, points=[pts[i] for i in perm]))
            assert shuffled.is_proper == base.is_proper
            # map the shuffled pair labels back to the original indices
            back = {new: old for new, old in enumerate(perm)}
            remapped = sorted((back[a], back[b]) for a, b in shuffled.triangle_violations)
            assert remapped == sorted(base.triangle_violations)
            remapped = sorted((back[a], back[b]) for a, b in shuffled.nesting_violations)
            assert remapped == sorted(base.nesting_violations)

    def test_pairs_sorted_row_major(self):
        inst = Instance(
            v=2.0, R=10.0, points=[(5.0, 3.0), (5.0, 3.0), (5.0, 3.0)]
        )
        report = check_proper(inst)
        assert list(report.nesting_violations) == sorted(report.nesting_violations)

    def test_tolerance_widens_the_net(self):
        # nearly identical windows pass at tight tolerance, fail at loose
        inst = Instance(v=2.0, R=10.0, points=[(5.0, 3.0), (5.0 + 1e-6, 3.0)])
        assert not check_proper(inst, tol=1e-3).is_proper
        tight = check_proper(inst, tol=1e-12)
        assert tight.nesting_violations == ()

    @pytest.mark.parametrize("R", [0.01, 10.0, 1000.0])
    def test_tolerances_scale_with_R(self, R):
        # b sits a relative 0.5 or 2 tolerances outside a's triangle (area
        # form, tol*R^2) or beyond nesting in a's window (tol*R)
        v, tol = 2.0, 1e-6
        m = minor_radius(v, R)
        ya, yb = 0.5 * m, 0.25 * m
        wa = 0.0 - start_window((0.0, ya), v, R).es
        for k, flagged in ((0.5, True), (2.0, False)):
            xb = wa * (1.0 - yb / ya) + k * tol * R * R / ya
            report = check_proper(Instance(v=v, R=R, points=[(0.0, ya), (xb, yb)]), tol=tol)
            assert ((0, 1) in report.triangle_violations) is flagged
            ha = start_window((0.0, ya), v, R).half_width
            hb = start_window((0.0, yb), v, R).half_width
            xb = hb - ha + k * tol * R
            report = check_proper(Instance(v=v, R=R, points=[(0.0, ya), (xb, yb)]), tol=tol)
            assert ((0, 1) in report.nesting_violations) is flagged

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-9])
    def test_bad_tolerance_raises(self, tol):
        with pytest.raises(ValueError, match="tolerance"):
            check_proper(Instance(v=2.0, R=10.0), tol=tol)
        with pytest.raises(ValueError, match="tolerance"):
            check_proper(Instance(v=2.0, R=10.0, points=[(5.0, 3.0), (5.0, 3.0)]), tol=tol)


def _dense_check_proper(inst, tol=DEFAULT_TOL):
    """Reference: `_pair_violations` on all n x n in-band pairs at once, the
    form that check_proper's sweep replaced."""
    xs = np.array([p.x for p in inst.points])
    ys = np.array([p.y for p in inst.points])
    in_band = np.abs(ys) <= _minor_radius(inst.v, inst.R)
    idx = np.flatnonzero(in_band)
    X, Y = xs[idx], ys[idx]
    H = _half_width(Y, inst.v, inst.R)
    triangle, nested = _pair_violations(X[:, None], Y[:, None], X, Y, inst.v, inst.R, tol,
                                        H[:, None], H)
    np.fill_diagonal(triangle, False)
    np.fill_diagonal(nested, False)
    triangles = tuple(map(tuple, idx[np.argwhere(triangle)].tolist()))
    nestings = tuple(map(tuple, idx[np.argwhere(nested)].tolist()))
    out_of_band = tuple(np.flatnonzero(~in_band).tolist())
    ok = not triangles and not nestings and not out_of_band
    return ProperReport(ok, triangles, nestings, out_of_band)


@st.composite
def _sweep_cases(draw):
    """Random bands, sparse (x-span 2n), dense (x-span 40) or crowded near
    the axis (heights x 0.01), all scaled with R; then points moved onto
    another point's abscissa, onto the band edge or out of the band, and
    the whole instance shifted along the road."""
    v = draw(st.sampled_from([1.001, 2.0, 50.0]))
    R = draw(st.sampled_from([0.01, 10.0, 1000.0]))
    # dense bands of isqrt(4 _CHUNK) points fill one to three grids, sparse
    # ones of _CHUNK / 7 points about one (each point reaches about 7 others)
    n = draw(st.sampled_from([0, 1, 2, math.isqrt(_CHUNK) // 2, math.isqrt(4 * _CHUNK),
                              _CHUNK // 7]))
    layout = draw(st.sampled_from(["sparse", "dense", "near-axis"]))
    span = (2.0 * n if layout == "sparse" else 40.0) * R / 10.0
    inst = gen_random_band(n, v, R, span, draw(st.integers(0, 2**16)))
    squash = 0.01 if layout == "near-axis" else 1.0
    X = [p.x for p in inst.points]
    Y = [p.y * squash for p in inst.points]
    m = minor_radius(v, R)
    for k, other, move in draw(st.lists(st.tuples(
            st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)),
            st.sampled_from(["same-x", "edge", "outside"])), max_size=8 if n else 0)):
        if move == "same-x":
            X[k] = X[other]
        else:
            Y[k] = math.copysign(m if move == "edge" else 1.5 * m, Y[k])
    shift = draw(st.sampled_from([0.0, 1e3, 1e7]))
    tol = draw(st.sampled_from([0.0, 1e-9, 1e-3]))
    return Instance(v, R, tuple((x + shift, y) for x, y in zip(X, Y)), shift), tol


class TestSweepMatchesDense:
    @settings(max_examples=300)
    @given(case=_sweep_cases())
    def test_report_equals_the_dense_reference(self, case):
        inst, tol = case
        assert check_proper(inst, tol) == _dense_check_proper(inst, tol)

    @pytest.mark.parametrize("tol", [0.0, DEFAULT_TOL, 1e-3])
    def test_differential_instances(self, tol):
        for X, Y, v, R in _differential_instances():
            for shift in (0.0, 1e7):
                inst = Instance(v, R, tuple(zip((X + shift).tolist(), Y.tolist())))
                report = check_proper(inst, tol)
                assert report == _dense_check_proper(inst, tol)
                assert report.triangle_violations and report.nesting_violations

    @staticmethod
    def _across_a_chunk_boundary(v, R, a, b):
        """a and b after 63 points far left, each alone in its reach.  With
        chunks of one or two cells, a and b fall in different grids, so
        (a, b) is found only if b lies within a's own reach."""
        m = _minor_radius(v, R)
        rest = [(a[0] - 10.0 * R * k, 0.5 * m) for k in range(63, 0, -1)]
        return Instance(v, R, (*rest, a, b)), (63, 64)

    @pytest.mark.parametrize("shift", [0.0, 1e7])
    def test_pairs_at_the_edge_of_reach_are_found(self, shift, monkeypatch):
        # nesting at its widest: a on the band edge (h_a = 0) nests in a
        # b so close to the axis that h_b = R/2, exactly R/2 away; at 1e7
        # only the ulp pad keeps x_a + reach above x_b
        v, R = 2.0, 10.0
        inst, pair = self._across_a_chunk_boundary(
            v, R, (shift, _minor_radius(v, R)), (shift + R / 2.0, 1e-300))
        for chunk in (1, 2, _CHUNK):
            monkeypatch.setattr(proper, "_CHUNK", chunk)
            report = check_proper(inst, tol=0.0)
            assert report == _dense_check_proper(inst, tol=0.0)
            assert pair in report.nesting_violations

    def test_underflowing_heights_are_found(self, monkeypatch):
        # at subnormal heights the area form rounds to 0 <= 0, so b is
        # flagged beyond w_a = 0.375; the reach must cover that
        inst, pair = self._across_a_chunk_boundary(2.0, 0.5, (0.0, 5e-324), (0.45, 5e-324))
        for chunk in (1, 2, _CHUNK):
            monkeypatch.setattr(proper, "_CHUNK", chunk)
            report = check_proper(inst, tol=0.0)
            assert report == _dense_check_proper(inst, tol=0.0)
            assert pair in report.triangle_violations

    def test_edge_pairs_at_a_far_shift_across_chunks(self, monkeypatch):
        # twelve nesting pairs at the edge of reach, as above, at 1e7 and
        # tol = 0: a band-edge a and a b with h_b = R/2 exactly R/2 right of
        # it; b's own reach is about w_b, so it meets only its own a
        v, R, shift = 2.0, 10.0, 1e7
        m = _minor_radius(v, R)
        points, pairs = [], []
        for k in range(12):
            x, s = shift + 20.0 * R * k, (-1.0) ** k
            pairs.append((len(points), len(points) + 1))
            points += [(x, s * m), (x + R / 2.0, s * 1e-9 * m)]
        inst = Instance(v, R, tuple(points))
        for chunk in (1, 3, 5, _CHUNK):
            monkeypatch.setattr(proper, "_CHUNK", chunk)
            report = check_proper(inst, tol=0.0)
            assert report == _dense_check_proper(inst, tol=0.0)
            assert set(pairs) <= set(report.nesting_violations)

    def test_equal_abscissas_split_by_a_chunk_boundary(self, monkeypatch):
        # groups of points on one abscissa at several heights: their widths
        # differ, so with small chunks each group spans several grids
        v, R = 2.0, 10.0
        m = _minor_radius(v, R)
        heights = (0.9 * m, -0.5 * m, 0.2 * m, -0.05 * m, m)
        inst = Instance(v, R, tuple((7.0 * R * g, y) for g in range(6) for y in heights))
        calls = _count_cells(monkeypatch)
        for chunk in (1, 4, 9, _CHUNK):
            monkeypatch.setattr(proper, "_CHUNK", chunk)
            calls.clear()
            report = check_proper(inst)
            assert report == _dense_check_proper(inst)
            assert (0, 2) in report.nesting_violations and (4, 0) in report.nesting_violations
            assert len(calls) > 1 or chunk == _CHUNK
        assert len(calls) == 1

    def test_a_reach_wider_than_a_chunk_is_one_grid(self, monkeypatch):
        # a point a hair above the axis reaches every other point at tol = 0:
        # its row alone outgrows the cell budget and is tested in one call
        v, R, n = 2.0, 10.0, _CHUNK + 100
        band = gen_random_band(n, v, R, 2.0 * n, 3)
        k = n // 2
        X, Y = band.xs.copy(), band.ys.copy()
        Y[k] = 1e-300
        inst = Instance(v, R, tuple(zip(X.tolist(), Y.tolist())))
        sizes = _count_cells(monkeypatch)
        report = check_proper(inst, tol=0.0)
        assert max(sizes) == n and sorted(sizes)[-2] <= _CHUNK
        # the pairs with k against the same test run row by row
        H = _half_width(Y, v, R)
        row = _pair_violations(X[k], Y[k], X, Y, v, R, 0.0, H[k], H)
        col = _pair_violations(X, Y, X[k], Y[k], v, R, 0.0, H, H[k])
        for pairs, as_a, as_b in zip((report.triangle_violations, report.nesting_violations),
                                     row, col):
            expected = ({(k, j) for j in np.flatnonzero(as_a).tolist() if j != k}
                        | {(i, k) for i in np.flatnonzero(as_b).tolist() if i != k})
            assert {p for p in pairs if k in p} == expected != set()

    @pytest.mark.parametrize("chunk", [1, 7, 64, 1000])
    def test_chunk_size_does_not_change_the_report(self, chunk, monkeypatch):
        # dense and sparse bands, with same-x, band-edge and near-axis points
        v, R = 2.0, 10.0
        dense = gen_random_band(150, v, R, 40.0, 5)
        sparse = gen_random_band(300, v, R, 600.0, 6)
        m = _minor_radius(v, R)
        X, Y = sparse.xs.tolist(), sparse.ys.tolist()
        X[10], Y[11], Y[150] = X[11], m, 1e-300
        cases = [(dense, DEFAULT_TOL), (Instance(v, R, tuple(zip(X, Y))), 0.0)]
        reports = [check_proper(inst, tol) for inst, tol in cases]
        monkeypatch.setattr(proper, "_CHUNK", chunk)
        for (inst, tol), report in zip(cases, reports):
            assert check_proper(inst, tol) == report == _dense_check_proper(inst, tol)

    def test_sweep_tests_only_nearby_pairs(self, monkeypatch):
        # the n x n form would pass 4e8 cells in one call here
        sizes = _count_cells(monkeypatch)
        inst = gen_random_band(20000, 2.0, 10.0, 40000.0, 0)
        report = check_proper(inst)
        assert max(sizes) <= _CHUNK
        # the points within each point's own reach, itself included
        X = np.sort(inst.xs)
        Y = inst.ys[np.argsort(inst.xs)]
        reach = _reach(X, Y, 2.0, 10.0, DEFAULT_TOL, _half_width(Y, 2.0, 10.0))
        within = int((np.searchsorted(X, X + reach) - np.searchsorted(X, X - reach)).sum())
        assert within <= 8 * len(X)  # 7.46 a point here
        assert sum(sizes) <= 1.1 * within  # 1.04 here: a grid is as wide as its widest row
        assert not report.is_proper and report.nesting_violations


def _count_cells(monkeypatch):
    """Route proper._pair_violations through a counter; returns the list
    that gets the cell count of each call."""
    sizes = []

    def counting(xa, ya, xb, yb, *rest):
        sizes.append(np.broadcast(xa, ya, xb, yb).size)
        return _pair_violations(xa, ya, xb, yb, *rest)

    monkeypatch.setattr(proper, "_pair_violations", counting)
    return sizes


class TestShiftInvariance:
    @settings(max_examples=40)
    @given(
        T=st.sampled_from([1e3, 1e5, 1e6, 1e7]),
        v=st.sampled_from([1.5, 2.0, 4.0]),
        seed=st.integers(0, 10_000),
        proper=st.booleans(),
    )
    def test_shift_leaves_the_report_unchanged(self, T, v, seed, proper):
        if proper:
            inst = gen_random_proper(60, v=v, R=10.0, seed=seed)
        else:
            inst = gen_random_band(60, v=v, R=10.0, x_span=80.0, seed=seed)
        assert check_proper(_shifted(inst, T)) == check_proper(inst)


def _cross_products(X, Y, v, R):
    """Reference triangle test in absolute coordinates: the three cross
    products of point j against the triangle (es_i,0) (x_i,y_i) (lr_i,0),
    oriented by the sign of y_i, so j is inside when all are >= 0."""
    es, _, _, lr, _ = window_arrays(X, Y, v, R)
    Ei, LRi = es[:, None], lr[:, None]
    Xi, Yi = X[:, None], Y[:, None]
    Xj, Yj = X[None, :], Y[None, :]
    c1 = (Xi - Ei) * Yj - Yi * (Xj - Ei)
    c2 = (LRi - Xi) * (Yj - Yi) + Yi * (Xj - Xi)
    c3 = (Ei - LRi) * Yj
    orient = np.where(Y > 0.0, -1.0, 1.0)[:, None]
    return orient * c1, orient * c2, orient * c3


def _differential_instances():
    """Band instances near the origin, with same-x pairs and band-edge points."""
    v, R = 2.0, 10.0
    m = minor_radius(v, R)
    for seed in range(12):
        rng = random.Random(seed)
        X, Y = [], []
        for _ in range(40):
            X.append(rng.uniform(0.0, 30.0))
            Y.append(rng.uniform(1e-3, 1.0) * m * rng.choice((-1.0, 1.0)))
        for k in range(0, 40, 5):  # a second point at the same abscissa
            X.append(X[k])
            Y.append(rng.uniform(1e-3, 1.0) * m * rng.choice((-1.0, 1.0)))
        for k in range(0, 40, 7):  # band-edge points, windows of one abscissa
            X.append(X[k] + rng.choice((0.0, rng.uniform(-3.0, 3.0))))
            Y.append(m * rng.choice((-1.0, 1.0)))
        yield np.array(X), np.array(Y), v, R


class TestPairViolationsMatchCrossProducts:
    def test_triangle_agrees_away_from_the_edges(self):
        checked = hits = pairs = 0
        for X, Y, v, R in _differential_instances():
            pairs += len(X) * (len(X) - 1)
            c1, c2, c3 = _cross_products(X, Y, v, R)
            reference = (c1 >= 0) & (c2 >= 0) & (c3 >= 0)
            clear = np.minimum(np.minimum(abs(c1), abs(c2)), abs(c3)) > 1e-12 * R * R
            H = _half_width(Y, v, R)
            triangle, _ = _pair_violations(X[:, None], Y[:, None], X, Y, v, R, 0.0, H[:, None], H)
            np.testing.assert_array_equal(triangle[clear], reference[clear])
            checked += int(clear.sum())
            hits += int(reference[clear].sum())
        # both outcomes are exercised, and almost no pair is skipped
        assert hits > 200 and checked > 0.99 * pairs

    def test_nesting_agrees_away_from_the_ends(self):
        checked = hits = pairs = 0
        for X, Y, v, R in _differential_instances():
            pairs += len(X) * (len(X) - 1)
            es, ls, _, _, _ = window_arrays(X, Y, v, R)
            d_es = es[None, :] - es[:, None]   # es_j - es_i
            d_ls = ls[:, None] - ls[None, :]   # ls_i - ls_j
            reference = (d_es <= 0) & (d_ls <= 0)
            clear = np.minimum(abs(d_es), abs(d_ls)) > 1e-12 * R
            H = _half_width(Y, v, R)
            _, nested = _pair_violations(X[:, None], Y[:, None], X, Y, v, R, 0.0, H[:, None], H)
            np.testing.assert_array_equal(nested[clear], reference[clear])
            checked += int(clear.sum())
            hits += int(reference[clear].sum())
        assert hits > 200 and checked > 0.99 * pairs


def _per_point_interval_order(inst):
    """interval_order_check from one start_window per point."""
    windows = []
    for p in inst.points:
        w = start_window(p, inst.v, inst.R)
        if w is None:
            return False
        windows.append((p.x, w.es, w.ls))
    return all(lsi < esj or esi < esj <= lsi < lsj
               for xi, esi, lsi in windows for xj, esj, lsj in windows if xi < xj)


class TestIntervalOrderCheck:
    def test_equals_the_per_point_form(self):
        # proper instances, sparse bands, and the same bands with every
        # third point lifted out of band; always a bool, never numpy's
        m = minor_radius(2.5, 8.0)
        outcomes = []
        for seed in range(100):
            band = gen_random_band(3 + seed % 5, v=2.5, R=8.0, x_span=60.0, seed=seed)
            lifted = Instance(2.5, 8.0, [(p.x, p.y + math.copysign(m, p.y) if i % 3 == 0 else p.y)
                                         for i, p in enumerate(band.points)])
            for inst in (gen_random_proper(2 + seed % 9, v=1.5 + seed % 4, R=8.0, seed=seed),
                         band, lifted):
                got = interval_order_check(inst)
                assert type(got) is bool and got == _per_point_interval_order(inst)
                outcomes.append(got)
        assert outcomes.count(True) > 100 and outcomes.count(False) > 100
        # the thinnest band the numeric domain admits, R/v = 2**-40 at scale 1
        thin = Instance(2.0, 2.0**-39, [(0.0, 1e-13), (2.0**-39, -2e-13)])
        assert interval_order_check(thin) is _per_point_interval_order(thin)

    def test_disjoint_windows(self):
        m = minor_radius(2.0, 10.0)
        inst = Instance(v=2.0, R=10.0, points=[(5.0, 3.0), (30.0, 0.6 * m)])
        assert interval_order_check(inst)

    def test_nested_windows_fail(self):
        # deep point's narrow window strictly inside a shallow point's wide
        # one; the pair is neither disjoint nor staggered
        v, R = 2.0, 10.0
        m = minor_radius(v, R)
        inst = Instance(v=v, R=R, points=[(10.0, 0.1 * m), (10.5, 0.9 * m)])
        assert not interval_order_check(inst)

    def test_out_of_band_fails(self):
        m = minor_radius(2.0, 10.0)
        inst = Instance(v=2.0, R=10.0, points=[(5.0, 2.0 * m)])
        assert not interval_order_check(inst)

    def test_holds_on_generated_proper_instances(self):
        for seed in range(25):
            inst = gen_random_proper(8, v=2.0, R=10.0, seed=seed)
            assert check_proper(inst).is_proper
            assert interval_order_check(inst)

    def test_windows_monotone_in_x_on_proper_instances(self):
        # properness forces both window ends to increase with x
        for seed in range(25):
            inst = gen_random_proper(8, v=3.0, R=6.0, seed=seed)
            ws = sorted(
                (p.x, start_window(p, inst.v, inst.R)) for p in inst.points
            )
            for (_, a), (_, b) in itertools.pairwise(ws):
                assert a.es < b.es
                assert a.ls < b.ls
