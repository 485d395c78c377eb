"""Structural checks that make the cubic solver exact.

An instance is proper when (a) no point lies inside the closed triangle
spanned by another point's window endpoints on the axis and the point
itself, and (b) no start window is contained in another.  On proper
instances, serving points in increasing x order never serves fewer, which
is what the dynamic program relies on; it may land later.

Both conditions are decided in one place, `_pair_violations`, relative to
the apex of each triangle and with tolerances scaled by R alone, so
properness does not depend on where on the road an instance sits.
`check_proper` tests each point against the points within its own reach
(`_reach` gives the bound), in O(n log n + pairs within reach) time and
memory linear in n plus one grid of at most _CHUNK cells;
`gen_random_proper` applies it, with a wider margin, to each candidate.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .geometry import _half_width, _minor_radius, window_arrays
from .model import DEFAULT_TOL, Instance, _check_tol

_CHUNK = 6144  # cells per pair test of check_proper's sweep, about 0.3 MiB of temporaries


@dataclass(frozen=True)
class ProperReport:
    """Violating pairs use original point indices; (i, j) reads as
    "j breaks the condition of i's triangle" / "window of i nests in j's".
    """

    is_proper: bool
    triangle_violations: tuple[tuple[int, int], ...]
    nesting_violations: tuple[tuple[int, int], ...]
    out_of_band: tuple[int, ...]


class NotProperError(ValueError):
    """Instance fails the properness conditions; carries the report."""

    def __init__(self, report: ProperReport):
        self.report = report
        parts = []
        if report.out_of_band:
            parts.append(f"out-of-band points {list(report.out_of_band)}")
        if report.triangle_violations:
            parts.append(f"triangle violations {list(report.triangle_violations)}")
        if report.nesting_violations:
            parts.append(f"nesting violations {list(report.nesting_violations)}")
        super().__init__("instance is not proper: " + "; ".join(parts))


def _pair_violations(xa, ya, xb, yb, v: float, R: float, tol: float, ha, hb):
    """Properness tests of point b against point a; arrays broadcast.

    Returns (triangle, nested): b lies in a's closed triangle, and a's
    window nests in b's.  Relative to a's apex (x_a, y_a), the triangle is
    isosceles with half-base w_a = R/(2v) + h_a, h the window half-width,
    so b is inside iff s_a*y_b >= 0 and

        w_a*s_a*y_b + |y_a|*|x_b - x_a| <= |y_a|*w_a,    s_a = sign(y_a).

    Every window is centred R/(2v) left of its point, so a's nests in b's
    iff |x_b - x_a| <= h_b - h_a.  The tolerance is tol*R^2 on the area
    form and tol*R on lengths.  Only x_b - x_a enters, so a shift of both
    points changes nothing.  Both points must lie in the band; ha and hb
    are their half-widths, `_half_width(ya)` and `_half_width(yb)`.
    """
    wa = R / (2.0 * v) + ha
    sa, depth = np.sign(ya), np.abs(ya)
    dx = np.abs(xb - xa)
    nested = dx <= hb - ha + tol * R
    base = sa * yb >= -tol * R
    # the area form's left side, built in dx's buffer to save a temporary
    area = dx
    area *= depth
    area += (sa * wa) * yb
    triangle = base & (area <= depth * wa + tol * R * R)
    return triangle, nested


def _reach(xa, ya, v: float, R: float, tol: float, ha):
    """|x_b - x_a| up to which b can violate a: w_a + tol*R*(w_a + R)/|y_a| (triangle)
    or R/2 - h_a + tol*R (nesting), padded for rounding, with ha = `_half_width(ya)`;
    arrays work too."""
    slack = (tol + 1e-12) * R  # 1e-12 covers the pair test's rounding
    wa = R / (2.0 * v) + ha
    with np.errstate(over="ignore"):  # |y| near 0: an infinite reach
        reach = np.maximum(wa + slack * (wa + R) / np.abs(ya), R / 2.0 - ha + slack)
    return reach * (1.0 + 1e-9) + 4.0 * np.spacing(np.abs(xa))


def _violations_in_reach(X, Y, idx, n: int, v: float, R: float, tol: float):
    """Triangle and nesting violations among the x-sorted points (X, Y), each
    as the sorted keys idx[i]*n + idx[j] of its pairs.

    Row i must meet the points [lo_i, lo_i + width_i) within its `_reach`.
    Rows go in order of width, in grids of at most _CHUNK cells, or of one
    row where a reach is wider.  A grid as wide as its widest row, w, meets
    the w points from min(lo_i, len(X) - w) in each row: its reach and a
    few points past it, which cannot violate.
    """
    m, H = len(X), _half_width(Y, v, R)
    reach = _reach(X, Y, v, R, tol, H)
    lo = np.searchsorted(X, X - reach)
    width = np.searchsorted(X, X + reach) - lo  # at least 1: a point is within its reach
    rows = np.argsort(width, kind="stable")
    widths = width[rows].tolist()
    found = [np.empty(0, int)], [np.empty(0, int)]
    a = 0
    while a < m:
        # the most rows k from a such that k rows as wide as the k-th, the widest, fit
        b = a + max(1, bisect_right(range(1, m - a + 1), _CHUNK,
                                    key=lambda k: k * widths[a + k - 1]))
        w = widths[b - 1]
        i = rows[a:b, None]
        first = np.minimum(lo[i], m - w)
        j = first + np.arange(w)
        hits = _pair_violations(X[i], Y[i], X[j], Y[j], v, R, tol, H[i], H[j])
        own, row_keys = (np.arange(b - a), (i - first)[:, 0]), idx[i[:, 0]] * n
        for pairs, hit in zip(found, hits):
            hit[own] = False  # self-pairs
            c = np.flatnonzero(hit)
            pairs.append(row_keys[c // w] + idx[j.ravel()[c]])
        a = b
    return [np.sort(np.concatenate(f)) for f in found]


def check_proper(inst: Instance, tol: float = DEFAULT_TOL) -> ProperReport:
    """Scan every ordered pair within reach for properness violations.

    Containment is closed: a point on a triangle edge or a window sharing
    both endpoints counts as a violation (identical windows violate in
    both directions).  Boundary cases within tolerance (tol*R on lengths,
    tol*R^2 on areas) are flagged too, erring toward "not proper".  A tol
    that is negative or not finite raises ValueError.

    Each point meets only the points within its own `_reach`, in grids of
    about _CHUNK pairs: O(n log n + pairs in reach) time and O(n + _CHUNK)
    memory beside the report (a reach wider than _CHUNK is one grid).
    """
    _check_tol(tol)
    v, R, n, xs, ys = inst.v, inst.R, len(inst), inst.xs, inst.ys
    in_band = np.abs(ys) <= _minor_radius(v, R)
    idx = np.flatnonzero(in_band)[np.argsort(xs[in_band])]
    keys = _violations_in_reach(xs[idx], ys[idx], idx, n, v, R, tol)
    triangles, nestings = (tuple(zip((k // n).tolist(), (k % n).tolist())) for k in keys)
    out_of_band = tuple(np.flatnonzero(~in_band).tolist())
    ok = not triangles and not nestings and not out_of_band
    return ProperReport(ok, triangles, nestings, out_of_band)


def interval_order_check(inst: Instance) -> bool:
    """Window layout test: for every pair with x_i < x_j the windows are
    either disjoint (ls_i < es_j) or staggered (es_i < es_j <= ls_i < ls_j).

    Holds on every proper instance; used as a test assertion.
    """
    es, ls, _, _, in_band = window_arrays(inst.xs, inst.ys, inst.v, inst.R)
    windows = list(zip(inst.xs.tolist(), es.tolist(), ls.tolist()))
    return bool(in_band.all()) and all(
        lsi < esj or esi < esj <= lsi < lsj  # disjoint or staggered
        for xi, esi, lsi in windows for xj, esj, lsj in windows if xi < xj)
