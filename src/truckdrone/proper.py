"""Structural checks that make the cubic solver exact.

An instance is proper when (a) no point lies inside the closed triangle
spanned by another point's window endpoints on the axis and the point
itself, and (b) no start window is contained in another.  On proper
instances, serving points in increasing x order is never worse, which is
what the dynamic program relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import start_window, window_arrays
from .model import DEFAULT_TOL, Instance, _check_tol, instance_scale


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


def check_proper(inst: Instance, tol: float = DEFAULT_TOL) -> ProperReport:
    """Scan all ordered pairs for properness violations.

    Containment is closed: a point on a triangle edge or a window sharing
    both endpoints counts as a violation (identical windows violate in
    both directions).  Boundary cases within tolerance are flagged too,
    erring toward "not proper".  A tol that is negative or not finite
    raises ValueError.
    """
    _check_tol(tol)
    n = len(inst.points)
    if n == 0:
        return ProperReport(True, (), (), ())
    xs = np.array([p.x for p in inst.points])
    ys = np.array([p.y for p in inst.points])
    es, ls, er, lr, in_band = window_arrays(xs, ys, inst.v, inst.R)
    out_of_band = tuple(int(i) for i in np.flatnonzero(~in_band))

    scale = instance_scale(inst)
    tol_len = tol * scale
    tol_area = tol * scale * scale

    idx = np.flatnonzero(in_band)
    triangles: list[tuple[int, int]] = []
    nestings: list[tuple[int, int]] = []
    if len(idx) >= 2:
        E, L, LR = es[idx], ls[idx], lr[idx]
        X, Y = xs[idx], ys[idx]
        Ei, Li, LRi = E[:, None], L[:, None], LR[:, None]
        Xi, Yi = X[:, None], Y[:, None]
        Xj, Yj = X[None, :], Y[None, :]
        off_diag = ~np.eye(len(idx), dtype=bool)

        # point j against the closed triangle (es_i,0) (x_i,y_i) (lr_i,0);
        # cross products oriented by the sign of y_i
        c1 = (Xi - Ei) * Yj - Yi * (Xj - Ei)
        c2 = (LRi - Xi) * (Yj - Yi) + Yi * (Xj - Xi)
        c3 = (Ei - LRi) * Yj
        orient = np.where(Y > 0.0, -1.0, 1.0)[:, None]
        inside = (
            (orient * c1 >= -tol_area)
            & (orient * c2 >= -tol_area)
            & (orient * c3 >= -tol_area)
            & off_diag
        )
        for i, j in np.argwhere(inside):
            triangles.append((int(idx[i]), int(idx[j])))

        # window of i contained in window of j
        nested = (
            (E[None, :] <= Ei + tol_len)
            & (Li <= L[None, :] + tol_len)
            & off_diag
        )
        for i, j in np.argwhere(nested):
            nestings.append((int(idx[i]), int(idx[j])))

    ok = not triangles and not nestings and not out_of_band
    return ProperReport(ok, tuple(triangles), tuple(nestings), out_of_band)


def interval_order_check(inst: Instance) -> bool:
    """Window layout test: for every pair with x_i < x_j the windows are
    either disjoint (ls_i < es_j) or staggered (es_i < es_j <= ls_i < ls_j).

    Holds on every proper instance; used as a test assertion.
    """
    windows = []
    for p in inst.points:
        w = start_window(p, inst.v, inst.R)
        if w is None:
            return False
        windows.append((p.x, w.es, w.ls))
    for xi, esi, lsi in windows:
        for xj, esj, lsj in windows:
            if xi >= xj:
                continue
            disjoint = lsi < esj
            staggered = esi < esj <= lsi < lsj
            if not (disjoint or staggered):
                return False
    return True
