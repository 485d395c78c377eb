"""Schedulers: greedy, exact dynamic program for proper instances, brute force.

All three return a Schedule whose launches are as early as possible for
the order they commit to.  Ties are broken deterministically, so repeated
runs on the same instance produce identical schedules.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass

import numpy as np

from .geometry import _land, return_position, return_positions, start_window, window_arrays
from .model import Delivery, Instance, Schedule, earliest_start_pack
from .proper import NotProperError, check_proper

GREEDY_TIE_TOL = 1e-9
# landings evaluated per block of dp_table columns; keeps temporaries in cache
_DP_BLOCK_CELLS = 8192


class BudgetError(ValueError):
    """Brute force refused: instance exceeds the point budget."""


def solve_greedy(inst: Instance) -> Schedule:
    """Repeatedly fly to the point that lands the drone earliest.

    An event sweep over the truck position s, which advances to each
    landing.  Points join one x-sorted list in order of es (then index)
    once es <= s, and leave it when served or more than R/2 behind s, as
    ls <= x + R/2 - R/(2v) has closed (while R/v spans some ulps of s).
    The list is walked outward from s, lowest lower bound first, until the
    bound passes the earliest landing plus the tie allowance; a closed
    point met (ls < s) is dropped, one whose height bound passes it
    skipped (the bounds hold in floating point for R > 1e-140).  With
    none landed, the truck drives to the next opening.
    Among landings within GREEDY_TIE_TOL * R of the earliest, the leftmost
    point wins, then the lowest index.
    """
    v, xs, ys = inst.v, [p.x for p in inst.points], [p.y for p in inst.points]
    es, ls, er, _, in_band = (w.tolist() for w in window_arrays(xs, ys, v, inst.R))
    order = sorted((i for i, ok in enumerate(in_band) if ok), key=es.__getitem__)
    # a flight from dx = s - x lasts at least 2|y|/sqrt(v^2 - 1), 2dx/(v - 1)
    # behind the point and -2dx/(v + 1) ahead of it; the slack covers the
    # formula's rounding, which grows as v -> 1
    slack = 1.0 - 1e-12 * (v + 1.0) / (v - 1.0)
    rise, behind, ahead = (slack * c for c in (2.0 / math.sqrt(v * v - 1.0),
                                               2.0 / (v - 1.0), 2.0 / (v + 1.0)))
    tie = GREEDY_TIE_TOL * inst.R
    s, admitted = inst.truck_start, 0
    live: list[tuple[float, int]] = []  # admitted, unserved points as (x, index), ascending
    entries: list[Delivery] = []
    while True:
        while admitted < len(order) and es[order[admitted]] <= s:
            i = order[admitted]
            insort(live, (xs[i], i))
            admitted += 1
        del live[:bisect_left(live, (s - inst.R / 2.0, -1))]
        # walk out from s, lower bound first, until the bound passes the cutoff
        lo = hi = bisect_left(live, (s, -1))
        cutoff, lands = math.inf, []
        while lo > 0 or hi < len(live):
            b_hi = (live[hi][0] - s) * ahead if hi < len(live) else math.inf
            b_lo = (s - live[lo - 1][0]) * behind if lo > 0 else math.inf
            if s + min(b_hi, b_lo) > cutoff:
                break
            if b_hi <= b_lo:
                k, hi = hi, hi + 1
            else:
                lo = k = lo - 1
            i = live[k][1]
            if ls[i] < s:  # closed: drop it; the walked points are live[lo:hi]
                del live[k]
                hi -= 1
            elif s + abs(ys[i]) * rise <= cutoff:
                r = _land(s, xs[i], ys[i], es[i], er[i], v)
                lands.append((xs[i], i, r))
                cutoff = min(cutoff, r + tie)
        if not lands:
            if admitted == len(order):
                break
            s = es[order[admitted]]
            continue
        _, pick, ret = min(c for c in lands if c[2] <= cutoff)  # frees the lr list
        del live[bisect_left(live, (xs[pick], pick))]
        entries.append(Delivery(pick, s, ret))
        s = ret
    return Schedule(tuple(entries))


@dataclass(frozen=True)
class DpTable:
    """Raw dynamic-program state, mainly for inspection in tests.

    Row r of `completions` holds the earliest landing of any schedule with
    exactly r+1 deliveries whose last delivery is the rank-j point (+inf
    when impossible); `parents` holds the rank of the previous delivery.
    `ranks` maps rank -> original point index, sorted by (x, y, index).
    """

    completions: np.ndarray
    parents: np.ndarray
    ranks: tuple[int, ...]


def dp_table(inst: Instance) -> DpTable:
    """Fill the table over points ranked left to right.

    Row r+1 takes, for each rank j, the earliest landing over predecessors
    p < j of row r.  The loop evaluates only the cells that can matter, and
    the skips are exact: the table equals the dense n x n evaluation bit
    for bit.
      - A predecessor whose entry is +inf launches at +inf and so lands at
        +inf; only the live (finite) predecessors are evaluated.
      - Rank j needs a live predecessor of lower rank, so columns up to the
        first live rank stay +inf, and each block of columns only sees the
        live predecessors left of its last column.
      - A cell left at +inf gets parent 0, which is what argmin over an
        all-+inf dense column returns.  Row 0 keeps the parents -1.
    The columns are walked in blocks of about _DP_BLOCK_CELLS landings, so
    the temporaries stay cache-sized and the cost per cell does not depend
    on n: the growth stays cubic, as the paper's algorithm is.
    """
    n = len(inst.points)
    ranks = tuple(sorted(range(n), key=lambda i: (inst.points[i].x, inst.points[i].y, i)))
    xs = np.array([inst.points[i].x for i in ranks])
    ys = np.array([inst.points[i].y for i in ranks])
    windows = window_arrays(xs, ys, inst.v, inst.R)

    rows: list[np.ndarray] = []
    parents: list[np.ndarray] = []
    if n == 0:
        return DpTable(np.empty((0, 0)), np.empty((0, 0), dtype=int), ranks)

    row = return_positions(inst.truck_start, xs, ys, inst.v, inst.R, windows=windows)
    parent = np.full(n, -1, dtype=int)
    while np.isfinite(row).any():
        rows.append(row)
        parents.append(parent)
        if len(rows) == n:
            break
        live = np.flatnonzero(np.isfinite(row))
        width = max(1, _DP_BLOCK_CELLS // len(live))
        next_row = np.full(n, np.inf)
        parent = np.zeros(n, dtype=int)
        for c0 in range(live[0] + 1, n, width):
            c1 = min(c0 + width, n)
            # live ranks left of the block's last column
            prev = live[: np.searchsorted(live, c1 - 1)]
            # land[k, c] = landing when rank c0+c follows a chain that
            # ended at rank prev[k]
            land = return_positions(row[prev][:, None], xs[c0:c1], ys[c0:c1],
                                    inst.v, inst.R,
                                    windows=tuple(w[c0:c1] for w in windows))
            # predecessor must be strictly left in rank order
            land = np.where(prev[:, None] < np.arange(c0, c1), land, np.inf)
            best = land.min(axis=0)
            next_row[c0:c1] = best
            parent[c0:c1] = np.where(np.isfinite(best), prev[land.argmin(axis=0)], 0)
        row = next_row
    return DpTable(np.array(rows), np.array(parents), ranks)


def solve_dp_proper(inst: Instance, require_proper: bool = True) -> Schedule:
    """Maximum-delivery schedule via the x-monotone dynamic program.

    Exact on proper instances.  With require_proper the instance is
    checked first and NotProperError raised on failure; without it the
    result is still a feasible schedule, just not necessarily optimal.
    Ties resolve toward the earliest completion, then the leftmost rank.
    """
    if require_proper:
        report = check_proper(inst)
        if not report.is_proper:
            raise NotProperError(report)
    table = dp_table(inst)
    if len(table.completions) == 0:
        return Schedule(())
    depth = len(table.completions) - 1
    chain = [int(np.argmin(table.completions[depth]))]
    for r in range(depth, 0, -1):
        chain.append(int(table.parents[r][chain[-1]]))
    order = [table.ranks[j] for j in reversed(chain)]
    sched = earliest_start_pack(inst, order)
    if sched is None:  # cannot happen: the table only chains feasible landings
        raise RuntimeError("dynamic program produced an unpackable order")
    return sched


def solve_exact(inst: Instance, max_points: int = 10) -> Schedule:
    """Brute-force optimum by depth-first search over delivery orders.

    Each prefix grows by one point launched as early as possible, and a
    branch is cut when even serving every remaining startable point
    cannot beat the best length found.  Among maximum-length schedules
    the earliest completion wins, then the lexicographically smallest
    order.  Refuses instances larger than max_points.
    """
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
            dfs(return_position(start, inst.points[i], inst.v, inst.R))
            prefix.pop()
            used[i] = False

    dfs(inst.truck_start)
    sched = earliest_start_pack(inst, best_order)
    assert sched is not None
    return sched
