"""Schedulers: greedy, exact dynamic program for proper instances (the
patience sweep, and the paper's cubic table as its reference), brute force.

All four return a Schedule whose launches are as early as possible for
the order they commit to.  Ties are broken deterministically, so repeated
runs on the same instance produce identical schedules.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .geometry import _flight_time, _land, return_position, window_arrays
from .model import Instance, Schedule, earliest_start_pack
from .proper import NotProperError, check_proper

GREEDY_TIE_TOL = 1e-9
# cells compared per block of dp_table columns; keeps temporaries in cache
_DP_BLOCK_CELLS = 8192


class BudgetError(ValueError):
    """Brute force refused: instance exceeds the point budget."""


def _require_proper(inst: Instance, require_proper: bool) -> None:
    """With require_proper, raise NotProperError unless inst is proper."""
    if require_proper and not (report := check_proper(inst)).is_proper:
        raise NotProperError(report)


def _pack(inst: Instance, order) -> Schedule:
    """The order launched as early as possible; a solver's order always packs."""
    if (sched := earliest_start_pack(inst, order)) is None:  # pack lands as the solver did
        raise RuntimeError("solver produced an unpackable order")
    return sched


def solve_greedy(inst: Instance) -> Schedule:
    """Repeatedly fly to the point that lands the drone earliest.

    An event sweep over the truck position s, which advances to each
    landing.  Points join one x-sorted list in order of es (then index)
    once es <= s, and leave it when served or more than R/2 behind s, as
    ls <= x + R/2 - R/(2v) has closed.  The list is walked outward from s,
    lowest lower bound first, until the bound passes the earliest landing
    plus the tie allowance; a closed point met (ls < s) is dropped, one
    whose height bound passes it skipped.  Both rules hold in floating
    point in the instance's numeric domain (geometry._check_params).  With
    none landed, the truck drives to the next opening.
    Among landings within GREEDY_TIE_TOL * R of the earliest, the leftmost
    point wins, then the lowest index.  Points of equal x share every bound,
    so their order in the list changes no landing made and no pick.
    """
    v = inst.v
    es, ls, er, _, in_band = window_arrays(inst.xs, inst.ys, v, inst.R)
    # every per-point list is held in admission order, so the sweep reads it in
    # sequence; hs holds |y|, which lands as y does, since _land squares it
    index = sorted(np.flatnonzero(in_band).tolist(), key=es.tolist().__getitem__)
    at = np.array(index, dtype=np.intp)
    xs, hs, es, ls, er = (a[at].tolist() for a in (inst.xs, np.abs(inst.ys), es, ls, er))
    # a flight from dx = s - x lasts at least 2|y|/sqrt(v^2 - 1), 2dx/(v - 1)
    # behind the point and -2dx/(v + 1) ahead of it; the slack covers the
    # formula's rounding, which grows as v -> 1
    slack = 1.0 - 1e-12 * (v + 1.0) / (v - 1.0)
    rise, behind, ahead = (slack * c for c in (2.0 / math.sqrt(v * v - 1.0),
                                               2.0 / (v - 1.0), 2.0 / (v + 1.0)))
    tie, half = GREEDY_TIE_TOL * inst.R, inst.R / 2.0
    opens, x_of = es + [math.inf], xs.__getitem__  # in admission order, then past the last
    s, admitted = inst.truck_start, 0
    live: list[int] = []  # admitted, unserved points by position, ascending in x
    picks, starts, rets = [], [], []
    while s < math.inf:
        while opens[admitted] <= s:
            live.insert(bisect_right(live, xs[admitted], key=x_of), admitted)
            admitted += 1
        if live and xs[live[0]] < s - half:
            del live[:bisect_left(live, s - half, key=x_of)]
        # walk out from s, lower bound first, until the bound passes the cutoff
        lo = hi = bisect_left(live, s, key=x_of)
        size, cutoff, lands = len(live), math.inf, []
        b_hi = (xs[live[hi]] - s) * ahead if hi < size else math.inf
        b_lo = (s - xs[live[lo - 1]]) * behind if lo else math.inf
        while lo or hi < size:
            # only the walked side's bound moves; dropping the walked point moves neither
            if b_hi <= b_lo:
                if s + b_hi > cutoff:
                    break
                k, hi = hi, hi + 1
                b_hi = (xs[live[hi]] - s) * ahead if hi < size else math.inf
            else:
                if s + b_lo > cutoff:
                    break
                lo = k = lo - 1
                b_lo = (s - xs[live[lo - 1]]) * behind if lo else math.inf
            p = live[k]
            if ls[p] < s:  # closed: drop it; the walked points are live[lo:hi]
                del live[k]
                hi, size = hi - 1, size - 1
            elif s + hs[p] * rise <= cutoff:
                r = _land(s, xs[p], hs[p], es[p], er[p], v)
                lands.append((xs[p], index[p], r, p))
                if r + tie < cutoff:
                    cutoff = r + tie
        if not lands:  # drive to the next opening, or past the last
            s = opens[admitted]
            continue
        x, pick, ret, p = lands[0] if len(lands) == 1 else min(c for c in lands if c[2] <= cutoff)
        del live[live.index(p, bisect_left(live, x, key=x_of))]
        picks.append(pick)
        starts.append(s)
        rets.append(ret)
        s = ret
    return Schedule._from_columns(picks, starts, rets)


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
        live predecessors left of its last column.  Of those, a cell with
        p >= j is dropped where it is read, by the count left of j.
      - A launch s meets rank j's window as geometry._land does: at or
        before es it lands at er, past ls (or at any s, for an out-of-band
        point, whose es = ls = -inf) at +inf, and in between it flies.
        A cell costs two comparisons and their xor, the in-window bit; a
        column's first early row (argmax) gives er.  Once per row the
        in-window cells fly together, by return_positions' formula, and a
        flight replaces er when it lands earlier, or as early from a lower
        rank: the dense argmin's first minimum.
      - A cell left at +inf gets parent 0, which is what argmin over an
        all-+inf dense column returns.  Row 0 starts from a rank -1 that lies
        left of every point and lands at truck_start; its parents are -1.
    Each row is written in place into one n x n table, and only rows up to
    the last finite one are touched and returned.  The columns are walked
    in blocks of about _DP_BLOCK_CELLS cells, so the temporaries stay
    cache-sized and the cost per cell does not depend on n: the growth
    stays cubic, as the paper's algorithm is.  Larger blocks bend it: at
    32k and 128k cells the n = 1000 / n = 500 time ratio on acceptance
    9's instance read 5.9 and 4.8, against 7.6 at 8192 (three runs each).
    """
    n = len(inst)
    order = np.lexsort((inst.ys, inst.xs))  # stable, so ties keep index order
    ranks, xs, ys = tuple(order.tolist()), inst.xs[order], inst.ys[order]
    es, ls, er, _, in_band = window_arrays(xs, ys, inst.v, inst.R)
    es, ls = np.where(in_band, es, -np.inf), np.where(in_band, ls, -np.inf)
    completions, parents = np.empty((n, n)), np.empty((n, n), dtype=int)
    cols = np.arange(n)
    live, launches = np.array([-1]), np.array([inst.truck_start])  # rank -1, left of all
    depth = 0
    while depth < n:
        width = max(1, _DP_BLOCK_CELLS // len(live))
        below = np.searchsorted(live, cols)  # live ranks left of each column
        first, cells = np.zeros(n, dtype=int), [(cols[:0], cols[:0])]
        for c0 in range(live[0] + 1, n, width):
            c1 = min(c0 + width, n)
            s = launches[: below[c1 - 1], None]  # the live ranks left of its last column
            early = s <= es[c0:c1]
            early.argmax(axis=0, out=first[c0:c1])
            k, c = np.divmod(np.flatnonzero((s <= ls[c0:c1]) ^ early), c1 - c0)
            cells.append((k, c + c0))
        # a column's first early row left of it lands at er; its in-window
        # cells left of it fly, and the lowest rank at the minimum wins
        nxt, parent = completions[depth], parents[depth]
        nxt[:] = at_er = np.where((first < below) & (launches[first] <= es), er, np.inf)
        parent[:] = np.where(at_er < np.inf, live[first], 0)
        k, c = (np.concatenate(a) for a in zip(*cells))
        left = k < below[c]
        k, c = k[left], c[left]
        dx, yc = launches[k] - xs[c], ys[c]
        land = launches[k] + _flight_time(dx, np.sqrt(yc * yc + dx * dx), inst.v)
        np.minimum.at(nxt, c, land)
        parent[nxt < at_er] = n  # a flight landed first: drop er's parent
        hit = land == nxt[c]
        np.minimum.at(parent, c[hit], live[k[hit]])
        live = np.flatnonzero(np.isfinite(nxt))
        if not len(live):
            break
        launches = nxt[live]
        depth += 1
    parents[:1] = -1
    return DpTable(completions[:depth], parents[:depth], ranks)


def solve_dp_proper(inst: Instance, require_proper: bool = True) -> Schedule:
    """Maximum-delivery schedule via the x-monotone dynamic program: the
    paper's cubic reference, which solve_sweep matches in count and last landing.

    Exact in count on proper instances.  With require_proper the instance
    is checked first and NotProperError raised on failure; without it the
    result is feasible, not necessarily optimal.  Ties go to the earliest
    completion among x-monotone orders, which another order of the same
    count may beat, then to the leftmost rank.
    """
    _require_proper(inst, require_proper)
    table = dp_table(inst)
    depth = len(table.completions)  # 0 when no point is servable
    chain = [int(np.argmin(table.completions[-1]))] if depth else []
    for r in range(depth - 1, 0, -1):
        chain.append(int(table.parents[r][chain[-1]]))
    return _pack(inst, [table.ranks[j] for j in reversed(chain)])


def solve_sweep(inst: Instance, require_proper: bool = True) -> Schedule:
    """Maximum-delivery schedule by a patience sweep over dp_table's recurrence.

    Points are ranked by (x, y, index), as dp_table ranks them.  P[r] is the
    earliest landing of any r-delivery chain over the ranks seen so far, and
    P[0] is truck_start; P strictly increases.  Rank j lands at er from a
    launch at or before es, flies from one in (es, ls], and its landing never
    falls as the launch grows, so it can lower only P[r + 1] for r in
    [lo, hi): hi counts the P[r] <= ls, and lo is the last r with P[r] <= es,
    or 0.  r walks down, so each update reads the old P[r].  An update must
    land strictly earlier: on a tie the lower rank keeps the cell.  Time is
    O(n log n + the sum of hi - lo), memory linear in the updates.

    The count and last landing equal dp_table's bit for bit, so the count is
    the optimum on proper instances.  With require_proper the instance is
    checked first and NotProperError raised on failure; without it the
    result is feasible, not necessarily optimal.  The completion is the
    earliest among x-monotone orders only; another order of the same count
    may land earlier.
    """
    _require_proper(inst, require_proper)
    v, order = inst.v, np.lexsort((inst.ys, inst.xs))  # stable, so ties keep index order
    xs, ys = inst.xs[order], inst.ys[order]
    es, ls, er, _, in_band = window_arrays(xs, ys, v, inst.R)
    best, chains = [inst.truck_start], [()]  # P, and each cell's chain as (rank, rest)
    keep = np.flatnonzero(in_band)
    for j, x, y, es_j, ls_j, er_j in zip(keep.tolist(),
                                         *(a[keep].tolist() for a in (xs, ys, es, ls, er))):
        hi, lo = bisect_right(best, ls_j), max(bisect_right(best, es_j) - 1, 0)
        for r in range(hi - 1, lo - 1, -1):
            land = _land(best[r], x, y, es_j, er_j, v)
            if r + 1 == len(best):
                best.append(land)
                chains.append((j, chains[r]))
            elif land < best[r + 1]:
                best[r + 1], chains[r + 1] = land, (j, chains[r])
    ranks, chain, picks = order.tolist(), chains[-1], []
    while chain:
        j, chain = chain
        picks.append(ranks[j])
    return _pack(inst, picks[::-1])


def solve_exact(inst: Instance, max_points: int = 10) -> Schedule:
    """Brute-force optimum by depth-first search over delivery orders.

    Each prefix grows by one point launched as early as possible, and a
    branch is cut when even serving every remaining startable point
    cannot beat the best length found.  Among maximum-length schedules
    the earliest completion wins, then the lexicographically smallest
    order.  Refuses instances larger than max_points.
    """
    n = len(inst)
    if n > max_points:
        raise BudgetError(f"instance has {n} points, budget is {max_points}")
    v, R, points = inst.v, inst.R, list(zip(inst.xs.tolist(), inst.ys.tolist()))
    es, ls, _, _, in_band = (w.tolist() for w in window_arrays(inst.xs, inst.ys, v, R))

    def dfs(prefix: tuple[int, ...], left: tuple[int, ...], cur: float, best: tuple) -> tuple:
        # best is (length, completion, order) of the best schedule found so far
        left = tuple(i for i in left if cur <= ls[i])  # so max(cur, es) <= ls, as es <= ls
        if len(prefix) > best[0] or (len(prefix) == best[0] and cur < best[1]):
            best = (len(prefix), cur, prefix)
        if len(prefix) + len(left) < best[0]:
            return best
        for k, i in enumerate(left):
            ret = return_position(max(cur, es[i]), points[i], v, R)
            best = dfs(prefix + (i,), left[:k] + left[k + 1:], ret, best)
        return best

    left = tuple(i for i, ok in enumerate(in_band) if ok)
    _, _, order = dfs((), left, inst.truck_start, (0, inst.truck_start, ()))
    return _pack(inst, order)
