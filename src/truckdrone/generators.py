"""Instance generators: hardness reduction, random families, greedy traps."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .geometry import _half_width, reach_envelope
from .model import DEFAULT_TOL, Instance, earliest_start_pack, verify_schedule
from .proper import _pair_violations, check_proper
from .solvers import solve_exact, solve_greedy


class GenerationError(RuntimeError):
    """Generator could not produce (or certify) an instance."""


# --- numeric-partition reduction -------------------------------------------


@dataclass(frozen=True)
class ThreePartitionSpec:
    """Multiset of 3k positive integers to be split into k triples of equal
    sum.  The drone speed of the emitted instance equals that triple sum,
    so it must be at least 2.
    """

    values: tuple[int, ...]
    c: int = 4

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values or len(self.values) % 3 != 0:
            raise ValueError("need a positive multiple of 3 values")
        for y in self.values:
            if isinstance(y, bool) or not isinstance(y, int) or y <= 0:
                raise ValueError(f"values must be positive integers, got {y!r}")
        if sum(self.values) % self.k != 0:
            raise ValueError(
                f"sum {sum(self.values)} is not divisible by k={self.k}"
            )
        if self.target < 2:
            raise ValueError("triple sum must be at least 2 to give a drone speed above 1")

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def k(self) -> int:
        return len(self.values) // 3

    @property
    def target(self) -> int:
        return sum(self.values) // self.k

    @property
    def eps(self) -> float:
        # shrinks fast enough that the spacing blocks cross-group servicing
        return float(self.n) ** (-(self.c + 2))


def gen_three_partition(spec: ThreePartitionSpec) -> tuple[Instance, int]:
    """Layout shaped after the paper's reduction from a numeric partition.

    Value points sit on the y-axis at their integer heights; separator and
    tail points sit on the band edge, reachable only from a single launch
    abscissa each.  Returns (instance, expected): the point count of this
    pinned layout (acceptance check 8), not an optimum.  Yes-spec (1,1,1)
    has optimum 4 against 7, and (1,2,3,2,2,2) 11 against 14.
    """
    T = spec.target
    v = float(T)
    R = 4.0 * T
    m = reach_envelope(v, R).minor_radius
    eps = spec.eps
    pts = [(0.0, float(y)) for y in spec.values]
    for i in range(1, spec.k):
        pts.append((i * (6.0 + eps), m))
    for t in range(T + 1):
        pts.append((spec.k * (6.0 + eps) + 4.0 * t, m))
    expected = spec.n + (spec.k - 1) + (T + 1)
    return Instance(v, R, tuple(pts), truck_start=2.0), expected


# --- random families --------------------------------------------------------


def gen_random_band(n: int, v: float, R: float, x_span: float, seed: int) -> Instance:
    """n points uniform over [0, x_span] x the reachable band.

    Heights are resampled while negligibly close to the axis, so every
    point is a genuine detour.  Same seed, same instance.
    """
    if n < 0 or x_span < 0:
        raise ValueError("need n >= 0 and x_span >= 0")
    m = reach_envelope(v, R).minor_radius
    rng = random.Random(seed)
    pts = []
    for _ in range(n):
        x = rng.uniform(0.0, x_span)
        y = rng.uniform(-m, m)
        while abs(y) < 1e-6 * m:
            y = rng.uniform(-m, m)
        pts.append((x, y))
    return Instance(v, R, tuple(pts), truck_start=0.0)


# margin at which gen_random_proper rejects a candidate, well above the
# checker's default, so that what it accepts passes check_proper
_GEN_TOL = 1e3 * DEFAULT_TOL
_MAX_REJECTIONS = 10_000


def gen_random_proper(n: int, v: float, R: float, seed: int) -> Instance:
    """Random proper instance, points placed left to right.

    Each candidate is placed right of the previous point so that its window
    staggers after the previous one.  It must stay clear of every earlier
    point's triangle, keep its own triangle clear of them, and nest in no
    earlier window nor contain one; `proper._pair_violations` decides this
    in both directions at a tolerance well above the checker's.  Candidates
    violating that are rejected and redrawn; after _MAX_REJECTIONS the
    generator gives up.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    env = reach_envelope(v, R)
    M, m, F = env.major_radius, env.minor_radius, env.focal_gap
    rng = random.Random(seed)
    xs, ys = np.empty(n), np.empty(n)
    k = rejections = 0
    while k < n:
        mag = rng.uniform(0.08 * m, 0.95 * m)
        y = mag if rng.random() < 0.5 else -mag
        half = float(_half_width(y, v, R))
        if k == 0:
            x = rng.uniform(0.0, M)
        else:
            px = xs[k - 1]
            prev_half = last_ls - (px - F / 2.0)
            slack = abs(prev_half - half)
            x = px + slack + rng.uniform(0.05, 1.2) * (F / 2.0 + max(prev_half, half))
        earlier = _pair_violations(xs[:k], ys[:k], x, y, v, R, _GEN_TOL)
        later = _pair_violations(x, y, xs[:k], ys[:k], v, R, _GEN_TOL)
        if not any(hits.any() for hits in (*earlier, *later)):
            xs[k], ys[k] = x, y
            last_ls = x - F / 2.0 + half
            k += 1
        else:
            rejections += 1
            if rejections > _MAX_REJECTIONS:
                raise GenerationError(f"gave up after {_MAX_REJECTIONS} rejected candidates")
    inst = Instance(v, R, tuple(zip(xs.tolist(), ys.tolist())), truck_start=0.0)
    if not check_proper(inst).is_proper:
        raise GenerationError("sampled instance failed the properness check")
    return inst


# --- greedy worst case ------------------------------------------------------


@dataclass(frozen=True)
class TightnessCertificate:
    """Solver-backed evidence that greedy serves exactly half the optimum."""

    pairs: int
    exact_count: int
    greedy_count: int
    optimal_order: tuple[int, ...]
    method: str  # "exact-solver" for small instances, else "witness-pack"


def gen_greedy_tightness(k: int, v: float, R: float) -> tuple[Instance, TightnessCertificate]:
    """k point pairs where greedy serves one per pair and the optimum both.

    Odd-position points sit on the band edge, servable from a single
    launch abscissa only.  Each is paired with a decoy whose window opens
    earlier; greedy takes the decoy and overshoots the edge point's unique
    launch.  Serving edge point then decoy, pair by pair, covers all 2k.
    The instance is certified by the solvers before being returned.
    """
    if k < 1:
        raise ValueError("need at least one pair")
    env = reach_envelope(v, R)
    M, m, F = env.major_radius, env.minor_radius, env.focal_gap
    D = F / 2.0
    w_hi = min(F, M)
    period = 2.0 * F + M
    for w_frac in (0.5, 0.3, 0.7, 0.15, 0.85):
        for g_frac in (0.25, 0.5, 0.08):
            w = D + w_frac * (w_hi - D)
            g = g_frac * (2.0 * w - F)
            y_decoy = m * math.sqrt(max(0.0, 1.0 - (w / M) ** 2))
            if y_decoy == 0.0:
                continue
            x_decoy = D + w  # decoy window opens exactly at the truck start
            x_edge = x_decoy + w - F - g
            pts = [pt for p in range(k)
                   for pt in ((x_edge + p * period, m), (x_decoy + p * period, y_decoy))]
            inst = Instance(v, R, tuple(pts), truck_start=0.0)
            cert = _certify_tightness(inst, k)
            if cert is not None:
                return inst, cert
    raise GenerationError(f"no certifiable construction for k={k}, v={v}, R={R}")


def _certify_tightness(inst: Instance, k: int) -> TightnessCertificate | None:
    n = 2 * k
    if solve_greedy(inst).count != k:
        return None
    witness_order = tuple(range(n))
    witness = earliest_start_pack(inst, witness_order)
    if witness is None or not verify_schedule(inst, witness).feasible:
        return None
    if n <= 10:
        if solve_exact(inst).count != n:
            return None
        method = "exact-solver"
    else:
        # the witness serves every point, so no schedule can be longer
        method = "witness-pack"
    return TightnessCertificate(
        pairs=k,
        exact_count=n,
        greedy_count=k,
        optimal_order=witness_order,
        method=method,
    )
