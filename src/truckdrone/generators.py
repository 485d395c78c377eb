"""Instance generators: hardness reduction, random families, greedy traps."""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass

from .geometry import _half_width, reach_envelope
from .model import DEFAULT_TOL, Instance, earliest_start_pack, verify_schedule
from .proper import _pair_violations, _reach, check_proper
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
        try:  # the drone speed and the spacing are floats
            float(self.target), self.eps
        except OverflowError:
            raise ValueError(f"triple sum or spacing (c={self.c}) past the float range") from None

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
    xs = [0.0] * spec.n + [i * (6.0 + eps) for i in range(1, spec.k)]  # values, separators
    xs += [spec.k * (6.0 + eps) + 4.0 * t for t in range(T + 1)]  # tail
    ys = [float(y) for y in spec.values] + [m] * (spec.k + T)
    return Instance._from_columns(v, R, xs, ys, truck_start=2.0), len(xs)


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
    xs, ys = [], []
    for _ in range(n):
        xs.append(rng.uniform(0.0, x_span))
        y = rng.uniform(-m, m)
        while abs(y) < 1e-6 * m:
            y = rng.uniform(-m, m)
        ys.append(y)
    return Instance._from_columns(v, R, xs, ys, truck_start=0.0)


# margin at which gen_random_proper rejects a candidate, well above the
# checker's default, so that what it accepts passes check_proper
_GEN_TOL = 1e3 * DEFAULT_TOL
_MAX_REJECTIONS = 10_000


def gen_random_proper(n: int, v: float, R: float, seed: int) -> Instance:
    """Random proper instance, points placed left to right.

    Each candidate is placed right of the previous point so that its window
    staggers after the previous one.  It must stay clear of every earlier
    point's triangle, keep its own triangle clear of them, and nest in no
    earlier window nor contain one.  The accepted points are kept as lists
    of x, y and window half-width; `bisect` finds the first one within
    `proper._reach` of the candidate, and `proper._pair_violations` tests
    the candidate against each of those few neighbours, on floats, in both
    directions, at a tolerance well above the checker's.  Candidates
    violating that are rejected and redrawn; after _MAX_REJECTIONS the
    generator gives up.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    env = reach_envelope(v, R)
    M, m, F = env.major_radius, env.minor_radius, env.focal_gap
    rng = random.Random(seed)
    xs, ys, hs = [], [], []  # ascending x, and each point's window half-width
    rejections = reach = 0
    while len(xs) < n:
        mag = rng.uniform(0.08 * m, 0.95 * m)
        y = mag if rng.random() < 0.5 else -mag
        half = float(_half_width(y, v, R))
        if not xs:
            x = rng.uniform(0.0, M)
        else:
            px = xs[-1]
            prev_half = last_ls - (px - F / 2.0)
            slack = abs(prev_half - half)
            x = px + slack + rng.uniform(0.05, 1.2) * (F / 2.0 + max(prev_half, half))
        own = float(_reach(x, y, v, R, _GEN_TOL, half))
        a = bisect_left(xs, x - max(reach, own))
        if not any(any(_pair_violations(xa, ya, x, y, v, R, _GEN_TOL, ha, half))
                   or any(_pair_violations(x, y, xa, ya, v, R, _GEN_TOL, half, ha))
                   for xa, ya, ha in zip(xs[a:], ys[a:], hs[a:])):
            xs.append(x)
            ys.append(y)
            hs.append(half)
            last_ls = x - F / 2.0 + half
            reach = max(reach, own)
        else:
            rejections += 1
            if rejections > _MAX_REJECTIONS:
                raise GenerationError(f"gave up after {_MAX_REJECTIONS} rejected candidates")
    inst = Instance._from_columns(v, R, xs, ys, truck_start=0.0)
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
    One construction needs no fallback.  The decoy's window half-width
    w = D + (min(F, M) - D)/2, with D = F/2, is below M = R/2 for every
    v > 1, so y_decoy > 0; and it sits at x = D + w, so its window opens
    at the truck start.  The solvers certify the instance before it is
    returned; a failed check raises GenerationError naming it.
    """
    if k < 1:
        raise ValueError("need at least one pair")
    env = reach_envelope(v, R)
    M, m, F = env.major_radius, env.minor_radius, env.focal_gap
    D = F / 2.0
    w = D + 0.5 * (min(F, M) - D)
    y_decoy = m * math.sqrt(max(0.0, 1.0 - (w / M) ** 2))
    if y_decoy == 0.0:  # w rounds up to M for v within an ulp or so of 1
        raise GenerationError(f"decoy height rounds to 0 at v={v}")
    x_decoy = D + w  # decoy window opens exactly at the truck start
    x_edge = x_decoy + w - F - 0.25 * (2.0 * w - F)  # lands (2w - F)/4 before the decoy ls
    period = 2.0 * F + M
    xs = [x + p * period for p in range(k) for x in (x_edge, x_decoy)]
    inst = Instance._from_columns(v, R, xs, [m, y_decoy] * k, truck_start=0.0)
    return inst, _certify_tightness(inst, k)


def _certify_tightness(inst: Instance, k: int) -> TightnessCertificate:
    n = 2 * k
    if (served := solve_greedy(inst).count) != k:
        raise GenerationError(f"greedy serves {served} of {n} points, not {k}")
    witness_order = tuple(range(n))
    witness = earliest_start_pack(inst, witness_order)
    if witness is None or not verify_schedule(inst, witness).feasible:
        raise GenerationError(f"the witness order 0..{n - 1} does not pack feasibly")
    if n <= 10:
        if (best := solve_exact(inst).count) != n:
            raise GenerationError(f"the exact optimum is {best}, not {n}")
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
