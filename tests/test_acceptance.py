"""Acceptance suite: ten headline guarantees, one test and one printed
PASS/FAIL line each (run with -s to see the lines for passing tests).

These tests pin tolerances and sample counts; the module tests elsewhere
cover the same ground with more varied shapes.
"""

import contextlib
import io
import json
import math
import random
import time

from truckdrone.cli import main as cli_main
from truckdrone.generators import (
    ThreePartitionSpec,
    gen_greedy_tightness,
    gen_random_band,
    gen_random_proper,
    gen_three_partition,
)
from truckdrone.geometry import (
    reach_envelope,
    return_position,
    round_trip_time,
    start_window,
    vertical_delivery_time,
)
from truckdrone.model import Instance
from truckdrone.proper import interval_order_check
from truckdrone.solvers import solve_dp_proper, solve_exact, solve_greedy

from oracles import meeting_return


def report(number, name, ok):
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}")
    return ok


def sample_in_band_point(rng, v, R):
    """x spans a few ranges either side of the origin, y spans the band."""
    m = reach_envelope(v, R).minor_radius
    x = rng.uniform(-2.0 * R, 4.0 * R)
    y = rng.uniform(-m, m)
    while y == 0.0 or abs(y) >= m:
        y = rng.uniform(-m, m)
    return x, y


def test_criterion_01_return_formula_matches_oracle():
    rng = random.Random(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        v = rng.uniform(1.0, 10.0)
        while v <= 1.0:
            v = rng.uniform(1.0, 10.0)
        R = rng.uniform(0.0, 100.0)
        while R <= 0.0:
            R = rng.uniform(0.0, 100.0)
        x, y = sample_in_band_point(rng, v, R)
        w = start_window((x, y), v, R)
        s = rng.uniform(w.es, w.ls)
        got = return_position(s, (x, y), v, R)
        want = meeting_return(s, x, y, v, R)
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 1.0
    assert report(1, "closed-form-return-vs-oracle", ok), (
        f"worst abs deviation {worst:.3e}, elapsed {elapsed:.2f}s"
    )


def test_criterion_02_window_ends_use_the_full_range():
    rng = random.Random(102)
    bad = []
    for i in range(1000):
        v = rng.uniform(1.05, 10.0)
        R = rng.uniform(0.5, 100.0)
        x, y = sample_in_band_point(rng, v, R)
        w = start_window((x, y), v, R)
        for s in (w.es, w.ls):
            land = return_position(s, (x, y), v, R)
            path = math.hypot(x - s, y) + math.hypot(land - x, y)
            if abs(path - R) > 1e-9 * R:
                bad.append((i, "path", path - R))
            trip = round_trip_time(s, (x, y), v, R)
            if abs(trip - R / v) > 1e-9 * (R / v):
                bad.append((i, "trip", trip - R / v))
    ok = not bad
    assert report(2, "window-boundary-full-range", ok), bad[:5]


def test_criterion_03_greedy_within_half_of_optimal():
    t0 = time.perf_counter()
    violations = []
    for seed in range(500):
        n = 1 + seed % 8
        v = 1.3 + 0.5 * (seed % 7)
        R = 2.0 + (seed % 5)
        inst = gen_random_band(n, v=v, R=R, x_span=6.0 * R, seed=seed)
        greedy = solve_greedy(inst).count
        exact = solve_exact(inst).count
        if exact > 2 * greedy:
            violations.append((seed, greedy, exact))
    elapsed = time.perf_counter() - t0
    ok = not violations and elapsed < 60.0
    assert report(3, "greedy-2-approximation", ok), (violations[:5], elapsed)


def test_criterion_04_adversarial_family_is_tight():
    inst, cert = gen_greedy_tightness(3, v=2.0, R=10.0)
    ok = (
        cert.exact_count == 6
        and cert.greedy_count == 3
        and cert.exact_count == 2 * cert.greedy_count
        and solve_greedy(inst).count == 3
    )
    assert report(4, "greedy-ratio-sharp-at-two", ok), cert


def test_criterion_05_dp_matches_brute_force_on_proper():
    violations = []
    for seed in range(300):
        n = 3 + seed % 6
        inst = gen_random_proper(n, v=2.0, R=10.0, seed=seed)
        dp = solve_dp_proper(inst)
        exact = solve_exact(inst)
        if dp.count != exact.count:
            violations.append((seed, "count", dp.count, exact.count))
        xs = [inst.points[i].x for i in dp.order]
        if any(a >= b for a, b in zip(xs, xs[1:])):
            violations.append((seed, "order", dp.order))
    ok = not violations
    assert report(5, "dp-optimal-and-monotone", ok), violations[:5]


def test_criterion_06_proper_windows_are_staggered():
    violations = []
    for i in range(300):
        n = 2 + i % 7
        inst = gen_random_proper(n, v=1.6 + 0.2 * (i % 5), R=4.0 + (i % 4),
                                 seed=1000 + i)
        if not interval_order_check(inst):
            violations.append(i)
    ok = not violations
    assert report(6, "stagger-or-disjoint-windows", ok), violations[:5]


def test_criterion_07_vertical_delivery_duration_envelope():
    # pinned envelope: 2y/v < duration < 2y/v + (1 + 4s^2 + 2s)/(v^2 - 1)
    # over s in [0, 3], v in [8, 64], y in [v/4, v/2], as derived in the
    # vertical_delivery_time docstring: sqrt(s^2+y^2) <= y + s^2/2y,
    # 2vy/(v^2-1) <= 2y/v + 1/(v^2-1) for y <= v/2, v*s^2/y <= 4s^2 for
    # y >= v/4, and the "+ s" of the closed form adds 2s/(v^2-1)
    rng = random.Random(107)
    outside = []
    for _ in range(1000):
        v = rng.uniform(8.0, 64.0)
        y = rng.uniform(v / 4.0, v / 2.0)
        s = rng.uniform(0.0, 3.0)
        dt = vertical_delivery_time(s, y, v)
        lo = 2.0 * y / v
        hi = lo + (1.0 + 4.0 * s * s + 2.0 * s) / (v * v - 1.0)
        if not lo < dt < hi:
            outside.append((s, v, y, dt, hi))
    ok = not outside
    assert report(7, "vertical-duration-envelope", ok), (
        f"{len(outside)} of 1000 samples escape the envelope "
        f"2y/v < duration < 2y/v + (1 + 4s^2 + 2s)/(v^2 - 1); "
        f"first: s={outside[0][0]!r} v={outside[0][1]!r} y={outside[0][2]!r} "
        f"duration={outside[0][3]!r} upper bound={outside[0][4]!r}; the "
        f"closed form in vertical_delivery_time no longer meets its envelope"
    )


def test_criterion_08_partition_reduction_structure():
    spec = ThreePartitionSpec((1, 1, 1, 1, 1, 1))
    inst, expected = gen_three_partition(spec)
    edge = 2.0 * math.sqrt(8.0)
    ok = (
        len(inst) == 11
        and expected == 11
        and inst.v == 3.0
        and inst.R == 12.0
        and inst.truck_start == 2.0
        and all(abs(abs(p.y) - edge) <= 1e-12 for p in inst.points[6:])
        and spec.eps == 1.0 / 46656.0
    )
    assert report(8, "hardness-reduction-layout", ok), (inst, spec.eps)


def _scaling_instance(n, v=2.0, R=10.0):
    # far-apart points, alternating depths: proper by construction and
    # every point servable, so the table fills all n rows
    env = reach_envelope(v, R)
    period = 2.0 * env.focal_gap + 2.0 * env.major_radius
    pts = []
    for i in range(n):
        y = 0.35 * env.minor_radius if i % 2 == 0 else 0.55 * env.minor_radius
        pts.append(((i + 1) * period, y))
    return Instance(v, R, tuple(pts))


def test_criterion_09_solver_scaling():
    solve_dp_proper(_scaling_instance(100))  # warm the array machinery

    band = gen_random_band(2000, v=2.0, R=10.0, x_span=2000.0, seed=900)
    t0 = time.perf_counter()
    greedy = solve_greedy(band)
    greedy_wall = time.perf_counter() - t0

    # mean wall times over three rounds of dp500 then dp1000: a slow spell of
    # a shared machine falls on both sizes, and a stall on one call is a third
    # of its mean.  The minimum would pick the short call's quiet run more
    # often than the long call's and so read the ratio high
    insts = _scaling_instance(500), _scaling_instance(1000)
    walls, scheds = [0.0, 0.0], [None, None]
    for _ in range(3):
        for k, inst in enumerate(insts):
            t0 = time.perf_counter()
            scheds[k] = solve_dp_proper(inst)
            walls[k] += (time.perf_counter() - t0) / 3
    (wall500, wall1000), (dp500, dp1000) = walls, scheds

    ratio = wall1000 / wall500
    ok = (
        greedy.count > 0
        and greedy_wall < 5.0
        and dp500.count == 500
        and wall500 < 30.0
        and dp1000.count == 1000
        and 6.0 <= ratio <= 10.0
    )
    assert report(9, "cubic-scaling-within-budget", ok), (
        f"greedy {greedy_wall:.2f}s, dp500 {wall500:.2f}s, "
        f"dp1000 {wall1000:.2f}s, ratio {ratio:.2f}"
    )


def _run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli_main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def test_criterion_10_pipeline_end_to_end(tmp_path):
    failures = []
    for seed in range(100, 120):
        inst = tmp_path / f"inst_{seed}.json"
        rc, _, err = _run("gen", "random-proper", "--n", "6",
                          "--seed", str(seed), "--out", str(inst))
        if rc != 0:
            failures.append((seed, "gen", rc, err))
            continue
        for algo in ("greedy", "dp", "exact"):
            sched = tmp_path / f"sched_{seed}_{algo}.json"
            rc, _, err = _run("solve", "--algo", algo, "--input", str(inst),
                              "--output", str(sched))
            if rc != 0:
                failures.append((seed, algo, "solve", rc, err))
                continue
            rc, out, _ = _run("verify", "--instance", str(inst),
                              "--schedule", str(sched))
            if rc != 0 or not json.loads(out)["feasible"]:
                failures.append((seed, algo, "verify", rc))
                continue
            svg_a = tmp_path / f"plot_{seed}_{algo}_a.svg"
            svg_b = tmp_path / f"plot_{seed}_{algo}_b.svg"
            for svg in (svg_a, svg_b):
                rc, _, err = _run("render", "--instance", str(inst),
                                  "--schedule", str(sched),
                                  "--show-windows", "--out", str(svg))
                if rc != 0:
                    failures.append((seed, algo, "render", rc, err))
            if svg_a.read_bytes() != svg_b.read_bytes():
                failures.append((seed, algo, "svg-differs"))
    ok = not failures
    assert report(10, "generate-solve-verify-render", ok), failures[:5]
