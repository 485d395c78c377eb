"""Tests for the instance generators."""

import hashlib
import itertools
import math

import pytest

from truckdrone import generators
from truckdrone.generators import (
    GenerationError,
    ThreePartitionSpec,
    gen_greedy_tightness,
    gen_random_band,
    gen_random_proper,
    gen_three_partition,
)
from truckdrone.geometry import reach_envelope, start_window
from truckdrone.model import Instance, earliest_start_pack, verify_schedule
from truckdrone.proper import check_proper
from truckdrone.solvers import solve_exact, solve_greedy


class TestThreePartitionSpec:
    def test_six_ones(self):
        spec = ThreePartitionSpec((1, 1, 1, 1, 1, 1))
        assert (spec.n, spec.k, spec.target) == (6, 2, 3)
        assert spec.eps == pytest.approx(6.0 ** -6)
        assert spec.eps == pytest.approx(1.0 / 46656.0)

    def test_rejects_wrong_count(self):
        with pytest.raises(ValueError):
            ThreePartitionSpec((1, 1, 1, 1))
        with pytest.raises(ValueError):
            ThreePartitionSpec(())

    def test_rejects_nonintegers(self):
        with pytest.raises(ValueError):
            ThreePartitionSpec((1, 1, 1.0))
        with pytest.raises(ValueError):
            ThreePartitionSpec((1, 1, True))
        with pytest.raises(ValueError):
            ThreePartitionSpec((1, 1, 0))

    def test_rejects_indivisible_sum(self):
        # sum 7 over k=2 triples
        with pytest.raises(ValueError):
            ThreePartitionSpec((1, 1, 1, 1, 1, 2))

    def test_target_is_at_least_three(self):
        # positive integer values force a triple sum of at least 3, so the
        # emitted drone speed always clears the truck speed
        spec = ThreePartitionSpec((1, 1, 1, 1, 1, 1, 1, 1, 1))
        assert spec.target == 3
        inst, _ = gen_three_partition(spec)
        assert inst.v >= 3.0

    def test_exponent_controls_spacing(self):
        loose = ThreePartitionSpec((1, 1, 1, 1, 1, 1), c=0)
        assert loose.eps == pytest.approx(6.0 ** -2)

    @pytest.mark.parametrize("values, c", [
        ((10**310,) * 3, 4),  # the triple sum, the drone speed, has no float
        ((1, 1, 1), -100_000),  # the spacing 3**99998 has no float
    ])
    def test_rejects_numbers_past_the_float_range(self, values, c):
        with pytest.raises(ValueError, match="past the float range"):
            ThreePartitionSpec(values, c=c)

    @pytest.mark.parametrize("values, c", [
        ((10**300,) * 3, 4),  # large, but a float
        ((1, 1, 1), -600),  # the spacing 3**598 is large, but a float
        ((1, 1, 1), 10**6),  # the spacing underflows to 0
    ])
    def test_accepts_numbers_within_the_float_range(self, values, c):
        spec = ThreePartitionSpec(values, c=c)
        assert math.isfinite(spec.eps) and math.isfinite(float(spec.target))


class TestGenThreePartition:
    def test_six_ones_structure(self):
        spec = ThreePartitionSpec((1, 1, 1, 1, 1, 1))
        inst, expected = gen_three_partition(spec)
        assert expected == 6 + 1 + 4 == 11
        assert len(inst) == 11
        assert (inst.v, inst.R, inst.truck_start) == (3.0, 12.0, 2.0)
        m = reach_envelope(3.0, 12.0).minor_radius
        assert m == pytest.approx(2.0 * math.sqrt(8.0), abs=1e-12)
        # first n points carry the values on the vertical axis
        for p, y in zip(inst.points[:6], spec.values):
            assert (p.x, p.y) == (0.0, float(y))
        # the rest hug the band edge, one separator then the tail
        for p in inst.points[6:]:
            assert abs(p.y) == pytest.approx(m, abs=1e-12)
        sep = inst.points[6]
        assert sep.x == pytest.approx(6.0 + spec.eps)
        tail = inst.points[7:]
        assert [p.x for p in tail] == pytest.approx(
            [2.0 * (6.0 + spec.eps) + 4.0 * t for t in range(4)]
        )

    def test_band_edge_windows_are_degenerate(self):
        spec = ThreePartitionSpec((1, 2, 3, 1, 2, 3))
        inst, _ = gen_three_partition(spec)
        for p in inst.points:
            if p.x == 0.0:
                continue
            w = start_window(p, inst.v, inst.R)
            assert w is not None
            assert w.ls - w.es == pytest.approx(0.0, abs=1e-9)

    def test_value_points_all_share_the_axis_abscissa(self):
        # duplicated windows make the emitted instance non-proper by design
        spec = ThreePartitionSpec((1, 1, 1, 1, 1, 1))
        inst, _ = gen_three_partition(spec)
        assert not check_proper(inst).is_proper

    def test_counts_scale_with_spec(self):
        spec = ThreePartitionSpec((2, 3, 4, 2, 3, 4, 2, 3, 4))
        inst, expected = gen_three_partition(spec)
        assert spec.k == 3 and spec.target == 9
        assert expected == 9 + 2 + 10
        assert len(inst) == expected

    @pytest.mark.parametrize("values, optimum", [
        ((1, 1, 1), 4),
        ((1, 1, 1, 1, 1, 1), 5),
        ((1, 2, 3, 2, 2, 2), 11),
        ((1, 1, 1, 1, 1, 7), 11),  # a no-spec, with the optimum of a yes-spec
    ])
    def test_documented_optima(self, values, optimum):
        # the optimum is not `expected`, and greedy already reaches it
        inst, expected = gen_three_partition(ThreePartitionSpec(values))
        assert solve_exact(inst, max_points=len(inst)).count == optimum < expected
        assert solve_greedy(inst).count == optimum


class TestGenRandomBand:
    def test_deterministic(self):
        a = gen_random_band(25, v=2.0, R=10.0, x_span=100.0, seed=9)
        b = gen_random_band(25, v=2.0, R=10.0, x_span=100.0, seed=9)
        assert a == b
        c = gen_random_band(25, v=2.0, R=10.0, x_span=100.0, seed=10)
        assert a != c

    def test_all_points_reachable(self):
        m = reach_envelope(3.0, 7.0).minor_radius
        inst = gen_random_band(200, v=3.0, R=7.0, x_span=500.0, seed=0)
        for p in inst.points:
            assert 0.0 <= p.x <= 500.0
            assert 1e-6 * m <= abs(p.y) < m

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            gen_random_band(-1, v=2.0, R=10.0, x_span=10.0, seed=0)
        with pytest.raises(ValueError):
            gen_random_band(5, v=2.0, R=10.0, x_span=-1.0, seed=0)

    def test_empty(self):
        assert len(gen_random_band(0, v=2.0, R=10.0, x_span=10.0, seed=0)) == 0


class TestGenRandomProper:
    def test_single_point(self):
        inst = gen_random_proper(1, v=2.0, R=10.0, seed=0)
        assert len(inst) == 1
        assert check_proper(inst).is_proper

    def test_proper_across_seeds(self):
        for seed in range(30):
            inst = gen_random_proper(8, v=2.0, R=10.0, seed=seed)
            assert len(inst) == 8
            assert check_proper(inst).is_proper

    def test_points_left_to_right(self):
        inst = gen_random_proper(12, v=3.0, R=5.0, seed=4)
        xs = [p.x for p in inst.points]
        assert xs == sorted(xs)

    @pytest.mark.parametrize("n, seed", [(200, 19002), (200, 22003),
                                         (1000, 1), (1000, 2), (1000, 3)])
    def test_seeds_that_once_failed_the_check(self, n, seed):
        # the candidate test and the checker are one kernel, so what the
        # generator accepts is proper
        inst = gen_random_proper(n, v=2.0, R=10.0, seed=seed)
        assert len(inst) == n
        assert check_proper(inst).is_proper

    def test_draw_sequence_is_pinned(self):
        inst = gen_random_proper(200, v=2.0, R=10.0, seed=11000)
        text = ",".join(f"{p.x.hex()}:{p.y.hex()}" for p in inst.points)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "f5c7e5e3b79f002712e437d2537203b67e43fb1b1f85844399fea9b8778896df")

    @pytest.mark.parametrize("n, v, seed, digest", [
        (10_000, 2.0, 1, "0d544d1b7804f273cfb096bcbcb9caf387bf97be258424947229709ef9931408"),
        (300, 1.05, 3, "4d304fb000c9fa55f98b4ce58dbdbbb6f42270a44c12f478faef9cf3aa48f900"),
    ])
    def test_draw_sequence_is_pinned_at_scale_and_for_a_slow_drone(self, n, v, seed, digest):
        inst = gen_random_proper(n, v=v, R=10.0, seed=seed)
        text = ",".join(f"{x.hex()}:{y.hex()}" for x, y in zip(inst.xs.tolist(), inst.ys.tolist()))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_gives_up_at_the_first_rejection_past_the_limit(self, monkeypatch):
        assert len(gen_random_proper(300, v=1.05, R=10.0, seed=3)) == 300
        monkeypatch.setattr(generators, "_MAX_REJECTIONS", 0)
        with pytest.raises(GenerationError, match="gave up after 0 rejected candidates"):
            gen_random_proper(300, v=1.05, R=10.0, seed=3)

    def test_deterministic(self):
        a = gen_random_proper(6, v=2.0, R=10.0, seed=11)
        b = gen_random_proper(6, v=2.0, R=10.0, seed=11)
        assert a == b

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            gen_random_proper(-2, v=2.0, R=10.0, seed=0)


class TestGenGreedyTightness:
    def test_certificates_small(self):
        for k in (1, 2, 3):
            inst, cert = gen_greedy_tightness(k, v=2.0, R=10.0)
            assert len(inst) == 2 * k
            assert cert.pairs == k
            assert cert.greedy_count == k
            assert cert.exact_count == 2 * k
            assert cert.exact_count == 2 * cert.greedy_count
            assert cert.optimal_order == tuple(range(2 * k))
            assert cert.method == "exact-solver"

    def test_certificate_is_reproducible(self):
        inst, cert = gen_greedy_tightness(2, v=2.0, R=10.0)
        assert solve_greedy(inst).count == cert.greedy_count
        assert solve_exact(inst).count == cert.exact_count
        witness = earliest_start_pack(inst, cert.optimal_order)
        assert witness is not None
        assert verify_schedule(inst, witness).feasible

    def test_large_k_uses_witness_pack(self):
        inst, cert = gen_greedy_tightness(7, v=2.0, R=10.0)
        assert cert.method == "witness-pack"
        assert cert.exact_count == 14
        assert solve_greedy(inst).count == 7

    def test_instance_is_not_proper(self):
        # the trap needs a window nested behind the decoy's
        inst, _ = gen_greedy_tightness(2, v=2.0, R=10.0)
        assert not check_proper(inst).is_proper

    def test_edge_points_pin_single_launch(self):
        inst, _ = gen_greedy_tightness(3, v=2.0, R=10.0)
        m = reach_envelope(2.0, 10.0).minor_radius
        for i in range(0, 6, 2):
            assert abs(inst.points[i].y) == pytest.approx(m, abs=1e-12)
            w = start_window(inst.points[i], inst.v, inst.R)
            assert w.ls - w.es == pytest.approx(0.0, abs=1e-9)

    def test_rejects_zero_pairs(self):
        with pytest.raises(ValueError):
            gen_greedy_tightness(0, v=2.0, R=10.0)

    def test_other_speeds_still_certify(self):
        for v, R in ((1.5, 4.0), (3.0, 9.0), (5.0, 2.0)):
            inst, cert = gen_greedy_tightness(2, v=v, R=R)
            assert cert.exact_count == 2 * cert.greedy_count

    @pytest.mark.parametrize("k, v, R", itertools.product(
        (1, 2, 5, 6, 12), (1.0001, 1.01, 1.5, 2.0, 3.0, 10.0, 1e4), (1e-6, 1.0, 10.0, 1e8)))
    def test_one_construction_certifies_the_grid(self, k, v, R):
        inst, cert = gen_greedy_tightness(k, v, R)
        assert (cert.pairs, cert.greedy_count, cert.exact_count) == (k, k, 2 * k)
        assert cert.method == ("exact-solver" if k <= 5 else "witness-pack")
        assert solve_greedy(inst).count == k
        m = reach_envelope(v, R).minor_radius
        for edge, decoy in zip(inst.points[::2], inst.points[1::2]):
            assert edge.y == m and 0.0 < decoy.y < m
            assert start_window(decoy, v, R).es < start_window(edge, v, R).es
        # the first decoy's window opens at the truck start, up to rounding
        assert start_window(inst.points[1], v, R).es == pytest.approx(0.0, abs=1e-12 * R)

    def test_instances_and_certificates_are_pinned(self):
        # every coordinate and certificate field, so a rewrite cannot move them
        text = ";".join(
            ",".join(f"{p.x.hex()}:{p.y.hex()}" for p in inst.points) + repr(cert)
            for inst, cert in (gen_greedy_tightness(k, v, R) for k, v, R in itertools.product(
                (1, 2, 3, 5, 6, 12), (1.0001, 1.01, 1.5, 2.0, 3.0, 10.0, 1e4),
                (1e-6, 1e-2, 1.0, 10.0, 1e4, 1e8))))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "b319af73f23743ab458c5a2aefae1d9605a0c02d28c7a86f28cc80e36f9b82f8")

    def test_failed_checks_are_named(self, monkeypatch):
        inst, _ = gen_greedy_tightness(2, v=2.0, R=10.0)
        with pytest.raises(GenerationError, match="greedy serves 2 of 6 points, not 3"):
            generators._certify_tightness(inst, 3)
        decoys_first = Instance(inst.v, inst.R, [inst.points[i] for i in (1, 0, 3, 2)])
        with pytest.raises(GenerationError, match="witness order 0..3 does not pack"):
            generators._certify_tightness(decoys_first, 2)
        monkeypatch.setattr(generators, "solve_exact", solve_greedy)
        with pytest.raises(GenerationError, match="exact optimum is 2, not 4"):
            generators._certify_tightness(inst, 2)

    def test_speed_an_ulp_above_one_is_refused(self):
        # w rounds up to M there, which would put the decoy on the axis
        with pytest.raises(GenerationError, match="decoy height rounds to 0"):
            gen_greedy_tightness(2, v=1.0000000000000002, R=10.0)
