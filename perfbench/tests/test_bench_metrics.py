import json
import os
import subprocess
import sys

import pytest

from metrics import (END_TO_END, PER_LAYER, TAIL_BEYOND, Tally, end_to_end, error_rate,
                     in_reference_seconds, percentile, tail_percentile)

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("n, p", [(11, 9), (20, 50), (25, 60), (40, 75), (100, 90), (1000, 99)])
def test_tail_percentile_from_item_count(n, p):
    assert tail_percentile(n) == p


@pytest.mark.parametrize("n", [0, 1, 10])
def test_no_tail_without_ten_items_beyond(n):
    assert tail_percentile(n) is None


def test_tail_is_the_highest_percentile_with_ten_items_beyond():
    for n in range(TAIL_BEYOND + 1, 400):
        values = list(range(n))
        p = tail_percentile(n)
        assert n - 1 - percentile(values, p) >= TAIL_BEYOND
        assert n - 1 - percentile(values, p + 1) < TAIL_BEYOND


def test_error_rate_leaves_refusals_out():
    tally = Tally(generation_failures=1)
    for outcome in ["ok"] * 5 + ["refused"] * 2 + ["failed", "wrong"]:
        tally.record(outcome)
    assert (tally.attempted, tally.failed, tally.refused) == (10, 2, 2)
    assert error_rate(tally.attempted, tally.failed) == pytest.approx(0.2)
    with pytest.raises(ValueError):
        tally.record("lost")


def test_error_rate_needs_an_attempt():
    with pytest.raises(ValueError):
        error_rate(Tally().attempted, Tally().failed)


def test_end_to_end_values():
    times = [float(t) for t in range(1, 21)]
    values, notes = end_to_end([3.0, 1.0, 2.0], times, 12.5, attempted=25, failed=5)
    assert values == {
        "setup_s": 2.0,
        "items_per_s": 20 / sum(times),
        "item_s.p50": 10.5,
        "item_s.tail": 10.0,
        "peak_rss_mib": 12.5,
        "success_rate": 0.8,
    }
    assert notes == {"tail_percentile": 50, "timed_items": 20, "error_rate": 0.2}


def test_times_are_divided_by_the_slowdown_around_them():
    assert in_reference_seconds([1.0, 3.0], [2.0, 1.5]) == [0.5, 2.0]
    with pytest.raises(ValueError):
        in_reference_seconds([1.0, 3.0], [2.0])


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} == {
        "proper-dp", "band-greedy", "band-check", "cli-small"}


def test_refuses_to_run_without_the_package(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "proper-dp",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "src/truckdrone" in proc.stderr
