"""Turn item times, outcomes and traces into the benchmark's named metrics."""

from __future__ import annotations

import math
import statistics

from tracing import span_totals

TAIL_BEYOND = 10

END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("item_s.p50", "s"),
    ("item_s.tail", "s"),
    ("peak_rss_mib", "MiB"),
    ("success_rate", "ratio"),
)

PER_LAYER = (
    ("solvers.dp_table.s", "s/item"),
    ("solvers.dp_cells", "count/item"),
    ("solvers.dp_table.peak_mib", "MiB"),
    ("solvers.solve_dp_proper.self_s", "s/item"),
    ("proper.check_proper.s", "s/item"),
    ("proper.pairs", "count/item"),
    ("proper.violations", "count/item"),
    ("proper.check_proper.peak_mib", "MiB"),
    ("solvers.solve_greedy.s", "s/item"),
    ("solvers.greedy_steps", "count/item"),
    ("geometry.return_positions.s", "s/item"),
    ("geometry.return_positions.calls", "count/item"),
    ("geometry.landings", "count/item"),
    ("geometry.landings_per_s", "1/s"),
    ("geometry.window_arrays.s", "s/item"),
    ("geometry.return_position.s", "s/item"),
    ("geometry.return_position.calls", "count/item"),
    ("geometry.start_window.calls", "count/item"),
    ("model.verify_schedule.s", "s/item"),
    ("model.verify_schedule.deliveries", "count/item"),
    ("model.earliest_start_pack.s", "s/item"),
    ("solvers.solve_exact.s", "s/item"),
    ("solvers.exact_nodes", "count/item"),
    ("cli.load_instance.s", "s/item"),
    ("cli.load_schedule.s", "s/item"),
    ("cli.instance_to_json.s", "s/item"),
    ("cli.schedule_to_json.s", "s/item"),
    ("cli.emit_json.s", "s/item"),
    ("cli.json_bytes", "B/item"),
    ("cli.startup.python_s", "s/process"),
    ("cli.startup.numpy_s", "s/process"),
    ("cli.startup.truckdrone_s", "s/process"),
    ("cli.gen.s", "s/item"),
    ("cli.solve.s", "s/item"),
    ("cli.verify.s", "s/item"),
    ("cli.compare.s", "s/item"),
    ("cli.render.s", "s/item"),
    ("render.render_svg.s", "s/item"),
    ("render.svg_bytes", "B/item"),
    ("generators.gen_random_proper.s", "s/call"),
    ("generators.gen_random_band.s", "s/call"),
    ("generators.failures", "count"),
    ("trace.overhead_s", "s/item"),
)


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile whose nearest-rank item has TAIL_BEYOND items
    after it in a sorted sample of n; None when n is too small for any."""
    if n <= TAIL_BEYOND:
        return None
    return (100 * (n - TAIL_BEYOND)) // n


def percentile(sorted_values, p: int) -> float:
    """Nearest-rank percentile of an ascending sample."""
    rank = max(1, math.ceil(p * len(sorted_values) / 100))
    return sorted_values[rank - 1]


def error_rate(attempted: int, failed: int) -> float:
    if attempted < 1:
        raise ValueError("no item was attempted")
    return failed / attempted


class Tally:
    """Item outcomes.  An expected refusal (NotProperError, a `not-proper`
    note) is attempted but not failed, and so is a wrong output, which fails
    the whole run instead; an input that could not be generated is both."""

    def __init__(self, generation_failures: int = 0):
        self.attempted = self.failed = generation_failures
        self.refused = 0

    def record(self, outcome: str) -> None:
        if outcome not in ("ok", "refused", "failed", "wrong"):
            raise ValueError(f"unknown outcome {outcome!r}")
        self.attempted += 1
        self.failed += outcome == "failed"
        self.refused += outcome == "refused"


def in_reference_seconds(times, slowdowns) -> list[float]:
    """Each time divided by the host slow-down measured around it."""
    return [t / slow for t, slow in zip(times, slowdowns, strict=True)]


def end_to_end(setup_times, item_times, peak_rss_mib, attempted, failed) -> tuple[dict, dict]:
    """Metric values plus notes: which percentile the tail is and of how many."""
    times = sorted(item_times)
    p = tail_percentile(len(times))
    if p is None:
        raise ValueError(f"{len(times)} timed items; the tail needs more than {TAIL_BEYOND}")
    values = {
        "setup_s": statistics.median(setup_times),
        "items_per_s": len(times) / sum(times),
        "item_s.p50": statistics.median(times),
        "item_s.tail": percentile(times, p),
        "peak_rss_mib": peak_rss_mib,
        "success_rate": 1.0 - error_rate(attempted, failed),
    }
    notes = {"tail_percentile": p, "timed_items": len(times),
             "error_rate": error_rate(attempted, failed)}
    return values, notes


def per_layer(item_traces, setup_traces, traced_items: int, overhead_s: float) -> dict:
    """Per-layer metrics from the trace dumps of the measured items and of set-up.

    Times and counts are per traced item.  Generator times are per call and
    include set-up, where the in-process workloads generate their inputs;
    every other layer is taken from the items alone.
    """
    if traced_items < 1:
        raise ValueError("no traced item")
    totals, counts, peaks = _merge(item_traces)
    gen_totals, gen_counts, _ = _merge(list(item_traces) + list(setup_traces))

    def span(name, field):
        return totals.get(name, (0, 0.0, 0.0))[field]

    out = {}
    for metric, _ in PER_LAYER:
        if metric.startswith("generators."):
            if metric == "generators.failures":
                value = sum(v for k, v in gen_counts.items()
                            if k.startswith("generators.") and k.endswith(".raised"))
            else:
                calls, incl, _ = gen_totals.get(metric[:-2], (0, 0.0, 0.0))
                value = incl / calls if calls else 0.0
        elif metric.startswith("cli.startup."):
            procs = counts.get("cli.processes", 0)
            value = counts.get(metric, 0.0) / procs if procs else 0.0
        elif metric == "geometry.landings_per_s":
            busy = span("geometry.return_positions", 1)
            value = counts.get("geometry.landings", 0) / busy if busy else 0.0
        elif metric == "trace.overhead_s":
            value = overhead_s
        elif metric.endswith(".peak_mib"):
            value = peaks.get(metric[:-len(".peak_mib")], 0) / 2**20
        elif metric.endswith(".self_s"):
            value = span(metric[:-len(".self_s")], 2) / traced_items
        elif metric.endswith(".calls"):
            value = span(metric[:-len(".calls")], 0) / traced_items
        elif metric.endswith(".s"):
            value = span(metric[:-2], 1) / traced_items
        else:
            value = counts.get(metric, 0) / traced_items
        out[metric] = value
    return out


def _merge(traces):
    """Sum span totals, counters and peaks over the dumps of several processes."""
    totals: dict[str, list] = {}
    counts: dict[str, float] = {}
    peaks: dict[str, int] = {}
    for trace in traces:
        for name, (calls, incl, self_s) in span_totals(trace["spans"]).items():
            t = totals.setdefault(name, [0, 0.0, 0.0])
            t[0] += calls
            t[1] += incl
            t[2] += self_s
        for k, v in trace["counts"].items():
            counts[k] = counts.get(k, 0) + v
        for k, v in trace["peaks"].items():
            peaks[k] = max(peaks.get(k, 0), v)
    return totals, counts, peaks
