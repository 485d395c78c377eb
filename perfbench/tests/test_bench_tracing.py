import pytest

import truckdrone
from truckdrone import geometry, generators, model, solvers

from tracing import Tracer, self_times, span_totals


def span(sid, parent, name, start, end, item=0):
    return (item, sid, parent, name, start, end)


def test_self_time_subtracts_nested_children():
    spans = [
        span(0, -1, "outer", 0.0, 10.0),
        span(1, 0, "a", 2.0, 5.0),
        span(2, 1, "leaf", 3.0, 4.0),
        span(3, 0, "b", 6.0, 8.0),
    ]
    assert self_times(spans) == {0: 5.0, 1: 2.0, 2: 1.0, 3: 2.0}


def test_self_time_counts_overlapping_children_once():
    spans = [
        span(0, -1, "outer", 0.0, 10.0),
        span(1, 0, "a", 1.0, 4.0),
        span(2, 0, "b", 3.0, 6.0),
        span(3, 0, "c", 9.0, 12.0),  # clipped to the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_span_totals_sum_calls_inclusive_and_self_time():
    spans = [
        span(0, -1, "f", 0.0, 4.0),
        span(1, 0, "g", 1.0, 2.0),
        span(2, -1, "g", 5.0, 8.0),
    ]
    assert span_totals(spans) == {"f": [1, 4.0, 3.0], "g": [2, 4.0, 4.0]}


def test_wrappers_sit_where_callers_look_names_up_and_are_removed_after():
    inst = generators.gen_random_band(7, 2.0, 10.0, 20.0, seed=3)
    tracer = Tracer()
    sched = tracer.run(5, lambda: solvers.solve_exact(inst))
    assert solvers.return_position is geometry.return_position
    assert model.return_position is geometry.return_position
    assert truckdrone.solve_exact is solvers.solve_exact

    by_id = {s[1]: s for s in tracer.spans}
    assert {s[0] for s in tracer.spans} == {5}
    landings = [s for s in tracer.spans if s[3] == "geometry.return_position"]
    dfs = [s for s in landings if by_id[s[2]][3] == "solvers.solve_exact"]
    assert dfs and tracer.counts["solvers.exact_nodes"] == len(dfs)
    # the final pack looks the kernel up through model, not solvers
    packed = [s for s in landings if by_id[s[2]][3] == "model.earliest_start_pack"]
    assert len(packed) == sched.count


def test_counters_and_peaks_at_span_ends():
    inst = generators.gen_random_proper(12, 2.0, 10.0, seed=1)
    tracer = Tracer(peaks=True)
    sched = tracer.run(0, lambda: solvers.solve_dp_proper(inst))
    # one table row per reachable delivery count
    assert tracer.counts["solvers.dp_cells"] == sched.count * 12
    assert tracer.counts["proper.pairs"] == 12 * 11
    assert tracer.counts["proper.violations"] == 0
    assert tracer.peaks["solvers.dp_table"] > 0
    assert tracer.peaks["proper.check_proper"] > 0
    untimed = Tracer()
    untimed.run(0, lambda: solvers.solve_dp_proper(inst))
    assert untimed.peaks == {} and untimed.counts == tracer.counts


def test_exceptions_are_counted_and_still_closed():
    tracer = Tracer()
    with pytest.raises(ValueError):
        tracer.run(0, lambda: generators.gen_random_band(-1, 2.0, 10.0, 5.0, 0))
    assert tracer.counts["generators.gen_random_band.raised"] == 1
    assert tracer.spans[0][3] == "generators.gen_random_band"
