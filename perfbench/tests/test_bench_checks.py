import dataclasses

import pytest

from truckdrone import cli, generators, model, render, solvers

import workloads
from checks import (WrongOutput, check_dp_count, check_feasible, check_rewrite,
                    check_same_render)


@pytest.fixture
def inst():
    return generators.gen_random_band(12, 2.0, 10.0, 30.0, seed=4)


def test_feasible_schedule_passes_and_a_broken_one_fails(inst):
    sched = solvers.solve_greedy(inst)
    check_feasible(model.verify_schedule(inst, sched), "greedy")
    late = dataclasses.replace(sched.deliveries[1], start=sched.deliveries[1].start + 50.0)
    broken = model.Schedule((sched.deliveries[0], late, *sched.deliveries[2:]))
    with pytest.raises(WrongOutput, match="verify_schedule rejects"):
        check_feasible(model.verify_schedule(inst, broken), "greedy")


@pytest.mark.parametrize("dp, greedy, exact", [(3, 3, None), (6, 3, None), (5, 4, 5)])
def test_dp_count_within_bounds_passes(dp, greedy, exact):
    check_dp_count(dp, greedy, exact)


@pytest.mark.parametrize("dp, greedy, exact", [(2, 3, None), (7, 3, None), (5, 4, 6)])
def test_dp_count_out_of_bounds_fails(dp, greedy, exact):
    with pytest.raises(WrongOutput):
        check_dp_count(dp, greedy, exact)


def test_json_rewrite_must_be_byte_identical(inst, tmp_path):
    text = cli.schedule_to_json(solvers.solve_greedy(inst))
    path = tmp_path / "s.json"
    path.write_text(text)
    check_rewrite(text, cli.schedule_to_json(cli.load_schedule(str(path))), "schedule")
    path.write_text(text.replace('"count": ', '"count":  '))
    with pytest.raises(WrongOutput, match="re-write differs"):
        check_rewrite(path.read_text(), cli.schedule_to_json(cli.load_schedule(str(path))),
                      "schedule")


def test_renders_must_match(inst):
    sched = solvers.solve_greedy(inst)
    first = render.render_svg(inst, sched, show_windows=True, show_ellipses=True)
    check_same_render(first, render.render_svg(inst, sched, show_windows=True,
                                               show_ellipses=True))
    with pytest.raises(WrongOutput):
        check_same_render(first, first.replace('r="3"', 'r="4"', 1))


def test_band_greedy_item_fails_on_a_non_canonical_schedule_file(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "POOL", 2)
    wl = workloads.BandGreedy()
    wl.n = 60
    manifest = wl.setup(str(tmp_path), seed=1)
    wl.load(manifest, str(tmp_path), seed=1)
    assert wl.check(0, wl.run(0)) == "ok"
    k, inst, report, text, out_path = wl.run(1)
    with pytest.raises(WrongOutput, match="schedule file"):
        wl.check(1, (k, inst, report, text.replace('"count": ', '"count":  '), out_path))


def test_band_check_item_fails_on_a_hand_edited_report(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "POOL", 1)
    wl = workloads.BandCheck()
    wl.n = 40
    wl.load(wl.setup(str(tmp_path), seed=2), str(tmp_path), seed=2)
    text, report = wl.run(0)
    assert wl.check(0, (text, report)) == "ok"
    with pytest.raises(WrongOutput):
        wl.check(0, (text.replace('"is_proper": ', '"is_proper":  '), report))


def test_generation_failures_are_reported_not_retried(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "POOL", 3)
    wl = workloads.ProperDp()
    wl.n = 6
    real = generators.gen_random_proper
    seeds = []

    def flaky(n, v, R, seed):
        seeds.append(seed)
        if seed % 1000 == 1:
            raise generators.GenerationError("sampled instance failed the properness check")
        return real(n, v, R, seed)

    monkeypatch.setattr(generators, "gen_random_proper", flaky)
    manifest = wl.setup(str(tmp_path), seed=4)
    assert seeds == [4000, 4001, 4002]
    assert len(manifest["inputs"]) == 2
    assert manifest["generation_failures"] == [
        "input 1 (seed 4001): sampled instance failed the properness check"]
