"""End-to-end tests for the command-line interface (subprocess level), and
properties of its file handling called in-process."""

import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import truckdrone
from truckdrone import cli
from truckdrone.cli import (
    CliError,
    emit_json,
    instance_to_json,
    load_instance,
    load_schedule,
    main,
    schedule_to_json,
)
from truckdrone.generators import gen_greedy_tightness, gen_random_band
from truckdrone.model import Delivery, Instance, Schedule
from truckdrone.proper import check_proper

# the child imports the same package as the tests, installed or not
SRC = os.path.dirname(os.path.dirname(os.path.abspath(truckdrone.__file__)))
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")])))


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "truckdrone", *args],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )


def assert_usage_error(res, *fragments):
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    for text in fragments:
        assert text in res.stderr


DOMAIN_ERROR = "outside the numeric domain R <= 2**400 and scale <= 2**40 * R / v"


def assert_refused_at_load(tmp_path, doc):
    """Every command that reads the instance file exits 2 on it with the
    domain's one error line; no numpy warning or floating-point error arises."""
    inst, sched = tmp_path / "inst.json", tmp_path / "sched.json"
    inst.write_text(json.dumps(doc))
    sched.write_text(json.dumps({"deliveries": [], "count": 0}))
    commands = [("solve", "--algo", algo, "--input") for algo in ("greedy", "dp", "exact")]
    commands += [("solve", "--algo", "dp", "--allow-nonproper", "--input"),
                 ("verify", "--schedule", str(sched), "--instance"), ("check-proper", "--input"),
                 ("compare", "--json", "--algos", "greedy,dp,exact", "--input"),
                 ("render", "--show-windows", "--show-ellipses", "--instance")]
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        for command in commands:
            code, err = _run_main(*command, str(inst))
            assert (code, err.split(", got ")[0]) == (2, f"error: {inst}: {DOMAIN_ERROR}")


@pytest.fixture()
def proper_file(tmp_path):
    path = tmp_path / "proper.json"
    res = run_cli("gen", "random-proper", "--n", "6", "--seed", "3", "--out", str(path))
    assert res.returncode == 0, res.stderr
    return path


@pytest.fixture()
def band_file(tmp_path):
    path = tmp_path / "band.json"
    res = run_cli("gen", "random", "--n", "12", "--x-span", "80", "--seed", "5",
                  "--out", str(path))
    assert res.returncode == 0, res.stderr
    return path


class TestUsage:
    def test_no_command(self):
        assert run_cli().returncode == 2

    def test_unknown_command(self):
        assert run_cli("frobnicate").returncode == 2

    def test_missing_required_flag(self):
        assert run_cli("solve", "--algo", "greedy").returncode == 2

    def test_unreadable_file(self):
        res = run_cli("solve", "--algo", "greedy", "--input", "/no/such/file.json")
        assert res.returncode == 2
        assert "error:" in res.stderr

    def test_unwritable_output(self, tmp_path, proper_file):
        missing = str(tmp_path / "no" / "such" / "out.json")
        assert_usage_error(run_cli("solve", "--algo", "greedy", "--input",
                                   str(proper_file), "--output", missing), missing)
        assert_usage_error(run_cli("gen", "random", "--out", missing), missing)

    def test_solve_has_no_tolerance_flag(self, proper_file):
        # solver launches never pass ls, so a tolerance would change no output
        res = run_cli("solve", "--algo", "greedy", "--input", str(proper_file),
                      "--tolerance", "1e-9")
        assert res.returncode == 2


class TestInstanceFiles:
    def test_unknown_field_rejected(self, tmp_path, proper_file):
        data = json.loads(proper_file.read_text())
        data["comment"] = "hello"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        res = run_cli("solve", "--algo", "greedy", "--input", str(bad))
        assert res.returncode == 2
        assert "unknown fields" in res.stderr

    def test_missing_field_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"v": 2.0, "points": []}))
        res = run_cli("solve", "--algo", "greedy", "--input", str(bad))
        assert res.returncode == 2
        assert "missing" in res.stderr

    def test_axis_point_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(
            {"v": 2.0, "R": 10.0, "points": [{"x": 1.0, "y": 0.0}]}
        ))
        assert run_cli("solve", "--algo", "greedy", "--input", str(bad)).returncode == 2

    def test_model_errors_name_file_and_point(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(
            {"v": 2.0, "R": 10.0, "points": [{"x": 1.0, "y": 3.0}, {"x": 1.0, "y": 0.0}]}
        ))
        res = run_cli("solve", "--algo", "greedy", "--input", str(bad))
        assert_usage_error(res, f"{bad}: points[1]", "off the truck's axis")
        for field, value in (("v", 1.0), ("R", 0.0)):
            bad.write_text(json.dumps({"v": 2.0, "R": 10.0, "points": [], field: value}))
            res = run_cli("solve", "--algo", "greedy", "--input", str(bad))
            assert_usage_error(res, f"{bad}: ", f"{field}={value}")

    def test_integer_beyond_float_range_rejected(self, tmp_path):
        bad = tmp_path / "huge.json"
        bad.write_text('{"v": 2.0, "R": 1' + "0" * 400 + ', "points": []}')
        res = run_cli("solve", "--algo", "greedy", "--input", str(bad))
        assert_usage_error(res, "field 'R' must be finite")

    def test_nonnumeric_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"v": "fast", "R": 10.0, "points": []}))
        assert run_cli("solve", "--algo", "greedy", "--input", str(bad)).returncode == 2

    def test_instance_json_round_trips_bytes(self, proper_file):
        text = proper_file.read_text()
        assert instance_to_json(load_instance(str(proper_file))) == text

    def test_awkward_floats_round_trip(self, tmp_path):
        # 17 significant digits cover every double exactly
        inst_path = tmp_path / "awkward.json"
        v = 2.0000000000000004
        x = 1.0 / 3.0
        inst_path.write_text(json.dumps(
            {"v": v, "R": 10.0, "truck_start": -0.1,
             "points": [{"x": x, "y": math.sqrt(2.0)}]}
        ))
        inst = load_instance(str(inst_path))
        again = load_instance_from_text(instance_to_json(inst), tmp_path)
        assert (again.v, again.truck_start) == (v, -0.1)
        assert again.points[0].x == x


def load_instance_from_text(text, tmp_path):
    p = tmp_path / "reparse.json"
    p.write_text(text)
    return load_instance(str(p))


class TestSolveAndVerify:
    def test_solve_then_verify(self, tmp_path, proper_file):
        sched = tmp_path / "sched.json"
        for algo in ("greedy", "dp", "exact"):
            res = run_cli("solve", "--algo", algo, "--input", str(proper_file),
                          "--output", str(sched))
            assert res.returncode == 0, res.stderr
            assert f"{algo}: count=" in res.stderr
            ver = run_cli("verify", "--instance", str(proper_file),
                          "--schedule", str(sched))
            assert ver.returncode == 0
            out = json.loads(ver.stdout)
            assert out["feasible"] is True
            assert out["violations"] == []
            assert out["completion"] is not None

    def test_schedule_json_round_trips_bytes(self, tmp_path, proper_file):
        sched = tmp_path / "sched.json"
        run_cli("solve", "--algo", "greedy", "--input", str(proper_file),
                "--output", str(sched))
        text = sched.read_text()
        assert schedule_to_json(load_schedule(str(sched))) == text

    def test_tampered_start_fails_verification(self, tmp_path, proper_file):
        sched = tmp_path / "sched.json"
        run_cli("solve", "--algo", "greedy", "--input", str(proper_file),
                "--output", str(sched))
        data = json.loads(sched.read_text())
        data["deliveries"][-1]["start"] += 10.0  # push past the window
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(data))
        res = run_cli("verify", "--instance", str(proper_file), "--schedule", str(bad))
        assert res.returncode == 1
        out = json.loads(res.stdout)
        assert out["feasible"] is False
        assert out["violations"]
        assert out["completion"] is None

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_tolerance_is_usage_error(self, tmp_path, proper_file, tol):
        # a NaN slack would pass a start pushed far past its window
        sched = tmp_path / "sched.json"
        run_cli("solve", "--algo", "greedy", "--input", str(proper_file),
                "--output", str(sched))
        data = json.loads(sched.read_text())
        data["deliveries"][-1]["start"] += 1000.0
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(data))
        res = run_cli("verify", "--instance", str(proper_file), "--schedule", str(bad),
                      "--tolerance", tol)
        assert_usage_error(res, "tolerance")
        assert res.stdout == ""

    def test_out_of_range_point_index_is_usage_error(self, tmp_path, proper_file):
        bad = tmp_path / "bad_sched.json"
        bad.write_text(json.dumps({
            "deliveries": [{"point": 99, "start": 0.0, "return": 1.0}],
            "count": 1,
        }))
        res = run_cli("verify", "--instance", str(proper_file), "--schedule", str(bad))
        assert res.returncode == 2

    def test_point_index_past_int64_is_usage_error(self, tmp_path, proper_file):
        bad = tmp_path / "bad_sched.json"
        bad.write_text(json.dumps({
            "deliveries": [{"point": 10**29, "start": 0.0, "return": 1.0}],
            "count": 1,
        }))
        res = run_cli("verify", "--instance", str(proper_file), "--schedule", str(bad))
        assert_usage_error(res, "entry 0 references point 100000000000000000000000000000 "
                                "of an instance with 6 points")

    def test_count_mismatch_rejected(self, tmp_path, proper_file):
        bad = tmp_path / "bad_sched.json"
        bad.write_text(json.dumps({
            "deliveries": [{"point": 0, "start": 0.0, "return": 1.0}],
            "count": 2,
        }))
        res = run_cli("verify", "--instance", str(proper_file), "--schedule", str(bad))
        assert res.returncode == 2

    def test_dp_refuses_nonproper(self, tmp_path):
        inst = tmp_path / "trap.json"
        run_cli("gen", "adversarial", "--k", "2", "--out", str(inst))
        res = run_cli("solve", "--algo", "dp", "--input", str(inst))
        assert res.returncode == 1
        assert "dp refused" in res.stderr
        loose = run_cli("solve", "--algo", "dp", "--input", str(inst),
                        "--allow-nonproper")
        assert loose.returncode == 0

    def test_dp_packs_a_launch_that_waits_until_the_next_window(self, tmp_path):
        # the first flight waits for its window and lands at er, the second
        # window's ls; the DP's order packs to that landing and serves both
        inst, sched = tmp_path / "inst.json", tmp_path / "sched.json"
        inst.write_text(json.dumps({"v": 2.0, "R": 3.503562197968246e18,
                                    "truck_start": -3.503562197968246e18, "points": [
                                        {"x": 0.0, "y": 1.0},
                                        {"x": -1.0, "y": 1.5170869335896727e18}]}))
        res = run_cli("solve", "--algo", "dp", "--allow-nonproper", "--input", str(inst),
                      "--output", str(sched))
        assert res.returncode == 0, res.stderr
        assert res.stderr.startswith("dp: count=2 completion=")
        ver = run_cli("verify", "--instance", str(inst), "--schedule", str(sched))
        assert ver.returncode == 0 and json.loads(ver.stdout)["feasible"] is True

    def test_exact_refuses_over_budget(self, band_file):
        res = run_cli("solve", "--algo", "exact", "--input", str(band_file))
        assert res.returncode == 1
        assert "exact refused" in res.stderr
        raised = run_cli("solve", "--algo", "exact", "--input", str(band_file),
                         "--max-points", "12")
        assert raised.returncode == 0

    def test_far_out_of_band_points_print_no_warning(self, tmp_path):
        inst = tmp_path / "far.json"
        inst.write_text(json.dumps({"v": 2.0, "R": 10.0, "points": [
            {"x": 1.0, "y": 1e200}, {"x": 5.0, "y": 2.0}, {"x": 9.0, "y": -1e300}]}))
        sched = tmp_path / "sched.json"
        for algo, extra in (("greedy", ()), ("dp", ("--allow-nonproper",)), ("exact", ())):
            res = run_cli("solve", "--algo", algo, "--input", str(inst),
                          "--output", str(sched), *extra)
            assert res.returncode == 0
            # the summary line and nothing else: no RuntimeWarning from numpy
            [line] = res.stderr.splitlines()
            assert line.startswith(f"{algo}: count=1 completion=")
            ver = run_cli("verify", "--instance", str(inst), "--schedule", str(sched))
            assert (ver.returncode, ver.stderr) == (0, "")

    @pytest.mark.parametrize("height", [1e12, -1e300])
    def test_far_out_of_band_point_leaves_the_slack(self, tmp_path, height):
        # two launches at one abscissa overlap, however high a third point lies
        inst, sched = tmp_path / "inst.json", tmp_path / "sched.json"
        inst.write_text(json.dumps({"v": 2.0, "R": 10.0, "points": [
            {"x": 1.0, "y": 2.0}, {"x": 1.5, "y": -2.0}, {"x": 9.0, "y": height}]}))
        sched.write_text(json.dumps({"deliveries": [
            {"point": 0, "start": 0.0, "return": 0.0},
            {"point": 1, "start": 0.0, "return": 0.0}], "count": 2}))
        res = run_cli("verify", "--instance", str(inst), "--schedule", str(sched))
        assert res.returncode == 1
        assert json.loads(res.stdout)["violations"] == [
            {"entry": 1, "reason": "overlap-with-previous"}]

    def test_band_so_thin_that_its_square_underflows(self, tmp_path):
        # R/v = 5e-301 is far below 2**-40 times the scale 1
        assert_refused_at_load(tmp_path, {"v": 2, "R": 1e-300,
                                          "points": [{"x": 0.0, "y": 1e-301}]})

    def test_point_at_the_largest_double_prints_no_warning(self, tmp_path):
        # the scale 1.8e308 is past 2**40 * R / v
        assert_refused_at_load(tmp_path, {"v": 2.0, "R": 10.0, "points": [
            {"x": 1.7976931348623157e308, "y": 1.0}, {"x": 2.0, "y": 1.0}]})

    def test_band_whose_height_underflows_to_zero_prints_no_warning(self, tmp_path):
        assert_refused_at_load(tmp_path, {"v": 2.0, "R": 5e-324,
                                          "points": [{"x": 0.0, "y": 1.0}]})

    def test_empty_instance_solves_to_zero(self, tmp_path):
        inst = tmp_path / "empty.json"
        inst.write_text(json.dumps({"v": 2.0, "R": 10.0, "points": []}))
        res = run_cli("solve", "--algo", "exact", "--input", str(inst))
        assert res.returncode == 0
        assert "count=0" in res.stderr
        assert json.loads(res.stdout)["count"] == 0


class TestCheckProper:
    def test_proper_instance(self, proper_file):
        res = run_cli("check-proper", "--input", str(proper_file))
        assert res.returncode == 0
        assert json.loads(res.stdout)["is_proper"] is True

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_tolerance_is_usage_error(self, proper_file, tol):
        res = run_cli("check-proper", "--input", str(proper_file), "--tolerance", tol)
        assert_usage_error(res, "tolerance")

    def test_partition_instance_is_not_proper(self, tmp_path):
        inst = tmp_path / "part.json"
        gen = run_cli("gen", "partition", "--values", "1,1,1,1,1,1", "--out", str(inst))
        assert gen.returncode == 0
        assert "layout point count (acceptance 8), not an optimum: 11" in gen.stderr
        res = run_cli("check-proper", "--input", str(inst))
        assert res.returncode == 1
        out = json.loads(res.stdout)
        assert out["is_proper"] is False
        assert out["nesting_violations"]

    def test_shifted_proper_instance_stays_proper(self, tmp_path, proper_file):
        data = json.loads(proper_file.read_text())
        data["truck_start"] += 1e6
        for p in data["points"]:
            p["x"] += 1e6
        moved = tmp_path / "moved.json"
        moved.write_text(json.dumps(data))
        res = run_cli("check-proper", "--input", str(moved))
        assert res.returncode == 0, res.stdout
        assert json.loads(res.stdout)["is_proper"] is True
        res = run_cli("solve", "--algo", "dp", "--input", str(moved))
        assert res.returncode == 0, res.stderr


def _report_by_fields(report):
    """check-proper's document, built field by field from the report."""
    return emit_json({
        "is_proper": report.is_proper,
        "triangle_violations": [list(p) for p in report.triangle_violations],
        "nesting_violations": [list(p) for p in report.nesting_violations],
        "out_of_band": list(report.out_of_band),
    })


def _certificate_by_fields(cert):
    """gen adversarial's certificate, built field by field."""
    return emit_json({
        "pairs": cert.pairs,
        "exact_count": cert.exact_count,
        "greedy_count": cert.greedy_count,
        "optimal_order": list(cert.optimal_order),
        "method": cert.method,
    })


class TestDocumentsFromRecords:
    """The report and the certificate are written from their records, in
    the bytes of a document built field by field."""

    def test_report_with_every_kind_of_entry(self, tmp_path):
        band = gen_random_band(6, 2.0, 10.0, 10.0, seed=2)
        inst = Instance(2.0, 10.0, [(p.x, p.y) for p in band.points] + [(3.0, 9.0)])
        report = check_proper(inst)
        assert report.triangle_violations and report.nesting_violations
        assert report.out_of_band == (6,)
        path = tmp_path / "mixed.json"
        path.write_text(instance_to_json(inst))
        res = run_cli("check-proper", "--input", str(path))
        assert (res.returncode, res.stdout) == (1, _report_by_fields(report))

    def test_report_on_a_band_is_the_json_document(self, tmp_path):
        # hundreds of [i, j] rows, written in json.dumps's bytes
        inst = gen_random_band(400, 2.0, 10.0, 800.0, seed=19)
        report = check_proper(inst)
        assert len(report.triangle_violations) + len(report.nesting_violations) > 500
        path = tmp_path / "band.json"
        path.write_text(instance_to_json(inst))
        res = run_cli("check-proper", "--input", str(path))
        doc = {"is_proper": False,
               "triangle_violations": [list(p) for p in report.triangle_violations],
               "nesting_violations": [list(p) for p in report.nesting_violations],
               "out_of_band": []}
        assert (res.returncode, res.stdout) == (1, json.dumps(doc, indent=2) + "\n")

    def test_empty_report(self, tmp_path):
        inst = Instance(2.0, 10.0, [])
        path = tmp_path / "empty.json"
        path.write_text(instance_to_json(inst))
        res = run_cli("check-proper", "--input", str(path))
        assert (res.returncode, res.stdout) == (0, _report_by_fields(check_proper(inst)))
        assert '"triangle_violations": []' in res.stdout

    @pytest.mark.parametrize("k", [1, 6])  # the exact solver, then the witness pack
    def test_certificate_to_a_file_and_to_stderr(self, tmp_path, k):
        _, cert = gen_greedy_tightness(k, 2.0, 10.0)
        want = _certificate_by_fields(cert)
        out = tmp_path / "trap.json"
        assert run_cli("gen", "adversarial", "--k", str(k), "--out", str(out)).returncode == 0
        assert (tmp_path / "trap.json.cert.json").read_text() == want
        res = run_cli("gen", "adversarial", "--k", str(k))
        assert (res.returncode, res.stderr) == (0, want)


class TestGen:
    def test_random_writes_requested_count(self, band_file):
        data = json.loads(band_file.read_text())
        assert len(data["points"]) == 12

    def test_partition_rejects_bad_values(self, tmp_path):
        res = run_cli("gen", "partition", "--values", "1,1", "--out",
                      str(tmp_path / "x.json"))
        assert res.returncode == 2

    @pytest.mark.parametrize("flags", [
        ("--values", ",".join(["1" + "0" * 310] * 3)),  # the triple sum has no float
        ("--c", "-100000"),  # nor has the spacing
    ])
    def test_partition_past_the_float_range_is_usage_error(self, flags):
        res = run_cli("gen", "partition", *flags)
        assert_usage_error(res, "error: ", "past the float range")
        assert res.stdout == ""

    @pytest.mark.parametrize("args", [
        ("random-proper", "--R", "5e-324"), ("random", "--R", "5e-324"),
        ("random", "--v", "1e300"), ("adversarial", "--R", "1e-300")])
    def test_parameters_outside_the_domain_are_usage_errors(self, args):
        # refused before sampling: no warning, and no failure of a later step
        res = run_cli("gen", *args)
        assert (res.returncode, res.stdout) == (2, "")
        [line] = res.stderr.splitlines()
        assert line.startswith(f"error: {DOMAIN_ERROR}, got ")

    def test_adversarial_writes_certificate(self, tmp_path):
        inst = tmp_path / "trap.json"
        res = run_cli("gen", "adversarial", "--k", "3", "--out", str(inst))
        assert res.returncode == 0
        cert = json.loads((tmp_path / "trap.json.cert.json").read_text())
        assert cert["pairs"] == 3
        assert cert["exact_count"] == 6
        assert cert["greedy_count"] == 3
        assert cert["method"] == "exact-solver"
        assert cert["optimal_order"] == list(range(6))

    def test_adversarial_to_stdout_puts_cert_on_stderr(self):
        res = run_cli("gen", "adversarial", "--k", "1")
        assert res.returncode == 0
        inst = json.loads(res.stdout)
        assert len(inst["points"]) == 2
        cert = json.loads(res.stderr)
        assert cert["exact_count"] == 2


class TestCompare:
    def test_table_output(self, proper_file):
        res = run_cli("compare", "--input", str(proper_file),
                      "--algos", "greedy,dp,exact")
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        assert lines[0].split() == ["algo", "count", "completion", "wall_s", "note"]
        assert len(lines) == 4
        assert "\x1b[" not in res.stdout  # plain text, no color codes

    def test_json_output(self, proper_file):
        res = run_cli("compare", "--input", str(proper_file),
                      "--algos", "greedy,exact", "--json")
        rows = json.loads(res.stdout)["rows"]
        assert [r["algo"] for r in rows] == ["greedy", "exact"]
        assert all(r["count"] >= 1 for r in rows)
        assert rows[0]["count"] <= rows[1]["count"]

    def test_refusals_become_notes(self, tmp_path):
        inst = tmp_path / "trap.json"
        run_cli("gen", "adversarial", "--k", "2", "--out", str(inst))
        res = run_cli("compare", "--input", str(inst), "--algos", "dp", "--json")
        assert res.returncode == 0
        row = json.loads(res.stdout)["rows"][0]
        assert row["note"] == "not-proper"
        assert row["count"] is None

    def test_unknown_algo(self, proper_file):
        assert run_cli("compare", "--input", str(proper_file),
                       "--algos", "sorcery").returncode == 2


def _finite_json(text):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    def refuse(constant):
        raise ValueError(f"not JSON: {constant}")
    return json.loads(text, parse_constant=refuse)


# v * v overflows, so the band's half-height is NaN and the flight NaN
NAN_RETURN = {"v": 1.7976931348623157e308, "R": 10.0,
              "points": [{"x": 0.0, "y": 1.0}, {"x": 3.0, "y": -2.0}]}
# R / 2 and the heights are so large that the flight's squares overflow
INF_RETURN = {"v": 2.0, "R": 1e300, "points": [{"x": 0.0, "y": 1e200},
                                                {"x": 5e299, "y": -3e299}]}
# v * a overflows in every flight, so dp and exact land at NaN
FAST_DRONE = {"v": 8e307, "R": 10.0, "points": [{"x": 0.0, "y": 1.0}, {"x": 3.0, "y": -2.0}]}


class TestUnconfirmedSchedules:
    """A schedule that verify calls infeasible is a refusal: solve exits 1,
    compare notes it.  The instances whose flights overflowed to NaN or inf
    lie outside the numeric domain, so no command gets past loading them."""

    @pytest.mark.parametrize("doc", [NAN_RETURN, INF_RETURN], ids=["nan", "inf"])
    def test_solve_and_compare_write_finite_json(self, tmp_path, doc):
        assert_refused_at_load(tmp_path, doc)

    def test_non_finite_completion_is_refused(self, tmp_path):
        assert_refused_at_load(tmp_path, FAST_DRONE)

    def test_infeasible_schedule_is_refused(self, tmp_path, proper_file):
        # a solver whose launch comes after the point's window has closed
        late = Schedule._from_columns([0], [1e6], [1e6 + 1.0])
        out = tmp_path / "sched.json"
        with mock.patch.dict(cli.SOLVERS, greedy=lambda inst, args: late):
            code, err = _run_main("solve", "--algo", "greedy", "--input", str(proper_file),
                                  "--output", str(out))
            assert (code, not out.exists()) == (1, True)
            assert err == ("greedy refused: verify cannot confirm the schedule "
                           "(entry 0: start-after-ls)\n")
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                assert main(["compare", "--json", "--input", str(proper_file),
                             "--algos", "greedy"]) == 0
        [row] = _finite_json(stdout.getvalue())["rows"]
        assert (row["count"], row["completion"], row["note"]) == (None, None, "unconfirmed")


class TestRender:
    def test_byte_identical_across_runs(self, tmp_path, proper_file):
        sched = tmp_path / "sched.json"
        run_cli("solve", "--algo", "greedy", "--input", str(proper_file),
                "--output", str(sched))
        a = run_cli("render", "--instance", str(proper_file),
                    "--schedule", str(sched), "--show-windows", "--show-ellipses")
        b = run_cli("render", "--instance", str(proper_file),
                    "--schedule", str(sched), "--show-windows", "--show-ellipses")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout
        assert a.stdout.startswith("<svg ")

    def test_flight_polylines_match_schedule(self, tmp_path, proper_file):
        sched = tmp_path / "sched.json"
        run_cli("solve", "--algo", "greedy", "--input", str(proper_file),
                "--output", str(sched))
        count = json.loads(sched.read_text())["count"]
        res = run_cli("render", "--instance", str(proper_file), "--schedule", str(sched))
        assert res.stdout.count("<polyline") == count

    def test_window_tick_pixel_positions(self, tmp_path):
        # two points; world box is [-5, 40] x [+-m]; the x scale is
        # 1200/45, so the second window's opening at 23.5 maps to pixel
        # (23.5 + 5) * 1200/45 = 760 exactly
        m = (10.0 / 4.0) * math.sqrt(3.0)
        inst = tmp_path / "two.json"
        inst.write_text(json.dumps({
            "v": 2.0, "R": 10.0,
            "points": [{"x": 5.0, "y": 3.0}, {"x": 30.0, "y": 0.6 * m}],
        }))
        res = run_cli("render", "--instance", str(inst), "--show-windows")
        assert res.returncode == 0
        # 2 ticks and 1 underline per point
        assert res.stdout.count('stroke="#1a7f37"') == 6
        assert 'x1="760.00"' in res.stdout

    def test_rejects_schedule_for_other_instance(self, tmp_path, proper_file):
        bad = tmp_path / "bad_sched.json"
        bad.write_text(json.dumps({
            "deliveries": [{"point": 42, "start": 0.0, "return": 1.0}],
            "count": 1,
        }))
        res = run_cli("render", "--instance", str(proper_file), "--schedule", str(bad))
        assert res.returncode == 2

    def test_instance_only_render(self, proper_file):
        res = run_cli("render", "--instance", str(proper_file))
        assert res.returncode == 0
        assert "<polyline" not in res.stdout
        assert res.stdout.count("<circle") == 6

    @pytest.mark.parametrize("doc", [
        # min(x) - R and max(x) + R would round to one double: no width
        {"v": 2, "R": 1e-6, "points": [{"x": 1e12, "y": 1e-7}]},
        # the band's half-height R/(2v)*sqrt(v^2 - 1) would round to 0: no height
        {"v": 2, "R": 5e-324, "points": []},
    ])
    def test_picture_without_area_exits_2(self, tmp_path, doc):
        # both lie outside the numeric domain, so no picture is attempted
        assert_refused_at_load(tmp_path, doc)

    def test_picture_of_subnormal_size_exits_2(self, tmp_path):
        assert_refused_at_load(tmp_path, {"v": 2, "R": 1e-320,
                                          "points": [{"x": 0.0, "y": 1e-300}]})

    def test_coordinate_overflow_exits_2(self, tmp_path):
        # a scale so huge that a point far out of band would draw at -inf is
        # refused at load; a launch near the largest double in a schedule
        # file still overflows the picture of an instance in the domain
        assert_refused_at_load(tmp_path, {"v": 2, "R": 1e-300,
                                          "points": [{"x": 0.0, "y": 1e10}]})
        inst, sched = tmp_path / "two.json", tmp_path / "far_sched.json"
        inst.write_text(json.dumps(_GOOD_INSTANCE))
        sched.write_text(json.dumps({"deliveries": [
            {"point": 0, "start": 1.7976931348623157e308, "return": 1.7976931348623157e308}],
            "count": 1}))
        res = run_cli("render", "--instance", str(inst), "--schedule", str(sched))
        assert_usage_error(res, "cannot draw: a coordinate is inf at double precision")
        assert res.stdout == ""

    def test_empty_instance_render(self, tmp_path):
        # the world box falls back to the truck's own reach
        inst = tmp_path / "empty.json"
        inst.write_text(json.dumps({"v": 2.0, "R": 10.0, "points": []}))
        res = run_cli("render", "--instance", str(inst))
        assert res.returncode == 0
        assert "<circle" not in res.stdout
        assert res.stdout.rstrip().endswith("</svg>")


# floats as drawn, plus the awkward ones: signed zeros, subnormals, the
# largest double, and values far along the road
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                1.7976931348623157e308, -1.7976931348623157e308, 1e7 + 0.1, 1e16 + 2.0,
                1.0, -3.0, 2.0**53 + 2.0]
_FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from(_EDGE_FLOATS))


def _shifted_floats(draw, bound=math.inf):
    """An edge or drawn float, shifted along the road; |value| <= bound."""
    x = draw(_FLOATS.filter(lambda x: abs(x) <= bound))
    shift = draw(st.sampled_from([s for s in (0.0, 1e3, 1e7) if abs(x) + s <= bound]))
    return x + shift if shift else x  # -0.0 + 0.0 would lose the sign


@st.composite
def _domain_params(draw):
    """(v, R, bound): v and R in the numeric domain, and the largest |x| and
    |truck_start| it admits, 2**40 * R / v.  Heights are not bounded."""
    v = draw(st.one_of(st.floats(min_value=1.0, max_value=2.0**40, exclude_min=True),
                       st.sampled_from([1.0000000000000002, 2.0, 2.0**40])))
    R = draw(st.one_of(st.floats(min_value=v * 2.0**-40, max_value=2.0**400),
                       st.sampled_from([v * 2.0**-40, 10.0, 2.0**400])))
    return v, R, 2.0**40 * R / v


@st.composite
def _instances(draw):
    v, R, bound = draw(_domain_params())
    n = draw(st.integers(0, 5))
    ys = draw(st.lists(_FLOATS.filter(lambda y: y != 0.0), min_size=n, max_size=n))
    return Instance(v, R, tuple((_shifted_floats(draw, bound), y) for y in ys),
                    truck_start=_shifted_floats(draw, bound))


@st.composite
def _schedules(draw):
    """Deliveries whose launch is often the previous landing, as greedy's and
    pack's are, or the other signed zero after a zero landing; zeros and
    subnormals come up often, so they repeat within a schedule."""
    def drawn():
        if draw(st.booleans()):
            return draw(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310]))
        return _shifted_floats(draw)

    deliveries, ret = [], None
    for _ in range(draw(st.integers(0, 8))):
        start = draw(st.sampled_from(["drawn", "previous", "flipped"])) if deliveries else "drawn"
        if start == "drawn":
            start = drawn()
        else:
            start = -ret if start == "flipped" and ret == 0.0 else ret
        ret = drawn()
        deliveries.append(Delivery(draw(st.integers(0, 2**63)), start, ret))
    return Schedule(tuple(deliveries))


class TestJsonRoundTripProperties:
    @settings(max_examples=200)
    @given(inst=_instances())
    @example(inst=Instance(2.0, 10.0, ((-0.0, -5e-324),), truck_start=-0.0))  # one entry
    def test_instance_writer_equals_emit_json(self, inst):
        assert instance_to_json(inst) == emit_json({
            "v": inst.v, "R": inst.R, "truck_start": inst.truck_start,
            "points": [{"x": p.x, "y": p.y} for p in inst.points]})

    @settings(max_examples=200)
    @given(sched=_schedules())
    @example(sched=Schedule((Delivery(0, -0.0, -0.0),)))  # one entry
    @example(sched=Schedule((Delivery(0, 1.0, -0.0), Delivery(1, 0.0, 0.0),
                             Delivery(2, -0.0, 5e-324), Delivery(3, 5e-324, 5e-324))))
    def test_schedule_writer_equals_emit_json(self, sched):
        assert schedule_to_json(sched) == emit_json({
            "deliveries": [{"point": d.point, "start": d.start, "return": d.ret}
                           for d in sched.deliveries],
            "count": sched.count})

    @settings(max_examples=200)
    @given(data=st.data())
    def test_written_documents_reload_to_their_bytes(self, tmp_path_factory, data):
        # the file is written by emit_json, not by the writer under test
        n = data.draw(st.integers(0, 12))
        v, R, bound = data.draw(_domain_params())
        abscissas = _FLOATS.filter(lambda x: abs(x) <= bound)
        doc = {"v": v, "R": R, "truck_start": data.draw(abscissas),
               "points": [{"x": data.draw(abscissas),
                           "y": data.draw(_FLOATS.filter(lambda y: y != 0.0))}
                          for _ in range(n)]}
        text = emit_json(doc)
        path = tmp_path_factory.mktemp("instance") / "inst.json"
        path.write_text(text)
        assert instance_to_json(load_instance(str(path))) == text

    @settings(max_examples=200)
    @given(inst=_instances())
    def test_instance_json_round_trips_bytes(self, tmp_path_factory, inst):
        text = instance_to_json(inst)
        path = tmp_path_factory.mktemp("instance") / "inst.json"
        path.write_text(text)
        again = load_instance(str(path))
        assert instance_to_json(again) == text
        assert repr(again) == repr(inst)  # float repr keeps the sign of zero

    @settings(max_examples=200)
    @given(sched=_schedules())
    def test_schedule_json_round_trips_bytes(self, tmp_path_factory, sched):
        text = schedule_to_json(sched)
        path = tmp_path_factory.mktemp("schedule") / "sched.json"
        path.write_text(text)
        again = load_schedule(str(path))
        assert schedule_to_json(again) == text
        assert repr(again) == repr(sched)


_GOOD_INSTANCE = {"v": 2.0, "R": 10.0, "truck_start": 0.0,
                  "points": [{"x": 1.0, "y": 3.0}, {"x": 4.0, "y": -2.0}]}
_GOOD_SCHEDULE = {"deliveries": [{"point": 0, "start": 0.0, "return": 5.0}], "count": 1}
# JSON values that no number field accepts; json.dumps writes the
# non-finite floats as the NaN / Infinity literals that json.load reads
_NOT_NUMBERS = [math.nan, math.inf, -math.inf, 10**400, "1.0", None, True, [1.0], {}]


def _number_fields(doc):
    """(container, key) of every number field in an instance or schedule."""
    fields = [(doc, k) for k in ("v", "R", "truck_start") if k in doc]
    for entry in doc.get("points", []) + doc.get("deliveries", []):
        fields += [(entry, k) for k in entry if k != "point"]
    return fields


@st.composite
def _malformed(draw, good):
    """A copy of a good document with one defect, as file text."""
    doc = copy.deepcopy(good)
    items = doc.get("points") or doc.get("deliveries")
    how = draw(st.sampled_from(["json", "deep", "missing", "number", "extra", "shape", "entries"]
                               + (["axis", "speed", "range"] if "v" in doc
                                  else ["index", "count"])))
    if how == "json":  # every proper prefix of an object is unclosed
        text = json.dumps(doc)
        return text[:draw(st.integers(0, len(text) - 1))]
    if how == "deep":
        return "[" * draw(st.sampled_from([10**4, 10**5])) + "]" * 3
    if how == "missing":
        container = draw(st.sampled_from([doc] + items))
        del container[draw(st.sampled_from(sorted(set(container) - {"truck_start"})))]
    elif how == "number":
        container, key = draw(st.sampled_from(_number_fields(doc)))
        container[key] = draw(st.sampled_from(_NOT_NUMBERS))
    elif how == "extra":
        draw(st.sampled_from([doc] + items))["note"] = 1.0
    elif how == "shape":
        doc = draw(st.sampled_from([[doc], 3.0, "doc", None]))
    elif how == "entries":
        doc["points" if "v" in doc else "deliveries"] = draw(st.sampled_from([{}, 2.0, [1.0]]))
    elif how == "axis":
        draw(st.sampled_from(items))["y"] = draw(st.sampled_from([0.0, -0.0]))
    elif how == "speed":
        doc["v"] = draw(st.floats(max_value=1.0, allow_nan=False, allow_infinity=False))
    elif how == "range":
        doc["R"] = draw(st.floats(max_value=0.0, allow_nan=False, allow_infinity=False))
    elif how == "index":
        doc["deliveries"][0]["point"] = draw(st.sampled_from([-1, 2, 10**30, 0.0, True, "0"]))
    else:  # count
        doc["count"] = draw(st.sampled_from([0, 2, 1.0, True, "1", None]))
    return json.dumps(doc)


def _run_main(*argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(list(argv))
    return code, err.getvalue()


class TestMalformedInputProperties:
    """Bad files end in exit code 2 and an error line; an exception that
    escaped `main` would print a traceback and fail the test."""

    @settings(max_examples=300)
    @given(text=_malformed(_GOOD_INSTANCE),
           command=st.sampled_from([("solve", "--algo", "greedy", "--input"),
                                    ("check-proper", "--input"),
                                    ("render", "--instance")]))
    def test_bad_instance_file_exits_2(self, tmp_path_factory, text, command):
        path = tmp_path_factory.mktemp("bad") / "inst.json"
        path.write_text(text)
        code, err = _run_main(*command, str(path))
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err

    @settings(max_examples=200)
    @given(text=_malformed(_GOOD_SCHEDULE))
    def test_bad_schedule_file_exits_2(self, tmp_path_factory, text):
        folder = tmp_path_factory.mktemp("bad")
        (folder / "inst.json").write_text(json.dumps(_GOOD_INSTANCE))
        (folder / "sched.json").write_text(text)
        code, err = _run_main("verify", "--instance", str(folder / "inst.json"),
                              "--schedule", str(folder / "sched.json"))
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err

    def test_deeply_nested_file_exits_2_in_a_process(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 10**5)
        assert_usage_error(run_cli("check-proper", "--input", str(path)), "usable JSON")


def _reference_fmt_num(x):
    if isinstance(x, int) and not isinstance(x, bool):
        return str(x)
    text = format(float(x), ".17g")
    return "-0.0" if text == "-0" else text


def _reference_emit(value, indent=0):
    """Reference writer: isinstance checks in turn, the pad rebuilt per call."""
    pad = "  " * indent
    if value is None:
        return "null"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = ",\n".join(
            f'{pad}  "{k}": {_reference_emit(v, indent + 1)}' for k, v in value.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = ",\n".join(f"{pad}  {_reference_emit(v, indent + 1)}" for v in value)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return _reference_fmt_num(value)
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value)!r}")


# keys the reference writes correctly: it quotes them without escaping
_PLAIN_KEYS = st.text(st.characters(min_codepoint=32, max_codepoint=126,
                                    blacklist_characters='"\\'), max_size=6)
_LEAVES = st.one_of(
    st.floats(), st.sampled_from(_EDGE_FLOATS + [1e308, -1e308, math.inf, -math.inf]),
    st.floats().map(np.float64), st.integers(), st.integers(-2**70, 2**70), st.booleans(),
    st.none(), st.text(), st.sampled_from(['a"b', "back\\slash", "tab\t", "\u00e9\u6f22", ""]))
_DOCUMENTS = st.recursive(_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(_PLAIN_KEYS, inner, max_size=4)), max_leaves=25)


_INTS = st.one_of(st.integers(), st.integers(-2**70, 2**70),
                  st.sampled_from([0, -1, 2**63, -2**63 - 1, 10**40]))


def _rows(m):
    """Lists of int rows of length m, each row a list or a tuple."""
    row = st.lists(_INTS, min_size=m, max_size=m)
    return st.lists(st.one_of(row, row.map(tuple)), max_size=6)


# what emit_json writes with one %-format (ints, equal rows of ints) and its neighbours
_INT_DOCUMENTS = st.one_of(
    st.lists(_INTS), st.lists(_INTS).map(tuple), st.integers(0, 3).flatmap(_rows),
    st.lists(st.lists(_INTS, max_size=3), max_size=4),  # ragged and empty rows
    st.lists(st.one_of(_INTS, st.booleans())),  # True among ints
    st.lists(st.lists(st.one_of(_INTS, st.booleans()), min_size=2, max_size=2)),
    st.lists(st.lists(st.lists(_INTS, max_size=2), max_size=2), max_size=3))  # depth 3


class TestJsonWriter:
    @settings(max_examples=400)
    @given(doc=_DOCUMENTS)
    def test_bytes_equal_the_reference_writer(self, doc):
        assert emit_json(doc) == _reference_emit(doc) + "\n"

    @settings(max_examples=400)
    @given(doc=_INT_DOCUMENTS)
    def test_int_lists_equal_the_reference_writer_and_json(self, doc):
        for nested in (doc, {"k": [doc, 1]}):
            text = emit_json(nested)
            assert text == _reference_emit(nested) + "\n"
            assert text == json.dumps(nested, indent=2) + "\n"

    @pytest.mark.parametrize("bad", [object(), {1, 2}, b"bytes", np.int64(3), 1j,
                                     np.array([1.0]), np.bool_(True)])
    def test_unsupported_types_raise(self, bad):
        for doc in (bad, [1.0, bad], {"k": (bad,)}):
            with pytest.raises(TypeError):
                _reference_emit(doc)
            with pytest.raises(TypeError, match="cannot serialize"):
                emit_json(doc)

    def test_keys_are_escaped(self):
        doc = {'a"b': 1, "back\\slash": [True], "\u00e9\n": {"": None}}
        assert json.loads(emit_json(doc)) == doc


def _reader_error(tmp_path, load, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(CliError) as err:
        load(str(path))
    return str(err.value).replace(str(path), "FILE")


# (field, value, message) for a bad number field; the message follows "<where>: "
_BAD_NUMBERS = [
    (True, "field '{}' must be a number"),
    ("1.0", "field '{}' must be a number"),
    (math.nan, "field '{}' must be finite"),
    (math.inf, "field '{}' must be finite"),
    (-math.inf, "field '{}' must be finite"),
    (10**400, "field '{}' must be finite"),
]


class TestReaderErrors:
    """The readers' messages, pinned at the top level, in a point and in a delivery."""

    @pytest.mark.parametrize("value, message", _BAD_NUMBERS)
    @pytest.mark.parametrize("where, field", [("", "v"), ("", "truck_start"),
                                              ("points[1]", "x"), ("points[1]", "y")])
    def test_instance_numbers(self, tmp_path, where, field, value, message):
        doc = copy.deepcopy(_GOOD_INSTANCE)
        (doc["points"][1] if where else doc)[field] = value
        prefix = f"FILE: {where}: " if where else "FILE: "
        assert _reader_error(tmp_path, load_instance, doc) == prefix + message.format(field)

    @pytest.mark.parametrize("value, message", _BAD_NUMBERS)
    @pytest.mark.parametrize("field", ["start", "return"])
    def test_delivery_numbers(self, tmp_path, field, value, message):
        doc = copy.deepcopy(_GOOD_SCHEDULE)
        doc["deliveries"][0][field] = value
        assert (_reader_error(tmp_path, load_schedule, doc)
                == "FILE: deliveries[0]: " + message.format(field))

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.update(note=1), "FILE: unknown fields ['note']"),
        (lambda d: d.pop("R"), "FILE: missing fields ['R']"),
        (lambda d: d["points"][1].update(z=0.0, w=1), "FILE: points[1]: unknown fields ['w', 'z']"),
        (lambda d: d["points"][1].pop("x"), "FILE: points[1]: missing fields ['x']"),
        (lambda d: d["points"].__setitem__(0, [1.0, 3.0]), "FILE: points[0]: expected a JSON object"),
        (lambda d: d["points"].__setitem__(1, {"x": 1.0, "z": 2.0}),
         "FILE: points[1]: unknown fields ['z']"),
        (lambda d: d["points"].__setitem__(1, "x"), "FILE: points[1]: expected a JSON object"),
    ])
    def test_instance_keys(self, tmp_path, edit, message):
        doc = copy.deepcopy(_GOOD_INSTANCE)
        edit(doc)
        assert _reader_error(tmp_path, load_instance, doc) == message

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.update(note=1), "FILE: unknown fields ['note']"),
        (lambda d: d.pop("count"), "FILE: missing fields ['count']"),
        (lambda d: d["deliveries"][0].update(ret=1.0),
         "FILE: deliveries[0]: unknown fields ['ret']"),
        (lambda d: d["deliveries"][0].pop("start"), "FILE: deliveries[0]: missing fields ['start']"),
        (lambda d: d["deliveries"][0].update(point=True),
         "FILE: deliveries[0]: 'point' must be a nonnegative integer"),
    ])
    def test_schedule_keys(self, tmp_path, edit, message):
        doc = copy.deepcopy(_GOOD_SCHEDULE)
        edit(doc)
        assert _reader_error(tmp_path, load_schedule, doc) == message


def _per_entry_only():
    """Within it, load_instance's column fast path always fails, so every
    file is read by the per-entry checks alone."""
    return mock.patch.object(Instance, "_from_columns", side_effect=ValueError)


# numbers that both paths read: ints and floats, past 2**53 and int64, -0.0
_FILE_NUMBERS = st.one_of(_FLOATS, st.integers(-2**70, 2**70),
                          st.sampled_from([10**308, -(2**64) - 1, 2**53 + 1]))


def _file_numbers_within(bound):
    """The same kinds of number, with |value| <= bound."""
    return st.one_of(st.floats(-bound, bound), st.integers(-math.floor(bound), math.floor(bound)),
                     st.sampled_from([x for x in (*_EDGE_FLOATS, 10**308, -(2**64) - 1, 2**53 + 1)
                                      if abs(x) <= bound]))


class TestLoaderPaths:
    """The column fast path and the per-entry checks read every file alike."""

    @settings(max_examples=200)
    @given(data=st.data())
    def test_paths_give_equal_instances(self, tmp_path_factory, data):
        v, R, bound = data.draw(_domain_params())
        within = _file_numbers_within(bound)
        n = data.draw(st.integers(0, 12))
        doc = {"v": v, "R": R, "truck_start": data.draw(within),
               "points": [{"x": data.draw(within),
                           "y": data.draw(_FILE_NUMBERS.filter(lambda y: y != 0))}
                          for _ in range(n)]}
        if data.draw(st.integers(0, 3)) == 0:  # one abscissa or the start past the bound
            past = data.draw(st.one_of(
                st.floats(min_value=bound, exclude_min=True, allow_infinity=False),
                st.integers(math.floor(bound) + 1, 2**1000)))
            at = doc["points"][data.draw(st.integers(0, n - 1))] if n else doc
            at["x" if n else "truck_start"] = past * data.draw(st.sampled_from([1, -1]))
        path = tmp_path_factory.mktemp("instance") / "inst.json"
        path.write_text(json.dumps(doc))
        results = []
        for reader in (contextlib.nullcontext(), _per_entry_only()):
            with reader:
                try:
                    results.append(load_instance(str(path)))
                except CliError as e:
                    results.append(str(e))
        fast, slow = results
        event("refused by both" if isinstance(fast, str) else "read alike")
        if isinstance(fast, str):
            assert fast == slow and DOMAIN_ERROR in fast
            return
        assert fast == slow and repr(fast) == repr(slow)
        assert fast.xs.tobytes() == slow.xs.tobytes() and fast.ys.tobytes() == slow.ys.tobytes()

    # one entry of each irregular kind
    IRREGULAR = {
        "bool": {"x": True, "y": 1.0},
        "str": {"x": 1.0, "y": "2.0"},
        "null": {"x": None, "y": 1.0},
        "int past float range": {"x": 1.0, "y": 10**400},
        # rounds to the largest double, so only the range check refuses it
        "int just past float range": {"x": int(sys.float_info.max) + 1, "y": 1.0},
        # the same in y, which the domain's scale leaves out
        "int just past float range in y": {"x": 1.0, "y": int(sys.float_info.max) + 1},
        "missing key": {"x": 1.0},
        "extra key": {"x": 1.0, "y": 1.0, "z": 0.0},
        "two keys, not x and y": {"x": 1.0, "z": 2.0},
        "non-dict": [1.0, 1.0],
        "NaN literal": {"x": math.nan, "y": 1.0},
        "Infinity literal": {"x": 1.0, "y": -math.inf},
        "y = 0": {"x": 1.0, "y": 0.0},
        "y = -0.0": {"x": 1.0, "y": -0.0},
    }

    @pytest.mark.parametrize("speed", [2.0, 0.5])
    @pytest.mark.parametrize("position", [0, 3, 6])
    @pytest.mark.parametrize("kind", sorted(IRREGULAR))
    def test_irregular_entry_gives_the_per_entry_error(self, tmp_path, kind, position, speed):
        points = [{"x": float(i), "y": 1.0 + i} for i in range(7)]
        points[position] = self.IRREGULAR[kind]
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"v": speed, "R": 10.0, "points": points}))
        code, err = _run_main("check-proper", "--input", str(path))
        with _per_entry_only():
            assert (code, err) == _run_main("check-proper", "--input", str(path))
        assert code == 2 and err.startswith(f"error: {path}: points[{position}]: ")

    @pytest.mark.parametrize("field, value", [("v", 1.0), ("R", 0.0), ("R", -5e-324)])
    def test_bad_parameter_with_regular_entries(self, tmp_path, field, value):
        doc = copy.deepcopy(_GOOD_INSTANCE)
        doc[field] = value
        message = _reader_error(tmp_path, load_instance, doc)
        with _per_entry_only():
            assert _reader_error(tmp_path, load_instance, doc) == message
        assert message.startswith("FILE: ") and "points[" not in message
