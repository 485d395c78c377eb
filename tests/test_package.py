"""The package namespace and the program entry: what a process loads, and
who touches the cyclic garbage collector."""

import contextlib
import gc
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import truckdrone
from truckdrone import cli, solvers
from truckdrone.generators import gen_random_proper

SRC = os.path.dirname(os.path.dirname(os.path.abspath(truckdrone.__file__)))
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")])))

# run in a child: the program entry on ARGV, then one JSON line of what it left
ENTRY_PROBE = """
import gc, json, sys
from truckdrone.__main__ import run
sys.argv = ["truckdrone", *json.loads(sys.argv[1])]
code = run()
print(json.dumps({"code": code, "enabled": gc.isenabled(), "frozen": gc.get_freeze_count(),
                  "loaded": sorted(m for m in sys.modules if m.startswith("truckdrone."))}))
"""


def child(script: str, *args: str, cwd=None) -> str:
    res = subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                         text=True, env=CHILD_ENV, cwd=cwd)
    assert res.returncode == 0, res.stderr
    return res.stdout


def run_entry(tmp_path, *argv: str) -> dict:
    return json.loads(child(ENTRY_PROBE, json.dumps(argv), cwd=tmp_path).splitlines()[-1])


@pytest.fixture()
def solved(tmp_path):
    """An instance file and the dp's schedule file for it, in tmp_path."""
    inst = gen_random_proper(8, 2.0, 10.0, seed=1)
    (tmp_path / "inst.json").write_text(cli.instance_to_json(inst))
    (tmp_path / "sched.json").write_text(cli.schedule_to_json(solvers.solve_sweep(inst)))
    return tmp_path


class TestLazyNamespace:
    def test_import_loads_no_submodule(self):
        out = child("import sys, truckdrone\n"
                    "print(sorted(m for m in sys.modules if m.startswith('truckdrone.')))")
        assert out.strip() == "[]"

    @pytest.mark.parametrize("name", sorted(set(truckdrone.__all__) - {"__version__"}))
    def test_every_public_name_is_its_home_modules_object(self, name):
        obj = getattr(truckdrone, name)
        home = importlib.import_module(f"truckdrone.{truckdrone._HOMES[name]}")
        assert obj is getattr(home, name)
        if hasattr(obj, "__module__"):  # the table names the module that defines it
            assert obj.__module__ == home.__name__

    def test_all_lists_each_name_once_and_star_import_gives_them(self):
        assert len(set(truckdrone.__all__)) == len(truckdrone.__all__)
        ns = {}
        exec("from truckdrone import *", ns)
        assert set(truckdrone.__all__) <= ns.keys()
        assert ns["solve_sweep"] is solvers.solve_sweep

    def test_a_name_is_looked_up_again_at_every_access(self, monkeypatch):
        original = solvers.solve_greedy
        monkeypatch.setattr(solvers, "solve_greedy", lambda inst: "patched")
        assert truckdrone.solve_greedy is solvers.solve_greedy
        monkeypatch.undo()
        assert truckdrone.solve_greedy is original

    def test_an_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'solve_nothing'"):
            truckdrone.solve_nothing
        assert not hasattr(truckdrone, "_private")

    def test_from_import_still_reaches_submodules(self):
        from truckdrone import generators, render
        assert render.__name__ == "truckdrone.render"
        assert generators.gen_random_band is truckdrone.gen_random_band


class TestCommandImports:
    @pytest.mark.parametrize("argv", [
        ("verify", "--instance", "inst.json", "--schedule", "sched.json"),
        ("render", "--instance", "inst.json", "--schedule", "sched.json", "--out", "a.svg",
         "--show-windows", "--show-ellipses"),
    ])
    def test_verify_and_render_load_neither_solvers_nor_generators(self, solved, argv):
        seen = run_entry(solved, *argv)
        assert seen["code"] == 0
        assert not {"truckdrone.solvers", "truckdrone.generators"} & set(seen["loaded"])

    @pytest.mark.parametrize("argv, module", [
        (("solve", "--algo", "greedy", "--input", "inst.json", "--output", "out.json"),
         "truckdrone.solvers"),
        (("check-proper", "--input", "inst.json"), "truckdrone.proper"),
        (("gen", "random", "--n", "5", "--out", "gen.json"), "truckdrone.generators"),
    ])
    def test_a_command_loads_the_module_it_calls(self, solved, argv, module):
        seen = run_entry(solved, *argv)
        assert seen["code"] == 0 and module in seen["loaded"]


class TestCollector:
    def test_the_entry_freezes_start_up_and_leaves_the_collector_on(self, solved):
        seen = run_entry(solved, "solve", "--algo", "exact", "--input", "inst.json",
                         "--max-points", "3")
        assert seen["code"] == 1  # a refusal still returns through the entry
        assert seen["enabled"] and seen["frozen"] > 0

    def test_importing_the_package_leaves_the_collector_alone(self):
        out = child("import gc\n"
                    "import truckdrone, truckdrone.cli, truckdrone.__main__\n"
                    "truckdrone.solve_sweep\n"
                    "print(gc.isenabled(), gc.get_freeze_count())")
        assert out.split() == ["True", "0"]

    @pytest.mark.parametrize("argv", [
        ("verify", "--instance", "inst.json", "--schedule", "sched.json"),
        ("compare", "--json", "--algos", "greedy,dp,exact", "--input", "inst.json"),
        ("solve", "--algo", "dp", "--input", "missing.json"),
    ])
    def test_in_process_main_leaves_the_collector_alone(self, solved, argv, monkeypatch):
        monkeypatch.chdir(solved)
        frozen = gc.get_freeze_count()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main(list(argv))
        assert gc.isenabled() and gc.get_freeze_count() == frozen


def test_the_console_script_is_the_program_entry():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["truckdrone"]
    module, attr = target.split(":")
    from truckdrone.__main__ import run
    assert getattr(importlib.import_module(module), attr) is run
