"""The four workloads: how each makes its inputs, answers one item, and checks it.

Every call into truckdrone goes through a module attribute (`solvers.solve_greedy`,
not a name imported from it), so the tracer's wrappers are the ones called.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from truckdrone import cli, generators, model, proper, render, solvers

from checks import (WrongOutput, check_dp_count, check_feasible, check_rewrite,
                    check_same_render)

V, R = 2.0, 10.0   # the CLI's default drone speed and range
POOL = 8           # distinct inputs made at set-up; items cycle through them
CLI_CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")


class ItemFailed(RuntimeError):
    """A command exited with a code that is neither success nor an expected refusal."""


def input_seed(seed: int, k: int) -> int:
    return seed * 1000 + k


def _read(path: str) -> str:
    with open(path) as f:
        return f.read()


def _write(path: str, text: str) -> None:
    with open(path, "w") as f:
        f.write(text)


class PoolWorkload:
    """In-process workload over POOL generated instance files."""

    in_process = True

    def generate(self, seed: int):
        raise NotImplementedError

    def setup(self, workdir: str, seed: int) -> dict:
        paths, failures = [], []
        for k in range(POOL):
            try:
                inst = self.generate(input_seed(seed, k))
            except generators.GenerationError as e:
                failures.append(f"input {k} (seed {input_seed(seed, k)}): {e}")
                continue
            path = os.path.join(workdir, f"input-{k}.json")
            _write(path, cli.instance_to_json(inst))
            paths.append(path)
        return {"inputs": paths, "generation_failures": failures}

    def load(self, manifest: dict, workdir: str, seed: int) -> None:
        self.paths = manifest["inputs"]
        if not self.paths:
            raise RuntimeError("no input could be generated")
        self.insts = [cli.load_instance(p) for p in self.paths]

    def run_traced(self, i: int, tracer, trace_dir: str):
        return tracer.run(i, self.run, i)


class ProperDp(PoolWorkload):
    """The paper's question on proper instances: exact DP against greedy."""

    n = 200

    def generate(self, seed):
        return generators.gen_random_proper(self.n, V, R, seed)

    def run(self, i):
        inst = self.insts[i % len(self.insts)]
        dp = solvers.solve_dp_proper(inst)
        greedy = solvers.solve_greedy(inst)
        return (dp, greedy, model.verify_schedule(inst, dp),
                model.verify_schedule(inst, greedy))

    def check(self, i, out) -> str:
        dp, greedy, dp_report, greedy_report = out
        check_feasible(dp_report, "dp schedule")
        check_feasible(greedy_report, "greedy schedule")
        check_dp_count(dp.count, greedy.count)
        return "ok"


class BandGreedy(PoolWorkload):
    """Large-n heuristic path: instance file in, greedy schedule file out."""

    n = 8000

    def generate(self, seed):
        return generators.gen_random_band(self.n, V, R, 2.0 * self.n, seed)

    def load(self, manifest, workdir, seed):
        super().load(manifest, workdir, seed)
        self.first_output: dict[int, str] = {}

    def run(self, i):
        k = i % len(self.paths)
        inst = cli.load_instance(self.paths[k])
        sched = solvers.solve_greedy(inst)
        report = model.verify_schedule(inst, sched)
        text = cli.schedule_to_json(sched)
        out_path = self.paths[k][:-len(".json")] + ".schedule.json"
        _write(out_path, text)
        return k, inst, report, text, out_path

    def check(self, i, out) -> str:
        k, inst, report, text, out_path = out
        check_feasible(report, "greedy schedule")
        if k not in self.first_output:
            check_rewrite(_read(self.paths[k]), cli.instance_to_json(inst), "instance file")
            check_rewrite(text, cli.schedule_to_json(cli.load_schedule(out_path)),
                          "schedule file")
            self.first_output[k] = text
        check_rewrite(self.first_output[k], text, "schedule file of a repeated input")
        return "ok"


def properness_report(report) -> dict:
    """The JSON document `truckdrone check-proper` prints."""
    return {
        "is_proper": report.is_proper,
        "triangle_violations": [list(p) for p in report.triangle_violations],
        "nesting_violations": [list(p) for p in report.nesting_violations],
        "out_of_band": list(report.out_of_band),
    }


class BandCheck(PoolWorkload):
    """"Does the DP apply?" on arbitrary instances, then the greedy fallback."""

    n = 3000

    def generate(self, seed):
        return generators.gen_random_band(self.n, V, R, 2.0 * self.n, seed)

    def run(self, i):
        inst = self.insts[i % len(self.insts)]
        text = cli.emit_json(properness_report(proper.check_proper(inst)))
        sched = solvers.solve_greedy(inst)
        return text, model.verify_schedule(inst, sched)

    def check(self, i, out) -> str:
        text, report = out
        check_feasible(report, "greedy schedule")
        check_rewrite(text, cli.emit_json(json.loads(text)), "properness report")
        return "ok"


class CliSmall:
    """One client in a closed loop over the CLI, one subprocess per command.

    Each command runs through cli_child.py, which behaves as
    `python3 -m truckdrone` and reports its own peak RSS.
    """

    in_process = False

    def setup(self, workdir, seed):
        # the CLI commands generate their own inputs inside each item
        return {"inputs": [], "generation_failures": []}

    def load(self, manifest, workdir, seed):
        self.seed = seed
        self.rss_file = os.path.join(workdir, "child-rss")
        self.peak_rss_kib = 0
        self.files = {name: os.path.join(workdir, name)
                      for name in ("band.json", "band.schedule.json", "proper.json", "band.svg")}

    def commands(self, i):
        s = str(input_seed(self.seed, i))
        f = self.files
        return [
            ["gen", "random", "--n", "14", "--seed", s, "--out", f["band.json"]],
            ["solve", "--algo", "exact", "--max-points", "14", "--input", f["band.json"],
             "--output", f["band.schedule.json"]],
            ["verify", "--instance", f["band.json"], "--schedule", f["band.schedule.json"]],
            ["gen", "random-proper", "--n", "10", "--seed", s, "--out", f["proper.json"]],
            ["compare", "--input", f["proper.json"], "--algos", "greedy,dp,exact", "--json"],
            ["render", "--instance", f["band.json"], "--schedule", f["band.schedule.json"],
             "--show-windows", "--show-ellipses", "--out", f["band.svg"]],
        ]

    def run(self, i, trace_dir=None):
        stdouts = []
        for k, argv in enumerate(self.commands(i)):
            env = dict(os.environ, PERFBENCH_RSS_OUT=self.rss_file)
            if trace_dir is not None:
                env["PERFBENCH_TRACE_OUT"] = os.path.join(trace_dir, f"cli-{i}-{k}.json")
                env["PERFBENCH_ITEM"] = str(i)
            proc = subprocess.run([sys.executable, CLI_CHILD, *argv], capture_output=True,
                                  text=True, env=env, timeout=60)
            if proc.returncode != 0:
                if argv[0] == "verify" and proc.returncode == 1:
                    raise WrongOutput(f"verify rejects the exact schedule: {proc.stdout}")
                raise ItemFailed(f"{' '.join(argv[:2])} exited {proc.returncode}: "
                                 f"{proc.stderr.strip()[-300:]}")
            self.peak_rss_kib = max(self.peak_rss_kib, int(_read(self.rss_file)))
            stdouts.append(proc.stdout)
        return stdouts

    def run_traced(self, i, tracer, trace_dir):
        return self.run(i, trace_dir)

    def check(self, i, stdouts) -> str:
        f = self.files
        verdict, rows = json.loads(stdouts[2]), json.loads(stdouts[4])["rows"]
        for text in (stdouts[2], stdouts[4]):
            check_rewrite(text, cli.emit_json(json.loads(text)), "command output")
        if verdict["feasible"] is not True:
            raise WrongOutput(f"verify reports the exact schedule infeasible: {verdict}")
        band = cli.load_instance(f["band.json"])
        sched = cli.load_schedule(f["band.schedule.json"])
        check_rewrite(_read(f["band.json"]), cli.instance_to_json(band), "instance file")
        check_rewrite(_read(f["proper.json"]),
                      cli.instance_to_json(cli.load_instance(f["proper.json"])), "instance file")
        check_rewrite(_read(f["band.schedule.json"]), cli.schedule_to_json(sched),
                      "schedule file")
        check_same_render(_read(f["band.svg"]),
                          render.render_svg(band, sched, show_windows=True, show_ellipses=True))
        counts = {row["algo"]: row["count"] for row in rows}
        if any(row["note"] for row in rows):
            return "refused"
        check_dp_count(counts["dp"], counts["greedy"], counts["exact"])
        return "ok"


WORKLOADS = {
    "proper-dp": ProperDp,
    "band-greedy": BandGreedy,
    "band-check": BandCheck,
    "cli-small": CliSmall,
}
