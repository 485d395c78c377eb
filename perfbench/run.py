"""truckdrone benchmark.

    python3 perfbench/run.py --workload proper-dp --seed 0 --seconds 25 --trace 0

Run it from the root of a checkout; it imports the package from ./src.
`--workload all` runs the four workloads one after the other.  With
`--trace 0` it prints the end-to-end metrics, with `--trace 1` the per-layer
metrics of a traced run.  The last line of standard output is a JSON
object {"correct", "attempted", "failed", "metrics"}; the exit code is 1
when any output was wrong.  See perfbench/README.md.

The same file is started again with a hidden `--role`: `setup` makes the
workload's inputs and `measure` runs the items, each in a fresh interpreter,
so set-up time includes interpreter start and imports.  Times are user plus
system CPU seconds of the processes doing the work, children included,
divided by the host slow-down that calibration.py measures around each of
them.  The README says why.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import calibration
from metrics import (END_TO_END, PER_LAYER, TAIL_BEYOND, Tally, end_to_end,
                     in_reference_seconds, per_layer)

WORKLOAD_NAMES = ("proper-dp", "band-greedy", "band-check", "cli-small")
SETUP_REPEATS = 3
MIN_ITEMS = TAIL_BEYOND + 1   # so that item_s.tail always exists
MIN_TRACED_PAIRS = 3
OVERRUN_S = 60                # hard stop past --seconds if items keep failing
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SELF = os.path.abspath(__file__)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="truckdrone benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "measure"), help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.role == "setup":
        return role_setup(args)
    if args.role == "measure":
        return role_measure(args)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "truckdrone", "__init__.py")):
        print("error: no src/truckdrone here; run from the root of a truckdrone checkout",
              file=sys.stderr)
        return 2
    host = environment()
    host["pinned_cpu"] = pin_to_current_cpu()
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    correct = [run_workload(name, args, src, host) for name in names]
    return 0 if all(correct) else 1


# --- orchestrator -------------------------------------------------------------


def run_workload(name: str, args, src: str, host: dict) -> bool:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    workdir = os.path.join(os.getcwd(), ".perfbench_work", f"{name}-{args.seed}-{os.getpid()}")
    os.makedirs(os.path.join(workdir, "traces"))
    cmd = [sys.executable, SELF, "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", workdir]
    try:
        setup = {"setup_times": [], "setup_slowdowns": []}
        for _ in range(SETUP_REPEATS):
            slow = calibration.slowdown(cpu_seconds)
            t0 = cpu_seconds()
            subprocess.run(cmd + ["--role", "setup"], env=env, check=True, timeout=60)
            setup["setup_times"].append(cpu_seconds() - t0)
            slow += calibration.slowdown(cpu_seconds)
            setup["setup_slowdowns"].append(slow / 2)
        subprocess.run(cmd + ["--role", "measure"], env=env, check=True,
                       timeout=args.seconds + OVERRUN_S + 60)
        manifest = _load(os.path.join(workdir, "manifest.json"))
        res = _load(os.path.join(workdir, "result.json"))
        traces = {os.path.basename(p): _load(p)
                  for p in sorted(glob.glob(os.path.join(workdir, "traces", "*.json")))}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    res.update(setup)
    return report(name, args, manifest, res, traces, dict(host, numpy=res["numpy"]))


def report(name, args, manifest, res, traces, env) -> bool:
    print(f"{name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}: "
          f"{res['attempted']} attempted, {res['failed']} failed, {res['refused']} refused")
    print("  env " + json.dumps(env, sort_keys=True))
    for msg in manifest["generation_failures"]:
        print(f"  generation failure: {msg}")
    if res["wrong"]:
        print(f"  WRONG OUTPUT: {res['wrong']}")

    notes: dict = {}
    values: dict = {}
    if args.trace:
        units = dict(PER_LAYER)
        setup = [t for n, t in traces.items() if n == "setup.json"]
        items = [t for n, t in traces.items() if n != "setup.json"]
        if res["traced_items"]:
            values = per_layer(items, setup, res["traced_items"], res["overhead_s"])
    else:
        units = dict(END_TO_END)
        if len(res["item_times"]) >= MIN_ITEMS:
            values, notes = end_to_end(
                in_reference_seconds(res["setup_times"], res["setup_slowdowns"]),
                in_reference_seconds(res["item_times"], res["item_slowdowns"]),
                res["peak_rss_mib"], res["attempted"], res["failed"])
    for metric, value in values.items():
        print(f"  {metric:34s} {value:<14.6g} {units[metric]}")
    if notes:
        print(f"  {'error_rate':34s} {notes['error_rate']:<14.6g} ratio "
              f"(failed / attempted)")
        print(f"  item_s.tail is p{notes['tail_percentile']} of {notes['timed_items']} timed "
              f"items; setup_s is the median of {len(res['setup_times'])} set-ups")
        print(f"  times are CPU seconds over the host slow-down (median "
              f"{statistics.median(res['item_slowdowns']):.4g}); raw medians: item CPU "
              f"{statistics.median(res['item_times']):.6g} s, item wall "
              f"{statistics.median(res['item_wall_times']):.6g} s, set-up CPU "
              f"{statistics.median(res['setup_times']):.6g} s")

    out_dir = os.path.join(os.getcwd(), ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{name}-seed{args.seed}-trace{args.trace}.json"), "w") as f:
        json.dump({"workload": name, "seed": args.seed, "seconds": args.seconds,
                   "env": env, "notes": notes, "metrics": values,
                   "generation_failures": manifest["generation_failures"], **res}, f, indent=1)
    if args.trace:
        with open(os.path.join(out_dir, f"{name}-seed{args.seed}-spans.json"), "w") as f:
            json.dump(traces, f)

    correct = res["wrong"] is None
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
    }))
    sys.stdout.flush()
    return correct


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "thread_env": THREAD_ENV,
    }


def _load(path: str):
    with open(path) as f:
        return json.load(f)


# --- child processes ----------------------------------------------------------


def role_setup(args) -> int:
    from tracing import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]()
    if args.trace:
        tracer = Tracer()
        manifest = tracer.run(-1, wl.setup, args.workdir, args.seed)
        tracer.dump(os.path.join(args.workdir, "traces", "setup.json"))
    else:
        manifest = wl.setup(args.workdir, args.seed)
    with open(os.path.join(args.workdir, "manifest.json"), "w") as f:
        json.dump(manifest, f)
    return 0


def role_measure(args) -> int:
    import numpy

    from checks import WrongOutput
    from tracing import Tracer
    from truckdrone.proper import NotProperError
    from workloads import WORKLOADS

    with open(os.path.join(args.workdir, "manifest.json")) as f:
        manifest = json.load(f)
    wl = WORKLOADS[args.workload]()
    wl.load(manifest, args.workdir, args.seed)
    rss_base = _status_kib("VmRSS")
    tally = Tally(len(manifest["generation_failures"]))
    res = {"wrong": None, "traced_items": 0, "overhead_s": None, "numpy": numpy.__version__}

    def attempt(run, i):
        """Run and check item i; its (CPU s, wall s, host slow-down), or None if it failed."""
        slow = calibration.slowdown(cpu_seconds)
        c0, w0 = cpu_seconds(), time.perf_counter()
        try:
            out = run(i)
        except NotProperError:
            out = None
        except WrongOutput:
            raise
        except Exception as e:  # a failing item is counted and the run goes on
            tally.record("failed")
            print(f"{args.workload}: item {i} failed: {e!r}", file=sys.stderr)
            return None
        cpu, wall = cpu_seconds() - c0, time.perf_counter() - w0
        slow = (slow + calibration.slowdown(cpu_seconds)) / 2
        tally.record("refused" if out is None else wl.check(i, out))
        return cpu, wall, slow

    trace_dir = os.path.join(args.workdir, "traces")
    tracer = memory = None
    if args.trace:
        tracer, memory = Tracer(), Tracer(peaks=True)
    plain, traced = [], []
    try:
        attempt(wl.run, 0)  # warm-up: checked, not timed
        start = time.perf_counter()
        deadline, hard_stop = start + args.seconds, start + args.seconds + OVERRUN_S
        enough = MIN_ITEMS if tracer is None else MIN_TRACED_PAIRS
        i = 1
        while time.perf_counter() < hard_stop:
            if time.perf_counter() >= deadline and len(plain) >= enough:
                break
            took = attempt(wl.run, i)
            if tracer is None:
                if took is not None:
                    plain.append(took)
            else:
                res["traced_items"] += 1
                took_traced = attempt(lambda j: wl.run_traced(j, tracer, trace_dir), i)
                if i == 1 and wl.in_process:  # untimed, for the peaks alone
                    attempt(lambda j: wl.run_traced(j, memory, trace_dir), i)
                if took is not None and took_traced is not None:
                    plain.append(took)
                    traced.append(took_traced)
            i += 1
    except WrongOutput as e:
        tally.record("wrong")
        res["wrong"] = str(e)

    res.update(attempted=tally.attempted, failed=tally.failed, refused=tally.refused,
               item_times=[t[0] for t in plain], item_wall_times=[t[1] for t in plain],
               item_slowdowns=[t[2] for t in plain])
    if traced:
        res["overhead_s"] = (statistics.median(cpu / slow for cpu, _, slow in traced)
                             - statistics.median(cpu / slow for cpu, _, slow in plain))
    if tracer is not None:
        tracer.peaks = memory.peaks
        tracer.dump(os.path.join(trace_dir, "measure.json"))
    if wl.in_process:
        res["peak_rss_mib"] = (_status_kib("VmHWM") - rss_base) / 1024
    else:
        res["peak_rss_mib"] = wl.peak_rss_kib / 1024
    with open(os.path.join(args.workdir, "result.json"), "w") as f:
        json.dump(res, f)
    return 0


def pin_to_current_cpu() -> int:
    """Keep this process and all it starts on one CPU, so that the calibration
    kernel and the work it calibrates run on the same one: the CPUs of a
    shared virtual machine slow down independently of each other."""
    with open("/proc/self/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    cpu = int(fields[36])  # field 39, "processor"
    os.sched_setaffinity(0, {cpu})
    return cpu


def cpu_seconds() -> float:
    """User plus system CPU time of this process and its finished children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _status_kib(field: str) -> int:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise KeyError(field)


if __name__ == "__main__":
    sys.exit(main())
