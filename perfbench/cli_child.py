"""`python3 perfbench/cli_child.py <truckdrone args>`: one command of cli-small.

It runs truckdrone's CLI the way `python3 -m truckdrone` does. When the
command ends, it writes the peak RSS of its own address space (VmHWM, KiB)
to $PERFBENCH_RSS_OUT. The parent cannot get that from getrusage, because
a child's ru_maxrss also counts the parent's pages that it shared until exec.

With $PERFBENCH_TRACE_OUT set, the command runs under the tracer instead,
and the spans are written to that path, tagged with item $PERFBENCH_ITEM.
Start-up is split into the interpreter, the numpy import and the truckdrone
import. Like the spans, these are CPU times: the process's CPU clock starts
with the process, so its first reading is the interpreter's own start.
"""

import time

T_MAIN = time.process_time()

import os  # noqa: E402
import sys  # noqa: E402


def traced() -> int:
    import numpy  # noqa: F401
    t_numpy = time.process_time()
    import truckdrone.cli
    t_truckdrone = time.process_time()
    from tracing import Tracer

    # the peak spans see at most ten points here, so tracemalloc costs little
    tracer = Tracer(peaks=True)
    tracer.counts.update({
        "cli.processes": 1,
        "cli.startup.python_s": T_MAIN,
        "cli.startup.numpy_s": t_numpy - T_MAIN,
        "cli.startup.truckdrone_s": t_truckdrone - t_numpy,
    })
    try:
        return tracer.run(int(os.environ["PERFBENCH_ITEM"]), truckdrone.cli.main, sys.argv[1:])
    finally:
        tracer.dump(os.environ["PERFBENCH_TRACE_OUT"])


def main() -> int:
    try:
        if os.environ.get("PERFBENCH_TRACE_OUT"):
            return traced()
        import runpy
        runpy.run_module("truckdrone", run_name="__main__", alter_sys=True)
        return 0
    finally:
        with open("/proc/self/status") as f:
            hwm = next(line.split()[1] for line in f if line.startswith("VmHWM:"))
        with open(os.environ["PERFBENCH_RSS_OUT"], "w") as f:
            f.write(hwm)


if __name__ == "__main__":
    sys.exit(main())
