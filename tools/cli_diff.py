"""Run one fixed corpus of truckdrone CLI commands under two source trees
and report every difference in stdout, stderr, exit code or written file.

    python tools/cli_diff.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold the `truckdrone` package
(a checkout's `src/`).  Each tree runs the whole corpus in order in its own
temporary directory, with PYTHONPATH set to the tree, so later commands
read the files earlier ones wrote: instances from `gen`, schedules from
`solve`.  The corpus covers `gen` of every kind over several seeds, `solve`
with greedy and dp (on up to 5,000 points, some out of band) and exact,
`verify` and `check-proper` on good and malformed files, `compare --json`
and `render` with every flag pair, and instances on both sides of the
numeric domain's bounds: a point exactly at the scale 2**40 * R / v and
one an ulp past it, and files at the edges of double precision (a band that
underflows to 0, flights that would overflow to inf or NaN, a point at the
largest double), which every command refuses at load, a launch that
waits for its window and lands exactly on the next window's closing, and
a truck that starts past the windows of its first points.

Before comparing, the temporary directory reads `<work>`, the tree's own
path `<src>`, and every `wall_s` value `<wall_s>`.  Exit status: 0 when
the two trees agree on every command, 1 when any differs.
"""

from __future__ import annotations

import difflib
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

SEEDS = (0, 1, 2)
FLAG_PAIRS = ((), ("--show-windows",), ("--show-ellipses",),
              ("--show-windows", "--show-ellipses"))


def _lifted_band(n: int = 150, seed: int = 0) -> str:
    """n points over [0, n] x the band of v = 2, R = 10, every third lifted out of it."""
    rng, m = random.Random(seed), 2.5 * 3 ** 0.5
    points = []
    for i in range(n):
        y = rng.uniform(1.1, 3.0) * m if i % 3 == 0 else rng.uniform(0.05, 0.95) * m
        points.append({"x": rng.uniform(0.0, n), "y": y if rng.random() < 0.5 else -y})
    return json.dumps({"v": 2.0, "R": 10.0, "points": points})


# files written before the corpus runs, the same for both trees
FIXED_FILES = {
    "bad_json.json": "{not json",
    "missing_R.json": '{"v": 2.0, "points": []}',
    "nan.json": '{"v": 2.0, "R": 10.0, "points": [{"x": NaN, "y": 1.0}]}',
    "on_axis.json": '{"v": 2.0, "R": 10.0, "points": [{"x": 1.0, "y": 0.0}]}',
    "far.json": ('{"v": 2.0, "R": 10.0, "points": [{"x": 1.0, "y": 1e200}, '
                 '{"x": 5.0, "y": 2.0}, {"x": 9.0, "y": -1e300}]}'),
    "empty.json": '{"v": 2.0, "R": 10.0, "points": []}',
    "sched_bad_index.json": ('{"deliveries": [{"point": 99, "start": 0.0, "return": 1.0}], '
                             '"count": 1}'),
    "sched_bad_count.json": ('{"deliveries": [{"point": 0, "start": 0.0, "return": 1.0}], '
                             '"count": 2}'),
    "sched_late.json": ('{"deliveries": [{"point": 1, "start": 40.0, "return": 41.0}], '
                        '"count": 1}'),
    # a point far out of a band so thin that the picture's scale is huge
    "huge_scale.json": '{"v": 2, "R": 1e-300, "points": [{"x": 0.0, "y": 1e10}]}',
    # a point in a band so thin that m * m underflows to 0
    "thin_band.json": '{"v": 2, "R": 1e-300, "points": [{"x": 0.0, "y": 1e-301}]}',
    # an integer just past the float range, which would round to the largest double
    "int_past_range.json": ('{"v": 2.0, "R": 10.0, "points": [{"x": %d, "y": 1.0}, '
                            '{"x": 2.0, "y": 1.0}]}' % (int(sys.float_info.max) + 1)),
    # out-of-band columns in a DP table of several column blocks
    "lifted150.json": _lifted_band(),
    # a drone so fast that 2v and v * v overflow: the band's half-height is NaN
    "nan_return.json": ('{"v": 1.7976931348623157e308, "R": 10.0, "points": '
                        '[{"x": 0.0, "y": 1.0}, {"x": 3.0, "y": -2.0}]}'),
    # a range so large that the flight's squares overflow: a landing at inf
    "inf_return.json": ('{"v": 2.0, "R": 1e300, "points": [{"x": 0.0, "y": 1e200}, '
                        '{"x": 5e299, "y": -3e299}]}'),
    # a point at the largest double, where verify's slack overflows
    "max_x.json": ('{"v": 2.0, "R": 10.0, "points": [{"x": 1.7976931348623157e308, "y": 1.0}, '
                   '{"x": 2.0, "y": 1.0}]}'),
    # a range so small that the band's half-height underflows to 0
    "tiny_R.json": '{"v": 2.0, "R": 5e-324, "points": [{"x": 0.0, "y": 1.0}]}',
    # a drone so fast that v * a overflows: dp and exact land at NaN
    "fast_drone.json": ('{"v": 8e307, "R": 10.0, "points": [{"x": 0.0, "y": 1.0}, '
                        '{"x": 3.0, "y": -2.0}]}'),
    # the scale exactly at the domain's bound 2**40 * R / v, and an ulp past it
    "domain_edge.json": ('{"v": 2.0, "R": 10.0, "points": [{"x": 5497558138876.0, "y": 1.0}, '
                         '{"x": 5497558138880.0, "y": -2.0}]}'),
    "past_domain_edge.json": ('{"v": 2.0, "R": 10.0, "points": [{"x": 5497558138876.0, '
                              '"y": 1.0}, {"x": 5497558138880.001, "y": -2.0}]}'),
    # a launch that waits for its window lands at er, exactly the next window's ls
    "waiting_launch.json": ('{"v": 2.0, "R": 3.503562197968246e18, "truck_start": '
                            '-3.503562197968246e18, "points": [{"x": 0.0, "y": 1.0}, '
                            '{"x": -1.0, "y": 1.5170869335896727e18}]}'),
    # a truck that starts past the windows of its first three points
    "late_start.json": ('{"v": 2.0, "R": 10.0, "truck_start": 5.0, "points": [{"x": 0.0, '
                        '"y": 1.0}, {"x": 1.0, "y": -2.0}, {"x": 2.0, "y": 3.0}, {"x": 3.0, '
                        '"y": 1.0}, {"x": 9.0, "y": 1.5}, {"x": 12.0, "y": -2.5}, {"x": 14.0, '
                        '"y": 3.5}, {"x": 16.0, "y": 5.0}, {"x": 20.0, "y": 1.0}]}'),
}


def _instance_commands(name: str, proper: bool, max_points: int = 10) -> list[tuple[str, ...]]:
    """Solve, verify, check, compare and render one instance file."""
    inst = f"{name}.json"
    budget = ("--max-points", str(max_points))
    cmds: list[tuple[str, ...]] = [
        ("solve", "--algo", "greedy", "--input", inst, "--output", f"{name}.greedy.json"),
        ("solve", "--algo", "dp", "--input", inst, "--output", f"{name}.dp.json"),
        ("solve", "--algo", "exact", "--input", inst, "--output", f"{name}.exact.json", *budget),
    ]
    if not proper:
        cmds.append(("solve", "--algo", "dp", "--allow-nonproper", "--input", inst,
                     "--output", f"{name}.dp.json"))
    for algo in ("greedy", "dp", "exact"):
        cmds.append(("verify", "--instance", inst, "--schedule", f"{name}.{algo}.json"))
    cmds.append(("check-proper", "--input", inst))
    cmds.append(("compare", "--json", "--input", inst, "--algos", "greedy,dp,exact", *budget))
    cmds.append(("render", "--instance", inst))
    for flags in FLAG_PAIRS:
        cmds.append(("render", "--instance", inst, "--schedule", f"{name}.greedy.json", *flags))
    cmds.append(("render", "--instance", inst, "--schedule", f"{name}.exact.json",
                 "--show-windows", "--show-ellipses", "--out", f"{name}.svg"))
    return cmds


def corpus() -> list[tuple[str, ...]]:
    """The commands, in order; each is the argument list after `truckdrone`."""
    cmds: list[tuple[str, ...]] = []
    for seed in SEEDS:
        s = str(seed)
        for name, gen, proper in (
                (f"band6_{s}", ("random", "--n", "6"), False),
                (f"band10_{s}", ("random", "--n", "10", "--x-span", "20"), False),
                (f"proper9_{s}", ("random-proper", "--n", "9", "--v", "1.5", "--R", "6"), True),
                (f"band40_{s}", ("random", "--n", "40", "--v", "3", "--R", "7",
                                 "--x-span", "120"), False)):
            cmds.append(("gen", *gen, "--seed", s, "--out", f"{name}.json"))
            cmds += _instance_commands(name, proper)
    for name, values in (("part3", "1,1,1"), ("part6", "1,2,3,2,2,2")):
        cmds.append(("gen", "partition", "--values", values, "--out", f"{name}.json"))
        cmds += _instance_commands(name, False, max_points=14)
    for name, k, v, R in (("adv2", "2", "2", "10"), ("adv6", "6", "3", "9")):
        cmds.append(("gen", "adversarial", "--k", k, "--v", v, "--R", R, "--out", f"{name}.json"))
        cmds += _instance_commands(name, False, max_points=12)
    cmds.append(("gen", "adversarial", "--k", "1", "--v", "1.0000000000000002"))
    cmds.append(("gen", "adversarial", "--k", "0"))
    cmds.append(("gen", "partition", "--values", "1,1"))
    cmds.append(("gen", "random", "--n", "5", "--seed", "4"))  # to stdout
    # a DP table of 150 ranks spans several column blocks; too large for exact
    cmds.append(("gen", "random-proper", "--n", "150", "--seed", "5", "--out", "proper150.json"))
    cmds += [("solve", "--algo", "dp", "--input", "proper150.json", "--output", "proper150.dp.json"),
             ("verify", "--instance", "proper150.json", "--schedule", "proper150.dp.json"),
             ("compare", "--json", "--input", "proper150.json", "--algos", "greedy,dp")]
    # 1,000 proper points: generation at a size with many rejected candidates
    cmds.append(("gen", "random-proper", "--n", "1000", "--seed", "1", "--out", "proper1000.json"))
    cmds += [("check-proper", "--input", "proper1000.json"),
             ("solve", "--algo", "greedy", "--input", "proper1000.json",
              "--output", "proper1000.greedy.json"),
             ("solve", "--algo", "dp", "--input", "proper1000.json",
              "--output", "proper1000.dp.json"),
             ("compare", "--json", "--input", "proper1000.json", "--algos", "greedy,dp")]
    # 5,000 band points: the column reader and the schedule writer at size
    cmds.append(("gen", "random", "--n", "5000", "--x-span", "10000", "--seed", "2",
                 "--out", "band5000.json"))
    cmds += [("solve", "--algo", "greedy", "--input", "band5000.json",
              "--output", "band5000.greedy.json"),
             ("verify", "--instance", "band5000.json", "--schedule", "band5000.greedy.json"),
             ("solve", "--algo", "dp", "--allow-nonproper", "--input", "band5000.json",
              "--output", "band5000.dp.json")]
    cmds += [("solve", "--algo", "dp", "--allow-nonproper", "--input", "lifted150.json",
              "--output", "lifted150.dp.json"),
             ("verify", "--instance", "lifted150.json", "--schedule", "lifted150.dp.json"),
             ("compare", "--json", "--input", "lifted150.json", "--algos", "greedy,dp")]
    # a triple sum, and a spacing n**-(c+2), past the float range
    cmds.append(("gen", "partition", "--values", ",".join(["1" + "0" * 310] * 3)))
    cmds.append(("gen", "partition", "--c", "-100000"))
    for name in ("far", "empty", "huge_scale", "thin_band", "nan_return", "inf_return", "max_x",
                 "tiny_R", "fast_drone", "domain_edge", "past_domain_edge", "waiting_launch",
                 "late_start"):
        cmds += _instance_commands(name, False)
    for bad in ("bad_json", "missing_R", "nan", "on_axis", "int_past_range", "no_such_file"):
        cmds.append(("solve", "--algo", "greedy", "--input", f"{bad}.json"))
        cmds.append(("check-proper", "--input", f"{bad}.json"))
    for sched in ("sched_bad_index", "sched_bad_count", "sched_late", "bad_json"):
        cmds.append(("verify", "--instance", "band6_0.json", "--schedule", f"{sched}.json"))
        cmds.append(("render", "--instance", "band6_0.json", "--schedule", f"{sched}.json"))
    return cmds


def _snapshot(work: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in work.iterdir() if p.is_file()}


def run_corpus(src: str, commands) -> list[tuple[int, str, str, dict[str, str]]]:
    """(exit code, stdout, stderr, files written) per command, normalised."""
    src = str(Path(src).resolve())
    env = dict(os.environ, PYTHONPATH=src)
    results = []
    with tempfile.TemporaryDirectory(prefix="cli_diff_") as tmp:
        work = Path(tmp)
        for name, text in FIXED_FILES.items():
            (work / name).write_text(text)

        def norm(text: str) -> str:
            text = text.replace(str(work), "<work>").replace(src, "<src>")
            return re.sub(r'("wall_s": )[^,\n}]+', r'\1"<wall_s>"', text)

        for args in commands:
            before = _snapshot(work)
            res = subprocess.run([sys.executable, "-m", "truckdrone", *args], cwd=work,
                                 env=env, capture_output=True, text=True)
            written = {name: norm(data.decode(errors="replace"))
                       for name, data in _snapshot(work).items() if before.get(name) != data}
            results.append((res.returncode, norm(res.stdout), norm(res.stderr), written))
    return results


def _diff(label: str, old: str, new: str) -> str:
    lines = difflib.unified_diff(old.splitlines(), new.splitlines(), f"old {label}",
                                 f"new {label}", lineterm="", n=1)
    return "\n".join(list(lines)[:40])


def differences(commands, old_results, new_results) -> list[str]:
    """One report per command whose results differ between the trees."""
    reports = []
    for args, old, new in zip(commands, old_results, new_results):
        if old == new:
            continue
        parts = [f"$ truckdrone {' '.join(args)}"]
        if old[0] != new[0]:
            parts.append(f"exit code {old[0]} -> {new[0]}")
        for label, a, b in (("stdout", old[1], new[1]), ("stderr", old[2], new[2])):
            if a != b:
                parts.append(_diff(label, a, b))
        for name in sorted(set(old[3]) | set(new[3])):
            a, b = old[3].get(name), new[3].get(name)
            if a != b:
                parts.append(_diff(name, a or "(not written)\n", b or "(not written)\n"))
        reports.append("\n".join(parts))
    return reports


def compare_trees(old_src: str, new_src: str, commands) -> list[str]:
    """Run the commands under both trees, side by side, and diff the results."""
    with ThreadPoolExecutor(max_workers=2) as pool:
        old, new = pool.map(lambda src: run_corpus(src, commands), (old_src, new_src))
    return differences(commands, old, new)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    commands = corpus()
    reports = compare_trees(argv[0], argv[1], commands)
    for report in reports:
        print(report, end="\n\n")
    print(f"{len(commands)} commands, {len(reports)} differ", file=sys.stderr)
    return 1 if reports else 0


if __name__ == "__main__":
    sys.exit(main())
