"""Read the benchmark's peak_rss_mib for two checkouts at checkout paths of
25 lengths, and count the lengths where the new one reads high.

    python tools/rss_paths.py OLD_TREE NEW_TREE

OLD_TREE and NEW_TREE are checkouts: directories that hold `src/` and
`perfbench/`.  For each path length from 21 to 45 characters, each tree's
`src/` and `perfbench/` are copied to one temporary checkout of that length
in turn, and run there as

    perfbench/run.py --workload W --seed 7 --seconds 1 --trace 0

for W in proper-dp and band-check, with PYTHONDONTWRITEBYTECODE=1.  The
reading moves with the checkout path and with the bytes of the code that
is imported, not only with the work the items do, so one path says little.
Both trees run at the same path, one after the other.  Prints each tree's
readings per workload, marks the lengths where NEW reads more than 15%
above OLD (the metric's bound in BENCHMARK.json) and counts them.  The
copies are deleted.  The 100 runs take five to ten minutes.  Exit status: 0
when every run printed `correct: true`, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

LENGTHS = range(21, 46)
WORKLOADS = ("proper-dp", "band-check")
BOUND = 0.15


@contextlib.contextmanager
def checkout(tree: str, length: int):
    """A copy of the tree's src/ and perfbench/ at a path of `length` characters."""
    base = os.path.realpath(tempfile.mkdtemp(prefix="rss_"))  # as the run's getcwd sees it
    try:
        if len(base) + 2 > length:
            raise ValueError(f"temporary directory {base} is too long for a path of {length}")
        path = os.path.join(base, "c" * (length - len(base) - 1))
        skip = shutil.ignore_patterns("__pycache__")
        for part in ("src", "perfbench"):
            shutil.copytree(os.path.join(tree, part), os.path.join(path, part), ignore=skip)
        yield path
    finally:
        shutil.rmtree(base)


def reading(path: str, workload: str) -> tuple[float, bool]:
    """(peak_rss_mib, correct) of one short bench run in the checkout at path."""
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", "0"],
        cwd=path, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, text=True)
    lines = res.stdout.splitlines()
    if not lines:
        raise RuntimeError(f"{workload} printed nothing: {res.stderr.strip()}")
    out = json.loads(lines[-1])
    return out["metrics"]["peak_rss_mib"]["value"], out["correct"]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    trees = [os.path.abspath(t) for t in argv]
    rows = {w: [] for w in WORKLOADS}  # per workload, (length, old, new)
    correct = True
    for length in LENGTHS:
        readings = []
        for tree in trees:
            with checkout(tree, length) as path:
                readings.append([reading(path, w) for w in WORKLOADS])
        for k, w in enumerate(WORKLOADS):
            (old, ok_old), (new, ok_new) = readings[0][k], readings[1][k]
            rows[w].append((length, old, new))
            correct = correct and ok_old and ok_new
    for w, table in rows.items():
        print(f"{w}: peak_rss_mib by checkout path length")
        print("  length  old     new")
        high = 0
        for length, old, new in table:
            mark = new > old * (1.0 + BOUND)
            high += mark
            print(f"  {length:<6d}  {old:.3f}   {new:.3f}{'  high' if mark else ''}")
        print(f"  NEW reads more than {BOUND:.0%} above OLD at {high} of {len(table)} lengths")
    if not correct:
        print("a run printed correct: false", file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
