"""Span tracer that wraps truckdrone's public functions from outside the package.

Each public function defined in a truckdrone module is replaced, for as long
as the tracer is active, at every module attribute that refers to it.  That
is where its callers look it up: `truckdrone.solvers.return_position` (used
by the exact search) and `truckdrone.model.return_position` (used by verify
and pack) are wrapped separately, while both record spans named after the
home module, `geometry.return_position`.

Spans are tuples (item, id, parent, name, start, end) kept in memory and
written out with `dump`.  Their clock is the process's CPU time, which on a
shared virtual machine is far steadier than wall time.  Counters are filled
at the same boundaries.  A tracer made with `peaks=True` also measures peak
allocation with tracemalloc, only inside the spans listed in PEAK_SPANS.
tracemalloc slows those spans by about half, so a timed trace leaves it off
and peaks come from a separate run.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
import tracemalloc
import types
from collections import Counter, defaultdict

LAYERS = ("geometry", "model", "proper", "solvers", "generators", "render", "cli")
PEAK_SPANS = frozenset({"proper.check_proper", "solvers.dp_table"})


def span_name(layer: str, func: str) -> str:
    """`cli.cmd_gen` is reported as the command `cli.gen`; others keep their name."""
    if layer == "cli" and func.startswith("cmd_"):
        return "cli." + func[4:].replace("_", "-")
    return f"{layer}.{func}"


def count_work(counts: Counter, name: str, args, result) -> None:
    """Add the work a finished span did to the counters that measure it."""
    if name == "geometry.return_positions":
        counts["geometry.landings"] += result.size
    elif name == "solvers.dp_table":
        counts["solvers.dp_cells"] += result.completions.size
    elif name == "solvers.solve_greedy":
        counts["solvers.greedy_steps"] += result.count
    elif name == "model.verify_schedule":
        counts["model.verify_schedule.deliveries"] += len(args[1].deliveries)
    elif name == "proper.check_proper":
        in_band = len(args[0].points) - len(result.out_of_band)
        counts["proper.pairs"] += in_band * (in_band - 1)
        counts["proper.violations"] += (
            len(result.triangle_violations) + len(result.nesting_violations))
    elif name == "cli.emit_json":
        counts["cli.json_bytes"] += len(result)
    elif name in ("cli.load_instance", "cli.load_schedule"):
        counts["cli.json_bytes"] += os.path.getsize(args[0])
    elif name == "render.render_svg":
        counts["render.svg_bytes"] += len(result)


# calls counted by lookup site: only the exact search reads return_position
# through the solvers module, so these are the DFS's scalar landings
SITE_COUNTERS = {("solvers", "return_position"): "solvers.exact_nodes"}


class Tracer:
    """Records spans and counters while its wrappers are installed (see `run`)."""

    def __init__(self, peaks: bool = False):
        self.track_peaks = peaks
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.peaks: dict[str, int] = {}
        self.item = -1
        self._stack: list[int] = []
        self._peak_stack: list[list[int]] = []
        self._started_tracemalloc = False
        self._patches = self._build_patches()

    # -- wrapping ------------------------------------------------------------

    def _build_patches(self):
        mods = {layer: importlib.import_module(f"truckdrone.{layer}") for layer in LAYERS}
        home = {}
        for layer, mod in mods.items():
            for attr, val in vars(mod).items():
                if (isinstance(val, types.FunctionType) and not attr.startswith("_")
                        and val.__module__ == mod.__name__):
                    home[val] = span_name(layer, attr)
        sites = dict(mods, truckdrone=importlib.import_module("truckdrone"))
        patches = []
        for site_name, site in sites.items():
            for attr, val in list(vars(site).items()):
                if isinstance(val, types.FunctionType) and val in home:
                    counter = SITE_COUNTERS.get((site_name, attr))
                    patches.append((site, attr, val, self._wrap(val, home[val], counter)))
        return patches

    def _wrap(self, fn, name, site_counter):
        peak = self.track_peaks and name in PEAK_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if site_counter:
                self.counts[site_counter] += 1
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(sid)
            if peak:
                self._peak_enter()
            start = time.process_time()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counts[name + ".raised"] += 1
                raise
            finally:
                end = time.process_time()
                if peak:
                    self._peak_exit(name)
                self._stack.pop()
                self.spans[sid] = (self.item, sid, parent, name, start, end)
            count_work(self.counts, name, args, result)
            return result

        return wrapper

    def install(self) -> None:
        for site, attr, _, wrapper in self._patches:
            setattr(site, attr, wrapper)

    def uninstall(self) -> None:
        for site, attr, orig, _ in reversed(self._patches):
            setattr(site, attr, orig)

    def run(self, item: int, fn, *args):
        """Call fn(*args) with every wrapper installed, spans tagged `item`."""
        self.item = item
        self.install()
        try:
            return fn(*args)
        finally:
            self.uninstall()

    # -- peak allocation -----------------------------------------------------

    def _peak_enter(self) -> None:
        if not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracemalloc = True
        current, peak = tracemalloc.get_traced_memory()
        if self._peak_stack:
            self._peak_stack[-1][1] = max(self._peak_stack[-1][1], peak)
        tracemalloc.reset_peak()
        self._peak_stack.append([current, current])

    def _peak_exit(self, name: str) -> None:
        base, peak = self._peak_stack.pop()
        peak = max(peak, tracemalloc.get_traced_memory()[1])
        self.peaks[name] = max(self.peaks.get(name, 0), peak - base)
        if self._peak_stack:
            self._peak_stack[-1][1] = max(self._peak_stack[-1][1], peak)
        elif self._started_tracemalloc:
            tracemalloc.stop()
            self._started_tracemalloc = False

    # -- output --------------------------------------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "counts": self.counts, "peaks": self.peaks}, f)


def self_times(spans) -> dict[int, float]:
    """Span id -> its duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for _, sid, parent, _, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = {}
    for _, sid, _, _, start, end in spans:
        covered = 0.0
        reach = start
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out[sid] = (end - start) - covered
    return out


def span_totals(spans) -> dict[str, list[float]]:
    """Span name -> [calls, inclusive seconds, self seconds]."""
    selfs = self_times(spans)
    totals: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for _, sid, _, name, start, end in spans:
        t = totals[name]
        t[0] += 1
        t[1] += end - start
        t[2] += selfs[sid]
    return dict(totals)
