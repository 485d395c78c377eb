"""Command-line front end.

Instance files:  {"v": .., "R": .., "truck_start": .., "points": [{"x","y"}..]}
Schedule files:  {"deliveries": [{"point","start","return"}..], "count": ..}

Unknown fields are rejected.  Numbers are written with 17 significant
digits, so parsing a file we wrote and writing it again reproduces it
byte for byte.  Exit codes: 0 success, 1 solver/verification refusal,
2 bad usage or unusable input (any ValueError the library raises).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from operator import itemgetter

from .generators import (
    GenerationError,
    ThreePartitionSpec,
    gen_greedy_tightness,
    gen_random_band,
    gen_random_proper,
    gen_three_partition,
)
from .model import (
    DEFAULT_TOL,
    DeliveryPoint,
    Instance,
    Schedule,
    verify_schedule,
)
from .proper import NotProperError, check_proper
from .render import render_svg
from .solvers import BudgetError, solve_exact, solve_greedy, solve_sweep


class CliError(Exception):
    """Input that cannot be used; reported on stderr with exit code 2."""


# --- canonical JSON ---------------------------------------------------------


# _emit's types; any other value is written as the first it is an instance of
_KINDS = (float, dict, list, tuple, str, bool, int, type(None))
_quote = json.encoder.encode_basestring_ascii  # what json.dumps does with a str
_XY = {"x", "y"}  # the fields of an instance file's point
_X, _Y = itemgetter("x"), itemgetter("y")


def _int_rows(value, inner: str) -> str:
    """A list of ints, or of equal rows of ints, as JSON items by one %-format;
    "" for anything else.  Each item sits on its own line after inner."""
    if set(map(type, value)) == {int}:
        return ",\n".join([inner + "%d"] * len(value)) % tuple(value)
    if not set(map(type, value)) <= {list, tuple} or len(set(map(len, value))) != 1:
        return ""
    flat = [e for row in value for e in row]
    if set(map(type, flat)) != {int}:
        return ""
    row = "[\n" + ",\n".join([inner + "  %d"] * len(value[0])) + f"\n{inner}]"
    return ",\n".join([inner + row] * len(value)) % tuple(flat)


def _emit(value, pad: str = "") -> str:
    kind = type(value)
    if kind not in _KINDS:
        kind = next((k for k in _KINDS if isinstance(value, k)), kind)
    if kind is float:
        text = format(float(value), ".17g")
        return "-0.0" if text == "-0" else text  # "-0" would parse as the integer 0
    if kind is dict or kind is list or kind is tuple:
        if not value:
            return "{}" if kind is dict else "[]"
        inner = pad + "  "
        if kind is dict:
            body = ",\n".join([f"{inner}{_quote(k)}: {_emit(v, inner)}" for k, v in value.items()])
            return f"{{\n{body}\n{pad}}}"
        body = _int_rows(value, inner) or ",\n".join([inner + _emit(v, inner) for v in value])
        return f"[\n{body}\n{pad}]"
    if kind is str:
        return _quote(value)
    if kind is int:
        return str(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    raise TypeError(f"cannot serialize {type(value)!r}")


def emit_json(value) -> str:
    return _emit(value) + "\n"


def _write_out(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w") as f:
                f.write(text)
        except OSError as e:
            raise CliError(f"cannot write {path}: {e}") from e


# --- strict parsing ---------------------------------------------------------


def _need_number(obj, key: str, where: str) -> float:
    val = obj.get(key)
    if type(val) is float and math.isfinite(val):
        return val
    if key not in obj:
        raise CliError(f"{where}: missing field '{key}'")
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise CliError(f"{where}: field '{key}' must be a number")
    if not abs(val) <= sys.float_info.max:  # NaN, inf, or an int past any float
        raise CliError(f"{where}: field '{key}' must be finite")
    return float(val)


def _need_keys(obj, allowed: set[str], required: set[str], where: str) -> None:
    if type(obj) is dict and obj.keys() == required:
        return
    if not isinstance(obj, dict):
        raise CliError(f"{where}: expected a JSON object")
    if extra := set(obj) - allowed:
        raise CliError(f"{where}: unknown fields {sorted(extra)}")
    if missing := required - set(obj):
        raise CliError(f"{where}: missing fields {sorted(missing)}")


def _load_json(path: str, what: str):
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        raise CliError(f"cannot read {what} file {path}: {e}") from e
    except (json.JSONDecodeError, RecursionError) as e:  # the latter: nested too deep
        raise CliError(f"{path} is not usable JSON: {e}") from e


def load_instance(path: str) -> Instance:
    data = _load_json(path, "instance")
    _need_keys(data, {"v", "R", "truck_start", "points"}, {"v", "R", "points"}, path)
    v = _need_number(data, "v", path)
    R = _need_number(data, "R", path)
    s0 = _need_number(data, "truck_start", path) if "truck_start" in data else 0.0
    if not isinstance(entries := data["points"], list):
        raise CliError(f"{path}: 'points' must be an array")
    try:  # the column fast path: every entry an object of two fields, x and y
        if set(map(type, entries)) <= {dict} and set(map(len, entries)) <= {2}:
            xs, ys = list(map(_X, entries)), list(map(_Y, entries))
            kinds = {*map(type, xs), *map(type, ys)}  # an int past any float would round into it
            if kinds <= {float, int} and (int not in kinds
                                          or max(map(abs, xs + ys)) <= sys.float_info.max):
                return Instance._from_columns(v, R, xs, ys, truck_start=s0)
    except (KeyError, ValueError):  # two fields but not x and y, or a value refused
        pass  # the checks below name the first bad field, in file order
    pts = []
    for i, entry in enumerate(entries):
        where = f"{path}: points[{i}]"
        _need_keys(entry, _XY, _XY, where)
        x = _need_number(entry, "x", where)
        y = _need_number(entry, "y", where)
        try:
            pts.append(DeliveryPoint(x, y))
        except ValueError as e:
            raise CliError(f"{where}: {e}") from e
    try:
        return Instance(v, R, tuple(pts), truck_start=s0)
    except ValueError as e:
        raise CliError(f"{path}: {e}") from e


def load_schedule(path: str) -> Schedule:
    data = _load_json(path, "schedule")
    _need_keys(data, {"deliveries", "count"}, {"deliveries", "count"}, path)
    if not isinstance(data["deliveries"], list):
        raise CliError(f"{path}: 'deliveries' must be an array")
    count = data["count"]
    if isinstance(count, bool) or not isinstance(count, int):
        raise CliError(f"{path}: 'count' must be an integer")
    if count != len(data["deliveries"]):
        raise CliError(f"{path}: count={count} but {len(data['deliveries'])} deliveries")
    order, starts, rets = [], [], []
    for j, entry in enumerate(data["deliveries"]):
        where = f"{path}: deliveries[{j}]"
        _need_keys(entry, {"point", "start", "return"}, {"point", "start", "return"}, where)
        point = entry["point"]
        if isinstance(point, bool) or not isinstance(point, int) or point < 0:
            raise CliError(f"{where}: 'point' must be a nonnegative integer")
        order.append(point)
        starts.append(_need_number(entry, "start", where))
        rets.append(_need_number(entry, "return", where))
    return Schedule._from_columns(order, starts, rets)


def _document(head: str, texts: list[str], tail: str) -> str:
    """head, the entries and tail joined once, in emit_json's bytes; .17g writes -0.0 as -0."""
    if not texts:
        return f"{head}[]{tail}"
    texts[0] = f"{head}[\n{texts[0]}"
    texts[-1] += f"\n  ]{tail}"
    return ",\n".join(texts).replace(": -0,", ": -0.0,").replace(": -0\n", ": -0.0\n")


def instance_to_json(inst: Instance) -> str:
    return _document(f'{{\n  "v": {_emit(inst.v)},\n  "R": {_emit(inst.R)},\n'
                     f'  "truck_start": {_emit(inst.truck_start)},\n  "points": ',
                     [f'    {{\n      "x": {x:.17g},\n      "y": {y:.17g}\n    }}'
                      for x, y in zip(inst.xs.tolist(), inst.ys.tolist())], "\n}\n")


def schedule_to_json(sched: Schedule) -> str:
    entries, landed, text = [], math.nan, ""
    for i, s, r in zip(sched.order, sched.starts, sched.rets):
        # a launch at the previous landing takes its text: equal nonzero doubles print alike
        start = text if s == landed and s else f"{s:.17g}"
        landed, text = r, f"{r:.17g}"
        entries.append(f'    {{\n      "point": {i},\n      "start": {start},\n'
                       f'      "return": {text}\n    }}')
    return _document('{\n  "deliveries": ', entries, f',\n  "count": {sched.count}\n}}\n')


# --- commands ---------------------------------------------------------------


# name -> solver(inst, args); a refusal raises NotProperError or BudgetError
SOLVERS = {
    "greedy": lambda inst, args: solve_greedy(inst),
    "dp": lambda inst, args: solve_sweep(inst, require_proper=not args.allow_nonproper),
    "exact": lambda inst, args: solve_exact(inst, max_points=args.max_points),
}


def _solve(algo: str, inst: Instance, args):  # (schedule, completion, wall_s, refusal)
    t0 = time.perf_counter()  # wall_s times the solver alone
    try:
        sched = SOLVERS[algo](inst, args)
    except (NotProperError, BudgetError) as e:
        note = "not-proper" if isinstance(e, NotProperError) else "over-budget"
        return None, None, time.perf_counter() - t0, (note, str(e))  # refusal: (note, reason)
    wall = time.perf_counter() - t0
    report = verify_schedule(inst, sched)  # a schedule it cannot confirm is refused too
    if report.feasible:
        return sched, report.completion, wall, None
    why = ", ".join(f"entry {j}: {r}" for j, r in report.violations)
    return None, None, wall, ("unconfirmed", f"verify cannot confirm the schedule ({why})")


def cmd_solve(args) -> int:
    inst = load_instance(args.input)
    sched, completion, _, refusal = _solve(args.algo, inst, args)
    if refusal:
        print(f"{args.algo} refused: {refusal[1]}", file=sys.stderr)
        return 1
    _write_out(schedule_to_json(sched), args.output)
    print(f"{args.algo}: count={sched.count} completion={_emit(completion)}", file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    inst = load_instance(args.instance)
    sched = load_schedule(args.schedule)
    report = verify_schedule(inst, sched, tol=args.tolerance)
    sys.stdout.write(emit_json({
        "feasible": report.feasible,
        "violations": [{"entry": j, "reason": r} for j, r in report.violations],
        "completion": report.completion if math.isfinite(report.completion) else None,
    }))
    return 0 if report.feasible else 1


def cmd_check_proper(args) -> int:
    inst = load_instance(args.input)
    report = check_proper(inst, tol=args.tolerance)
    sys.stdout.write(emit_json(vars(report)))
    return 0 if report.is_proper else 1


def _parse_values(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as e:
        raise CliError(f"bad value list {text!r}: {e}") from e


def cmd_gen(args) -> int:
    try:
        if args.kind == "random":
            inst = gen_random_band(args.n, args.v, args.R, args.x_span, args.seed)
        elif args.kind == "random-proper":
            inst = gen_random_proper(args.n, args.v, args.R, args.seed)
        elif args.kind == "partition":
            spec = ThreePartitionSpec(_parse_values(args.values), c=args.c)
            inst, expected = gen_three_partition(spec)
            print(f"layout point count (acceptance 8), not an optimum: {expected}", file=sys.stderr)
        else:  # adversarial
            inst, cert = gen_greedy_tightness(args.k, args.v, args.R)
            cert_json = emit_json(vars(cert))
            if args.out and args.out != "-":
                cert_path = args.out + ".cert.json"
                _write_out(cert_json, cert_path)
                print(f"certificate written to {cert_path}", file=sys.stderr)
            else:
                sys.stderr.write(cert_json)
    except GenerationError as e:
        print(f"generation failed: {e}", file=sys.stderr)
        return 1
    _write_out(instance_to_json(inst), args.out)
    return 0


def cmd_compare(args) -> int:
    inst = load_instance(args.input)
    rows = []
    for algo in args.algos.split(","):
        algo = algo.strip()
        if algo not in SOLVERS:
            raise CliError(f"unknown algorithm {algo!r}")
        sched, completion, wall, refusal = _solve(algo, inst, args)
        rows.append({"algo": algo, "count": None if refusal else sched.count,
                     "completion": completion, "wall_s": wall,
                     "note": refusal[0] if refusal else ""})
    if args.json:
        sys.stdout.write(emit_json({"rows": rows}))
    else:
        print(f"{'algo':<8} {'count':>5} {'completion':>22} {'wall_s':>10}  note")
        for r in rows:
            count = "-" if r["count"] is None else str(r["count"])
            comp = "-" if r["completion"] is None else _emit(r["completion"])
            print(f"{r['algo']:<8} {count:>5} {comp:>22} {r['wall_s']:>10.4f}  {r['note']}")
    return 0


def cmd_render(args) -> int:
    inst = load_instance(args.instance)
    sched = load_schedule(args.schedule) if args.schedule else None
    svg = render_svg(inst, sched, show_windows=args.show_windows,
                     show_ellipses=args.show_ellipses)
    _write_out(svg, args.out)
    return 0


# --- wiring -----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="truckdrone",
        description="Schedule drone deliveries launched from a truck on the x-axis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run a solver on an instance file")
    p.add_argument("--algo", choices=tuple(SOLVERS), required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None, help="schedule JSON (default stdout)")
    p.add_argument("--allow-nonproper", action="store_true",
                   help="let dp run as a heuristic on non-proper instances")
    p.add_argument("--max-points", type=int, default=10,
                   help="point budget for the exact solver")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="check a schedule against an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--schedule", required=True)
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOL)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("check-proper", help="test the properness conditions")
    p.add_argument("--input", required=True)
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOL)
    p.set_defaults(func=cmd_check_proper)

    p = sub.add_parser("gen", help="generate an instance file")
    p.add_argument("kind", choices=("random", "random-proper", "partition", "adversarial"))
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--v", type=float, default=2.0)
    p.add_argument("--R", type=float, default=10.0)
    p.add_argument("--x-span", type=float, default=50.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--values", default="1,1,1,1,1,1",
                   help="comma-separated integers for kind=partition")
    p.add_argument("--c", type=int, default=4,
                   help="spacing exponent for kind=partition")
    p.add_argument("--k", type=int, default=3, help="pairs for kind=adversarial")
    p.add_argument("--out", default=None, help="instance JSON (default stdout)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("compare", help="run several solvers and tabulate")
    p.add_argument("--input", required=True)
    p.add_argument("--algos", default="greedy,exact")
    p.add_argument("--max-points", type=int, default=10)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_compare, allow_nonproper=False)

    p = sub.add_parser("render", help="draw an instance (and schedule) as SVG")
    p.add_argument("--instance", required=True)
    p.add_argument("--schedule", default=None)
    p.add_argument("--out", default=None, help="SVG path (default stdout)")
    p.add_argument("--show-windows", action="store_true")
    p.add_argument("--show-ellipses", action="store_true")
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
