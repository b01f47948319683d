"""Command-line entry point: scenario runner and direct subcommands.

Exit codes: 0 all declared checks pass, 1 a check failed or a numerical
operation errored, 2 invalid input (bad scenario file, unknown name or
flag).
Output directory resolution: --out flag, then PMELAB_OUT, then ./pmelab-out.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import bundled, scenarios
from .barriers import KINDS, BarrierError
from .capacity import CapacityError
from .degiorgi import IterationError
from .geometry import GeometryError
from .perron import PerronError
from .solver import SolverError


def _out_dir(args, name: str) -> Path:
    base = args.out or os.environ.get("PMELAB_OUT", "pmelab-out")
    return Path(base) / name


def _load(args, op_kind: str | None = None) -> dict:
    if args.bundled:
        doc = bundled.bundled_scenario(args.bundled)
    elif args.scenario:
        doc = scenarios.load_scenario(args.scenario)
    else:
        raise scenarios.ScenarioError(
            "provide --scenario PATH or --bundled NAME")
    if args.seed is not None:
        doc["seed"] = args.seed
    if args.resolution is not None and "grid" in doc:
        factor = scenarios.rescale_grid(doc["grid"], args.resolution)
        if "dt" in doc.get("domain", {}):
            doc["domain"]["dt"] = doc["domain"]["dt"] / max(factor, 1.0)
    if op_kind is not None and doc["operation"]["kind"] != op_kind:
        raise scenarios.ScenarioError(
            f"this subcommand runs {op_kind!r} scenarios, the file declares "
            f"{doc['operation']['kind']!r}")
    return doc


def _execute(doc: dict, args) -> int:
    out = _out_dir(args, doc["name"])
    report = scenarios.run_scenario(doc, out)
    for check in report["checks"]:
        mark = "PASS" if check["pass"] else "FAIL"
        print(f"[{mark}] {check['check']}")
    print(f"report: {out / 'report.json'}  (wall {report['wall_time_s']} s)")
    return 0 if report["all_pass"] else 1


def _cmd_run(args) -> int:
    return _execute(_load(args), args)


def _cmd_list(args) -> int:
    for name, desc in bundled.list_bundled():
        print(f"{name:28s} {desc}")
    return 0


def _cmd_op(kind):
    def handler(args) -> int:
        return _execute(_load(args, op_kind=kind), args)
    return handler


def _cmd_verify_barrier(args) -> int:
    if args.scenario or args.bundled:
        return _execute(_load(args, op_kind="verify-barrier"), args)
    if not (args.kind and args.c and args.m and args.n and args.diam):
        print("verify-barrier needs --scenario/--bundled or all of "
              "--kind --c --j --m --n --diam", file=sys.stderr)
        return 2
    side = 2.0 * args.diam / (2 ** 0.5 + 1)
    h = side / 16
    cells = 16
    doc = {
        "name": f"verify-{args.kind}",
        "seed": args.seed or 0,
        "grid": {"n": args.n, "h": h, "origin": [-side / 2] * args.n,
                 "extents": [cells] * args.n},
        "domain": {"dt": side / 16, "cylinders": [
            {"base": {"shape": "box"}, "t1": 0.0, "t2": side}]},
        "operation": {
            "kind": "verify-barrier",
            "barrier": {"kind": args.kind, "c": args.c, "j": args.j,
                        "m": args.m, "n": args.n, "diam": args.diam},
            "expect": args.expect,
        },
    }
    return _execute(doc, args)


def _positive_finite(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be a positive finite number, got {text!r}")
    return value


def _add_common(p):
    p.add_argument("--scenario", help="path to a scenario JSON file")
    p.add_argument("--bundled", help="name of a bundled scenario")
    p.add_argument("--out", help="output directory (default $PMELAB_OUT)")
    p.add_argument("--seed", type=int, help="override the scenario seed")
    p.add_argument("--resolution", type=_positive_finite,
                   help="override the grid cell size h")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmelab",
        description=("numerical laboratory for boundary behaviour of the "
                     "degenerate porous medium equation"))
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run any scenario file or bundled name")
    _add_common(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("list", help="list the bundled scenario corpus")
    p.set_defaults(func=_cmd_list)

    for kind, help_text in [
            ("solve", "Dirichlet solve on a cylinder or monotone union"),
            ("perron", "envelope bracket with an epsilon ladder"),
            ("probe", "boundary-regularity probe at a point"),
            ("dichotomy", "attain-or-drop classification at a point"),
            ("future-probe", "paired probes: full versus past truncation"),
            ("capacity", "variational capacity of a compact voxel set"),
            ("wiener", "dyadic capacity profile and thickness verdict"),
            ("torsion", "torsion-type profile on a spatial domain"),
            ("degiorgi", "level-set iteration and supremum estimate"),
            ("barenblatt", "convergence ladder against the source solution"),
    ]:
        p = sub.add_parser(kind, help=help_text)
        _add_common(p)
        p.set_defaults(func=_cmd_op(kind))

    p = sub.add_parser("verify-barrier",
                       help="certify a barrier family member's residual sign")
    _add_common(p)
    p.add_argument("--kind", choices=list(KINDS))
    p.add_argument("--c", type=float)
    p.add_argument("--j", type=int, default=1)
    p.add_argument("--m", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--diam", type=float)
    p.add_argument("--expect", choices=["certified", "violations"],
                   default="certified")
    p.set_defaults(func=_cmd_verify_barrier)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (scenarios.ScenarioError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, GeometryError, BarrierError, CapacityError,
            PerronError, IterationError) as exc:
        print(f"operation failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
