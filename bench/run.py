"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program under test is imported from
its ``src/`` directory, never from an installed copy.  One run executes the
workload's fixed list of items (a *pass*) closed-loop, one pass after the
other, until the next pass would end after ``--seconds``; there is always
at least one pass.  Every pass's timing-free outputs are hashed and must
match the first pass.  The digest of the items that ignore the seed is
printed too, so that runs under different seeds can be compared.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median pass),
``setup_s`` (median of fresh interpreters that import pmelab and build and
validate the workload's inputs) and ``peak_rss_mb``.  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics of
the traced ones.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import tracer

# One BLAS thread: the runs measure the program, not the scheduler.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 15


def import_program():
    """Import pmelab from this checkout's src/ and the workload table."""
    if not (SRC / "pmelab" / "__init__.py").is_file():
        raise SystemExit(f"no program to measure: {SRC}/pmelab is missing")
    sys.path.insert(0, str(SRC))
    import pmelab
    if Path(pmelab.__file__).resolve().parent != (SRC / "pmelab").resolve():
        raise SystemExit(f"pmelab imported from {pmelab.__file__}, not {SRC}")
    import workloads
    return workloads


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from starting a fresh interpreter until it reports ready."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise SystemExit(f"set-up probe failed (exit {proc.returncode})")
        times.append(elapsed)
    return times


@dataclass
class Pass:
    traced: bool
    wall: float
    checks: list
    digest: str
    seed_free_digest: str
    extra: dict
    tracer: tracer.Tracer | None = None


def run_pass(items, out: Path, traced: bool) -> Pass:
    """Run every item once, under a fresh Tracer when ``traced``."""
    checks, digests, seed_free, extra = [], [], [], {}
    tr = tracer.Tracer() if traced else None
    with tr or contextlib.nullcontext():
        start = time.perf_counter()
        for item in items:
            try:
                outcome = item.run(out)
            except Exception as exc:   # a failing item is a failed check
                traceback.print_exc(file=sys.stderr)
                checks.append((f"{item.name} raised {exc!r}", False))
                digests.append("error")
                continue
            checks += outcome.checks
            digests.append(outcome.digest)
            if not item.seeded:
                seed_free.append(outcome.digest)
            extra |= outcome.extra
        wall = time.perf_counter() - start
    return Pass(traced, wall, checks, "-".join(d[:16] for d in digests),
                "-".join(d[:16] for d in seed_free), extra, tr)


def measure(items, out: Path, seconds: float, trace: bool) -> list[Pass]:
    """Closed loop: start a pass only if it should end within ``seconds``.

    With ``trace``, untraced and traced passes alternate, starting untraced,
    and at least one of each runs.
    """
    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        passes.append(run_pass(items, out, trace and len(passes) % 2 == 1))
        if trace and len(passes) < 2:
            continue
        median = statistics.median(p.wall for p in passes)
        if time.perf_counter() + median > deadline:
            return passes


def end_to_end(passes: list[Pass], setup: list[float]) -> dict:
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rows = [("wall_s", "s", [p.wall for p in passes]),
            ("setup_s", "s", setup),
            ("peak_rss_mb", "MB", [rss_mb])]
    metrics = {}
    for name, unit, values in rows:
        q1, med, q3 = quartiles(values)
        print(f"  {name:12s} median {med:10.4f} {unit:2s}  "
              f"q1 {q1:.4f}  q3 {q3:.4f}  n={len(values)}")
        metrics[name] = {"value": med, "unit": unit}
    return metrics


def per_layer(passes: list[Pass], checks: list) -> dict:
    """Medians over the traced passes; counts must repeat exactly."""
    traced = [p for p in passes if p.traced]
    walls = [p.wall for p in traced]
    overhead = (statistics.median(walls)
                - statistics.median(p.wall for p in passes if not p.traced))
    absent = traced[0].tracer.absent
    if absent:
        print("  absent targets (their time counts in the caller): "
              + ", ".join(absent))
    print(f"  {'layer':32s} {'calls':>9s} {'self_s':>9s}")
    metrics = {}
    for layer in tracer.LAYERS:
        calls = [p.tracer.stats[layer]["calls"] for p in traced]
        self_s = statistics.median(p.tracer.stats[layer]["self_s"]
                                   for p in traced)
        print(f"  {layer:32s} {calls[0]:9d} {self_s:9.4f}")
        metrics[f"{layer}.calls"] = {"value": calls[0], "unit": "count"}
        metrics[f"{layer}.self_s"] = {"value": self_s, "unit": "s"}
        checks.append((f"{layer}.calls repeats", len(set(calls)) == 1))
    for name in tracer.COUNTERS:
        values = [p.tracer.counts[name] for p in traced]
        print(f"  {name:32s} {values[0]:9d}")
        metrics[name] = {"value": values[0], "unit": "count"}
        checks.append((f"{name} repeats", len(set(values)) == 1))
    print(f"  trace.overhead_s {overhead:.4f} s (traced pass "
          f"{statistics.median(walls):.4f} s)")
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    workloads = import_program()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; known: "
                         + ", ".join(workloads.WORKLOADS))
    items = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    passes = measure(items, OUT / args.workload, args.seconds, args.trace)

    checks = [c for p in passes for c in p.checks]
    checks += [(f"pass {i + 1} outputs match pass 1",
                p.digest == passes[0].digest)
               for i, p in enumerate(passes[1:], start=1)]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  digest {passes[0].digest}")
    print(f"  seed-free digest {passes[0].seed_free_digest or '-'}")
    print("  pass walls (s): " + " ".join(
        f"{p.wall:.3f}{'T' if p.traced else ''}" for p in passes))
    extra = passes[0].extra
    if "l1_error_finest" in extra:
        print(f"  l1_error_finest {extra['l1_error_finest']!r} (L1 norm at "
              "h = 1/128)")
    if args.trace:
        metrics = per_layer(passes, checks)
    else:
        metrics = end_to_end(passes, setup)

    failed = [name for name, ok in checks if not ok]
    for name in failed:
        print(f"  FAILED CHECK: {name}")
    print(f"  check_fail_ratio {len(failed)}/{len(checks)} = "
          f"{len(failed) / len(checks):.3g}")
    print(json.dumps({"correct": not failed, "attempted": len(checks),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
