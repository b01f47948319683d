"""Run every workload several times and summarise the spread of each metric.

    python3 bench/suite.py [--write bench/baseline.json]

Run from the root of a checkout.  Each run is ``bench/run.py`` in a fresh
interpreter, one after another, never concurrently; run ``i`` of a workload
uses seed ``i + 1``, and one traced run follows with seed 1.  The outputs of
the items that ignore the seed must hash the same in every run; a mismatch
counts as one failed check of the workload.  The table
gives, per workload and end-to-end metric, the median, the quartiles and
the spread (quartile distance over the median, as
``statistics.quantiles(values, n=4)`` gives them) beside the metric's bound
from BENCHMARK.json, then the per-layer table of the traced run.
``--write`` records the figures with the machine and library versions as a
baseline file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
RUNS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} failed (exit {proc.returncode})")
    result = json.loads(lines[-1])
    result["run_s"] = time.perf_counter() - start
    result["lines"] = lines[:-1]
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med


def machine() -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--write", default=None, help="baseline file to write")
    args = ap.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    baseline = {"machine": machine(), "run_seconds": seconds,
                "runs": RUNS, "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        plain = [run_once(name, i + 1, seconds, 0) for i in range(RUNS)]
        traced = [run_once(name, 1, seconds, 1)]
        seed_free = {line.split("seed-free digest ")[1]
                     for r in plain + traced for line in r["lines"]
                     if "seed-free digest " in line}
        matched = len(seed_free) == 1
        record = {"attempted": 1 + sum(r["attempted"] for r in plain + traced),
                  "failed": (not matched) + sum(r["failed"]
                                                for r in plain + traced),
                  "run_s_max": max(r["run_s"] for r in plain + traced),
                  "seed_free_digests": sorted(seed_free),
                  "end_to_end": {}, "per_layer": {}}
        print(f"\n== {name}: {RUNS} runs, check_fail_ratio "
              f"{record['failed']}/{record['attempted']}, slowest run "
              f"{record['run_s_max']:.1f} s")
        if not matched:
            print(f"  FAILED CHECK: {len(seed_free)} distinct seed-free "
                  "digests over the runs")
        record["pass_walls"] = [
            [float(w.rstrip("T")) for w in line.split(":")[1].split()]
            for r in plain for line in r["lines"]
            if line.strip().startswith("pass walls")]
        l1 = [float(line.split()[1]) for r in plain for line in r["lines"]
              if line.strip().startswith("l1_error_finest")]
        if l1:
            record["l1_error_finest"] = sorted(set(l1))
            print(f"  l1_error_finest {sorted(set(l1))} (L1 norm)")
        for metric in spec["end_to_end"]:
            key = metric["name"]
            values = [r["metrics"][key]["value"] for r in plain]
            q1, med, q3, sp = spread(values)
            flag = "ok" if sp < metric["bound"] / 3 else "WIDE"
            print(f"  {key:12s} median {med:10.4f} {metric['unit']:3s} "
                  f"q1 {q1:10.4f} q3 {q3:10.4f} spread {sp:6.3f} "
                  f"bound {metric['bound']:.2f} {flag}")
            record["end_to_end"][key] = {
                "unit": metric["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": sp, "values": values}
        for r in traced:
            print("\n".join(r["lines"]))
        record["per_layer"] = {k: v["value"] for k, v
                               in traced[0]["metrics"].items()}
        baseline["workloads"][name] = record
    if args.write:
        Path(args.write).write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
