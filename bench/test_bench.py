"""Self-test of the benchmark: the outside tracer finds every layer and does
not perturb results, and run.py keeps its output contract.

    python3 -m pytest -q bench/test_bench.py

Run from the root of a checkout.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402
from pmelab import barriers, bundled, solver  # noqa: E402


def cheap_items():
    """A solve with CSV output, one campaign pair and one barrier member."""
    const = bundled.bundled_scenario("constant-solve")
    pair = bundled.bundled_scenario("comparison-campaign")
    pair["operation"]["trials"] = 1
    no_oracle = lambda report: workloads.Outcome([], "")  # noqa: E731
    return [workloads.scenario_item(const, no_oracle),
            workloads.scenario_item(pair, no_oracle),
            workloads.barrier_items(5)[0]]


def test_tracer_finds_every_layer_and_restores_the_package():
    originals = (solver.solve_union, solver.cg, solver.BoundaryData.sample,
                 barriers.verify_sign)
    with tracer.Tracer() as tr:
        assert tr.absent == []
        assert solver.solve_union is not originals[0]
        assert solver.cg is not originals[1]
    assert (solver.solve_union, solver.cg, solver.BoundaryData.sample,
            barriers.verify_sign) == originals
    assert set(tr.stats) == set(tracer.LAYERS)


def test_traced_and_untraced_passes_give_identical_outputs(tmp_path):
    items = cheap_items()
    plain = [item.run(tmp_path) for item in items]
    with tracer.Tracer() as tr:
        traced = [item.run(tmp_path) for item in items]
    assert [o.digest for o in plain] == [o.digest for o in traced]
    assert all(ok for o in plain + traced for _, ok in o.checks)
    assert tr.stats["solver.solve_union"]["calls"] == 3
    assert tr.stats["solver.cg"]["calls"] > 0
    assert tr.counts["solver.cg.iters"] >= tr.stats["solver.cg"]["calls"]
    assert tr.stats["barriers.verify_sign"]["calls"] == 1
    assert tr.counts["barriers.samples_checked"] == 10 ** 4
    for entry in tr.stats.values():
        assert entry["self_s"] >= 0.0


def test_items_marked_seed_free_ignore_the_seed(tmp_path):
    runs = [[item.run(tmp_path).digest for item in
             workloads.barrier_items(seed) if not item.seeded]
            for seed in (1, 2)]
    assert runs[0] and runs[0] == runs[1]


def run_cli(cwd, *args):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_declared_metric(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = run_cli(ROOT, "--workload", "ladder-wiener", "--seed", "2",
                   "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = spec["per_layer" if trace else "end_to_end"]
    assert [m["name"] for m in declared] == list(result["metrics"])
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_run_fails_without_the_program(tmp_path):
    proc = run_cli(tmp_path, "--workload", "ladder-wiener", "--seed", "1",
                   "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
