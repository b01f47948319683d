"""The benchmark workloads: inputs built from a seed, run through pmelab's
public API, and checked.

A workload is a fixed list of items (one *pass*).  Every item returns its
checks and a digest of its timing-free outputs, so two passes over the same
inputs can be compared byte for byte.  An item that ignores the seed must
give the same digest under every seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from pmelab import barriers, bundled, scenarios
from pmelab.geometry import Cylinder, Grid, SpaceTimeDomain, SpatialDomain

# Keys and CSV columns that carry timings; they are left out of digests.
# convergence.csv carries a wall_s column (a determinism leak of the
# barenblatt operation), the reports carry wall_time_s and per-level walls.
TIMING_KEYS = frozenset({"wall_time_s", "wall_s", "walls"})

# Pairs per comparison-campaign pass (the bundled scenario runs 100).
CAMPAIGN_TRIALS = 20


@dataclass
class Outcome:
    checks: list[tuple[str, bool]]
    digest: str
    extra: dict = field(default_factory=dict)


@dataclass
class Item:
    name: str
    run: Callable[[Path], Outcome]
    seeded: bool = False


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _strip(obj):
    if isinstance(obj, dict):
        return {k: _strip(v) for k, v in obj.items() if k not in TIMING_KEYS}
    if isinstance(obj, list):
        return [_strip(v) for v in obj]
    return obj


def _csv_digest(path: Path) -> str:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    keep = [i for i, col in enumerate(rows[0]) if col not in TIMING_KEYS]
    text = "\n".join(",".join(row[i] for i in keep) for row in rows)
    return _sha(text.encode())


def report_digest(report: dict) -> str:
    """Digest of a run_scenario report and its CSV artifacts, timings out."""
    parts = {Path(p).name: _csv_digest(Path(p)) for p in report["artifacts"]}
    payload = _strip(report) | {"artifacts": sorted(parts)}
    text = json.dumps([payload, parts], sort_keys=True, default=str)
    return _sha(text.encode())


def scenario_item(doc: dict, oracle: Callable[[dict], Outcome],
                  seeded: bool = False) -> Item:
    scenarios.validate_scenario(doc)

    def run(out_root: Path) -> Outcome:
        out = out_root / doc["name"]
        shutil.rmtree(out, ignore_errors=True)
        report = scenarios.run_scenario(doc, out)
        checks = [(c["check"], c["pass"]) for c in report["checks"]]
        own = oracle(report)
        return Outcome(checks + own.checks, report_digest(report), own.extra)

    return Item(doc["name"], run, seeded)


# ---------------------------------------------------------------------------
# barenblatt-ladder

def _ladder_oracle(report: dict) -> Outcome:
    results = report["barenblatt"]["results"]
    orders = report["barenblatt"].get("orders", [])
    checks = [("three levels h = 1/32, 1/64, 1/128",
               [r["h"] for r in results] == [1 / 32, 1 / 64, 1 / 128]),
              ("L1 order >= 0.8 between every pair of levels",
               len(orders) == 2 and all(o >= 0.8 for o in orders))]
    return Outcome(checks, "", {"l1_error_finest": results[-1]["l1"]})


def _ladder(seed: int) -> list[Item]:
    # The bundled ladder over t in [1, 1.5] takes about a minute.  Cutting
    # the window to [1, 1.05] with a tenth of the steps keeps h and dt, and
    # so every linear system, exactly as in the full scenario.
    doc = bundled.bundled_scenario("barenblatt-convergence")
    doc["operation"].update(t2=1.05, base_steps=5)
    return [scenario_item(doc, _ladder_oracle)]


# ---------------------------------------------------------------------------
# comparison-campaign

def _campaign(seed: int) -> list[Item]:
    doc = bundled.bundled_scenario("comparison-campaign")
    doc["seed"] = seed
    doc["threads"] = 1
    doc["operation"]["trials"] = CAMPAIGN_TRIALS

    def oracle(report):
        camp = report["campaign"]
        return Outcome([(f"{CAMPAIGN_TRIALS}/{CAMPAIGN_TRIALS} ordered",
                         camp["ordered"] == camp["trials"] == CAMPAIGN_TRIALS
                         and camp["violations"] == [])], "")

    return [scenario_item(doc, oracle, seeded=True)]


# ---------------------------------------------------------------------------
# wiener-dichotomy (acceptance criterion 5) and barrier-certify (criterion 2)

def _expect(label: str, get: Callable[[dict], object], want) -> Callable:
    def oracle(report):
        return Outcome([(f"{label} is {want!r}", get(report) == want)], "")
    return oracle


# The bundled criterion-5 set at h = 1/64 takes about 27 s, too long for
# several passes in a run.
# At h = 1/32 with the time windows cut from [0, 0.25] to [0, T2_CUT] it
# takes about 4 s and keeps every verdict.  The probe time t0 = 0.125 lies
# inside the cut window.  The coarser grid resolves dyadic balls down to
# 2^-4, so the Wiener profiles stop at k_max = 4 instead of 5.
H_CUT = 1 / 32
T2_CUT = 0.15625
K_MAX_CUT = 4


def _centred_grid(cells: int) -> dict:
    return {"n": 2, "h": H_CUT, "origin": [-cells * H_CUT / 2] * 2,
            "extents": [cells] * 2}


def _wiener_dichotomy() -> list[Item]:
    punct = bundled.bundled_scenario("punctured-disk")
    wien = bundled.bundled_scenario("square-cylinder-wiener")
    probe = bundled.bundled_scenario("square-cylinder")
    # 83 cells (odd) centre the punctured cell on the origin, as in the
    # bundled 167-cell grid; 32 cells span the unit square.
    punct["grid"] = _centred_grid(83)
    punct["operation"]["removability"]["k_max"] = K_MAX_CUT
    wien["grid"] = _centred_grid(32)
    wien["operation"]["k_max"] = K_MAX_CUT
    probe["grid"] = _centred_grid(32)
    probe["operation"]["x0"] = [-0.5 + H_CUT / 2, H_CUT / 2]
    for doc in (punct, probe):
        doc["domain"]["cylinders"][0]["t2"] = T2_CUT

    def punct_oracle(report):
        return Outcome([
            ("puncture classified 'thin'",
             report["thickness"]["classification"] == "thin"),
            ("puncture branch is 'drops-to-zero'",
             report["dichotomy"]["branch"] == "drops-to-zero")], "")

    return [
        scenario_item(punct, punct_oracle),
        scenario_item(wien, _expect(
            "square edge",
            lambda r: r["wiener"]["classification"]["classification"],
            "thick")),
        scenario_item(probe, _expect(
            "square probe verdict", lambda r: r["probe"]["verdict"],
            "regular evidence")),
    ]


def _sign_item(name: str, spec, region, policy, certified: bool) -> Item:
    def run(out_root: Path) -> Outcome:
        rep = barriers.verify_sign(spec, region, policy)
        text = json.dumps(rep.to_dict(), sort_keys=True)
        want = "certified" if certified else "violated"
        return Outcome([(f"{name} {want}", rep.certified == certified)],
                       _sha(text.encode()))
    return Item(name, run, seeded=True)


def _min_j_item() -> Item:
    def run(out_root: Path) -> Outcome:
        j = barriers.min_valid_j("earliest_super", 1.0, 2.0, 2, 1.0)
        return Outcome([("earliest_super minimal index is 129", j == 129)],
                       _sha(str(j).encode()))
    return Item("min_valid_j earliest_super", run)


def barrier_items(seed: int) -> list[Item]:
    """The criterion-2 set; the seed sets the SamplingPolicy seed."""
    grid = Grid(n=2, h=1 / 16, origin=(-0.5, -0.5), extents=(16, 16))
    U = SpatialDomain(grid, np.ones((16, 16), dtype=bool))
    region = SpaceTimeDomain([Cylinder(U, 0.0, 0.5)], dt=1 / 16)
    policy = barriers.SamplingPolicy(seed=seed, max_samples=10 ** 4)
    items = []
    for c in (0.5, 1.0, 2.0):
        for j in (1, 4, 16):
            spec = barriers.BarrierSpec("quadratic_sub", c=c, j=j, m=2.0,
                                        n=2, diam=2.0)
            items.append(_sign_item(f"quadratic_sub c={c} j={j}", spec,
                                    region, policy, True))
    items.append(_min_j_item())
    for j, ok in ((129, True), (1, False)):
        spec = barriers.BarrierSpec("earliest_super", c=1.0, j=j, m=2.0,
                                    n=2, diam=1.0)
        items.append(_sign_item(f"earliest_super j={j}", spec, region,
                                policy, ok))
    return items


# Workload name -> function building its items from the seed.  Each pass
# holds about 10 s of work, so a run holds four or more passes.  Why each
# workload was chosen is recorded in BENCHMARK.json and NOTES.md.
WORKLOADS = {
    # Few, large, seed-free systems: the ladder, then criterion 5.
    "ladder-wiener": lambda seed: _ladder(seed) + _wiener_dichotomy(),
    # Many small, seeded items: the campaign, then criterion 2.
    "campaign-barrier": lambda seed: _campaign(seed) + barrier_items(seed),
}
