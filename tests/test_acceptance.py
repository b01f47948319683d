"""Acceptance gate: the nine headline criteria, each at its stated tolerance.

Each criterion is one test that prints a PASS line when it holds (run with
``pytest -s tests/test_acceptance.py`` to see the lines).  The heavy solves
make this module take a few minutes; run it separately from the unit suite
when iterating.  Criteria that only read an unmodified bundled run share it
with the digest check (``bundled_run`` in ``conftest.py``).
"""

import time

import numpy as np
import pytest

from pmelab import bundled, scenarios
from pmelab.barriers import (
    BarrierSpec,
    SamplingPolicy,
    min_valid_j,
    verify_sign,
)
from pmelab.geometry import Cylinder, Grid, SpaceTimeDomain, SpatialDomain


def run_bundled(name, tmp_path):
    doc = bundled.bundled_scenario(name)
    return scenarios.run_scenario(doc, tmp_path / name)


def announce(num, text):
    print(f"\n[criterion {num}] PASS: {text}")


def test_criterion_1_barenblatt_convergence(tmp_path):
    report = run_bundled("barenblatt-convergence", tmp_path)
    assert report["all_pass"], report["checks"]
    results = report["barenblatt"]["results"]
    l1 = [r["l1"] for r in results]
    assert l1[0] > l1[1] > l1[2]
    orders = report["barenblatt"]["orders"]
    assert all(o >= 0.8 for o in orders)
    assert all(r["wall_s"] < 60 for r in results)
    announce(1, f"L1 errors {['%.3e' % e for e in l1]}, orders "
                f"{['%.2f' % o for o in orders]}, slowest level "
                f"{max(r['wall_s'] for r in results):.1f} s")


def test_criterion_2_barrier_sign_certification():
    region_grid = Grid(n=2, h=1 / 16, origin=(-0.5, -0.5), extents=(16, 16))
    U = SpatialDomain(region_grid, np.ones((16, 16), dtype=bool))
    region = SpaceTimeDomain([Cylinder(U, 0.0, 0.5)], dt=1 / 16)
    policy = SamplingPolicy(seed=77, max_samples=10 ** 4)
    for c in (0.5, 1.0, 2.0):
        for j in (1, 4, 16):
            spec = BarrierSpec("quadratic_sub", c=c, j=j, m=2.0, n=2,
                               diam=2.0)
            rep = verify_sign(spec, region, policy)
            assert rep.certified, (c, j, rep.violating_samples[:3])
            assert rep.samples_checked <= 10 ** 4

    j_min = min_valid_j("earliest_super", 1.0, 2.0, 2, 1.0)
    assert j_min == 129
    # independent brute-force scan of 1 + 2 j^3 <= j^4/64
    brute = next(j for j in range(1, 10 ** 4)
                 if 1 + 2 * j ** 3 <= j ** 4 / 64)
    assert brute == 129

    good = BarrierSpec("earliest_super", c=1.0, j=j_min, m=2.0, n=2, diam=1.0)
    assert verify_sign(good, region, policy).certified
    bad = BarrierSpec("earliest_super", c=1.0, j=1, m=2.0, n=2, diam=1.0)
    rep_bad = verify_sign(bad, region, policy)
    assert not rep_bad.certified
    announce(2, "3x3 quadratic grid certified at 1e4 samples; minimal "
                f"earliest index {j_min} reproduced; j=1 violated as "
                "the scan predicts")


def test_criterion_3_comparison_campaign(tmp_path):
    report = run_bundled("comparison-campaign", tmp_path)
    assert report["all_pass"], report["checks"]
    camp = report["campaign"]
    assert camp["ordered"] == camp["trials"] == 100
    assert camp["violations"] == []
    announce(3, "100/100 random ordered pairs produced ordered solutions "
                "with zero interior violations")


def test_criterion_4_bottom_face_regularity(bundled_run):
    report, _ = bundled_run("bottom-regularity")
    assert report["all_pass"], report["checks"]
    probe = report["probe"]
    for gaps in probe["upper_gaps"] + probe["lower_gaps"]:
        clipped = [max(g, 0.0) for g in gaps]
        assert max(clipped[-3:]) <= max(clipped[0], 1e-12) + 1e-12
    for u, lo, dd in zip(probe["upper_intercepts"],
                         probe["lower_intercepts"], probe["disc_ests"]):
        assert u <= 2 * dd + 1e-15 and lo <= 2 * dd + 1e-15
    announce(4, "bottom-face gaps shrink along the radius ladder and all "
                "three profiles extrapolate within 2x the discretization "
                "estimate")


def test_criterion_5_wiener_dichotomy(tmp_path):
    t0 = time.time()
    punct = run_bundled("punctured-disk", tmp_path)
    punct_time = time.time() - t0
    assert punct["all_pass"], punct["checks"]
    assert punct["thickness"]["classification"] == "thin"
    assert punct["dichotomy"]["branch"] == "drops-to-zero"
    assert punct_time < 120

    t0 = time.time()
    wien = run_bundled("square-cylinder-wiener", tmp_path)
    probe = run_bundled("square-cylinder", tmp_path)
    square_time = time.time() - t0
    assert wien["all_pass"] and probe["all_pass"]
    assert wien["wiener"]["classification"]["classification"] == "thick"
    assert probe["probe"]["verdict"] == "regular evidence"
    assert square_time < 120
    announce(5, f"puncture thin + drops-to-zero ({punct_time:.0f} s); "
                f"square thick + regular evidence ({square_time:.0f} s)")


def test_criterion_6_monotone_union_bracket(bundled_run):
    report, _ = bundled_run("union-resolutivity")
    assert report["all_pass"], report["checks"]
    gaps = report["perron"]["gaps"]
    eps = report["perron"]["epsilons"]
    disc = report["perron"]["disc_est"]
    for e, g in zip(eps, gaps):
        assert g <= 2 * e + 3 * disc
    assert all(gaps[i + 1] <= gaps[i] + 1e-12 for i in range(len(gaps) - 1))
    announce(6, f"bracket gaps {['%.3f' % g for g in gaps]} within "
                f"2*eps + 3*{disc:.4f} and decreasing along the ladder")


def test_criterion_7_future_independence(bundled_run):
    for name in ("future-independence", "future-independence-stack"):
        report, _ = bundled_run(name)
        assert report["all_pass"], (name, report["checks"])
        assert report["future_probe"]["agree"]
    announce(7, "full and truncated probes agree on every bundled pairing")


def test_criterion_8_degiorgi_suite(bundled_run):
    from pmelab.degiorgi import constants, iterate, sup_estimate_check
    from pmelab.solver import Field

    assert constants(2.0, 2) == (0.5, 8.0, 3.0)

    report, _ = bundled_run("degiorgi-barenblatt")
    assert report["all_pass"], report["checks"]
    assert report["degiorgi"]["level_checks_pass"]

    # fitted C stable within 20% across two grids and three M values
    def source_field(h, steps, C0=0.1):
        cells = int(round(2.0 / h))
        g = Grid(n=2, h=h, origin=(-1.0, -1.0), extents=(cells, cells))
        U = SpatialDomain(g, np.ones((cells, cells), dtype=bool))
        d = SpaceTimeDomain([Cylinder(U, 1.0, 3.0)], dt=2.0 / steps)
        centers = g.centers()
        vals = np.zeros((d.num_levels, cells, cells))
        for k in range(d.num_levels):
            t = d.level_time(k)
            arg = C0 - (1 / 16) * np.sum(centers ** 2, axis=-1) / np.sqrt(t)
            vals[k] = t ** -0.5 * np.maximum(arg, 0.0)
        return Field.from_values(d, vals, 2.0)

    cs = []
    for h, steps in ((1 / 32, 64), (1 / 64, 128)):
        fld = source_field(h, steps)
        L = fld.sup()
        rep = iterate(fld, (0.0, 0.0), 2.0, rho=0.9, sigma=0.5, M=0.0,
                      k=0.5 * L, j_max=12)
        assert rep.all_level_checks_pass       # exact, not to tolerance
        for M in (0.0, 0.25 * L, 0.5 * L):
            res = sup_estimate_check(fld, (0.0, 0.0), 2.0, rho=0.9,
                                     sigma=0.5, M=M)
            cs.append(res.fitted_C)
    assert max(cs) / min(cs) <= 1.2
    announce(8, f"constants exact, level inequalities exact, fitted C in "
                f"[{min(cs):.3f}, {max(cs):.3f}] (spread "
                f"{100 * (max(cs) / min(cs) - 1):.1f}% <= 20%)")


def test_criterion_9_scaling_exactness(bundled_run):
    report, _ = bundled_run("scaling-exactness")
    assert report["all_pass"], report["checks"]
    announce(9, "power transform maps multiplied-equation solutions onto "
                "zero-residual unit-equation fields for a in {1/4, 4}")
