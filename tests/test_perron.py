import numpy as np
import pytest

from pmelab import perron, solver
from pmelab.capacity import classify_thickness, wiener_profile
from pmelab.geometry import (
    Cylinder,
    Grid,
    SpaceTimeDomain,
    SpatialDomain,
    parabolic_boundary,
)
from pmelab.perron import (
    OffBoundaryError,
    PerronError,
    RemovabilityCertificate,
    _ball_masks,
    coarsen_domain,
    default_data_family,
    dichotomy_check,
    discretization_estimate,
    future_truncation_probe,
    perron_bracket,
    regularity_probe,
    scale_transform,
)
from pmelab.solver import BoundaryData, Field, SolverConfig, solve_union

M_EXP = 2.0
CFG = SolverConfig()


def square_cylinder(h=1 / 16, cells=16, t2=0.25, dt=1 / 32):
    g = Grid(n=2, h=h, origin=(-0.5, -0.5), extents=(cells, cells))
    U = SpatialDomain(g, np.ones((cells, cells), dtype=bool))
    return SpaceTimeDomain([Cylinder(U, 0.0, t2)], dt=dt)


def expanding_stack(h=1 / 16, cells=16):
    g = Grid(n=2, h=h, origin=(-0.5, -0.5), extents=(cells, cells))
    inner = np.zeros((cells, cells), dtype=bool)
    q = cells // 4
    inner[q:cells - q, q:cells - q] = True
    U = SpatialDomain(g, inner)
    V = SpatialDomain(g, np.ones((cells, cells), dtype=bool))
    return SpaceTimeDomain([Cylinder(U, 0.0, 0.125),
                            Cylinder(V, 0.125, 0.25)], dt=1 / 32)


def test_bracket_on_constants():
    d = square_cylinder()
    f = BoundaryData.constant(1.0)
    bracket = perron_bracket(d, f, [0.1, 0.05, 0.025], CFG, M_EXP)
    for eps, lo, hi, gap in zip(bracket.epsilons, bracket.lowers,
                                bracket.uppers, bracket.gaps):
        assert gap <= 2 * eps + 1e-12
        assert abs(hi.sup() - (1 + eps)) < 1e-12
        assert abs(lo.sup() - (1 - eps)) < 1e-12
    assert bracket.gaps[0] >= bracket.gaps[1] >= bracket.gaps[2]


def test_bracket_gap_contracts_on_stack():
    d = expanding_stack()
    f = BoundaryData(fn=lambda x, t: 1.5 + x[..., 0], bounds=(1.0, 2.0))
    bracket = perron_bracket(d, f, [0.2, 0.1, 0.05], CFG, M_EXP)
    for eps, gap in zip(bracket.epsilons, bracket.gaps):
        assert gap <= 2 * eps + 1e-10
    assert bracket.gaps == sorted(bracket.gaps, reverse=True)


def test_bracket_centers_on_harmonic_power_profile():
    d = square_cylinder()
    g_fn = lambda x: (1.5 + x[..., 0]) ** 0.5     # g^m affine, steady solution
    f = BoundaryData(fn=lambda x, t: g_fn(x), bounds=(1.0, 2.0 ** 0.5))
    bracket = perron_bracket(d, f, [0.05], CFG, M_EXP)
    lo, hi = bracket.lowers[0], bracket.uppers[0]
    centers = d.grid.centers()
    exact = (1.5 + centers[..., 0]) ** 0.5
    mid = 0.5 * (lo.values[-1] + hi.values[-1])
    err = np.abs(mid - exact)[d.step_masks()[0]].max()
    assert err < 0.05


def test_bracket_rejects_nonmonotone_domain():
    g = Grid(n=2, h=1 / 8, origin=(0, 0), extents=(8, 8))
    small = np.zeros((8, 8), dtype=bool)
    small[2:6, 2:6] = True
    d = SpaceTimeDomain(
        [Cylinder(SpatialDomain(g, np.ones((8, 8), bool)), 0.0, 0.125),
         Cylinder(SpatialDomain(g, small), 0.125, 0.25)], dt=1 / 16)
    with pytest.raises(Exception):
        perron_bracket(d, BoundaryData.constant(1.0), [0.1], CFG, M_EXP)


def test_discretization_estimate_positive_for_varying_data():
    d = square_cylinder()
    f = BoundaryData(fn=lambda x, t: 1.0 + x[..., 0] ** 2, bounds=(1.0, 1.25))
    (est,) = discretization_estimate([solve_union(d, f, CFG, M_EXP)], [f],
                                     CFG, M_EXP)
    assert est > 0


def test_discretization_estimate_needs_one_domain_and_a_datum_per_field():
    f = BoundaryData(fn=lambda x, t: 1.0 + x[..., 0] ** 2, bounds=(1.0, 1.25))
    # two equal domains, but two objects: two coarse companions
    u, v = (solve_union(square_cylinder(), f, CFG, M_EXP) for _ in range(2))
    with pytest.raises(PerronError, match="one domain object"):
        discretization_estimate([u, v], [f, f], CFG, M_EXP)
    with pytest.raises(PerronError, match="2 fields for 1 data"):
        discretization_estimate([u, u], [f], CFG, M_EXP)
    with pytest.raises(PerronError, match="1 fields for 2 data"):
        discretization_estimate([u], [f, f], CFG, M_EXP)


def test_coarsen_domain_halves_everything():
    d = square_cylinder(h=1 / 16, cells=16)
    d2 = coarsen_domain(d)
    assert d2.grid.h == 1 / 8
    assert d2.grid.extents == (8, 8)
    assert d2.dt == 2 * d.dt


def test_estimates_on_one_domain_share_one_coarse_companion(monkeypatch):
    # the coarse companion and its slabs are built once per domain object
    d = square_cylinder()
    f = BoundaryData(fn=lambda x, t: 1.0 + x[..., 0] ** 2, bounds=(1.0, 1.25))
    fine = solve_union(d, f, CFG, M_EXP)
    built, step_matrices = [], solver._step_matrices

    def counted(core):
        built.append(core.shape)
        return step_matrices(core)

    monkeypatch.setattr(solver, "_step_matrices", counted)
    first = discretization_estimate([fine], [f], CFG, M_EXP)
    assert built == [(8, 8)]
    assert discretization_estimate([fine], [f], CFG, M_EXP) == first
    assert built == [(8, 8)]
    assert coarsen_domain(d) is coarsen_domain(d)
    assert coarsen_domain(square_cylinder()) is not coarsen_domain(d)


def test_ball_masks_match_a_per_sample_loop():
    d = expanding_stack()
    u = Field.from_values(d, np.zeros((d.num_levels, 16, 16)), M_EXP)
    xi = np.array([0.4 - 1 / 32, 1 / 32, 0.125])
    radii = [0.3, 0.2, 0.1, 0.05]
    balls = _ball_masks(d, xi, radii)
    assert balls.shape == (len(radii), *u.scheme_mask.shape)
    centers, times = d.grid.centers(), d.level_times()
    for (k, *cell), interior in np.ndenumerate(u.scheme_mask):
        d2 = (((centers[tuple(cell)] - xi[:-1]) ** 2).sum()
              + (times[k] - xi[-1]) ** 2)
        for ball, r in zip(balls, radii):
            assert ball[(k, *cell)] == (interior and d2 <= r ** 2)
    with pytest.raises(PerronError, match="no interior samples"):
        _ball_masks(d, xi, [0.3, 1e-3])


def test_lateral_probe_regular():
    d = square_cylinder(h=1 / 16, cells=16)
    xi0 = ((-0.5 + 1 / 32, 1 / 32), 0.125)
    fam, labels = default_data_family(d, xi0)
    probe = regularity_probe(d, xi0, fam, [0.25, 0.2, 0.15, 0.1, 0.07],
                             CFG, M_EXP, family_labels=labels)
    assert probe.verdict == "regular evidence"


def test_probe_estimates_its_family_in_one_coarse_pass(monkeypatch):
    d = square_cylinder()
    xi0 = ((-0.5 + 1 / 32, 1 / 32), 0.125)
    family = [BoundaryData.constant(1.0), BoundaryData.constant(2.0),
              BoundaryData(fn=lambda x, t: 1.5 + x[..., 0], bounds=(1.0, 2.0))]
    many, single = [], []
    solve_many = perron.solve_union_many

    def counted(dom, datas, cfg, m):
        many.append((dom, len(datas)))
        return solve_many(dom, datas, cfg, m)

    monkeypatch.setattr(perron, "solve_union_many", counted)
    monkeypatch.setattr(perron, "solve_union",
                        lambda *args: single.append(args))
    probe = regularity_probe(d, xi0, family, [0.25, 0.2, 0.15, 0.1, 0.07],
                             CFG, M_EXP)
    # the f + eps and (f - eps)_+ solves, then every member's coarse solve
    assert many == [(d, 6), (coarsen_domain(d), 3)]
    assert not single
    assert len(probe.disc_ests) == 3


def test_probe_rejects_points_off_the_boundary():
    d = square_cylinder()
    with pytest.raises(PerronError):
        regularity_probe(d, ((0.0, 0.0), 0.125), [BoundaryData.constant(1.0)],
                         [0.2, 0.1, 0.05], CFG, M_EXP)


def test_probe_refuses_the_seam_between_side_by_side_bases():
    # two 4x8 boxes meeting along a seam fill the 8x8 grid; the seam cells
    # are interior to the union, as the solver treats them
    g = Grid(n=2, h=1 / 8, origin=(0.0, 0.0), extents=(8, 8))
    lower = np.zeros((8, 8), dtype=bool)
    lower[:4] = True
    d = SpaceTimeDomain([Cylinder(SpatialDomain(g, lower), 0.0, 0.5),
                         Cylinder(SpatialDomain(g, ~lower), 0.0, 0.5)],
                        dt=1 / 8)
    pb = parabolic_boundary(d)
    assert pb.sum() == 64 + 4 * 28            # bottom + the union's ring
    assert not pb[2, 3, 4]
    seam = tuple(g.centers()[3, 4])
    with pytest.raises(OffBoundaryError):
        regularity_probe(d, (seam, d.level_time(2)),
                         [BoundaryData.constant(1.0)], [0.2, 0.1, 0.05],
                         CFG, M_EXP)


def test_probe_needs_three_radii():
    d = square_cylinder()
    xi0 = ((-0.5 + 1 / 32, 1 / 32), 0.125)
    with pytest.raises(PerronError):
        regularity_probe(d, xi0, [BoundaryData.constant(1.0)], [0.2, 0.1],
                         CFG, M_EXP)


def test_dichotomy_attains_on_constant_data():
    d = square_cylinder()
    xi0 = ((-0.5 + 1 / 32, 1 / 32), 0.125)
    res = dichotomy_check(d, xi0, BoundaryData.constant(1.0),
                          [0.25, 0.2, 0.15, 0.1, 0.07], CFG, M_EXP)
    assert res.branch == "attains"
    assert res.liminf_estimate >= res.boundary_value - res.tol


def test_dichotomy_rejects_vanishing_point_value():
    d = square_cylinder()
    xi0 = ((-0.5 + 1 / 32, 1 / 32), 0.125)
    zero = BoundaryData(fn=lambda x, t: 0.0, bounds=(0.0, 0.0))
    with pytest.raises(PerronError):
        dichotomy_check(d, xi0, zero, [0.2, 0.15, 0.1], CFG, M_EXP)


def test_dichotomy_ball_min_is_the_debiased_pinned_solve():
    # with no certificate, each ball's envelope estimate is the min of the
    # pinned f + eps solve over the ball, less eps, and nothing else
    d = square_cylinder()
    xi0 = ((-0.5 + 1 / 32, 1 / 32), 0.125)
    f = BoundaryData(fn=lambda x, t: 1.5 + x[..., 0], bounds=(1.0, 2.0))
    res = dichotomy_check(d, xi0, f, [0.25, 0.2, 0.15, 0.1, 0.07], CFG, M_EXP)
    eps = 0.025 * 2.0
    upper = solve_union(d, f.shifted(eps), CFG, M_EXP)
    radii = [r for r, _ in res.per_radius]
    balls = _ball_masks(d, np.array([*xi0[0], xi0[1]]), radii)
    for (_, low), ball in zip(res.per_radius, balls):
        assert low == float(upper.values[ball].min()) - eps


def test_future_truncation_labels_both_probes():
    d = square_cylinder(h=1 / 16, cells=16)
    xi0 = ((-0.5 + 1 / 32, 1 / 32), 0.125)
    fam = [BoundaryData.constant(1.0), BoundaryData.constant(2.0)]
    labels = ["one", "two"]
    full, trunc, _ = future_truncation_probe(
        d, xi0, fam, [0.25, 0.2, 0.15, 0.1, 0.07], CFG, M_EXP,
        family_labels=labels)
    assert full.family_labels == trunc.family_labels == labels
    assert full.to_dict()["family"] == labels
    with pytest.raises(TypeError):
        future_truncation_probe(d, xi0, fam, [0.25, 0.2, 0.15], CFG, M_EXP,
                                upper_members=[])


def test_future_truncation_agrees_on_lateral_point():
    d = square_cylinder(h=1 / 16, cells=16)
    xi0 = ((-0.5 + 1 / 32, 1 / 32), 0.125)
    fam = [BoundaryData.constant(1.0), BoundaryData.constant(2.0)]
    full, trunc, agree = future_truncation_probe(
        d, xi0, fam, [0.25, 0.2, 0.15, 0.1, 0.07], CFG, M_EXP)
    assert agree
    assert trunc.note == ""


def test_future_truncation_above_domain_is_identity():
    d = square_cylinder()
    xi0 = ((-0.5 + 1 / 32, 1 / 32), 0.25)     # top rim, lateral sample
    fam = [BoundaryData.constant(1.0)]
    full, trunc, agree = future_truncation_probe(
        d, xi0, fam, [0.25, 0.2, 0.15, 0.1, 0.07], CFG, M_EXP)
    assert agree and full.verdict == trunc.verdict


def test_future_truncation_earliest_branch():
    d = expanding_stack()
    # junction annulus point: in the truncation it is an earliest point
    xi0 = ((0.4 - 1 / 32, 1 / 32), 0.125)
    fam = [BoundaryData.constant(1.0)]
    full, trunc, agree = future_truncation_probe(
        d, xi0, fam, [0.2, 0.15, 0.1, 0.07, 0.05], CFG, M_EXP)
    assert "earliest" in trunc.note
    assert trunc.verdict == "regular evidence"
    assert agree


def test_scale_transform_identities():
    d = square_cylinder(h=1 / 8, cells=8, t2=0.125, dt=1 / 32)
    u = solve_union(d, BoundaryData.constant(1.0), CFG, M_EXP)
    same = scale_transform(u, 1.0, M_EXP)
    assert np.allclose(same.values, u.values, equal_nan=True)
    four = scale_transform(u, 4.0, M_EXP)
    assert np.allclose(four.values, 4.0 * u.values, equal_nan=True)
    back = scale_transform(four, 0.25, M_EXP)
    assert np.allclose(back.values, u.values, equal_nan=True)


def test_scale_transform_rejects_heat_exponent():
    d = square_cylinder(h=1 / 8, cells=8, t2=0.125, dt=1 / 32)
    u = solve_union(d, BoundaryData.constant(1.0), CFG, M_EXP)
    with pytest.raises(PerronError):
        scale_transform(u, 4.0, 1.0)


def punctured_setup(h=1 / 32):
    cells = int(round(2.6 / h))
    if cells % 2 == 0:
        cells += 1
    g = Grid(n=2, h=h, origin=(-cells * h / 2,) * 2, extents=(cells, cells))
    centers = g.centers()
    disk = np.linalg.norm(centers, axis=-1) < 1.2
    punct = disk.copy()
    punct[g.cell_of((0.0, 0.0))] = False
    Up, Uf = SpatialDomain(g, punct), SpatialDomain(g, disk)
    dp = SpaceTimeDomain([Cylinder(Up, 0.0, 0.25)], dt=1 / 64)
    de = SpaceTimeDomain([Cylinder(Uf, 0.0, 0.25)], dt=1 / 64)
    prof = wiener_profile(Up, (0.0, 0.0), k_max=4)
    cert = RemovabilityCertificate(de, prof, classify_thickness(prof))
    return dp, de, cert


def ramped_tent():
    def fn(x, t):
        r = np.linalg.norm(x, axis=-1)
        return np.maximum(1.0 - r / 0.45, 0.0) * np.minimum(t / 0.05, 1.0)
    return BoundaryData(fn=fn, bounds=(0.0, 1.0))


def assert_pinned_solve_positive_near_puncture(dp, data):
    # zero data would give the same verdicts as the tent, so the solve
    # pinned to the data must carry the tent next to the puncture column
    u = solve_union(dp, data, CFG, M_EXP)
    ball = _ball_masks(dp, np.array([0.0, 0.0, 0.125]), [0.07])[0]
    assert u.values[ball].min() > 0.5


def test_removability_certificate_validation():
    dp, de, cert = punctured_setup()
    assert cert.verdict.classification == "thin"
    cert.validate(dp)
    # refuse to validate against a mismatched domain
    other = square_cylinder()
    with pytest.raises(PerronError):
        cert.validate(other)
    bad = RemovabilityCertificate(
        de, cert.profile,
        type(cert.verdict)(**{**cert.verdict.__dict__,
                              "classification": "thick"}))
    with pytest.raises(PerronError):
        bad.validate(dp)


def _without(d, idx):
    """d's one cylinder with the cell ``idx`` taken out of its base."""
    (cyl,) = d.cylinders
    mask = cyl.base.mask.copy()
    mask[idx] = False
    return SpaceTimeDomain(
        [Cylinder(SpatialDomain(d.grid, mask), cyl.t1, cyl.t2)], d.dt)


def test_removability_refuses_cells_beyond_the_profile_or_outside():
    dp, de, cert = punctured_setup()
    # a cell on the disk's rim, far beyond the finest profiled shell
    far = tuple(int(i) for i in np.argwhere(de.cylinders[0].base.mask)[0])
    with pytest.raises(PerronError, match="beyond the finest profiled shell"):
        cert.validate(_without(dp, far))
    # an envelope missing that rim cell no longer contains the domain
    short = RemovabilityCertificate(_without(de, far), cert.profile,
                                    cert.verdict)
    with pytest.raises(PerronError, match="must contain the probed domain"):
        short.validate(dp)


def test_puncture_dichotomy_drops_with_certificate():
    dp, de, cert = punctured_setup()
    res = dichotomy_check(dp, ((0.0, 0.0), 0.125), ramped_tent(),
                          [0.3, 0.2, 0.15, 0.1, 0.07], CFG, M_EXP,
                          removability=cert)
    assert res.branch == "drops-to-zero"
    assert res.liminf_estimate <= res.tol
    assert_pinned_solve_positive_near_puncture(dp, ramped_tent())


def test_verdict_monotone_under_family_growth():
    from pmelab.perron import _verdict
    passing = dict(up=[0.0], low=[0.0], ug=[[0.3, 0.2, 0.1]],
                   lg=[[0.3, 0.2, 0.1]], dd=[0.01])
    assert _verdict(passing["up"], passing["low"], passing["ug"],
                    passing["lg"], passing["dd"]) == "regular evidence"
    # adding a member with a large but decaying gap weakens the verdict
    # to inconclusive, never to irregular
    grown = _verdict([0.0, 0.2], [0.0, 0.2],
                     [[0.3, 0.2, 0.1], [0.9, 0.6, 0.3]],
                     [[0.3, 0.2, 0.1], [0.9, 0.6, 0.3]], [0.01, 0.01])
    assert grown == "inconclusive"
    # a flip to irregular needs a flat gap beyond five times the estimate
    flat = _verdict([0.0, 0.9], [0.0, 0.9],
                    [[0.3, 0.2, 0.1], [0.95, 0.93, 0.92]],
                    [[0.3, 0.2, 0.1], [0.95, 0.93, 0.92]], [0.01, 0.01])
    assert flat == "irregular evidence"


def test_dichotomy_branches_are_exclusive():
    # the margin cap keeps "attains" (est >= 0.6 f) and "drops" (est <= 0.4 f)
    # disjoint for every tolerance choice
    d = square_cylinder(h=1 / 8, cells=8, t2=0.125, dt=1 / 32)
    xi0 = ((-0.5 + 1 / 16, 1 / 16), 0.0625)
    res = dichotomy_check(d, xi0, BoundaryData.constant(1.0),
                          [0.35, 0.3, 0.25, 0.2], CFG, M_EXP, tol=100.0)
    assert res.tol <= 0.4 * res.boundary_value
    assert res.branch in ("attains", "drops-to-zero", "inconclusive")


def test_puncture_probe_flags_irregular():
    dp, de, cert = punctured_setup()
    f = ramped_tent()
    shifted = BoundaryData(fn=lambda x, t: f.fn(x, t) + 0.05,
                           bounds=(0.05, 1.05))
    probe = regularity_probe(dp, ((0.0, 0.0), 0.125), [shifted],
                             [0.3, 0.2, 0.15, 0.1, 0.07], CFG, M_EXP,
                             family_labels=["ramped-tent"],
                             removability=cert)
    assert probe.verdict == "irregular evidence"
    # the pinned solve tracks the reinstated (unpunctured) solve nowhere
    # near the data value at the puncture: the lower gap stays order one
    assert min(probe.lower_gaps[0]) > 0.5
    assert_pinned_solve_positive_near_puncture(dp, shifted)
