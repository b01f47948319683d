import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from pmelab.barriers import (
    KINDS,
    BarrierError,
    BarrierSpec,
    SamplingPolicy,
    barenblatt,
    barenblatt_support_radius,
    evaluate,
    min_valid_j,
    residual,
    _region_samples,
    verify_sign,
)
from pmelab.capacity import torsion_profile
from pmelab.geometry import Cylinder, Grid, SpaceTimeDomain, SpatialDomain


def square_region(h=0.125, cells=8, t2=0.5):
    g = Grid(n=2, h=h, origin=(-cells * h / 2, -cells * h / 2),
             extents=(cells, cells))
    U = SpatialDomain(g, np.ones((cells, cells), dtype=bool))
    return SpaceTimeDomain([Cylinder(U, 0.0, t2)], dt=t2 / 8)


def fd_residual(spec, x, t, h=1e-5, dt=1e-5):
    """Central finite differences of the closed form; the cross-check oracle."""
    r = (evaluate(spec, x, t + dt) - evaluate(spec, x, t - dt)) / (2 * dt)
    w0 = evaluate(spec, x, t) ** spec.m
    for ax in range(spec.n):
        for s in (-1, 1):
            xx = np.array(x, dtype=float)
            xx[ax] += s * h
            r -= (evaluate(spec, xx, t) ** spec.m - w0) / h ** 2
    return r


# -- anchors: every family equals c at its anchor point ----------------------

@pytest.mark.parametrize("kind,c", [
    ("quadratic_sub", 1.5), ("log_super", 1.5),
    ("earliest_super", 1.0), ("earliest_sub", 1.0),
])
def test_anchor_value(kind, c):
    spec = BarrierSpec(kind, c=c, j=3, m=2.0, n=2, diam=2.0)
    assert evaluate(spec, [0.0, 0.0], 0.0) == pytest.approx(c)


def test_log_anchor_uses_branch_without_log_term():
    # (c^(-1/gamma))^(-gamma) = c, substituting the x = 0 branch
    spec = BarrierSpec("log_super", c=0.7, j=5, m=2.0, n=2, diam=1.0)
    v = spec.c ** (-1.0 / spec.gamma)
    assert evaluate(spec, [0.0, 0.0], 0.0) == pytest.approx(v ** -spec.gamma)
    assert evaluate(spec, [0.0, 0.0], 0.0) == pytest.approx(0.7)


# -- residuals match finite differences of the closed forms ------------------

@pytest.mark.parametrize("kind,c,j,x,t,tol", [
    ("quadratic_sub", 1.5, 3, [0.3, -0.2], 0.7, 1e-4),
    ("log_super", 1.5, 50, [0.3, -0.2], 0.7, 1e-4),
    ("earliest_super", 1.0, 7, [0.3, -0.2], 0.5, 1e-3),
    ("earliest_sub", 1.0, 2, [0.1, 0.05], 0.01, 1e-4),
])
def test_residual_matches_finite_differences(kind, c, j, x, t, tol):
    spec = BarrierSpec(kind, c=c, j=j, m=2.0, n=2, diam=2.0)
    assert residual(spec, x, t) == pytest.approx(fd_residual(spec, x, t),
                                                 abs=tol, rel=1e-3)


def test_torsion_residuals_match_finite_differences_in_v():
    # FD on the torsion kinds needs v off cell centers, so check the closed
    # form against a manual recomputation from the exact identity lap(v)=-1.
    g = Grid(n=2, h=1 / 32, origin=(0, 0), extents=(32, 32))
    U = SpatialDomain(g, np.ones((32, 32), dtype=bool))
    x0 = np.array([0.5, 0.0])
    v = torsion_profile(U, x0)
    for kind, sign_of_lap in (("torsion_super", -1.0), ("torsion_sub", 1.0)):
        spec = BarrierSpec(kind, c=1.0, j=4, m=2.0, n=2, diam=1.5,
                           torsion_field=v, anchor=((0.5, 0.0), 0.0))
        x, t = np.array([0.515625, 0.515625]), 0.3
        vx = v.value_at(x)
        m, c, j = 2.0, 1.0, 4
        if kind == "torsion_super":
            a = spec.a_torsion
            A = c ** m + j * vx + a * j * t * t
            expect = (2 * a * j * t / m) * A ** ((1 - m) / m) + j
        else:
            b = spec.b_torsion
            A = c ** m - j * vx - b * j ** (1 / m) * t * t
            if A <= 1 / j:
                expect = 0.0
            else:
                expect = -(2 * b * j ** (1 / m) * t / m) * A ** ((1 - m) / m) - j
        assert residual(spec, x, t) == pytest.approx(expect)


# -- spec'd residual identities ----------------------------------------------

def test_quadratic_laplacian_term_is_2jn():
    # at t = 0 the time term vanishes, so residual = -2*j*n exactly
    spec = BarrierSpec("quadratic_sub", c=1.0, j=3, m=2.0, n=2, diam=2.0)
    assert residual(spec, [0.4, 0.1], 0.0) == pytest.approx(-12.0)
    spec5 = BarrierSpec("quadratic_sub", c=2.0, j=5, m=3.0, n=3, diam=1.0)
    assert residual(spec5, [0.2, 0.0, 0.1], 0.0) == pytest.approx(-30.0)


def test_earliest_sub_clipping():
    spec = BarrierSpec("earliest_sub", c=1.0, j=2, m=2.0, n=2, diam=1.0)
    # j|x|^2 + j*a*t >= c^m: clipped to zero, residual zero (flat solves)
    assert evaluate(spec, [5.0, 5.0], 0.5) == 0.0
    assert residual(spec, [5.0, 5.0], 0.5) == 0.0
    # support boundary excluded
    a = spec.a_earliest
    t_edge = (1.0 - 2 * 0.01) / (2 * a)
    assert math.isnan(residual(spec, [0.1, 0.0], t_edge))


def test_earliest_sub_continuous_across_support_edge():
    spec = BarrierSpec("earliest_sub", c=1.0, j=2, m=2.0, n=2, diam=1.0)
    # |x| just inside/outside the support at t = 0: both values near zero
    r_edge = (1.0 / 2) ** 0.5
    inside = evaluate(spec, [r_edge - 1e-6, 0.0], 0.0)
    outside = evaluate(spec, [r_edge + 1e-6, 0.0], 0.0)
    assert outside == 0.0
    assert 0.0 < inside < 2e-3


def test_torsion_sub_floor_is_exact_solution():
    g = Grid(n=2, h=1 / 16, origin=(0, 0), extents=(16, 16))
    U = SpatialDomain(g, np.ones((16, 16), dtype=bool))
    v = torsion_profile(U, np.array([0.5, 0.0]))
    spec = BarrierSpec("torsion_sub", c=1.0, j=4, m=2.0, n=2, diam=1.5,
                       torsion_field=v, anchor=((0.5, 0.0), 0.0))
    # far from the anchor v is large, so the floor max{., 1/j} is active
    far = np.array([0.96875, 0.96875])
    assert evaluate(spec, far, 0.0) == pytest.approx((1 / 4) ** 0.5)
    assert residual(spec, far, 0.0) == 0.0


# -- sign certification -------------------------------------------------------

def test_verify_sign_quadratic_certifies():
    spec = BarrierSpec("quadratic_sub", c=1.0, j=3, m=2.0, n=2, diam=2.0)
    rep = verify_sign(spec, square_region(), SamplingPolicy(seed=42))
    assert rep.certified
    assert rep.max_residual <= 0
    assert rep.samples_checked > 500


def test_verify_sign_flags_insufficient_earliest_index():
    region = square_region(t2=0.5)
    bad = BarrierSpec("earliest_super", c=1.0, j=1, m=2.0, n=2, diam=1.0)
    rep = verify_sign(bad, region, SamplingPolicy(seed=1))
    assert not rep.certified
    assert rep.min_residual < 0
    good = BarrierSpec("earliest_super", c=1.0, j=129, m=2.0, n=2, diam=1.0)
    rep2 = verify_sign(good, region, SamplingPolicy(seed=1))
    assert rep2.certified


def test_verify_sign_zero_residual_sample_no_violation():
    # deep outside its support the clipped family solves exactly
    spec = BarrierSpec("earliest_sub", c=0.1, j=1, m=2.0, n=2, diam=1.0)
    g = Grid(n=2, h=0.125, origin=(5.0, 5.0), extents=(2, 2))
    U = SpatialDomain(g, np.ones((2, 2), dtype=bool))
    region = SpaceTimeDomain([Cylinder(U, 0.0, 0.125)], dt=0.125)
    rep = verify_sign(spec, region, SamplingPolicy(seed=0, jitter_factor=1))
    assert rep.certified and rep.min_residual == rep.max_residual == 0.0


def test_log_family_excludes_singular_column():
    spec = BarrierSpec("log_super", c=1.0, j=10 ** 5, m=2.0, n=2, diam=2.0)
    assert math.isnan(residual(spec, [0.0, 0.0], 0.3))
    rep = verify_sign(spec, square_region(), SamplingPolicy(seed=3))
    assert rep.samples_excluded > 0
    assert rep.certified


# -- the array contract ----------------------------------------------------------

def array_case(kind):
    """A member of ``kind`` and 49 points with times (7 x 7 grid in [0, 0.75]^2).

    The log member's anchor is a grid point (its singular column), and some
    times put samples on the clip interfaces of earliest_sub (support edge)
    and torsion_sub (floor), so every exclusion branch is exercised.
    """
    lin = np.linspace(0.0, 0.75, 7)
    pts = np.stack(np.meshgrid(lin, lin, indexing="ij"), axis=-1).reshape(-1, 2)
    t = np.linspace(0.0, 0.5, 49)
    extra = {}
    if kind.startswith("torsion"):
        g = Grid(n=2, h=1 / 16, origin=(0, 0), extents=(16, 16))
        U = SpatialDomain(g, np.ones((16, 16), dtype=bool))
        extra = dict(torsion_field=torsion_profile(U, np.array([0.5, 0.0])),
                     anchor=((0.5, 0.0), 0.0))
    j = {"log_super": 50, "earliest_super": 129}.get(kind, 2)
    spec = BarrierSpec(kind, c=1.0, j=j, m=2.0, n=2, diam=1.5, **extra)
    c, m = spec.c, spec.m
    if kind == "earliest_sub":
        r2 = (pts * pts).sum(-1)
        t[::4] = (c ** m - j * r2[::4]) / (j * spec.a_earliest)
    elif kind == "torsion_sub":
        lift = c ** m - j * spec.torsion_field.value_at(pts) - 1.0 / j
        edge = np.flatnonzero(lift > 0)[::3]
        t[edge] = np.sqrt(lift[edge] / (spec.b_torsion * j ** (1.0 / m)))
    return spec, pts, t


@pytest.mark.parametrize("kind", KINDS)
def test_array_calls_match_point_calls_bit_for_bit(kind):
    spec, pts, t = array_case(kind)
    for fn in (evaluate, residual):
        single = np.array([fn(spec, x, s) for x, s in zip(pts, t)])
        batch = fn(spec, pts, t)
        assert batch.shape == (49,)
        np.testing.assert_array_equal(batch.view(np.int64),
                                      single.view(np.int64))
        grid = fn(spec, pts.reshape(7, 7, 2), t.reshape(7, 7))
        np.testing.assert_array_equal(grid.view(np.int64),
                                      single.reshape(7, 7).view(np.int64))
        # a scalar time broadcasts over the grid
        at = np.array([fn(spec, x, 0.25) for x in pts]).reshape(7, 7)
        np.testing.assert_array_equal(
            fn(spec, pts.reshape(7, 7, 2), 0.25).view(np.int64),
            at.view(np.int64))
    r = residual(spec, pts, t)
    if kind in ("log_super", "earliest_sub", "torsion_sub"):
        assert np.isnan(r).any()             # the excluded branch was hit
    if kind in ("earliest_sub", "torsion_sub"):
        assert (r == 0.0).any()              # and the exact-solution branch


def test_out_of_region_array_names_the_point():
    spec = BarrierSpec("log_super", c=1.0, j=3, m=2.0, n=2, diam=1.0)
    # D = 2 - log|x| <= 0 beyond |x| = e^2
    pts = np.array([[0.1, 0.0], [0.0, 0.0], [9.0, 0.5], [10.0, 0.0]])
    with pytest.raises(BarrierError, match=r"x=\(9\.0, 0\.5\), t=0\.25"):
        evaluate(spec, pts, 0.25)
    early = BarrierSpec("earliest_super", c=1.0, j=2, m=2.0, n=2, diam=1.0)
    t = np.array([0.0, 0.1, -5.0, -6.0])
    with pytest.raises(BarrierError, match=r"x=\(0\.0, 0\.0\), t=-5\.0"):
        evaluate(early, pts[[0, 1, 1, 0]], t)


def _reference_nodes(region):
    """(level, cell) node set of a per-cell loop over every step's base."""
    nodes = set()
    for k in range(region.num_steps):
        for idx in map(tuple, np.argwhere(region.step_base_mask(k))):
            nodes |= {(k, *idx), (k + 1, *idx)}
    return nodes


@st.composite
def _monotone_unions(draw):
    """Growing bases, one cylinder per step; one inner step may be empty."""
    n = draw(st.integers(1, 2))
    ext = tuple(draw(st.lists(st.integers(1, 5), min_size=n, max_size=n)))
    steps = draw(st.integers(1, 5))
    grid = Grid(n=n, h=0.25, origin=(-0.5,) * n, extents=ext)
    size = int(np.prod(ext))
    base = np.zeros(size, dtype=bool)
    base[draw(st.integers(0, size - 1))] = True
    gap = draw(st.integers(1, steps - 2)) if steps >= 3 and draw(
        st.booleans()) else None
    cylinders = []
    for k in range(steps):
        grow = draw(st.lists(st.booleans(), min_size=size, max_size=size))
        base = base | np.array(grow)
        if k != gap:
            cylinders.append(Cylinder(SpatialDomain(grid, base.reshape(ext)),
                                      k * 0.125, (k + 1) * 0.125))
    return SpaceTimeDomain(cylinders, dt=0.125)


@settings(max_examples=60, deadline=None)
@given(region=_monotone_unions(), seed=st.integers(0, 2 ** 32 - 1),
       factor=st.integers(1, 3))
def test_region_samples_nodes_and_jitter(region, seed, factor):
    grid, times = region.grid, region.level_times()
    ref = _reference_nodes(region)
    X, T = _region_samples(region, SamplingPolicy(seed=seed, jitter_factor=0))
    levels = np.rint((T - region.t_min) / region.dt).astype(int)
    np.testing.assert_array_equal(T, times[levels])
    got = [(lev, *idx) for lev, idx in
           zip(levels.tolist(), zip(*(a.tolist() for a in grid.cell_of(X))))]
    assert len(got) == len(ref) and set(got) == ref
    np.testing.assert_array_equal(X, grid.centers()[grid.cell_of(X)])

    X, T = _region_samples(region, SamplingPolicy(seed=seed,
                                                  jitter_factor=factor))
    # draws on a step with an empty base are dropped
    bases = np.array([region.step_base_mask(k)
                      for k in range(region.num_steps)])
    steps = np.random.Generator(np.random.Philox(seed)).integers(
        region.num_steps, size=factor * len(ref))
    dropped = int((~bases.reshape(len(bases), -1).any(1))[steps].sum())
    assert len(T) == len(ref) + factor * len(ref) - dropped
    jx, jt = X[len(ref):], T[len(ref):]
    cells = grid.cell_of(jx)
    in_step = [(times[k] <= jt) & (jt <= times[k] + region.dt) & bases[k][cells]
               for k in range(region.num_steps)]
    assert np.logical_or.reduce(in_step).all()


# -- minimal index scans -------------------------------------------------------

def brute_min_j_earliest(c, m, n, diam, cap=10 ** 6):
    delta = max(diam, 1.0)
    for j in range(1, cap):
        if c ** m + 2 * j ** (2 * m - 1) * delta ** 2 \
                <= j ** (2 * m) / (2 * n * m) ** (m / (m - 1)):
            return j
    raise AssertionError("no j found")


def test_min_valid_j_reference_value():
    # m=2, n=2, c=1, delta=1: the inequality is 1 + 2 j^3 <= j^4 / 64
    assert min_valid_j("earliest_super", 1.0, 2.0, 2, 1.0) == 129
    assert brute_min_j_earliest(1.0, 2.0, 2, 1.0) == 129


def test_min_valid_j_monotone_in_c():
    j_big = min_valid_j("earliest_super", 1.0, 2.0, 2, 1.0)
    j_small = min_valid_j("earliest_super", 0.01, 2.0, 2, 1.0)
    assert j_small <= j_big


def test_min_valid_j_first_scan_hit():
    # delta = max(diam, 1) >= 1 forces c^m + 2 j^(2m-1) >= 2 at j = 1 while
    # the right side is below 1, so no parameters reach j = 1; the scan's
    # first hit on a small case is checked against the brute oracle instead
    j = min_valid_j("earliest_super", 0.1, 2.0, 1, 0.1)
    assert j == brute_min_j_earliest(0.1, 2.0, 1, 0.1) == 33


def test_min_valid_j_minimality():
    for kind, args in [("earliest_super", dict(c=1.0, m=2.0, n=2, diam=1.0)),
                       ("log_super", dict(c=1.0, m=2.0, n=2, diam=2.0))]:
        j = min_valid_j(kind, **args)
        if j > 1:
            with pytest.raises(BarrierError):
                # scanning with the cap just below j must fail
                min_valid_j(kind, **args, j_cap=j - 1)


def test_min_valid_j_rejects_heat_exponent():
    with pytest.raises(BarrierError):
        min_valid_j("earliest_super", 1.0, 1.0, 2, 1.0)


def test_min_valid_j_rejects_kinds_without_threshold():
    with pytest.raises(BarrierError):
        min_valid_j("quadratic_sub", 1.0, 2.0, 2, 1.0)


def test_log_min_j_certifies_on_region():
    region = square_region()
    j0 = min_valid_j("log_super", 1.0, 2.0, 2, 2.0)
    spec = BarrierSpec("log_super", c=1.0, j=j0, m=2.0, n=2, diam=2.0)
    rep = verify_sign(spec, region, SamplingPolicy(seed=11))
    assert rep.certified


# -- the source-solution oracle ----------------------------------------------

def test_barenblatt_outside_support():
    r = barenblatt_support_radius(1.0, 2.0, 2, 0.05)
    assert barenblatt([r + 0.01, 0.0], 1.0, 2.0, 2, 0.05) == 0.0
    assert barenblatt([r - 0.01, 0.0], 1.0, 2.0, 2, 0.05) > 0.0


def test_barenblatt_mass_conservation():
    m, n, C = 2.0, 2, 0.05

    def mass(t):
        r = barenblatt_support_radius(t, m, n, C)
        val, _ = integrate.dblquad(
            lambda y, x: barenblatt([x, y], t, m, n, C),
            -r, r, lambda x: -r, lambda x: r, epsabs=1e-10)
        return val

    assert mass(1.0) == pytest.approx(mass(2.0), rel=1e-8)


def test_barenblatt_self_similarity():
    m, n, C = 2.0, 2, 0.05
    beta = 1.0 / (n * (m - 1) + 2)
    lam = 3.0
    x = np.array([0.21, -0.13])
    lhs = barenblatt(lam ** beta * x, lam * 1.3, m, n, C)
    rhs = lam ** (-n * beta) * barenblatt(x, 1.3, m, n, C)
    assert lhs == pytest.approx(rhs, rel=1e-14)


def test_barenblatt_rejects_heat_exponent_and_bad_time():
    with pytest.raises(BarrierError):
        barenblatt([0.0, 0.0], 1.0, 1.0, 2, 0.05)
    with pytest.raises(BarrierError):
        barenblatt([0.0, 0.0], 0.0, 2.0, 2, 0.05)


def test_barenblatt_solves_pme_pointwise():
    # central FD residual of the oracle inside its support
    m, n, C = 2.0, 2, 0.05
    h, dt = 1e-4, 1e-4
    x, t = np.array([0.1, 0.2]), 1.0
    r = (barenblatt(x, t + dt, m, n, C) - barenblatt(x, t - dt, m, n, C)) / (2 * dt)
    w0 = barenblatt(x, t, m, n, C) ** m
    for ax in range(n):
        for s in (-1, 1):
            xx = x.copy()
            xx[ax] += s * h
            r -= (barenblatt(xx, t, m, n, C) ** m - w0) / h ** 2
    assert abs(r) < 1e-6
