import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy import ndimage
from scipy.fft import next_fast_len
from scipy.sparse.linalg import spsolve

from pmelab import capacity as capacity_module
from pmelab.capacity import (
    CapacityError,
    CompactMask,
    _BoxOperator,
    _complement_mask_in_ball,
    _energy,
    capacity,
    classify_thickness,
    dilate,
    single_cell_capacity,
    torsion_profile,
    wiener_profile,
)
from pmelab.geometry import Grid, SpatialDomain, face_stencil


def ambient_box(h=0.1, cells=25, origin=None, n=2):
    origin = origin or (-(cells / 2) * h,) * n
    g = Grid(n=n, h=h, origin=origin, extents=(cells,) * n)
    return g, SpatialDomain(g, np.ones((cells,) * n, dtype=bool))


def single_cell(g, at=None):
    cells = np.zeros(g.extents, dtype=bool)
    at = at or tuple(e // 2 for e in g.extents)
    cells[at] = True
    return cells


def test_empty_set_has_zero_capacity():
    g, V = ambient_box()
    assert capacity(CompactMask(g, np.zeros(g.extents, bool), V)) == 0.0


def test_monotone_under_inclusion():
    g, V = ambient_box()
    e1 = single_cell(g)
    e2 = e1.copy()
    e2[12, 13] = e2[13, 12] = True
    c1 = capacity(CompactMask(g, e1, V))
    c2 = capacity(CompactMask(g, e2, V))
    assert 0 < c1 <= c2


def test_nonincreasing_under_ambient_growth():
    g1, V1 = ambient_box(cells=25)
    g2, V2 = ambient_box(cells=37)
    c_small = capacity(CompactMask(g1, single_cell(g1), V1))
    c_big = capacity(CompactMask(g2, single_cell(g2), V2))
    assert c_big <= c_small


def test_point_capacity_decreases_under_refinement():
    # single cells at h = 0.1, 0.05, 0.025 in a fixed physical box: strictly
    # decreasing values (points have zero capacity in the plane)
    vals = [single_cell_capacity(h, 2, halfwidth=1.0)
            for h in (0.1, 0.05, 0.025)]
    assert vals[0] > vals[1] > vals[2] > 0


def dense_minimum(grid, cells, V):
    """Brute-force quadratic program: dense assembly, direct solve."""
    E_dil = dilate(cells) & V.mask
    pinned0 = V.boundary_mask & ~E_dil
    free = V.mask & ~E_dil & ~pinned0
    index = {tuple(i): k for k, i in enumerate(np.argwhere(V.mask))}
    N = len(index)
    h, n = grid.h, grid.n
    Q = np.zeros((N, N))
    for cell, ka in index.items():
        Q[ka, ka] += h ** n
        for ax in range(n):
            nb = list(cell)
            nb[ax] += 1
            nb = tuple(nb)
            if nb in index:
                kb = index[nb]
                Q[ka, ka] += h ** (n - 2)
                Q[kb, kb] += h ** (n - 2)
                Q[ka, kb] -= h ** (n - 2)
                Q[kb, ka] -= h ** (n - 2)
    u = np.zeros(N)
    for i in np.argwhere(E_dil):
        u[index[tuple(i)]] = 1.0
    fr = [index[tuple(i)] for i in np.argwhere(free)]
    pin = [k for k in range(N) if k not in fr]
    if fr:
        u[fr] = np.linalg.solve(Q[np.ix_(fr, fr)],
                                -Q[np.ix_(fr, pin)] @ u[pin])
    return float(u @ Q @ u)


def test_cg_route_matches_dense_quadratic_program():
    g = Grid(n=2, h=0.1, origin=(0, 0), extents=(9, 9))
    V = SpatialDomain(g, np.ones((9, 9), dtype=bool))
    cells = np.zeros((9, 9), dtype=bool)
    cells[4, 4] = True
    cm = CompactMask(g, cells, V)
    assert capacity(cm) == pytest.approx(dense_minimum(g, cells, V), rel=1e-9)


def test_one_dimension_rejected():
    g = Grid(n=1, h=0.1, origin=(0.0,), extents=(9,))
    V = SpatialDomain(g, np.ones((9,), dtype=bool))
    with pytest.raises(CapacityError):
        CompactMask(g, single_cell(g, at=(4,)), V)


def test_set_must_stay_clear_of_ambient_boundary():
    g, V = ambient_box(cells=9)
    edge = np.zeros((9, 9), dtype=bool)
    edge[1, 4] = True          # dilation touches the boundary ring
    with pytest.raises(CapacityError):
        CompactMask(g, edge, V)


def punctured_disk(h=1 / 32, radius=1.2):
    cells = int(round(2 * 1.3 / h))
    if cells % 2 == 0:
        cells += 1
    g = Grid(n=2, h=h, origin=(-cells * h / 2,) * 2, extents=(cells, cells))
    centers = g.centers()
    mask = np.linalg.norm(centers, axis=-1) < radius
    mask[g.cell_of((0.0, 0.0))] = False
    return SpatialDomain(g, mask)


def test_wiener_profile_shapes_and_trivial_integrand():
    U = punctured_disk()
    prof = wiener_profile(U, (0.0, 0.0), k_max=4)
    assert prof.radii[0] == 1.0
    # n = 2 makes r^(n-2) = 1: integrand equals the raw capacity
    assert prof.integrands == prof.cap_values
    assert all(i >= 0 for i in prof.integrands)
    sums = prof.partial_sums
    assert all(sums[i] <= sums[i + 1] + 1e-15 for i in range(len(sums) - 1))


def test_wiener_requires_boundary_point():
    U = punctured_disk()
    with pytest.raises(CapacityError):
        wiener_profile(U, (0.5, 0.2), k_max=4)     # interior point
    with pytest.raises(CapacityError):
        wiener_profile(U, (9.0, 9.0), k_max=4)     # far outside


def test_wiener_resolution_guard():
    U = punctured_disk(h=1 / 32)
    with pytest.raises(CapacityError, match="under-resolves"):
        wiener_profile(U, (0.0, 0.0), k_max=7)


def test_puncture_classifies_thin():
    U = punctured_disk()
    prof = wiener_profile(U, (0.0, 0.0), k_max=4)
    verdict = classify_thickness(prof)
    assert verdict.classification == "thin"
    assert verdict.tail_at_floor


def test_square_edge_classifies_thick():
    g = Grid(n=2, h=1 / 32, origin=(-0.5, -0.5), extents=(32, 32))
    U = SpatialDomain(g, np.ones((32, 32), dtype=bool))
    prof = wiener_profile(U, (-0.5, 0.0), k_max=4)
    verdict = classify_thickness(prof)
    assert verdict.classification == "thick"
    assert verdict.slope >= verdict.slope_tol


def test_classify_trivial_branches():
    from pmelab.capacity import CapacityProfile
    zero = CapacityProfile(x0=(0.0, 0.0), radii=[1, 0.5, 0.25, 0.125],
                           cap_values=[0.0] * 4, integrands=[0.0] * 4,
                           partial_sums=[0.0] * 4, n=2, h=1 / 32,
                           ambient_halfwidth=2.0, ambient_sensitivity=0.0)
    assert classify_thickness(zero).classification == "thin"
    const = CapacityProfile(x0=(0.0, 0.0), radii=[1, 0.5, 0.25, 0.125],
                            cap_values=[5.0] * 4, integrands=[5.0] * 4,
                            partial_sums=[5.0, 10.0, 15.0, 20.0], n=2,
                            h=1 / 32, ambient_halfwidth=2.0,
                            ambient_sensitivity=0.0)
    assert classify_thickness(const).classification == "thick"
    with pytest.raises(CapacityError):
        classify_thickness(CapacityProfile(
            x0=(0.0, 0.0), radii=[1, 0.5], cap_values=[1, 1],
            integrands=[1, 1], partial_sums=[1, 2], n=2, h=1 / 32,
            ambient_halfwidth=2.0, ambient_sensitivity=0.0))


def square_domain(h=1 / 32, cells=32):
    g = Grid(n=2, h=h, origin=(0.0, 0.0), extents=(cells, cells))
    return SpatialDomain(g, np.ones((cells, cells), dtype=bool))


def test_torsion_profile_dominates_distance():
    U = square_domain()
    x0 = np.array([0.0, 0.5])
    v = torsion_profile(U, x0)
    centers = U.grid.centers()
    phi = np.linalg.norm(centers - x0, axis=-1)
    assert np.all(v.values[U.mask] >= -1e-12)
    assert np.all(v.values[U.mask] >= phi[U.mask] - 1e-9)


def test_torsion_profile_is_exactly_superharmonic():
    U = square_domain(cells=16, h=1 / 16)
    v = torsion_profile(U, np.array([0.0, 0.5]))
    h = U.grid.h
    for idx in map(tuple, np.argwhere(U.core_mask)):
        lap = -4 * v.values[idx]
        for ax, s in ((0, 1), (0, -1), (1, 1), (1, -1)):
            nb = list(idx)
            nb[ax] += s
            lap += v.values[tuple(nb)]
        assert -lap / h ** 2 == pytest.approx(1.0, abs=1e-7)


def test_torsion_minimum_shrinks_under_refinement():
    # elliptic-regular corner point: min of v near x0 tends to zero with h
    mins = []
    for cells in (8, 16, 32):
        U = square_domain(h=1 / cells, cells=cells)
        v = torsion_profile(U, np.array([0.0, 0.0]))
        mins.append(v.min_within(np.array([0.0, 0.0]), 4 / cells))
    assert mins[0] > mins[1] > mins[2]


def test_three_dimensional_capacity_smoke():
    g = Grid(n=3, h=0.25, origin=(-1.125,) * 3, extents=(9, 9, 9))
    V = SpatialDomain(g, np.ones((9, 9, 9), dtype=bool))
    cells = np.zeros((9, 9, 9), dtype=bool)
    cells[4, 4, 4] = True
    val = capacity(CompactMask(g, cells, V))
    assert val > 0
    # in three dimensions r^(n-2) = r, so integrand != cap
    assert single_cell_capacity(0.25, 3, halfwidth=1.0) > 0


def test_torsion_rejects_bad_inputs():
    U = square_domain()
    with pytest.raises(CapacityError):
        torsion_profile(U, np.array([0.5, 0.5]))      # interior point
    g = U.grid
    two = np.zeros(g.extents, dtype=bool)
    two[2:5, 2:5] = True
    two[10:13, 10:13] = True
    with pytest.raises(CapacityError):
        torsion_profile(SpatialDomain(g, two), np.array([2 / 32, 2 / 32]))


def _reference_complement_in_ball(U, x0, r, amb_grid):
    """Per-cell loop: ambient cells in B(x0, r) that are not cells of U."""
    centers = amb_grid.centers()
    inside_ball = np.linalg.norm(centers - x0, axis=-1) < r
    offset = np.round((np.asarray(amb_grid.origin) - np.asarray(U.grid.origin))
                      / U.grid.h).astype(int)
    in_U = np.zeros(amb_grid.extents, dtype=bool)
    for idx in np.argwhere(inside_ball):
        iu = tuple(idx + offset)
        if all(0 <= iu[a] < U.grid.extents[a] for a in range(U.grid.n)):
            in_U[tuple(idx)] = U.mask[iu]
    return inside_ball & ~in_U


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_complement_in_ball_matches_per_cell_loop(n, seed):
    # ambient boxes that contain U, overlap it partly or miss it entirely
    rng = np.random.default_rng(seed)
    h = 0.1
    ext = tuple(int(e) for e in rng.integers(2, 9, size=n))
    U = SpatialDomain(Grid(n=n, h=h, origin=(0.0,) * n, extents=ext),
                      rng.random(ext) < 0.6)
    offset = rng.integers(-12, 12, size=n)
    amb = Grid(n=n, h=h, origin=tuple(float(o * h) for o in offset),
               extents=tuple(int(e) for e in rng.integers(1, 14, size=n)))
    x0, r = rng.uniform(-1.0, 1.0, size=n), rng.uniform(0.1, 1.5)
    assert np.array_equal(_complement_mask_in_ball(U, x0, r, amb),
                          _reference_complement_in_ball(U, x0, r, amb))


# -- the box-preconditioned CG against a direct solve --------------------------

def _direct(sel, diag, off, rhs_of):
    """spsolve of (diag*I - off*A) x = rhs on the cells of ``sel``."""
    st_ = face_stencil(sel)
    A = sp.diags(np.full(len(st_.flat), diag)) - off * st_.adjacency
    return spsolve(A.tocsc(), rhs_of(st_))


def reference_capacity(E):
    V = E.ambient
    h, n = E.grid.h, E.grid.n
    one = E.dilated
    free = V.mask & ~one & ~V.boundary_mask
    u = np.zeros(E.grid.extents)
    u[one] = 1.0
    if free.any():
        u[free] = _direct(free, 2 * n / h ** 2 + 1.0, 1 / h ** 2,
                          lambda s: s.pinned @ one.astype(float).ravel() / h ** 2)
    return _energy(u, V.mask, h, n)


def reference_torsion(U, x0):
    h = U.grid.h
    phi = np.linalg.norm(U.grid.centers() - x0, axis=-1)
    return _direct(U.core_mask, 2 * U.grid.n / h ** 2, 1 / h ** 2,
                   lambda s: 1.0 + s.pinned @ phi.ravel() / h ** 2)


def disk_ambient(cells, h=0.1):
    g = Grid(n=2, h=h, origin=(-(cells / 2) * h,) * 2, extents=(cells, cells))
    mask = np.linalg.norm(g.centers(), axis=-1) < cells * h / 2
    return g, SpatialDomain(g, mask)


@pytest.mark.parametrize("cells", [25, 24])
def test_capacity_on_disk_ambient_matches_direct_solve(cells):
    # the free cells do not fill their bounding box, so the inverse is
    # inexact; the box is 23 cells wide at 25 and 22, padded to 23, at 24
    g, V = disk_ambient(cells)
    E = np.zeros(g.extents, dtype=bool)
    E[10:13, 11:14] = True
    E[9, 12] = True
    cm = CompactMask(g, E, V)
    assert capacity(cm) == pytest.approx(reference_capacity(cm), rel=1e-9)


@pytest.mark.parametrize("extents", [(14, 14), (24, 15), (15, 44)])
def test_capacity_with_padded_box_matches_direct_solve(extents):
    # free boxes of 12, 22, 13 and 42 cells: N + 1 = 13, 23, 14, 43 are not
    # 5-smooth, so the transform box is padded on its high end
    g = Grid(n=2, h=0.1, origin=(0.0, 0.0), extents=extents)
    V = SpatialDomain(g, np.ones(extents, dtype=bool))
    E = single_cell(g)
    cm = CompactMask(g, E, V)
    assert capacity(cm) == pytest.approx(reference_capacity(cm), rel=1e-9)


def test_three_dimensional_capacity_matches_direct_solve():
    ext = (12, 9, 14)                  # free boxes of 10, 7 and 12 cells
    g = Grid(n=3, h=0.2, origin=(0.0,) * 3, extents=ext)
    V = SpatialDomain(g, np.ones(ext, dtype=bool))
    E = np.zeros(ext, dtype=bool)
    E[5:7, 4, 6:8] = True
    cm = CompactMask(g, E, V)
    assert capacity(cm) == pytest.approx(reference_capacity(cm), rel=1e-9)


def test_torsion_on_disk_matches_direct_solve():
    g, U = disk_ambient(27, h=1 / 13)
    x0 = g.centers()[U.boundary_mask][0]
    v = torsion_profile(U, x0)
    ref = reference_torsion(U, x0)
    assert np.allclose(v.values[U.core_mask], ref, rtol=1e-8, atol=0.0)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.integers(2, 3), edge=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_box_operator_is_the_stencil_operator(data, n, edge, seed):
    # random free masks; sides of 6, 10 or 12 free cells make a box that is
    # padded, and with a free cell on the high edge it runs past the array
    shape = tuple(data.draw(st.lists(st.integers(1, 12 if n == 2 else 7),
                                     min_size=n, max_size=n)))
    rng = np.random.default_rng(seed)
    free = rng.random(shape) < rng.uniform(0.2, 1.0)
    if edge:
        free[(-1,) * n] = True
    if not free.any():
        free[(0,) * n] = True
    h = rng.uniform(0.01, 1.0)
    diag, off = 2 * n / h ** 2 + 1.0, 1 / h ** 2
    x = rng.standard_normal(int(free.sum()))
    values = np.zeros(shape)
    values[free] = x
    op = _BoxOperator(free, diag, off)
    q = op @ op.to_box(values)
    A = sp.diags(np.full(len(x), diag)) - off * face_stencil(free).adjacency
    scale = (diag + 2 * n * off) * np.abs(x).max()
    assert np.abs(op.from_box(q) - A @ x).max() <= 1e-13 * scale
    assert not q.reshape(op.box)[op.fixed].any()


@pytest.mark.parametrize("cells", [14, 16])
def test_box_preconditioner_is_the_restricted_box_inverse(cells):
    # explicit R A_box^-1 R^T on a disk's core: its 12-cell box is padded to
    # 14 (13 is prime, 15 = 3 * 5); its 14-cell box is not padded
    g, V = disk_ambient(cells)
    sel = V.core_mask
    diag, off = 4.5, 1.0
    op = _BoxOperator(sel, diag, off)
    unit = np.zeros(sel.shape)
    columns = []
    for flat in np.flatnonzero(sel):
        unit.flat[flat] = 1.0
        z = op.precondition(op.to_box(unit))
        assert not z.reshape(op.box)[op.fixed].any()
        columns.append(op.from_box(z))
        unit.flat[flat] = 0.0
    dense = np.column_stack(columns)
    coords = np.argwhere(sel)
    lo = coords.min(axis=0)
    box = tuple(next_fast_len(int(w) + 1, real=True) - 1
                for w in coords.max(axis=0) - lo + 1)
    full = face_stencil(np.ones(box, dtype=bool))
    A_box = (diag * np.eye(len(full.flat))
             - off * full.adjacency.toarray())
    at = np.ravel_multi_index(tuple((coords - lo).T), box)
    expected = np.linalg.inv(A_box)[np.ix_(at, at)]
    assert np.allclose(dense, expected, rtol=0.0, atol=1e-12)
    assert np.allclose(dense, dense.T, rtol=0.0, atol=1e-12)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.integers(1, 3), corner=st.booleans())
def test_dilate_is_the_cross_binary_dilation(data, n, corner):
    shape = tuple(data.draw(st.lists(st.integers(1, 6), min_size=n,
                                     max_size=n)))
    cells = int(np.prod(shape))
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=cells,
                                       max_size=cells))).reshape(shape)
    if corner:                      # a set cell on the array edge
        mask[(-1,) * n] = True
    before = mask.copy()
    expected = ndimage.binary_dilation(
        mask, structure=ndimage.generate_binary_structure(n, 1))
    assert np.array_equal(dilate(mask), expected)
    assert np.array_equal(mask, before)


def staircase_ambient(heights, width):
    """Column i of the ambient box holds rows [0, heights[i])."""
    g = Grid(n=2, h=0.1, origin=(0.0, 0.0), extents=(len(heights), width))
    mask = np.arange(width)[None, :] < np.asarray(heights)[:, None]
    return g, SpatialDomain(g, mask)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_capacity_in_monotone_ambient_matches_direct_solve(seed):
    # ambient masks with nonincreasing column heights (a staircase) and a
    # random set E whose dilation stays inside the ambient core
    rng = np.random.default_rng(seed)
    cols, width = (int(v) for v in rng.integers(7, 19, size=2))
    heights = np.sort(rng.integers(7, width + 1, size=cols))[::-1]
    g, V = staircase_ambient(heights, width)
    room = ~dilate(~V.core_mask)
    E = room & (rng.random(g.extents) < rng.uniform(0.05, 0.5))
    if not E.any():
        E[tuple(np.argwhere(room)[0])] = True
    cm = CompactMask(g, E, V)
    assert capacity(cm) == pytest.approx(reference_capacity(cm), rel=1e-6)


def test_box_inverse_is_exact_on_a_full_box(monkeypatch):
    # a 33 x 33 square has a 31 x 31 core and 32 is 5-smooth: no padding,
    # the preconditioner is the exact inverse and CG takes one iteration
    iterations = []
    original = capacity_module.cg

    def counted(*args, **kwargs):
        calls = [0]

        def count(_xk):
            calls[0] += 1

        out = original(*args, callback=count, **kwargs)
        iterations.append(calls[0])
        return out

    monkeypatch.setattr(capacity_module, "cg", counted)
    U = square_domain(h=1 / 32, cells=33)
    torsion_profile(U, np.array([0.0, 0.5]))
    assert iterations == [1]
