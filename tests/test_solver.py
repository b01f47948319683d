import gc
import math
import re
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings, strategies as st
from scipy.sparse.linalg import LinearOperator, cg as scipy_cg

from pmelab import bundled, scenarios, solver
from pmelab.barriers import barenblatt
from pmelab.capacity import torsion_profile
from pmelab.geometry import (
    Cylinder,
    Grid,
    SpaceTimeDomain,
    SpatialDomain,
    parabolic_boundary,
)
from pmelab.solver import (
    BoundaryData,
    Field,
    SolverConfig,
    SolverError,
    cfl_max_dt,
    comparison_check,
    scheme_residual,
    solve_union,
    solve_union_many,
)

M_EXP = 2.0


def unit_box(h=1 / 16, cells=16, origin=(0.0, 0.0)):
    g = Grid(n=2, h=h, origin=origin, extents=(cells, cells))
    return SpatialDomain(g, np.ones((cells, cells), dtype=bool))


def box_cylinder(t2=0.25, dt=0.025, **kw):
    U = unit_box(**kw)
    return SpaceTimeDomain([Cylinder(U, 0.0, t2)], dt=dt), U


def test_constant_data_gives_constant_solution():
    d, U = box_cylinder()
    u = solve_union(d, BoundaryData.constant(1.5), SolverConfig(), M_EXP)
    vals = u.values[u.defined]
    assert vals.min() == vals.max() == pytest.approx(1.5)
    assert scheme_residual(u)[5, 8, 8] == 0.0


def test_stationary_affine_power_profile():
    # u^m affine in x means lap(u^m) = 0: the data profile is a steady state
    a, b = 1.0, 2.0
    d, U = box_cylinder()
    data = BoundaryData(fn=lambda x, t: (a + b * x[..., 0]) ** (1 / M_EXP),
                        bounds=(a ** 0.5, (a + 2 * b) ** 0.5))
    u = solve_union(d, data, SolverConfig(), M_EXP)
    centers = U.grid.centers()
    exact = (a + b * centers[..., 0]) ** (1 / M_EXP)
    err = np.abs(u.values[-1] - exact)[U.mask].max()
    assert err < 1e-9


def test_harmonic_power_profile_is_time_independent():
    # g^m discretely harmonic (affine) induces the steady solution g
    d, U = box_cylinder()
    data = BoundaryData(fn=lambda x, t: (1.0 + x[..., 0] + 0.5 * x[..., 1]) ** 0.5,
                        bounds=(1.0, 2.5 ** 0.5))
    u = solve_union(d, data, SolverConfig(), M_EXP)
    spread = np.nanmax(np.abs(u.values[-1] - u.values[0])[U.mask])
    assert spread < 1e-9


def test_solver_output_nonnegative_and_boundary_pinned():
    d, U = box_cylinder()
    data = BoundaryData(
        fn=lambda x, t: np.maximum(np.sin(7 * x[..., 0])
                                   + np.cos(5 * x[..., 1] + t), 0.0),
        bounds=(0.0, 2.0))
    u = solve_union(d, data, SolverConfig(), M_EXP)
    assert np.nanmin(u.values[u.defined]) >= 0.0
    centers = U.grid.centers()
    for k, *idx in zip(*np.nonzero(parabolic_boundary(d))):
        t = d.level_time(k)
        assert u.values[(k, *idx)] == pytest.approx(
            data.sample(centers[tuple(idx)], t))


def test_barenblatt_oracle_convergence():
    # two refinement levels, positive data window inside the support
    m, n, C = 2.0, 2, 0.05
    errs = []
    for lev in (0, 1):
        cells = 16 * 2 ** lev
        h = 1.0 / cells
        g = Grid(n=2, h=h, origin=(-0.5, -0.5), extents=(cells, cells))
        U = SpatialDomain(g, np.ones((cells, cells), dtype=bool))
        d = SpaceTimeDomain([Cylinder(U, 1.0, 1.25)], dt=0.25 / (12 * 2 ** lev))
        data = BoundaryData(fn=lambda x, t: barenblatt(x, t, m, n, C),
                            bounds=(0.0, 0.05))
        u = solve_union(d, data, SolverConfig(), m)
        centers = g.centers()
        exact = np.array([[barenblatt(centers[i, j], 1.25, m, n, C)
                           for j in range(cells)] for i in range(cells)])
        errs.append(float(np.abs(u.values[-1] - exact)[U.mask].sum()) * h * h)
    assert errs[1] < errs[0]


def test_barenblatt_truncation_order():
    # scheme residual of the sampled oracle halves when h, dt halve
    # (backward time difference dominates: O(dt) + O(h^2))
    m, n, C = 2.0, 2, 0.05
    worst = []
    for lev in (0, 1):
        cells = 16 * 2 ** lev
        h = 1.0 / cells
        g = Grid(n=2, h=h, origin=(-0.5, -0.5), extents=(cells, cells))
        U = SpatialDomain(g, np.ones((cells, cells), dtype=bool))
        d = SpaceTimeDomain([Cylinder(U, 1.0, 1.25)], dt=0.25 / (8 * 2 ** lev))
        vals = np.zeros((d.num_levels, cells, cells))
        centers = g.centers()
        for k in range(d.num_levels):
            t = d.level_time(k)
            for idx in np.argwhere(U.mask):
                idx = tuple(idx)
                vals[(k, *idx)] = barenblatt(centers[idx], t, m, n, C)
        res = scheme_residual(Field.from_values(d, vals, m))
        mid = cells // 2
        worst.append(max(abs(res[lv, mid, mid])
                         for lv in (1, d.num_steps // 2, d.num_steps)))
    ratio = worst[0] / worst[1]
    assert 1.5 < ratio < 3.5


def test_cfl_bound_values():
    assert cfl_max_dt(5.0, 0.1, 1.0, 2) == pytest.approx(0.1 ** 2 / 4)
    assert cfl_max_dt(1.0, 0.1, 2.0, 2) == pytest.approx(0.00125)
    assert cfl_max_dt(2.0, 0.1, 2.0, 2) == pytest.approx(0.00125 / 2)
    assert cfl_max_dt(0.0, 0.1, 2.0, 2) == math.inf


def test_explicit_scheme_respects_cfl():
    d, U = box_cylinder(t2=0.25, dt=0.025)
    data = BoundaryData.constant(1.0)
    with pytest.raises(SolverError):
        solve_union(d, data, SolverConfig(scheme="explicit"), M_EXP)
    h = U.grid.h
    dt_ok = 0.9 * cfl_max_dt(1.0, h, M_EXP, 2)
    steps = int(math.ceil(0.25 / dt_ok))
    d2 = SpaceTimeDomain([Cylinder(U, 0.0, 0.25)], dt=0.25 / steps)
    u = solve_union(d2, data, SolverConfig(scheme="explicit"), M_EXP)
    assert np.nanmax(np.abs(u.values[u.defined] - 1.0)) < 1e-12


def test_explicit_matches_implicit_on_smooth_data():
    U = unit_box(h=1 / 8, cells=8)
    data = BoundaryData(fn=lambda x, t: 1.0 + 0.3 * np.sin(3 * x[..., 0]),
                        bounds=(0.7, 1.3))
    h = U.grid.h
    dt = 0.8 * cfl_max_dt(1.3, h, M_EXP, 2)
    steps = int(math.ceil(0.1 / dt))
    d = SpaceTimeDomain([Cylinder(U, 0.0, 0.1)], dt=0.1 / steps)
    ue = solve_union(d, data, SolverConfig(scheme="explicit"), M_EXP)
    ui = solve_union(d, data, SolverConfig(scheme="implicit"), M_EXP)
    diff = np.nanmax(np.abs(ue.values[-1] - ui.values[-1])[U.mask])
    assert diff < 5e-3


def test_newton_failure_carries_residual():
    # a hard jump from a near-vacuum initial state needs several Newton
    # iterations; capping them at one must fail loudly with the residual
    d, _ = box_cylinder(t2=0.25, dt=0.25)
    data = BoundaryData(fn=lambda x, t: np.where(t <= 0, 0.01, 2.0),
                        bounds=(0.01, 2.0))
    with pytest.raises(SolverError, match="worst step residual"):
        solve_union(d, data, SolverConfig(newton_max=1), M_EXP)


def test_line_search_failures_are_counted():
    # a jump to 20 from near vacuum at m = 4: one Newton step is kept
    # although none of its 10 halvings meets the Armijo test
    d, _ = box_cylinder(t2=0.25, dt=0.25)
    data = BoundaryData(fn=lambda x, t: np.where(t <= 0, 0.01, 20.0),
                        bounds=(0.01, 20.0))
    u = solve_union(d, data, SolverConfig(), 4.0)
    assert u.stats["line_search_failures"] >= 1
    assert u.stats["line_search_backtracks"] >= 10
    smooth = solve_union(d, data, SolverConfig(), M_EXP)
    assert smooth.stats["line_search_failures"] == 0


def test_extrapolated_start_takes_one_newton_iteration_per_step():
    # the cut finest Barenblatt level of the benchmark ladder: started from
    # u_{k-1}, every step took 2 Newton iterations; started from
    # 2 u_{k-1} - u_{k-2}, every step from the third on takes one
    m, n, C = 2.0, 2, 0.05
    g = Grid(n=2, h=1 / 128, origin=(-0.5, -0.5), extents=(128, 128))
    U = SpatialDomain(g, np.ones((128, 128), dtype=bool))
    d = SpaceTimeDomain([Cylinder(U, 1.0, 1.05)], dt=0.05 / 20)
    data = BoundaryData(fn=lambda x, t: barenblatt(x, t, m, n, C),
                        bounds=(0.0, float(barenblatt(np.zeros(n), 1.0, m,
                                                      n, C))))
    cfg = SolverConfig()
    u = solve_union(d, data, cfg, m)
    assert len(u.stats["newton_iterations"]) == 20
    assert u.stats["newton_iterations"][2:] == [1] * 18
    worst = np.abs(scheme_residual(u)[u.scheme_mask]).max()
    assert worst <= (cfg.newton_tol * u.stats["residual_scale"]
                     * scenarios._ROUNDING_MARGIN)


def _recording_cg(monkeypatch):
    """Record (matrix, rhs, solution, preconditioner) of each inner solve.

    The solver rewrites its Jacobian in place every Newton iteration, so
    the matrix is copied at call time.
    """
    calls, cg = [], solver.cg

    def recording(J, b, **kwargs):
        y, info = cg(J, b, **kwargs)
        calls.append((J.copy(), b, y, kwargs.get("M")))
        return y, info

    monkeypatch.setattr(solver, "cg", recording)
    return calls


def test_banded_factor_takes_one_cg_iteration_per_newton_iteration(
        monkeypatch):
    # the 16x16 box of the bundled scaling scenario: 14x14 core, band 14
    doc = bundled.bundled_scenario("scaling-exactness")
    m = float(doc["operation"]["m"])
    calls = _recording_cg(monkeypatch)
    d = scenarios.build_domain(doc)
    u = solve_union(d, scenarios.build_data(doc["data"], m, d.grid),
                    SolverConfig(), m)
    assert sum(u.stats["newton_iterations"]) > 0
    assert u.stats["linear_iterations"] == u.stats["newton_iterations"]
    assert u.stats["line_search_failures"] == 0
    assert all(M is not None for *_, M in calls)


def test_wide_band_cg_meets_linear_tol_on_the_true_residual(monkeypatch):
    # a 36x36 box has a 34x34 core: its band is wider than _BAND_MAX
    cells = solver._BAND_MAX + 4
    d, _ = box_cylinder(h=1 / cells, cells=cells, t2=0.02, dt=0.01)
    data = BoundaryData(fn=lambda x, t: 1.0 + 0.5 * np.sin(3 * x[..., 0]),
                        bounds=(0.5, 1.5))
    cfg = SolverConfig()
    calls = _recording_cg(monkeypatch)
    u = solve_union(d, data, cfg, M_EXP)
    assert len(calls) == sum(u.stats["newton_iterations"]) > 0
    for J, b, y, M in calls:
        assert M is None
        # one member: b and y are (1, n) stacks, J its block-diagonal matrix
        true_res = np.linalg.norm(b.ravel() - J @ y.ravel())
        assert true_res <= cfg.linear_tol * np.linalg.norm(b)


def test_band_factor_of_non_spd_matrix_raises():
    # a two-cell 1-D slab, stored by its diagonals (offsets -1, 0, 1), with
    # J's diagonals rewritten to [[1, 2], [2, 1]], which is indefinite
    # (eigenvalues -1 and 3); column j of diagonal off holds J[j - off, j]
    jac = solver._SlabJacobian(solver._step_matrices(np.ones(2, dtype=bool)))
    assert jac.J.format == "dia" and jac.J.offsets.tolist() == [-1, 0, 1]
    jac.J.data[:] = [[2.0, 0.0], [1.0, 1.0], [0.0, 2.0]]
    assert np.array_equal(jac.J.toarray(), [[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(SolverError, match="Cholesky"):
        jac.factor()


@st.composite
def _spd_systems(draw):
    """A random banded SPD matrix (dense), its band and a right-hand side;
    one in four right-hand sides is zero, with signed zeros."""
    return _spd_system(draw, draw(st.integers(1, 40)))


def _spd_system(draw, n):
    bw = draw(st.integers(0, min(4, n - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dense = np.zeros((n, n))
    for k in range(1, bw + 1):
        off = rng.uniform(-1.0, 1.0, n - k)
        dense += np.diag(off, k) + np.diag(off, -k)
    # strict diagonal dominance with a positive diagonal: SPD
    dense += np.diag(np.abs(dense).sum(axis=1)
                     + rng.uniform(0.01, 2.0, n))
    b = rng.standard_normal(n) * draw(st.sampled_from([1.0, 1.0, 1.0, 0.0]))
    return dense, bw, b


def _preconditioner(kind, dense, bw):
    """None, Jacobi, or the exact inverse by a banded Cholesky factor."""
    if kind == "jacobi":
        diag = dense.diagonal().copy()
        return lambda r: r / diag
    if kind == "cholesky":
        ab = np.zeros((bw + 1, len(dense)))
        for k in range(bw + 1):
            ab[bw - k, k:] = np.diag(dense, k)
        cb, info = solver._PBTRF(ab)
        assert info == 0
        return lambda r: solver._PBTRS(cb, r)[0]
    return None


@settings(max_examples=150, deadline=None)
@given(system=_spd_systems(),
       precond=st.sampled_from(["none", "jacobi", "cholesky"]),
       rtol=st.sampled_from([1e-2, 1e-6, 1e-10, 1e-14]),
       atol=st.sampled_from([0.0, 1e-8]),
       maxiter=st.sampled_from([1, 2, None]))
def test_cg_repeats_scipy_cg_bit_for_bit(system, precond, rtol, atol,
                                         maxiter):
    # maxiter 1 or 2 mostly runs out before the tolerance: info > 0
    dense, bw, b = system
    A = sp.csr_matrix(dense)
    maxiter = maxiter or 10 * len(b) + 100
    M = _preconditioner(precond, dense, bw)
    counts = [0, 0]

    def counter(i):
        def count(_xk):
            counts[i] += 1
        return count

    x, info = solver.cg(A, b, rtol=rtol, atol=atol, maxiter=maxiter, M=M,
                        callback=counter(0))
    M_op = None if M is None else LinearOperator(A.shape, matvec=M,
                                                 dtype=float)
    x_ref, info_ref = scipy_cg(A, b, rtol=rtol, atol=atol, maxiter=maxiter,
                               M=M_op, callback=counter(1))
    assert x.tobytes() == x_ref.tobytes()
    assert info == info_ref
    assert counts[0] == counts[1]


def test_union_constant_on_expanding_stack():
    g = Grid(n=2, h=1 / 16, origin=(0, 0), extents=(16, 16))
    small = np.zeros((16, 16), dtype=bool)
    small[4:12, 4:12] = True
    U = SpatialDomain(g, small)
    V = SpatialDomain(g, np.ones((16, 16), dtype=bool))
    d = SpaceTimeDomain([Cylinder(U, 0.0, 0.125), Cylinder(V, 0.125, 0.25)],
                        dt=0.025)
    u = solve_union(d, BoundaryData.constant(2.0), SolverConfig(), M_EXP)
    vals = u.values[u.defined]
    assert vals.min() == pytest.approx(2.0)
    assert vals.max() == pytest.approx(2.0)


def test_single_cylinder_builds_the_stencil_once():
    d, _ = box_cylinder()
    u = solve_union(d, BoundaryData.constant(1.0), SolverConfig(), M_EXP)
    assert d.num_steps > 1
    assert u.stats["assemblies"] == 1


def test_union_builds_one_stencil_per_core_mask():
    doc = bundled.bundled_scenario("union-resolutivity")
    d = scenarios.build_domain(doc)
    data = scenarios.build_data(doc["data"], 2.0, d.grid)
    u = solve_union(d, data, SolverConfig(), 2.0)
    cores = {SpatialDomain(d.grid, step).core_mask.tobytes()
             for step in d.step_masks()}
    assert len(cores) == 2
    assert u.stats["assemblies"] == len(cores)


@pytest.mark.parametrize("name", ["scaling-exactness", "constant-solve"])
def test_scheme_residual_reuses_the_planned_stencil(tmp_path, monkeypatch,
                                                    name):
    # the reports' residual checks walk the slabs the solve planned, so a
    # one-cylinder scenario builds one stencil however often it is checked
    built = []
    step_matrices = solver._step_matrices

    def counted(core):
        built.append(core)
        return step_matrices(core)

    monkeypatch.setattr(solver, "_step_matrices", counted)
    report = scenarios.run_scenario(bundled.bundled_scenario(name),
                                    tmp_path / name)
    assert report["all_pass"]
    assert len(built) == 1


def test_first_solve_builds_the_step_stack_once(tmp_path, monkeypatch):
    # the monotone check reads the shrink that building the samples records
    built = []
    step_masks = SpaceTimeDomain.step_masks

    def counted(d):
        built.append(d)
        return step_masks(d)

    monkeypatch.setattr(SpaceTimeDomain, "step_masks", counted)
    report = scenarios.run_scenario(bundled.bundled_scenario("constant-solve"),
                                    tmp_path)
    assert report["all_pass"]
    assert len(built) == 1


def _union_domain():
    # two slabs, both factored (bands 14 and 30)
    doc = bundled.bundled_scenario("union-resolutivity")
    return scenarios.build_domain(doc)


def _wide_box_domain():
    # a 38x38 core: band 38, plain CG
    return box_cylinder(h=1 / 40, cells=40, t2=0.03, dt=0.01)[0]


@pytest.mark.parametrize("build", [_union_domain, _wide_box_domain])
def test_solves_on_one_domain_share_its_plan_and_agree(monkeypatch, build):
    data = BoundaryData(fn=lambda x, t: 1.0 + 0.5 * np.sin(3 * x[..., 0]),
                        bounds=(0.5, 1.5))
    cfg = SolverConfig()
    d = build()
    first = solve_union(d, data, cfg, M_EXP)
    builds = []
    step_matrices = solver._step_matrices

    def counting(sel):
        builds.append(sel)
        return step_matrices(sel)

    monkeypatch.setattr(solver, "_step_matrices", counting)
    again = solve_union(d, data, cfg, M_EXP)
    assert builds == []
    rebuilt = solve_union(build(), data, cfg, M_EXP)
    assert len(builds) == first.stats["assemblies"] > 0
    for u in (again, rebuilt):
        assert np.array_equal(u.values, first.values, equal_nan=True)
        assert u.stats == first.stats


@pytest.mark.parametrize("build", [lambda: box_cylinder()[0],
                                   _wide_box_domain])
def test_solve_leaves_no_reference_cycles(build):
    # the 16x16 box is factored, the 40x40 box plain CG
    data = BoundaryData(fn=lambda x, t: 1.0 + 0.5 * np.sin(3 * x[..., 0]),
                        bounds=(0.5, 1.5))
    gc.collect()
    gc.disable()
    try:
        d = build()
        solve_union(d, data, SolverConfig(), M_EXP)
        solve_union(d, data, SolverConfig(), M_EXP)
        del d
        assert gc.collect() == 0
    finally:
        gc.enable()


def _reference_slab(core):
    """Per-cell walk over the core's bounding box, numbered in C order:
    the box's slices, the dense adjacency among the core's cells, and each
    core cell's neighbours in the core (box numbers) and its pinned
    neighbours (grid cells), both in ascending offset order; neighbours
    beyond the grid edge are dropped."""
    coords = np.argwhere(core)
    lo, hi = coords.min(axis=0), coords.max(axis=0) + 1
    box = tuple(slice(int(a), int(b)) for a, b in zip(lo, hi))
    shape = tuple(int(w) for w in hi - lo)
    adj = np.zeros((math.prod(shape),) * 2)
    inner, pinned = [], []
    for i, at in enumerate(np.ndindex(*shape)):
        cell = tuple(int(c) for c in lo + at)
        inner.append([])
        pinned.append([])
        if not core[cell]:
            continue
        for ax in range(core.ndim):
            for step in (-1, 1):
                nb = list(cell)
                nb[ax] += step
                if not 0 <= nb[ax] < core.shape[ax]:
                    continue
                if core[tuple(nb)]:
                    j = int(np.ravel_multi_index(
                        tuple(np.subtract(nb, lo)), shape))
                    adj[i, j] = 1.0
                    inner[i].append(j)
                else:
                    pinned[i].append(tuple(nb))
        inner[i].sort()
        pinned[i].sort(key=lambda c: np.ravel_multi_index(c, core.shape))
    return box, adj, inner, pinned


@st.composite
def _masks_with_holes(draw):
    shape = tuple(draw(st.lists(st.integers(2, 7), min_size=1, max_size=3)))
    bits = draw(st.lists(st.booleans(), min_size=math.prod(shape),
                         max_size=math.prod(shape)))
    return np.array(bits, dtype=bool).reshape(shape)


@st.composite
def _slab_cores(draw):
    """A box of 1 to 6 cells a side in 1-D to 3-D (1-cell-wide ones and
    single cells too), amid 0 to 2 unselected cells on each side, a random
    mask with holes, or a 2-D strip of 2 or 3 rows wider than
    ``_BAND_MAX`` less one cell, which runs plain CG; never empty."""
    kind = draw(st.sampled_from(["box", "holes", "wide"]))
    if kind == "box":
        ndim = draw(st.integers(1, 3))
        box = [draw(st.integers(1, 6)) for _ in range(ndim)]
        pads = [(draw(st.integers(0, 2)), draw(st.integers(0, 2)))
                for _ in range(ndim)]
        core = np.pad(np.ones(box, dtype=bool), pads)
    elif kind == "holes":
        core = draw(_masks_with_holes())
    else:
        core = np.ones((draw(st.integers(2, 3)),
                        solver._BAND_MAX + draw(st.integers(2, 6))),
                       dtype=bool)
        core[draw(st.integers(0, core.shape[0] - 2)),
             draw(st.integers(1, core.shape[1] - 2))] = False
    assume(core.any())
    return core


def _band_factor(block, bw):
    """pbtrf of a dense block from its upper banded storage."""
    ab = np.zeros((bw + 1, len(block)))
    for k in range(min(bw, len(block) - 1) + 1):
        ab[bw - k, k:] = np.diag(block, k)
    cb, info = solver._PBTRF(ab)
    assert info == 0
    return cb


def _summed(terms):
    """The sum of ``terms`` from 0.0, in their order."""
    acc = 0.0
    for term in terms:
        acc += term
    return acc


@settings(max_examples=120, deadline=None)
@given(core=_slab_cores(), size=st.integers(1, 4), data=st.data(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_slab_matches_per_cell_reference(core, size, data, seed):
    # the slab on the core's bounding box against a per-cell walk: its
    # numbering, adjacency and degrees, the pinned neighbours' sum (from
    # +0, in ascending offset order, NaN off the ring never read), the
    # Laplacian, the Jacobian's entries, products and band factors, bit
    # for bit
    rng = np.random.default_rng(seed)
    slab = solver._step_matrices(core)
    box, adj, inner, pinned = _reference_slab(core)
    n, ndim = len(adj), core.ndim
    assert slab.box == box
    assert np.array_equal(slab.inside, core[box])
    assert np.array_equal(slab.A.toarray(), adj)
    # two diagonals per axis on which the box is wider than one cell
    strides = [math.prod(slab.inside.shape[ax + 1:]) for ax in range(ndim)
               if slab.inside.shape[ax] > 1]
    assert slab.A.offsets.tolist() == sorted(
        [-s for s in strides] + strides)
    assert slab.bw == max(strides, default=0)
    assert slab.deg.tolist() == np.where(core[box], 2.0 * ndim,
                                         0.0).ravel().tolist()

    # u on the core and its pinned neighbours, NaN elsewhere on the grid,
    # for a stack of K members; gather, the ring's sum and the Laplacian
    K = data.draw(st.integers(1, 3))
    m = data.draw(st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    u = np.full((K, *core.shape), np.nan)
    ring = np.zeros(core.shape, dtype=bool)
    for cells in pinned:
        for cell in cells:
            ring[cell] = True
    live = core | ring
    u[:, live] = rng.uniform(0.0, 2.0, (K, int(live.sum())))
    w = solver._pow_odd(u, m)
    on = [i for i in range(n) if slab.inside.flat[i]]
    rows, ring_rows = slab.gather(u), slab.ring_sum(u, m)
    lap = solver._lap_h2(slab.A, solver._pow_odd(rows, m), ring_rows,
                         slab.deg)
    for i in range(K):
        ref = np.zeros(n)
        ref[on] = u[i][box].ravel()[on]
        assert rows[i].tobytes() == ref.tobytes()
        w_box = w[i][box].ravel()
        ring_ref = np.array([_summed(w[i][c] for c in cells)
                             for cells in pinned])
        assert ring_rows[i].tobytes() == ring_ref.tobytes()
        w_core = np.where(slab.inside.ravel(), w_box, 0.0)
        lap_ref = (np.array([_summed(w_core[j] for j in cols)
                             for cols in inner]) + ring_ref
                   - slab.deg * w_core)
        assert lap[i].tobytes() == lap_ref.tobytes()
    # scatter writes the core cells and nothing else
    out = np.full((K, *core.shape), -1.0)
    slab.scatter(out, rows + 1.0)
    expect = np.full((K, *core.shape), -1.0)
    expect[:, core] = u[:, core] + 1.0
    assert np.array_equal(out, expect)

    jac = solver._SlabJacobian(slab, size)
    assert (jac.precond is not None) == (slab.bw <= solver._BAND_MAX)
    # a first update of the whole stack, then one of k of its members
    jac.update(rng.uniform(0.1, 3.0, (size, n)), 0.5)
    k = data.draw(st.integers(1, size))
    s = rng.uniform(0.1, 3.0, (k, n)) ** rng.integers(1, 4)
    c = float(rng.uniform(1e-3, 10.0))
    jac.update(s, c)
    # I + c*S M S per block, each entry ((s_row * m) * s_col) * c
    M = np.diag(slab.deg) - adj
    blocks = [((si[:, None] * M) * si[None, :]) * c + np.eye(n) for si in s]
    ref = sp.block_diag(blocks, format="csr")
    assert np.array_equal(jac.J.toarray(), ref.toarray())
    # a CSR product adds each row's entries from 0 in column order
    x = rng.standard_normal((2, k * n)) * 10.0 ** rng.integers(-6, 7,
                                                                (2, k * n))
    assert np.array_equal(jac.J @ x[0], ref @ x[0])
    assert np.array_equal(solver._rows(jac.J, x), solver._rows(ref, x))
    if jac.precond is not None:
        for i in range(k):
            assert np.array_equal(jac._factors[i],
                                  _band_factor(blocks[i], slab.bw))


def test_every_slab_is_stored_by_its_box_diagonals():
    # offsets +-stride per axis of the core's bounding box, whatever the
    # core's shape; a box cell off the core is a decoupled row
    box = np.ones((9, 7), dtype=bool)
    slab = solver._step_matrices(box)
    assert slab.A.offsets.tolist() == [-7, -1, 1, 7] and slab.bw == 7
    assert solver._SlabJacobian(slab).precond is not None
    box[4, 3] = False
    slab = solver._step_matrices(box)
    assert slab.A.offsets.tolist() == [-7, -1, 1, 7] and slab.bw == 7
    assert slab.deg.reshape(9, 7)[4, 3] == 0.0
    assert not slab.A.toarray()[4 * 7 + 3].any()
    # a box wider than the band limit runs plain CG, with or without holes
    wide = np.zeros((42, 42), dtype=bool)
    wide[1:41, 1:41] = True
    wide[20, 20] = False
    slab = solver._step_matrices(wide)
    assert slab.box == (slice(1, 41), slice(1, 41))
    assert slab.A.offsets.tolist() == [-40, -1, 1, 40] and slab.bw == 40
    assert solver._SlabJacobian(slab).precond is None
    # a 1-cell-wide box and a single cell: fewer than 2n offsets
    assert solver._step_matrices(
        np.ones((1, 5, 1), dtype=bool)).A.offsets.tolist() == [-1, 1]
    single = solver._step_matrices(np.ones((1, 1), dtype=bool))
    assert single.A.offsets.tolist() == [] and single.bw == 0


def test_union_rejects_shrinking_stack():
    g = Grid(n=2, h=1 / 16, origin=(0, 0), extents=(16, 16))
    small = np.zeros((16, 16), dtype=bool)
    small[4:12, 4:12] = True
    d = SpaceTimeDomain(
        [Cylinder(SpatialDomain(g, np.ones((16, 16), dtype=bool)), 0.0, 0.125),
         Cylinder(SpatialDomain(g, small), 0.125, 0.25)], dt=0.025)
    with pytest.raises(SolverError, match="not nondecreasing"):
        solve_union(d, BoundaryData.constant(1.0), SolverConfig(), M_EXP)


def test_degenerate_vacuum_region_stays_put():
    # data zero on one side: the front must not smear negatives anywhere
    d, U = box_cylinder()
    data = BoundaryData(fn=lambda x, t: np.maximum(x[..., 0] - 0.5, 0.0) * 2,
                        bounds=(0.0, 1.0))
    u = solve_union(d, data, SolverConfig(), M_EXP)
    assert np.nanmin(u.values[u.defined]) >= 0.0


def test_scheme_residual_is_nan_off_interior_samples():
    d, _ = box_cylinder()
    u = solve_union(d, BoundaryData.constant(1.0), SolverConfig(), M_EXP)
    res = scheme_residual(u)
    assert np.isnan(res[3, 0, 5])        # lateral cell
    assert np.isnan(res[0, 8, 8])        # bottom level
    assert np.array_equal(~np.isnan(res), u.scheme_mask)


def _reference_residual(f):
    """Per-cell walk of the scheme at every interior sample, with the size
    of its terms: w = u^m at level k (implicit) or k - 1 (explicit)."""
    d = f.domain
    lag = 0 if f.config.scheme == "implicit" else 1

    def w(u):
        return np.sign(u) * np.abs(u) ** f.m

    res = np.full(f.values.shape, np.nan)
    size = np.zeros(f.values.shape)
    for k, *idx in np.argwhere(f.scheme_mask):
        u_now, u_prev = f.values[(k, *idx)], f.values[(k - 1, *idx)]
        w0 = w(f.values[(k - lag, *idx)])
        lap, mag = 0.0, 0.0
        for ax in range(d.grid.n):
            for step in (-1, 1):
                nb = list(idx)
                nb[ax] += step
                w_nb = w(f.values[(k - lag, *nb)])
                lap += w_nb - w0
                mag += abs(w_nb) + abs(w0)
        res[(k, *idx)] = ((u_now - u_prev) / d.dt
                          - f.config.diffusion * lap / d.grid.h ** 2)
        size[(k, *idx)] = ((abs(u_now) + abs(u_prev)) / d.dt
                           + f.config.diffusion * mag / d.grid.h ** 2)
    return res, size


@st.composite
def _monotone_unions(draw):
    """Cylinders with random (nonempty) bases starting at increasing times
    and ending together, so the time sections grow; n = 1 or 2."""
    n = draw(st.integers(1, 2))
    extents = tuple(draw(st.integers(3, 7)) for _ in range(n))
    g = Grid(n=n, h=1 / 8, origin=(0.0,) * n, extents=extents)
    dt = 1 / 1024
    starts = sorted(draw(st.lists(st.integers(0, 3), min_size=1, max_size=3)))
    end = starts[-1] + draw(st.integers(1, 3))
    cyls = []
    for start in starts:
        bits = draw(st.lists(st.booleans(), min_size=math.prod(extents),
                             max_size=math.prod(extents)))
        mask = np.array(bits, dtype=bool).reshape(extents)
        mask.flat[draw(st.integers(0, mask.size - 1))] = True
        cyls.append(Cylinder(SpatialDomain(g, mask), start * dt, end * dt))
    return SpaceTimeDomain(cyls, dt=dt)


@settings(max_examples=60, deadline=None)
@given(d=_monotone_unions(), scheme=st.sampled_from(["implicit", "explicit"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_scheme_residual_matches_per_cell_walk(d, scheme, seed):
    cfg = SolverConfig(scheme=scheme)
    data = BoundaryData(
        fn=lambda x, t: 0.5 + 0.4 * np.sin(3 * x[..., 0] + 7 * t),
        bounds=(0.1, 0.9))
    u = solve_union(d, data, cfg, M_EXP)
    wrapped = Field.from_values(d, u.values, M_EXP, cfg)
    assert np.array_equal(u.defined, wrapped.defined)
    assert np.array_equal(u.scheme_mask, wrapped.scheme_mask)
    # the solve satisfies its own scheme at every interior sample
    res = scheme_residual(u)
    bound = 10 * cfg.linear_tol * u.stats["residual_scale"]
    assert (np.abs(res[u.scheme_mask]) <= bound).all()
    vals = np.random.default_rng(seed).uniform(-0.5, 2.0, u.values.shape)
    for f in (u, Field.from_values(d, vals, M_EXP, cfg)):
        res = scheme_residual(f)
        ref, size = _reference_residual(f)
        assert np.array_equal(np.isnan(res), ~f.scheme_mask)
        assert np.array_equal(np.isnan(ref), ~f.scheme_mask)
        diff = np.abs(res - ref)[f.scheme_mask]
        assert (diff <= 1e-12 * size[f.scheme_mask]).all()


@st.composite
def _unions_with_junctions(draw):
    """Nested 2-D boxes on at most a 12x12 grid, each starting later than
    the one inside it and all ending together: every start is a junction,
    where the core grows and the solve builds a new stencil."""
    extents = (draw(st.integers(6, 12)), draw(st.integers(6, 12)))
    g = Grid(n=2, h=1 / 12, origin=(0.0, 0.0), extents=extents)
    # the innermost box has a nonempty core; each next box is larger
    lo = [draw(st.integers(0, e - 3)) for e in extents]
    hi = [draw(st.integers(a + 3, e)) for a, e in zip(lo, extents)]
    boxes = [(lo, hi)]
    while len(boxes) < 3 and (lo != [0, 0] or hi != list(extents)):
        lo = [draw(st.integers(0, a)) for a in lo]
        hi = [draw(st.integers(b, e)) for b, e in zip(hi, extents)]
        if (lo, hi) == boxes[-1]:
            break
        boxes.append((lo, hi))
    assume(len(boxes) >= 2)
    dt = 1 / 256
    starts = np.cumsum([0] + [draw(st.integers(1, 3))
                              for _ in boxes[1:]])
    end = starts[-1] + draw(st.integers(1, 3))
    cyls = []
    for (lo, hi), start in zip(boxes, starts):
        mask = np.zeros(extents, dtype=bool)
        mask[lo[0]:hi[0], lo[1]:hi[1]] = True
        cyls.append(Cylinder(SpatialDomain(g, mask), start * dt, end * dt))
    return SpaceTimeDomain(cyls, dt=dt)


@settings(max_examples=20, deadline=None)
@given(d=_unions_with_junctions(), m=st.sampled_from([1.5, 2.0, 3.0]),
       coefs=st.tuples(st.floats(0.0, 1.0), st.floats(-1.0, 1.0),
                       st.floats(-8.0, 8.0), st.floats(-30.0, 30.0)),
       gap=st.floats(0.0, 0.5))
def test_predictor_falls_back_at_junctions_and_keeps_the_scheme(d, m, coefs,
                                                                gap):
    a, b, kx, kt = coefs
    data = BoundaryData(
        fn=lambda x, t: np.maximum(a + b * np.sin(kx * x[..., 0] + kt * t
                                                  + x[..., 1]), 0.0),
        bounds=(0.0, a + abs(b)))
    cfg = SolverConfig()
    starts, newton_step = [], solver._newton_step

    def recording(prev, start, *args):
        starts.append(start is prev)
        return newton_step(prev, start, *args)

    with patch.object(solver, "_newton_step", recording):
        lo = solve_union(d, data, cfg, m)
    # u_{k-1} starts exactly the steps that build a stencil: the first step
    # and the first step after each junction
    assert sum(starts) == lo.stats["assemblies"] >= 2
    assert len(starts) == len(lo.stats["newton_iterations"])
    assert np.nanmin(lo.values[lo.defined]) >= 0.0
    worst = np.abs(scheme_residual(lo)[lo.scheme_mask]).max()
    assert worst <= (cfg.newton_tol * lo.stats["residual_scale"]
                     * scenarios._ROUNDING_MARGIN)
    hi = solve_union(d, data.shifted(gap), cfg, m)
    ok, viol = comparison_check(hi, lo)
    assert ok, viol[:3]


def test_comparison_ordered_pair_and_equal_fields():
    d, _ = box_cylinder()
    lo = solve_union(d, BoundaryData.constant(1.0), SolverConfig(), M_EXP)
    hi = solve_union(d, BoundaryData.constant(1.5), SolverConfig(), M_EXP)
    ok, viol = comparison_check(hi, lo)
    assert ok and not viol
    ok_eq, _ = comparison_check(lo, lo)
    assert ok_eq


def test_comparison_randomized_campaign():
    d, _ = box_cylinder(t2=0.1, dt=0.02, h=1 / 8, cells=8)
    rng = np.random.Generator(np.random.Philox(7))
    for _ in range(25):
        coefs = [(rng.uniform(-4, 4), rng.uniform(-4, 4),
                  rng.uniform(0, 0.3)) for _ in range(3)]
        base = rng.uniform(0.5, 1.5)
        gap = rng.uniform(0.0, 0.7)

        def mk(shift):
            def fn(x, t):
                v = base + shift
                for ax, at, amp in coefs:
                    v = v + amp * np.sin(ax * x[..., 0] + at * x[..., 1]
                                         + (ax - at) * t)
                return np.maximum(v, 0.0)
            return fn

        lo = solve_union(d, BoundaryData(fn=mk(0.0), bounds=(0, base + 1)),
                         SolverConfig(), M_EXP)
        hi = solve_union(d, BoundaryData(fn=mk(gap), bounds=(0, base + 2)),
                         SolverConfig(), M_EXP)
        ok, viol = comparison_check(hi, lo)
        assert ok, viol[:3]


def test_boundary_data_validation():
    with pytest.raises(SolverError):
        BoundaryData(fn=lambda x, t: 1.0, bounds=(-1.0, 2.0))
    data = BoundaryData(fn=lambda x, t: -5.0, bounds=(0.0, 1.0))
    with pytest.raises(SolverError):
        data.sample(np.zeros(2), 0.0)
    # one negative value in an array of points raises and names that point
    pts = np.array([[0.0, 0.0], [0.25, 0.5], [0.75, 0.5], [0.5, 0.25]])
    one_negative = BoundaryData(
        fn=lambda x, t: np.where(x[..., 0] > 0.6, -1.0, 1.0), bounds=(0.0, 1.0))
    with pytest.raises(SolverError, match=r"negative at \(\[0\.75 0\.5"):
        one_negative.sample(pts, 0.0)
    assert (one_negative.sample(pts[:2], 0.0) == 1.0).all()
    # a callback that indexes a point (x[0]) instead of a coordinate
    # (x[..., 0]) returns the wrong shape, and sampling raises
    point_indexed = BoundaryData(fn=lambda x, t: 1.0 + x[0], bounds=(1.0, 2.0))
    with pytest.raises(SolverError, match="broadcast"):
        point_indexed.sample(np.zeros((3, 2)), 0.0)


@pytest.mark.parametrize("cell", [(0, 0), (0, 8)])
def test_non_finite_boundary_data_raises_naming_the_point(cell):
    # a NaN on one boundary cell of a 16x16 box: on a corner, which no core
    # cell sees, or on a side cell next to the core; both are data errors
    d, _ = box_cylinder(t2=0.05)
    centre = (np.array(cell) + 0.5) / 16
    data = BoundaryData(
        fn=lambda x, t: np.where(np.isclose(x, centre).all(axis=-1),
                                 np.nan, 1.0),
        bounds=(1.0, 1.0))
    with pytest.raises(SolverError,
                       match=r"not finite at \(\[0\.03125 0\.\d+\], 0\.0\): nan"):
        solve_union(d, data, SolverConfig(), M_EXP)
    with pytest.raises(SolverError, match="not finite"):
        BoundaryData(fn=lambda x, t: -np.inf, bounds=(0.0, 1.0)).sample(
            np.zeros(2), 0.0)


def test_declared_data_bounds_are_checked_against_the_samples():
    # a tent centred on a cell at t = 0 samples exactly its peak and floor
    d, _ = box_cylinder(t2=0.1)
    tent = scenarios.build_data({"profile": "tent", "center": [8.5 / 16] * 2,
                                 "width": 0.5, "floor": 0.2, "peak": 1.5},
                                M_EXP, d.grid)
    u = solve_union(d, tent, SolverConfig(), M_EXP)
    assert u.stats["data_bounds"] == {"declared": [0.2, 1.5],
                                      "observed": [0.2, 1.5]}
    # declared one ulp inside the sampled range, at either end
    for bounds in ((0.2, np.nextafter(1.5, 0.0)), (np.nextafter(0.2, 1.0), 1.5)):
        with pytest.raises(SolverError, match="outside the declared bounds"):
            solve_union(d, replace(tent, bounds=bounds), SolverConfig(), M_EXP)


# -- pasting with a constant keeps the supersolution sign ---------------------

def _supersolution_field(k_cells=12):
    """Steady field with u^m = 1 + v, v the torsion profile: -lap(u^m) = 1."""
    g = Grid(n=2, h=1 / k_cells, origin=(0, 0), extents=(k_cells, k_cells))
    U = SpatialDomain(g, np.ones((k_cells, k_cells), dtype=bool))
    v = torsion_profile(U, np.array([0.0, 0.5]))
    w = 1.0 + v.values
    u_steady = np.sqrt(w)
    d = SpaceTimeDomain([Cylinder(U, 0.0, 0.2)], dt=0.05)
    vals = np.broadcast_to(u_steady, (d.num_levels, k_cells, k_cells)).copy()
    return Field.from_values(d, vals, M_EXP), U


@settings(max_examples=15, deadline=None)
@given(k=st.floats(min_value=0.2, max_value=3.0))
def test_pasting_min_with_constant_is_supersolution(k):
    field, U = _supersolution_field()
    pasted = np.minimum(field.values, k)
    w = Field.from_values(field.domain, pasted, M_EXP)
    # supersolution sign check: time derivative minus laplacian >= 0
    assert (scheme_residual(w)[w.scheme_mask] >= -1e-11).all()


def test_stability_under_data_perturbation():
    # sup-norm data perturbation moves the solution by no more than the
    # perturbation itself (the implicit step is a sup-norm contraction),
    # checked down an epsilon ladder
    d, U = box_cylinder(h=1 / 8, cells=8, t2=0.1, dt=0.02)
    base = BoundaryData(fn=lambda x, t: 1.0 + 0.4 * np.sin(4 * x[..., 0] + t),
                        bounds=(0.6, 1.4))
    u0 = solve_union(d, base, SolverConfig(), M_EXP)
    for eps in (0.1, 0.05, 0.025):
        u_eps = solve_union(d, base.shifted(eps), SolverConfig(), M_EXP)
        dev = np.nanmax(np.abs(u_eps.values - u0.values)[u0.defined])
        assert dev <= eps + 1e-10


def test_one_dimensional_smoke():
    # n = 1 is allowed for solver validation only
    g = Grid(n=1, h=1 / 16, origin=(0.0,), extents=(16,))
    U = SpatialDomain(g, np.ones((16,), dtype=bool))
    d = SpaceTimeDomain([Cylinder(U, 0.0, 0.2)], dt=0.05)
    u = solve_union(d, BoundaryData.constant(0.8), SolverConfig(), M_EXP)
    vals = u.values[u.defined]
    assert vals.min() == vals.max() == pytest.approx(0.8)


def test_heat_equation_case():
    # m = 1: the step is linear and affine data is a steady state
    d, U = box_cylinder(h=1 / 8, cells=8, t2=0.1, dt=0.02)
    data = BoundaryData(fn=lambda x, t: 1.0 + x[..., 0] + 0.5 * x[..., 1],
                        bounds=(1.0, 2.5))
    u = solve_union(d, data, SolverConfig(), m=1.0)
    centers = U.grid.centers()
    exact = 1.0 + centers[..., 0] + 0.5 * centers[..., 1]
    assert np.abs(u.values[-1] - exact)[U.mask].max() < 1e-9


def test_three_dimensional_smoke():
    g = Grid(n=3, h=0.25, origin=(0.0,) * 3, extents=(6, 6, 6))
    U = SpatialDomain(g, np.ones((6, 6, 6), dtype=bool))
    d = SpaceTimeDomain([Cylinder(U, 0.0, 0.1)], dt=0.05)
    data = BoundaryData(fn=lambda x, t: (1.0 + x[..., 0]) ** 0.5,
                        bounds=(1.0, 2.5 ** 0.5))
    u = solve_union(d, data, SolverConfig(), M_EXP)
    centers = g.centers()
    exact = (1.0 + centers[..., 0]) ** 0.5
    assert np.abs(u.values[-1] - exact)[U.mask].max() < 1e-9


def test_scaling_identity_on_the_stencil():
    # a^(1/(m-1)) times an a-multiplied solution solves the unit scheme
    d, _ = box_cylinder(h=1 / 8, cells=8, t2=0.1, dt=0.02)
    data = BoundaryData(fn=lambda x, t: 1.0 + 0.5 * np.sin(3 * x[..., 0]),
                        bounds=(0.5, 1.5))
    for a in (0.25, 4.0):
        u_a = solve_union(d, data, SolverConfig(diffusion=a), M_EXP)
        v = u_a.scaled(a ** (1.0 / (M_EXP - 1)))
        v_unit = Field(v.domain, v.values.copy(), M_EXP,
                       SolverConfig(diffusion=1.0), dict(v.stats))
        scale = u_a.stats["residual_scale"] * a ** (1.0 / (M_EXP - 1))
        res = scheme_residual(v_unit)
        for idx in [(4, 4), (2, 6)]:
            assert abs(res[(3, *idx)]) <= 1e-10 * scale


# -- a family of data on one domain in one stacked pass ------------------------

@st.composite
def _spd_stacks(draw):
    """One to five systems of one random size, as ``_spd_systems`` draws
    them."""
    n = draw(st.integers(1, 40))
    return n, [_spd_system(draw, n) for _ in range(draw(st.integers(1, 5)))]


@settings(max_examples=60, deadline=None)
@given(stack=_spd_stacks(),
       precond=st.sampled_from(["none", "jacobi", "cholesky"]),
       rtol=st.sampled_from([1e-2, 1e-6, 1e-10, 1e-14]),
       atol=st.sampled_from([0.0, 1e-8]),
       maxiter=st.sampled_from([1, 2, None]))
def test_cg_on_a_stack_repeats_its_single_calls_bit_for_bit(
        stack, precond, rtol, atol, maxiter):
    # K systems of one size: the block-diagonal matrix and the stacked
    # preconditioner against K single calls
    n, systems = stack
    maxiter = maxiter or 10 * n + 100
    singles, counts = [], []
    for dense, bw, b in systems:
        seen = [0]

        def count(_xk, seen=seen):
            seen[0] += 1

        singles.append(solver.cg(sp.csr_matrix(dense), b, rtol=rtol,
                                 atol=atol, maxiter=maxiter,
                                 M=_preconditioner(precond, dense, bw),
                                 callback=count))
        counts.append(seen[0])
    Ms = [_preconditioner(precond, dense, bw) for dense, bw, _ in systems]
    M = None if precond == "none" else (
        lambda r: np.stack([Mi(row) for Mi, row in zip(Ms, r)]))
    A = sp.block_diag([sp.csr_matrix(dense) for dense, _, _ in systems],
                      format="csr")
    stacked_counts = np.zeros(len(systems), dtype=int)
    x, info = solver.cg(A, np.stack([b for *_, b in systems]), rtol=rtol,
                        atol=atol, maxiter=maxiter, M=M,
                        counts=stacked_counts)
    for row, (x_ref, info_ref) in zip(x, singles):
        assert row.tobytes() == x_ref.tobytes()
    assert info.tolist() == [info_ref for _, info_ref in singles]
    assert stacked_counts.tolist() == counts


def _jump_box():
    # one step of 0.25 on a 16x16 box: a jump to 20 from near vacuum at
    # m = 4 makes the line search halve (see the line-search test above)
    return box_cylinder(t2=0.25, dt=0.25)[0]


def _box_32():
    # a 32x32 box at h = 1/32: a 30x30 core, band 30, factored
    return box_cylinder(h=1 / 32, cells=32, t2=0.03, dt=0.01)[0]


def _member(kind, level):
    if kind == "constant":
        return BoundaryData.constant(level)
    if kind == "jump":
        return BoundaryData(
            fn=lambda x, t: np.where(t <= 0, 0.01, 20.0),
            bounds=(0.01, 20.0))
    return BoundaryData(
        fn=lambda x, t: level * (1.0 + 0.5 * np.sin(5 * x[..., 0] - 3 * t
                                                    + level)),
        bounds=(0.5 * level, 1.5 * level))


@settings(max_examples=30, deadline=None)
@given(case=st.one_of(_monotone_unions(), st.sampled_from(["jump", "box"])),
       members=st.lists(st.tuples(
           st.sampled_from(["constant", "wave", "jump"]),
           st.floats(0.25, 2.0)), min_size=1, max_size=4),
       m=st.sampled_from([1.5, 2.0, 4.0]),
       scheme=st.sampled_from(["implicit", "implicit", "explicit"]))
@example(case="jump", members=[("constant", 1.0), ("jump", 1.0),
                               ("wave", 0.5)], m=4.0, scheme="implicit")
@example(case="box", members=[("wave", 1.0), ("constant", 2.0),
                              ("wave", 0.3)], m=2.0, scheme="implicit")
def test_stacked_members_equal_their_own_solves(case, members, m, scheme):
    d = {"jump": _jump_box, "box": _box_32}.get(case, lambda: case)()
    cfg = SolverConfig(scheme=scheme)
    datas = [_member(kind, level) for kind, level in members]
    # an explicit step over a member's CFL bound is refused; any other
    # error fails the test
    assume(scheme == "implicit" or all(
        d.dt <= cfl_max_dt(data.bounds[1], d.grid.h, m, d.grid.n)
        * (1 + 1e-12) for data in datas))
    solos = [solve_union(d, data, cfg, m) for data in datas]
    fields = solve_union_many(d, datas, cfg, m)
    assert len(fields) == len(datas)
    for (kind, _), field, solo in zip(members, fields, solos):
        assert field.values.tobytes() == solo.values.tobytes()
        assert field.stats == solo.stats
        if kind == "constant":
            assert set(field.stats["newton_iterations"]) <= {0}
        if kind == "jump" and case == "jump" and m == 4.0:
            assert field.stats["line_search_backtracks"] > 0
    if case == "box":
        assert solver._slabs(d)[0][1].bw == 30


# -- a manufactured step: the solve returns a known discrete solution -------

def _backed_out(d, top, m, mu):
    """A discrete solution of the implicit scheme on ``d``, backed out from
    the top level down: ``top(x, t)`` on every defined sample, then, step
    by step from the last, level k - 1 set on step k's core to
    ``u_k - dt*mu*lap_h(u_k^m)``.  The Laplacian is taken by shifted slices
    of the whole grid, apart from the solver's slabs, so that a fault in a
    slab cannot move the solve and its reference together."""
    defined, interior = d.samples
    h, n = d.grid.h, d.grid.n
    centers = d.grid.centers()
    vals = np.full(defined.shape, np.nan)
    for k in range(d.num_levels):
        vals[k][defined[k]] = top(centers[defined[k]], d.level_time(k))
    centre = (slice(1, -1),) * n
    for k in range(d.num_levels - 1, 0, -1):
        w = np.pad(np.sign(vals[k]) * np.abs(vals[k]) ** m, 1,
                   constant_values=np.nan)
        lap = -2 * n * w[centre]
        for ax in range(n):
            for step in (-1, 1):
                at = list(centre)
                at[ax] = slice(1 + step, w.shape[ax] - 1 + step)
                lap = lap + w[tuple(at)]
        core = interior[k]
        vals[k - 1][core] = vals[k][core] - d.dt * mu * lap[core] / h ** 2
    return vals


def _sampled(d, vals):
    """Boundary data that read ``vals`` at each sample."""
    def fn(x, t):
        level = np.rint((np.asarray(t) - d.t_min) / d.dt).astype(int)
        return vals[(level, *d.grid.cell_of(x))]

    pinned = vals[parabolic_boundary(d)]
    return BoundaryData(fn=fn, bounds=(float(pinned.min()),
                                       float(pinned.max())))


def _small_punctured_disk():
    # a 17x17 grid at h = 1/16, the disk of radius 1/2 less its centre
    # cell: its cores are padded on their boxes; c = mu*dt/h^2 = 1/4
    g = Grid(n=2, h=1 / 16, origin=(-17 / 32,) * 2, extents=(17, 17))
    mask = np.linalg.norm(g.centers(), axis=-1) < 0.5
    mask[8, 8] = False
    return SpaceTimeDomain([Cylinder(SpatialDomain(g, mask), 0.0, 3 / 1024)],
                           dt=1 / 1024)


@settings(max_examples=60, deadline=None)
@given(case=st.one_of(_monotone_unions(), st.just("disk")),
       m=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
       waves=st.lists(st.tuples(st.floats(0.5, 2.0), st.floats(0.1, 0.4),
                                st.floats(1.0, 6.0), st.floats(-6.0, 6.0),
                                st.floats(5.0, 40.0)),
                      min_size=1, max_size=3))
def test_solve_returns_a_manufactured_solution(case, m, waves):
    # each member's data are an exact solution of the scheme on its pinned
    # samples, so each solve must return it.  Newton stops a step at a
    # residual of at most newton_tol * residual_scale * dt, and the
    # implicit step is a sup-norm contraction, so the error at any level
    # is at most the steps' sum of these, plus the rounding of the backed
    # out solution (a few ulps of the step's terms per step)
    d = _small_punctured_disk() if case == "disk" else case
    assume(d.samples[1].any())
    if case == "disk":
        assert not solver._slabs(d)[0][1].inside.all()
    cfg = SolverConfig()
    c = cfg.diffusion * d.dt / d.grid.h ** 2
    targets = []
    for a, b, kx, ky, kt in waves:
        ky = ky if d.grid.n == 2 else 0.0
        targets.append(_backed_out(d, lambda x, t: a + b * a * np.sin(
            kx * x[..., 0] + ky * x[..., -1] + kt * t), m, cfg.diffusion))
    assume(all(np.nanmin(v) > 0.0 for v in targets))
    fields = solve_union_many(d, [_sampled(d, v) for v in targets], cfg, m)
    defined = d.samples[0]
    for u, want in zip(fields, targets):
        assert sum(u.stats["newton_iterations"]) > 0
        top = np.nanmax(want)
        rounding = 8 * np.finfo(float).eps * (top + c * 4 * d.grid.n
                                              * top ** m)
        step = (cfg.newton_tol * u.stats["residual_scale"] * d.dt
                * scenarios._ROUNDING_MARGIN + rounding)
        err = np.abs(u.values - want)[defined].max()
        assert err <= d.num_steps * step


def test_campaign_steps_its_pairs_together(tmp_path, monkeypatch):
    # 3 pairs on the bundled campaign's 20-step domain: one Newton step per
    # level for all six solves, where a solve per member took 6 x 20
    calls, newton_step = [], solver._newton_step

    def counting(prev, *args):
        calls.append(len(prev))
        return newton_step(prev, *args)

    monkeypatch.setattr(solver, "_newton_step", counting)
    doc = bundled.bundled_scenario("comparison-campaign")
    doc["operation"]["trials"] = 3
    report = scenarios.run_scenario(doc, tmp_path)
    assert report["all_pass"]
    assert scenarios.build_domain(doc).num_steps == 20
    assert calls == [6] * 20


def test_solve_union_many_rejects_an_empty_family():
    d, _ = box_cylinder()
    with pytest.raises(SolverError, match="no boundary data"):
        solve_union_many(d, [], SolverConfig(), M_EXP)


def test_solve_union_many_names_the_member_that_fails():
    d, _ = box_cylinder(t2=0.1)
    ok = BoundaryData.constant(1.0)
    # declared one ulp below the constant it samples
    low = BoundaryData(fn=lambda x, t: np.full(x.shape[:-1], 1.0),
                       bounds=(0.5, np.nextafter(1.0, 0.0)))
    with pytest.raises(SolverError,
                       match="member 2: boundary data .* outside the declared"):
        solve_union_many(d, [ok, ok, low], SolverConfig(), M_EXP)
    # one Newton iteration is too few for the jump, not for the constant
    jump, _ = box_cylinder(t2=0.25, dt=0.25)
    data = BoundaryData(fn=lambda x, t: np.where(t <= 0, 0.01, 2.0),
                        bounds=(0.01, 2.0))
    with pytest.raises(SolverError,
                       match="member 1: Newton did not converge.*worst step"):
        solve_union_many(jump, [ok, data], SolverConfig(newton_max=1), M_EXP)


def _counted(fn, calls, i):
    def counting(x, t):
        calls[i] += 1
        return fn(x, t)
    return counting


def _sample_per_level(d, datas):
    """The pinned samples of every level, drawn one level and one member
    at a time, with each member's observed [min, max]: the reference for
    the one call per member that a solve makes."""
    defined, interior = d.samples
    centers = d.grid.centers()
    values = np.full((len(datas), *defined.shape), np.nan)
    observed = [[math.inf, -math.inf] for _ in datas]
    for k in range(d.num_levels):
        pinned = defined[k] & ~interior[k]
        for i, data in enumerate(datas):
            sampled = data.sample(centers[pinned], d.level_time(k))
            values[i, k][pinned] = sampled
            lo, hi = observed[i]
            observed[i] = [min(lo, float(sampled.min(initial=math.inf))),
                           max(hi, float(sampled.max(initial=-math.inf)))]
    return values, observed


def _timed_member(kind, level, d):
    if kind == "wave":
        return BoundaryData(
            fn=lambda x, t: level * (1.0 + 0.5 * np.sin(5 * x[..., 0]
                                                        - 300 * t)),
            bounds=(0.5 * level, 1.5 * level))
    if kind == "ramp":
        return scenarios.build_data(
            {"profile": "ramped_tent", "center": [0.25] * d.grid.n,
             "width": 0.6, "ramp": 3 * d.dt, "floor": 0.1 * level}, M_EXP,
            d.grid)
    return scenarios.build_data(
        {"profile": "tent", "center": [0.3] * d.grid.n, "t0": d.dt,
         "width": 0.5 + level, "floor": 0.05}, M_EXP, d.grid)


@settings(max_examples=40, deadline=None)
@given(d=_monotone_unions(),
       members=st.lists(st.tuples(st.sampled_from(["wave", "ramp", "tent"]),
                                  st.floats(0.25, 2.0)),
                        min_size=1, max_size=3),
       bad=st.data())
def test_one_sample_call_per_member_equals_per_level_sampling(d, members,
                                                               bad):
    datas = [_timed_member(kind, level, d) for kind, level in members]
    calls = [0] * len(datas)
    counted = [replace(data, fn=_counted(data.fn, calls, i))
               for i, data in enumerate(datas)]
    fields = solve_union_many(d, counted, SolverConfig(), M_EXP)
    assert calls == [1] * len(datas)
    values, observed = _sample_per_level(d, datas)
    pinned = parabolic_boundary(d)
    for field, ref, seen, data in zip(fields, values, observed, datas):
        assert field.values[pinned].tobytes() == ref[pinned].tobytes()
        assert field.stats["data_bounds"] == {
            "declared": list(data.bounds), "observed": seen}

    # one member leaves its declared bounds from a later level on: the
    # error names that member and that level's time, and its span there
    j = bad.draw(st.integers(0, len(datas) - 1))
    k = bad.draw(st.integers(1, d.num_levels - 1))
    t_bad = d.level_time(k)
    good = datas[j]
    datas[j] = replace(good, fn=lambda x, t: np.where(
        t >= t_bad - d.dt / 2, 2 * good.bounds[1] + 1.0, good.fn(x, t)))
    values, _ = _sample_per_level(d, datas)
    level = values[j, k][pinned[k]]
    message = (f"member {j}: boundary data at t={t_bad} span "
               f"[{level.min()}, {level.max()}], outside the declared "
               f"bounds [{good.bounds[0]}, {good.bounds[1]}]")
    with pytest.raises(SolverError, match=re.escape(message)):
        solve_union_many(d, datas, SolverConfig(), M_EXP)
