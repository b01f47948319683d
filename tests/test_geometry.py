import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pmelab import barriers, bundled, perron, scenarios, solver
from pmelab.geometry import (
    Cylinder,
    GeometryError,
    Grid,
    SpaceTimeDomain,
    SpatialDomain,
    check_monotone_sections,
    diameter,
    exterior_adjacent,
    parabolic_boundary,
)


def box_domain(n=2, h=0.25, cells=8, origin=None):
    origin = origin or (0.0,) * n
    g = Grid(n=n, h=h, origin=origin, extents=(cells,) * n)
    return SpatialDomain(g, np.ones((cells,) * n, dtype=bool))


def test_grid_invariants():
    with pytest.raises(GeometryError):
        Grid(n=4, h=0.1, origin=(0, 0, 0, 0), extents=(2, 2, 2, 2))
    with pytest.raises(GeometryError):
        Grid(n=2, h=-1.0, origin=(0, 0), extents=(2, 2))
    with pytest.raises(GeometryError):
        Grid(n=2, h=0.1, origin=(0, 0), extents=(0, 2))


def test_boundary_and_core_split():
    U = box_domain(cells=5)
    assert U.boundary_mask.sum() == 16      # ring of a 5x5 box
    assert U.core_mask.sum() == 9
    assert not (U.boundary_mask & U.core_mask).any()


def _exterior_adjacent_loop(mask, axes):
    """Per-cell reference: a cell of the mask with a neighbour along one of
    ``axes`` that lies off the mask or beyond the array edge."""
    out = np.zeros_like(mask)
    for idx in map(tuple, np.argwhere(mask)):
        for ax in axes:
            for step in (-1, 1):
                nb = list(idx)
                nb[ax] += step
                if not 0 <= nb[ax] < mask.shape[ax] or not mask[tuple(nb)]:
                    out[idx] = True
    return out


@settings(max_examples=100, deadline=None)
@given(data=st.data(), ndim=st.integers(1, 4))
def test_exterior_adjacent_matches_per_cell_loop(data, ndim):
    shape = tuple(data.draw(st.integers(1, 5)) for _ in range(ndim))
    bits = data.draw(st.lists(st.booleans(), min_size=math.prod(shape),
                              max_size=math.prod(shape)))
    mask = np.array(bits, dtype=bool).reshape(shape)
    assert np.array_equal(exterior_adjacent(mask),
                          _exterior_adjacent_loop(mask, range(ndim)))
    axes = range(1, ndim)           # a stack of (ndim - 1)-dimensional masks
    assert np.array_equal(exterior_adjacent(mask, axes=axes),
                          _exterior_adjacent_loop(mask, axes))


def test_cylinder_needs_ordered_times():
    U = box_domain()
    with pytest.raises(GeometryError):
        Cylinder(U, 1.0, 1.0)


def test_parabolic_boundary_single_cylinder():
    U = box_domain(cells=6)
    d = SpaceTimeDomain([Cylinder(U, 0.0, 1.0)], dt=0.25)
    pb = parabolic_boundary(d)
    # bottom: all 36 cells; lateral: 20 ring cells at levels 1..4
    assert pb.sum() == 36 + 20 * 4
    assert pb[0][U.mask].all()
    for k in range(1, d.num_levels):
        assert not pb[k][U.core_mask].any()       # no open-top interior
        assert pb[k][U.boundary_mask].all()       # lateral ring, top rim kept


def test_parabolic_boundary_empty_union():
    g = Grid(n=2, h=0.5, origin=(0, 0), extents=(4, 4))
    d = SpaceTimeDomain([], dt=0.5, grid=g)
    pb = parabolic_boundary(d)
    assert pb.shape == (1, 4, 4) and not pb.any()


def brute_force_union_boundary(d):
    """Independent enumeration of the union formula over (cell, level) sets.

    Built from plain python sets and the textbook definition: per cylinder,
    bottom = closure cells at its first level, lateral = boundary ring at
    later levels through the top; subtract every cylinder's open core at
    levels strictly above its bottom.
    """
    pb = set()
    for cyl in d.cylinders:
        l1, l2 = d.level_range(cyl)
        for idx in map(tuple, np.argwhere(cyl.base.mask)):
            pb.add((l1, idx))
        for idx in map(tuple, np.argwhere(cyl.base.boundary_mask)):
            for k in range(l1 + 1, l2 + 1):
                pb.add((k, idx))
    for cyl in d.cylinders:
        l1, l2 = d.level_range(cyl)
        for idx in map(tuple, np.argwhere(cyl.base.core_mask)):
            for k in range(l1 + 1, l2 + 1):
                pb.discard((k, idx))
    return pb


def test_parabolic_boundary_stacked_union_matches_enumeration():
    g = Grid(n=2, h=0.25, origin=(0, 0), extents=(8, 8))
    small = np.zeros((8, 8), dtype=bool)
    small[2:6, 2:6] = True
    U = SpatialDomain(g, small)
    V = SpatialDomain(g, np.ones((8, 8), dtype=bool))
    d = SpaceTimeDomain([Cylinder(U, 0.0, 0.5), Cylinder(V, 0.5, 1.0)],
                        dt=0.25)
    pb = parabolic_boundary(d)
    got = {(k, tuple(idx)) for k, *idx in zip(*np.nonzero(pb))}
    assert got == brute_force_union_boundary(d)
    # junction level carries the annulus: V minus the open part of U
    junction = d.level_index(0.5)
    annulus = V.mask & ~U.core_mask
    assert pb[junction].sum() == annulus.sum()


def _as_samples(d, pb):
    return {(int(k), tuple(map(int, idx))) for k, *idx in np.argwhere(pb)}


@st.composite
def _nested_unions(draw):
    """Cylinders with random nested bases (each contains the one before)
    starting at increasing times and ending together; n = 1 .. 3."""
    n = draw(st.integers(1, 3))
    extents = tuple(draw(st.integers(3, 6)) for _ in range(n))
    g = Grid(n=n, h=1 / 8, origin=(0.0,) * n, extents=extents)
    dt = 1 / 1024
    starts = sorted(draw(st.lists(st.integers(0, 3), min_size=1, max_size=3)))
    end = starts[-1] + draw(st.integers(1, 3))
    mask = np.zeros(extents, dtype=bool)
    mask.flat[draw(st.integers(0, mask.size - 1))] = True
    cyls = []
    for start in starts:
        bits = draw(st.lists(st.booleans(), min_size=math.prod(extents),
                             max_size=math.prod(extents)))
        mask = mask | np.array(bits, dtype=bool).reshape(extents)
        cyls.append(Cylinder(SpatialDomain(g, mask), start * dt, end * dt))
    return SpaceTimeDomain(cyls, dt=dt)


# On nested bases the time sections' cores are the cylinders' cores, so the
# boundary read from the domain's samples is the per-cylinder formula.
@settings(max_examples=200, deadline=None)
@given(d=_nested_unions())
def test_parabolic_boundary_matches_enumeration_on_nested_unions(d):
    assert _as_samples(d, parabolic_boundary(d)) == \
        brute_force_union_boundary(d)


def test_parabolic_boundary_matches_enumeration_on_bundled_domains():
    checked = 0
    for name, _ in bundled.list_bundled():
        doc = bundled.bundled_scenario(name)
        if "domain" in doc:
            d = scenarios.build_domain(doc)
            assert _as_samples(d, parabolic_boundary(d)) == \
                brute_force_union_boundary(d), name
            checked += 1
    assert checked == 11


def test_step_masks_and_samples_follow_the_sections():
    g = Grid(n=2, h=0.25, origin=(0, 0), extents=(8, 8))
    small = np.zeros((8, 8), dtype=bool)
    small[2:6, 2:6] = True
    # a stack with an empty step between its cylinders
    d = SpaceTimeDomain([Cylinder(SpatialDomain(g, small), 0.0, 0.5),
                         Cylinder(SpatialDomain(g, ~small), 0.75, 1.0)],
                        dt=0.25)
    steps = d.step_masks()
    assert steps.shape == (d.num_steps, 8, 8)
    for k, base in enumerate([small, small, np.zeros((8, 8), bool), ~small]):
        assert np.array_equal(steps[k], base)
    defined, interior = d.samples
    assert d.samples is d.samples                 # built once per domain
    assert not (defined.flags.writeable or interior.flags.writeable)
    for k in range(1, d.num_levels):
        below = SpatialDomain(g, steps[k - 1])
        above = steps[k] if k < d.num_steps else np.zeros((8, 8), bool)
        assert np.array_equal(defined[k], below.mask | above)
        assert np.array_equal(interior[k], below.core_mask)
    assert np.array_equal(defined[0], steps[0]) and not interior[0].any()


def test_union_boundary_has_no_open_top_interior():
    g = Grid(n=2, h=0.25, origin=(0, 0), extents=(8, 8))
    small = np.zeros((8, 8), dtype=bool)
    small[2:6, 2:6] = True
    U = SpatialDomain(g, small)
    V = SpatialDomain(g, np.ones((8, 8), dtype=bool))
    # overlapping representation: the lower cylinder reaches the shared top
    d = SpaceTimeDomain([Cylinder(U, 0.0, 1.0), Cylinder(V, 0.5, 1.0)],
                        dt=0.25)
    pb = parabolic_boundary(d)
    for cyl in d.cylinders:
        _, l2 = d.level_range(cyl)
        assert not pb[l2][cyl.base.core_mask].any()


def test_step_masks_of_an_expanding_union():
    g = Grid(n=2, h=0.25, origin=(0, 0), extents=(8, 8))
    small = np.zeros((8, 8), dtype=bool)
    small[2:6, 2:6] = True
    U = SpatialDomain(g, small)
    V = SpatialDomain(g, np.ones((8, 8), dtype=bool))
    d = SpaceTimeDomain([Cylinder(U, 0.0, 0.5), Cylinder(V, 0.5, 1.0)],
                        dt=0.25)
    steps = d.step_masks()
    assert [int(s.sum()) for s in steps] == [16, 16, 64, 64]
    assert (steps[0] == small).all() and (steps[1] == small).all()
    assert (steps[2] == V.mask).all() and (steps[3] == V.mask).all()


def test_monotone_sections():
    g = Grid(n=2, h=0.25, origin=(0, 0), extents=(8, 8))
    small = np.zeros((8, 8), dtype=bool)
    small[2:6, 2:6] = True
    U = SpatialDomain(g, small)
    V = SpatialDomain(g, np.ones((8, 8), dtype=bool))
    single = SpaceTimeDomain([Cylinder(V, 0.0, 1.0)], dt=0.25)
    assert check_monotone_sections(single) == (True, None)
    expanding = SpaceTimeDomain([Cylinder(U, 0.0, 0.5),
                                 Cylinder(V, 0.5, 1.0)], dt=0.25)
    assert check_monotone_sections(expanding) == (True, None)
    shrinking = SpaceTimeDomain([Cylinder(V, 0.0, 0.5),
                                 Cylinder(U, 0.5, 1.0)], dt=0.25)
    ok, t_bad = check_monotone_sections(shrinking)
    assert not ok and t_bad == pytest.approx(0.5)


def test_step_masks_monotone_in_cylinder_list():
    g = Grid(n=2, h=0.25, origin=(0, 0), extents=(8, 8))
    small = np.zeros((8, 8), dtype=bool)
    small[2:6, 2:6] = True
    U = SpatialDomain(g, small)
    V = SpatialDomain(g, np.ones((8, 8), dtype=bool))
    base = SpaceTimeDomain([Cylinder(U, 0.0, 1.0)], dt=0.25)
    grown = SpaceTimeDomain([Cylinder(U, 0.0, 1.0), Cylinder(V, 0.5, 1.0)],
                            dt=0.25)
    # adding a cylinder only grows every step's base
    assert (base.step_masks() <= grown.step_masks()).all()


def test_endpoints_must_snap_to_time_grid():
    U = box_domain()
    with pytest.raises(GeometryError):
        SpaceTimeDomain([Cylinder(U, 0.0, 1.0)], dt=0.3)


def test_diameter_trivial_cases():
    g = Grid(n=2, h=0.5, origin=(0, 0), extents=(4, 4))
    one = np.zeros((4, 4), dtype=bool)
    one[1, 1] = True
    assert diameter(SpatialDomain(g, one)) == 0.0
    two = one.copy()
    two[1, 2] = True
    # same row, three cells apart would be 3h; here adjacent = h
    assert diameter(SpatialDomain(g, two)) == pytest.approx(0.5)
    three = one.copy()
    three[1, 1], three[0, 0], three[3, 0] = True, True, True
    pts = SpatialDomain(g, three).centers()
    brute = max(np.linalg.norm(a - b) for a in pts for b in pts)
    assert diameter(SpatialDomain(g, three)) == pytest.approx(brute)


def test_diameter_unit_box():
    U = box_domain(n=2, h=0.25, cells=4)   # unit box
    # brute-force pairwise scan as the oracle
    pts = U.centers()
    brute = max(np.linalg.norm(a - b) for a in pts for b in pts)
    d = diameter(U)
    assert d == pytest.approx(brute)
    # center-to-center shortfall from sqrt(n) is exactly one cell diagonal
    assert abs(d - np.sqrt(2)) <= 0.25 * np.sqrt(2) + 1e-12


def test_diameter_space_time():
    U = box_domain(n=1, h=1.0, cells=1, origin=(0.0,))
    d = SpaceTimeDomain([Cylinder(U, 0.0, 2.0)], dt=0.5)
    assert diameter(d) == pytest.approx(2.0)


def test_diameter_empty_rejected():
    g = Grid(n=2, h=0.5, origin=(0, 0), extents=(4, 4))
    with pytest.raises(GeometryError):
        diameter(SpatialDomain(g, np.zeros((4, 4), dtype=bool)))


def test_memo_keeps_one_plan_per_domain_object():
    # the solver's slabs, the coarse companion and the sign certificates'
    # samples: one object shares its plan, and a rebuilt equal domain
    # builds its own, with the same bits
    def build():
        return SpaceTimeDomain([Cylinder(box_domain(h=1 / 8), 0.0, 0.25)],
                               dt=0.0625)

    def slab_bits(slabs):
        return [(k, slab.bw, slab.stencil.flat.tobytes(),
                 slab.stencil.adjacency.data.tobytes()) for k, slab in slabs]

    def domain_bits(c):
        return (c.grid.h, c.dt, c.samples[0].tobytes(), c.samples[1].tobytes())

    policy = barriers.SamplingPolicy(seed=3)
    plans = [(solver._slabs, slab_bits),
             (perron.coarsen_domain, domain_bits),
             (lambda d: barriers._region_samples(d, policy),
              lambda xt: (xt[0].tobytes(), xt[1].tobytes()))]
    d, rebuilt = build(), build()
    for plan, bits in plans:
        assert plan(d) is plan(d)
        assert plan(rebuilt) is not plan(d)
        assert bits(plan(rebuilt)) == bits(plan(d))
    calls = []
    assert d.memo("key", calls.append) is d.memo("key", calls.append) is None
    assert calls == [d]
