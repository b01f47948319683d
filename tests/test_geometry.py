import numpy as np
import pytest

from pmelab.geometry import (
    Cylinder,
    GeometryError,
    Grid,
    PB_BOTTOM,
    PB_LATERAL,
    SpaceTimeDomain,
    SpatialDomain,
    check_monotone_sections,
    diameter,
    parabolic_boundary,
    time_section,
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


def test_cylinder_needs_ordered_times():
    U = box_domain()
    with pytest.raises(GeometryError):
        Cylinder(U, 1.0, 1.0)


def test_parabolic_boundary_single_cylinder():
    U = box_domain(cells=6)
    d = SpaceTimeDomain([Cylinder(U, 0.0, 1.0)], dt=0.25)
    pb = parabolic_boundary(d)
    # bottom: all 36 cells; lateral: 20 ring cells at levels 1..4
    assert pb.sample_count == 36 + 20 * 4
    assert (pb.kind[0][U.mask] == PB_BOTTOM).all()
    top = pb.kind[-1]
    assert (top[U.core_mask] == 0).all()          # no open-top interior
    assert (top[U.boundary_mask] == PB_LATERAL).all()   # top rim kept


def test_parabolic_boundary_empty_union():
    g = Grid(n=2, h=0.5, origin=(0, 0), extents=(4, 4))
    d = SpaceTimeDomain([], dt=0.5, grid=g)
    assert parabolic_boundary(d).sample_count == 0


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
    got = {(k, tuple(idx)) for k, *idx in zip(*np.nonzero(pb.mask))}
    assert got == brute_force_union_boundary(d)
    # junction level carries the annulus: V minus the open part of U
    junction = d.level_index(0.5)
    annulus = V.mask & ~U.core_mask
    assert (pb.kind[junction] != 0).sum() == annulus.sum()


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
        assert (pb.kind[l2][cyl.base.core_mask] == 0).all()


def test_time_section():
    g = Grid(n=2, h=0.25, origin=(0, 0), extents=(8, 8))
    small = np.zeros((8, 8), dtype=bool)
    small[2:6, 2:6] = True
    U = SpatialDomain(g, small)
    V = SpatialDomain(g, np.ones((8, 8), dtype=bool))
    d = SpaceTimeDomain([Cylinder(U, 0.0, 0.5), Cylinder(V, 0.5, 1.0)],
                        dt=0.25)
    assert time_section(d, -1.0).is_empty
    assert (time_section(d, 0.25).mask == small).all()
    assert (time_section(d, 0.75).mask == V.mask).all()
    assert time_section(d, 0.5).is_empty      # junction not in open intervals


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


def test_time_section_monotone_in_cylinder_list():
    g = Grid(n=2, h=0.25, origin=(0, 0), extents=(8, 8))
    small = np.zeros((8, 8), dtype=bool)
    small[2:6, 2:6] = True
    U = SpatialDomain(g, small)
    V = SpatialDomain(g, np.ones((8, 8), dtype=bool))
    base = SpaceTimeDomain([Cylinder(U, 0.0, 1.0)], dt=0.25)
    grown = SpaceTimeDomain([Cylinder(U, 0.0, 1.0), Cylinder(V, 0.5, 1.0)],
                            dt=0.25)
    for T in (0.125, 0.375, 0.625, 0.875):
        before = time_section(base, T).mask
        after = time_section(grown, T).mask
        assert (before <= after).all()      # adding a cylinder only grows


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
