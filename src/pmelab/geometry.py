"""Voxel grids, spatial domains, space-time cylinders and parabolic boundaries.

Spatial domains are axis-aligned voxel masks on a uniform grid: a cell is
identified by its integer index and represented by its center.  A mask stands
for the *closure* of an open set U; the cells of the mask that touch the
exterior play the role of the topological boundary of U, the remaining cells
the role of U itself.  ``face_stencil`` builds the neighbour structure of
the 2n+1-point Laplacian on any cell selection.  Space-time domains are
finite unions of cylinders (base x open time interval) over a shared grid and
a shared uniform time step.

Everything here is immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp


class GeometryError(ValueError):
    """Invalid geometric input (empty domain, bad dimensions, ...)."""


_SNAP_REL_TOL = 1e-9


@dataclass(frozen=True)
class Grid:
    """Uniform cell grid in dimension n (1, 2 or 3).

    Cell ``idx`` (an n-tuple) is the box ``origin + idx*h .. origin + (idx+1)*h``
    with center ``origin + (idx + 0.5)*h``.
    """

    n: int
    h: float
    origin: tuple[float, ...]
    extents: tuple[int, ...]

    def __post_init__(self):
        if self.n not in (1, 2, 3):
            raise GeometryError(f"spatial dimension must be 1, 2 or 3, got {self.n}")
        if not self.h > 0:
            raise GeometryError(f"cell size must be positive, got {self.h}")
        if len(self.origin) != self.n or len(self.extents) != self.n:
            raise GeometryError("origin/extents length must equal the dimension")
        if any(e < 1 for e in self.extents):
            raise GeometryError("extents must be at least 1 per axis")
        object.__setattr__(self, "origin", tuple(float(v) for v in self.origin))
        object.__setattr__(self, "extents", tuple(int(v) for v in self.extents))

    def centers(self) -> np.ndarray:
        """Array of shape ``extents + (n,)`` with every cell center."""
        axes = [self.origin[a] + (np.arange(self.extents[a]) + 0.5) * self.h
                for a in range(self.n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    def cell_of(self, x) -> tuple:
        """Index of the cell containing each point (clipped to the grid).

        For points ``x`` of shape ``(..., n)`` the result is a tuple of n
        index arrays of shape ``x.shape[:-1]`` (n integers for one point).
        """
        raw = (np.asarray(x, dtype=float) - np.asarray(self.origin)) / self.h
        idx = np.clip(np.floor(raw).astype(int), 0, np.asarray(self.extents) - 1)
        return tuple(idx[..., a] for a in range(self.n))

    def compatible_with(self, other: "Grid") -> bool:
        return (self.n == other.n and self.h == other.h
                and self.origin == other.origin and self.extents == other.extents)


def exterior_adjacent(mask: np.ndarray) -> np.ndarray:
    """Cells of the mask with at least one face neighbour outside the mask.

    Cells beyond the array edge count as exterior.
    """
    out = np.zeros_like(mask)
    for ax in range(mask.ndim):
        for step in (1, -1):
            nb_inside = np.zeros_like(mask)
            src = [slice(None)] * mask.ndim
            dst = [slice(None)] * mask.ndim
            if step == 1:
                dst[ax], src[ax] = slice(None, -1), slice(1, None)
            else:
                dst[ax], src[ax] = slice(1, None), slice(None, -1)
            nb_inside[tuple(dst)] = mask[tuple(src)]
            out |= mask & ~nb_inside
    return out


class Stencil(NamedTuple):
    """The face-neighbour (2n+1-point) stencil restricted to selected cells.

    ``adjacency`` is the 0/1 CSR matrix among the selected cells, numbered in
    C order, and ``flat`` holds each selected cell's flat grid index.
    ``pinned`` has one (rows, flat neighbour indices) pair per stencil
    direction, in the order axis 0 step -1, axis 0 step +1, axis 1 step -1,
    ...; it lists the neighbours that are not selected.  Neighbours beyond
    the grid edge are dropped.
    """

    adjacency: sp.csr_matrix
    flat: np.ndarray
    pinned: list[tuple[np.ndarray, np.ndarray]]


def face_stencil(sel: np.ndarray) -> Stencil:
    """The stencil among the cells marked in ``sel``."""
    flat = np.flatnonzero(sel)
    index_of = np.full(sel.size, -1, dtype=np.int64)
    index_of[flat] = np.arange(len(flat))
    coords = np.unravel_index(flat, sel.shape)
    rows, cols, pinned = [], [], []
    for ax in range(sel.ndim):
        for step in (-1, 1):
            shifted = list(coords)
            shifted[ax] = coords[ax] + step
            inside = np.flatnonzero((shifted[ax] >= 0)
                                    & (shifted[ax] < sel.shape[ax]))
            nbs = np.ravel_multi_index(tuple(c[inside] for c in shifted),
                                       sel.shape)
            j = index_of[nbs]
            hit = j >= 0
            rows.append(inside[hit])
            cols.append(j[hit])
            pinned.append((inside[~hit], nbs[~hit]))
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    A = sp.csr_matrix((np.ones(len(rows)), (rows, cols)),
                      shape=(len(flat), len(flat)))
    return Stencil(A, flat, pinned)


def pinned_sum(st: Stencil, values: np.ndarray) -> np.ndarray:
    """Per selected cell, the sum of ``values`` (one per grid cell) over its
    pinned neighbours, accumulated in stencil direction order."""
    flat_values = values.ravel()
    out = np.zeros(len(st.flat))
    for rows, nbs in st.pinned:
        out[rows] += flat_values[nbs]
    return out


class SpatialDomain:
    """A voxelized bounded spatial set: grid plus boolean mask.

    ``mask`` marks the cells of the closure; ``boundary_mask`` marks the cells
    adjacent to the exterior (the discrete topological boundary) and
    ``core_mask`` the rest (the discrete open set).  An empty mask is allowed
    only as the degenerate result of a time section; operations that need a
    nonempty domain raise :class:`GeometryError`.
    """

    def __init__(self, grid: Grid, mask: np.ndarray):
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != grid.extents:
            raise GeometryError(f"mask shape {mask.shape} != grid extents {grid.extents}")
        self.grid = grid
        self.mask = mask
        self.mask.setflags(write=False)

    @cached_property
    def boundary_mask(self) -> np.ndarray:
        m = exterior_adjacent(self.mask)
        m.setflags(write=False)
        return m

    @cached_property
    def core_mask(self) -> np.ndarray:
        m = self.mask & ~self.boundary_mask
        m.setflags(write=False)
        return m

    @property
    def is_empty(self) -> bool:
        return not self.mask.any()

    @property
    def cell_count(self) -> int:
        return int(self.mask.sum())

    def centers(self) -> np.ndarray:
        return self.grid.centers()[self.mask]

    def is_connected(self) -> bool:
        from scipy import ndimage
        if self.is_empty:
            return False
        structure = ndimage.generate_binary_structure(self.mask.ndim, 1)
        _, num = ndimage.label(self.mask, structure=structure)
        return num == 1


@dataclass(frozen=True)
class SpatialField:
    """Scalar grid function on a spatial domain (nan outside the mask)."""

    domain: SpatialDomain
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != self.domain.grid.extents:
            raise GeometryError("field values must cover the full grid")
        self.values.setflags(write=False)

    def value_at(self, x):
        """Values at points ``x`` (..., n), of shape ``x.shape[:-1]``."""
        idx = self.domain.grid.cell_of(x)
        outside = ~self.domain.mask[idx]
        if outside.any():
            pts = np.reshape(x, (-1, self.domain.grid.n))
            bad = pts[np.flatnonzero(outside)[0]]
            raise GeometryError(f"point {tuple(map(float, bad))} is outside "
                                "the field's domain")
        return self.values[idx]

    def min_within(self, x0, radius: float) -> float:
        """Min over domain cells whose centers lie within radius of x0."""
        centers = self.domain.grid.centers()
        dist = np.linalg.norm(centers - np.asarray(x0), axis=-1)
        sel = self.domain.mask & (dist <= radius)
        if not sel.any():
            raise GeometryError("no domain cells within the given radius")
        return float(np.min(self.values[sel]))


@dataclass(frozen=True)
class Cylinder:
    """Space-time cylinder: spatial base times the open interval (t1, t2)."""

    base: SpatialDomain
    t1: float
    t2: float

    def __post_init__(self):
        if not self.t1 < self.t2:
            raise GeometryError(f"cylinder needs t1 < t2, got ({self.t1}, {self.t2})")
        if self.base.is_empty:
            raise GeometryError("cylinder base must be nonempty")


class SpaceTimeDomain:
    """Finite union of cylinders over one grid, with a uniform time step.

    Cylinder endpoints must snap to the time grid
    ``t_min + k*dt``.  Levels are indexed 0..num_steps; step k spans
    (level k, level k+1).
    """

    def __init__(self, cylinders: list[Cylinder], dt: float,
                 grid: Grid | None = None):
        if not dt > 0:
            raise GeometryError(f"time step must be positive, got {dt}")
        self.cylinders = list(cylinders)
        self.dt = float(dt)
        if not self.cylinders:
            if grid is None:
                raise GeometryError("empty union needs an explicit grid")
            self.grid = grid
            self.t_min = self.t_max = 0.0
            self.num_steps = 0
            return
        self.grid = self.cylinders[0].base.grid
        for cyl in self.cylinders[1:]:
            if not cyl.base.grid.compatible_with(self.grid):
                raise GeometryError("all cylinder bases must share one grid")
        self.t_min = min(c.t1 for c in self.cylinders)
        self.t_max = max(c.t2 for c in self.cylinders)
        span = self.t_max - self.t_min
        self.num_steps = int(round(span / dt))
        if self.num_steps < 1 or abs(self.num_steps * dt - span) > _SNAP_REL_TOL * span:
            raise GeometryError(f"time span {span} is not a multiple of dt={dt}")
        for cyl in self.cylinders:
            for t in (cyl.t1, cyl.t2):
                k = (t - self.t_min) / dt
                if abs(k - round(k)) > _SNAP_REL_TOL * max(1.0, abs(k)):
                    raise GeometryError(
                        f"cylinder endpoint {t} does not snap to the time grid")

    @property
    def num_levels(self) -> int:
        return self.num_steps + 1

    def level_time(self, k: int) -> float:
        return self.t_min + k * self.dt

    def level_times(self) -> np.ndarray:
        return self.t_min + self.dt * np.arange(self.num_levels)

    def level_index(self, t: float) -> int:
        k = (t - self.t_min) / self.dt
        kr = int(round(k))
        if abs(k - kr) > 1e-6:
            raise GeometryError(f"time {t} is not on the time grid")
        return kr

    def level_range(self, cyl: Cylinder) -> tuple[int, int]:
        return self.level_index(cyl.t1), self.level_index(cyl.t2)

    def step_base(self, k: int) -> SpatialDomain:
        """Union of bases of cylinders whose open interval covers step k."""
        return time_section(self, self.level_time(k) + 0.5 * self.dt)

    def step_base_mask(self, k: int) -> np.ndarray:
        return self.step_base(k).mask

    def truncate(self, t0: float) -> "SpaceTimeDomain":
        """The part of the union strictly before t0 (cylinders clipped)."""
        kept = []
        for cyl in self.cylinders:
            if cyl.t1 < t0:
                kept.append(Cylinder(cyl.base, cyl.t1, min(cyl.t2, t0)))
        return SpaceTimeDomain(kept, self.dt, grid=self.grid)


# kind codes in ParabolicBoundary arrays
PB_NONE, PB_LATERAL, PB_BOTTOM = 0, 1, 2


class ParabolicBoundary:
    """Discrete parabolic boundary of a union of cylinders.

    ``kind[k, idx]`` classifies the sample at level k, cell idx:
    0 = not on the parabolic boundary, 1 = lateral, 2 = initial (bottom).
    """

    def __init__(self, domain: SpaceTimeDomain, kind: np.ndarray):
        self.domain = domain
        self.kind = kind
        self.kind.setflags(write=False)

    @property
    def mask(self) -> np.ndarray:
        return self.kind != PB_NONE

    def samples(self):
        """Yield (level, time, cell index, center) for every boundary sample."""
        grid = self.domain.grid
        centers = grid.centers()
        for k in range(self.kind.shape[0]):
            t = self.domain.level_time(k)
            for idx in np.argwhere(self.kind[k] != PB_NONE):
                idx = tuple(map(int, idx))
                yield k, t, idx, centers[idx]

    @property
    def sample_count(self) -> int:
        return int((self.kind != PB_NONE).sum())


def parabolic_boundary(d: SpaceTimeDomain) -> ParabolicBoundary:
    """Union of the cylinders' parabolic boundaries minus the open cylinders.

    Per cylinder the parabolic boundary is the full base at the bottom level
    plus the boundary ring at every later level up to and including the top.
    The subtraction removes core samples of any cylinder at levels strictly
    above its bottom (time-open below, closed at the top, so that tops
    swallowed by a taller cylinder are not reported as boundary).
    """
    shape = (d.num_levels, *d.grid.extents)
    kind = np.zeros(shape, dtype=np.uint8)
    if not d.cylinders:
        return ParabolicBoundary(d, kind)
    for cyl in d.cylinders:
        l1, l2 = d.level_range(cyl)
        for k in range(l1 + 1, l2 + 1):
            lat = cyl.base.boundary_mask & (kind[k] == PB_NONE)
            kind[k][lat] = PB_LATERAL
        kind[l1][cyl.base.mask] = PB_BOTTOM
    for cyl in d.cylinders:
        l1, l2 = d.level_range(cyl)
        for k in range(l1 + 1, l2 + 1):
            kind[k][cyl.base.core_mask] = PB_NONE
    return ParabolicBoundary(d, kind)


def time_section(d: SpaceTimeDomain, T: float) -> SpatialDomain:
    """Union of bases of cylinders whose open time interval contains T.

    Outside [t_min, t_max] (or at junction times covered by no open interval)
    the result has an empty mask; check ``is_empty`` on the result.
    """
    out = np.zeros(d.grid.extents, dtype=bool)
    for cyl in d.cylinders:
        if cyl.t1 < T < cyl.t2:
            out |= cyl.base.mask
    return SpatialDomain(d.grid, out)


def check_monotone_sections(d: SpaceTimeDomain) -> tuple[bool, float | None]:
    """True iff step sections are nondecreasing as cell sets.

    Sections are evaluated strictly between consecutive levels (at step
    midpoints).  On failure, returns the junction time of the first
    violation.
    """
    prev = None
    for k in range(d.num_steps):
        cur = d.step_base_mask(k)
        if prev is not None and bool((prev & ~cur).any()):
            return False, d.level_time(k)
        prev = cur
    return True, None


def _max_pairwise_distance(pts: np.ndarray) -> float:
    if len(pts) == 1:
        return 0.0
    if len(pts) > 1024:
        try:
            from scipy.spatial import ConvexHull
            pts = pts[ConvexHull(pts).vertices]
        except Exception:
            pass  # degenerate (collinear etc.); fall through to brute force
    best = 0.0
    for i in range(0, len(pts), 512):
        chunk = pts[i:i + 512]
        d2 = ((chunk[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1)
        best = max(best, float(d2.max()))
    return math.sqrt(best)


def diameter(s: SpatialDomain | SpaceTimeDomain) -> float:
    """Max pairwise distance over cell centers (space-time for unions)."""
    if isinstance(s, SpatialDomain):
        if s.is_empty:
            raise GeometryError("diameter of an empty domain")
        return _max_pairwise_distance(s.centers())
    if not s.cylinders:
        raise GeometryError("diameter of an empty union")
    pts = []
    for cyl in s.cylinders:
        centers = cyl.base.centers()
        for t in (cyl.t1, cyl.t2):
            pts.append(np.hstack([centers, np.full((len(centers), 1), t)]))
    return _max_pairwise_distance(np.vstack(pts))
