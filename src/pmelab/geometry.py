"""Voxel grids, spatial domains, space-time cylinders and parabolic boundaries.

Spatial domains are axis-aligned voxel masks on a uniform grid: a cell is
identified by its integer index and represented by its center.  A mask stands
for the *closure* of an open set U; the cells of the mask that touch the
exterior play the role of the topological boundary of U, the remaining cells
the role of U itself.  Every face-neighbour operation walks the faces one
way (``faces``): the cells next to the exterior (``exterior_adjacent``),
the one-cell dilation (``dilate``) and the sum over the 2n neighbours
(``neighbour_sum``), and the solver's slabs take their neighbour structure
from the same walk.  Space-time domains are finite unions of cylinders
(base x open time interval) over a shared grid and a shared uniform time
step.  Each one holds one sample structure
(``SpaceTimeDomain.samples``): the defined and the interior samples of
every level, built from the stacked step bases (``step_masks``).  The
parabolic boundary, the samples that the solver pins and every per-step
walk elsewhere read that structure.  What other modules plan once per
domain (the solver's slabs, the coarse companion of ``perron``, the sign
certificates' samples) each domain object keeps in ``memo``.

Everything here is immutable after construction, and safe to share across
threads apart from ``memo``, which two threads may both build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np


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


def faces(ndim: int, axes=None):
    """The face walk: per axis (every axis by default), the slice pair
    ``(lower, upper)`` that lines each cell up with its face neighbour one
    step up that axis."""
    for ax in range(ndim) if axes is None else axes:
        lower = [slice(None)] * ndim
        upper = [slice(None)] * ndim
        lower[ax], upper[ax] = slice(None, -1), slice(1, None)
        yield tuple(lower), tuple(upper)


def exterior_adjacent(mask: np.ndarray, axes=None) -> np.ndarray:
    """Cells of the mask with a face neighbour outside the mask along
    ``axes`` (every axis by default).

    Cells beyond the array edge count as exterior.
    """
    mask = np.asarray(mask, dtype=bool)
    axes = tuple(range(mask.ndim) if axes is None else axes)
    # the cells off the array edge along axes, each kept where its face
    # neighbours along axes lie in the mask
    inner = np.zeros_like(mask)
    within = tuple(slice(1, -1) if ax in axes else slice(None)
                   for ax in range(mask.ndim))
    inner[within] = mask[within]
    for lower, upper in faces(mask.ndim, axes):
        inner[lower] &= mask[upper]
        inner[upper] &= mask[lower]
    return inner ^ mask


def dilate(mask: np.ndarray) -> np.ndarray:
    """``mask`` grown by one cell along each axis (the cross structure);
    cells beyond the array edge stay False."""
    out = mask.copy()
    for lower, upper in faces(mask.ndim):
        out[lower] |= mask[upper]
        out[upper] |= mask[lower]
    return out


def neighbour_sum(v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out`` = per cell, the sum of ``v`` over its 2n face neighbours,
    added in the order axis 0 step -1, axis 0 step +1, axis 1 step -1, ...;
    neighbours beyond the array edge count zero."""
    out.fill(0.0)
    for lower, upper in faces(v.ndim):
        out[upper] += v[lower]
        out[lower] += v[upper]
    return out


class SpatialDomain:
    """A voxelized bounded spatial set: grid plus boolean mask.

    ``mask`` marks the cells of the closure; ``boundary_mask`` marks the cells
    adjacent to the exterior (the discrete topological boundary) and
    ``core_mask`` the rest (the discrete open set).  An empty mask is
    allowed; a cylinder refuses one, and operations that need a nonempty
    domain raise :class:`GeometryError`.
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
        self._memos: dict = {}
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

    def memo(self, key, build: Callable[["SpaceTimeDomain"], object]):
        """``build(self)``, computed once per domain object and ``key`` and
        kept as long as the object lives.  The memo is the object's own,
        so a rebuilt domain, even an equal one, builds its own."""
        if key not in self._memos:
            self._memos[key] = build(self)
        return self._memos[key]

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

    def step_masks(self) -> np.ndarray:
        """Every step's base, stacked as ``(num_steps, *extents)``: row k is
        the union of the bases of the cylinders whose open interval covers
        step k."""
        out = np.zeros((self.num_steps, *self.grid.extents), dtype=bool)
        for cyl in self.cylinders:
            l1, l2 = self.level_range(cyl)
            out[l1:l2] |= cyl.base.mask
        return out

    @cached_property
    def samples(self) -> tuple[np.ndarray, np.ndarray]:
        """The defined and the interior samples, each of shape
        ``(num_levels, *extents)``.

        Level k is defined on the bases of steps k - 1 and k; the step
        ending at level k enforces the scheme on the core of its base (the
        cells whose face neighbours all lie in it).  Read-only, since every
        solve and field on the domain shares them.  Also records
        ``first_shrink``: the first level whose step base lacks a cell of
        the one before, or None.
        """
        steps = self.step_masks()
        # a cell in the base of step k - 1 and not in that of step k
        shrinks = (steps[:-1] > steps[1:]).any(
            axis=tuple(range(1, steps.ndim)))
        self.first_shrink = (int(np.argmax(shrinks)) + 1 if shrinks.any()
                             else None)
        defined = np.zeros((self.num_levels, *self.grid.extents), dtype=bool)
        defined[:-1] = steps
        defined[1:] |= steps
        interior = np.zeros_like(defined)
        interior[1:] = steps
        # each base minus its cells next to the exterior: the cores
        interior[1:] ^= exterior_adjacent(steps, axes=range(1, steps.ndim))
        defined.setflags(write=False)
        interior.setflags(write=False)
        return defined, interior

    def truncate(self, t0: float) -> "SpaceTimeDomain":
        """The part of the union strictly before t0 (cylinders clipped)."""
        kept = []
        for cyl in self.cylinders:
            if cyl.t1 < t0:
                kept.append(Cylinder(cyl.base, cyl.t1, min(cyl.t2, t0)))
        return SpaceTimeDomain(kept, self.dt, grid=self.grid)


def parabolic_boundary(d: SpaceTimeDomain) -> np.ndarray:
    """The parabolic-boundary samples of d, shape ``(num_levels, *extents)``.

    They are the defined samples at which no step enforces the scheme
    (``d.samples``): at level k the cells of the bases of steps k - 1 and k
    minus the core of step k - 1's base.  For one cylinder this is the
    full base at the bottom level plus the boundary ring at every later
    level up to and including the top.  On a union the cores are those of
    the step bases, so a cell where two bases meet side by side is
    interior, and a top swallowed by a taller cylinder is not boundary.
    These are exactly the samples a solve pins to its data.
    """
    defined, interior = d.samples
    return defined & ~interior


def per_time(f: Callable[[float], float], t: float | np.ndarray
             ) -> np.ndarray:
    """``f`` of every time in ``t`` (a float or an array), shaped like ``t``.

    ``f`` takes a Python float and runs once per distinct time, so its
    scalar arithmetic keeps the bits it has on a float: numpy's array
    ``**`` and Python's ``pow`` differ in the last bit on some inputs."""
    times, inverse = np.unique(t, return_inverse=True)
    return np.array([f(s) for s in times.tolist()])[inverse].reshape(
        np.shape(t))


def check_monotone_sections(d: SpaceTimeDomain) -> tuple[bool, float | None]:
    """True iff step sections are nondecreasing as cell sets.

    Sections are evaluated strictly between consecutive levels (at step
    midpoints).  On failure, returns the junction time of the first
    violation.
    """
    d.samples   # builds the step stack once and records d.first_shrink
    if d.first_shrink is not None:
        return False, d.level_time(d.first_shrink)
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
