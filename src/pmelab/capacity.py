"""Variational (1,2)-capacity on voxel grids, Wiener profiles, torsion profiles.

The capacity of a compact voxel set E inside an ambient box V is the minimum
of the discrete energy

    sum_faces h^(n-2) (u_i - u_j)^2  +  sum_cells h^n u_i^2

over grid functions with u = 1 on E dilated by one cell (the discrete
"neighbourhood of E") and u = 0 on the boundary ring of V.  The minimizer
solves -lap_h(u) + u = 0 on the free cells.  Truncation to V only increases
the value, and the reported ambient sensitivity lets callers bound the
truncation error.

The capacity and torsion systems are ``diag*I - off*A`` on selected cells,
with constant coefficients and SPD, so neither is assembled.  Both are
solved by conjugate gradient (``solver.cg``) directly on the bounding box
of the free cells, padded on the high end to sides N with N + 1 5-smooth
so that the transforms stay fast (``_box_solve``, ``_BoxOperator``).  CG
vectors are flat box arrays that are zero off the free cells.  A product
is ``diag*p - off*(sum of p over the 2n face neighbours)`` by
geometry's face walk (``geometry.neighbour_sum``), zeroed off the free
cells, and the right-hand sides are the same neighbour sum of the pinned
values.  The preconditioner inverts the operator on the whole box by the
type-I discrete sine transform that diagonalises it and zeroes the result
off the free cells.  This is ``R A_box^-1 R^T``, SPD for any selection; it is
exact when the cells fill the box, and a hole costs a few iterations (the
capacitance-matrix method).  CG stops on ``CAPACITY_TOL`` (``TORSION_TOL``)
relative to the right-hand side.  ``scipy.fft`` (which loads
``scipy.special``) is imported when ``_BoxOperator`` is built, at the first
capacity or torsion solve, so a run that solves neither does not load it.

Dimension n >= 2 throughout: in n = 1 single points carry positive capacity
and the whole machinery degenerates, so it is rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (GeometryError, Grid, SpatialDomain, SpatialField,
                       dilate, faces, neighbour_sum)
from .solver import cg

_LOG2 = math.log(2.0)
CAPACITY_TOL = 1e-8       # CG tolerance of a capacity solve
TORSION_TOL = 1e-10       # CG tolerance of a torsion solve
AMBIENT_HALFWIDTH = 2.0   # a Wiener profile's box: twice its largest radius
SLOPE_TOL = 0.1           # thick: partial sums grow this much per shell
SUM_TOL_FLOORS = 10.0     # thin: total at most this many floor units ...
FLOOR_FACTOR = 1.1        # ... and a tail within this factor of the floor


class CapacityError(RuntimeError):
    """Invalid capacity input or failed linear solve."""


@dataclass(frozen=True)
class CompactMask:
    """A compact voxel set E strictly inside an ambient domain V."""

    grid: Grid
    cells: np.ndarray            # bool per cell; may be empty
    ambient: SpatialDomain

    def __post_init__(self):
        cells = np.asarray(self.cells, dtype=bool)
        object.__setattr__(self, "cells", cells)
        if self.grid.n < 2:
            raise CapacityError("capacity needs n >= 2")
        if not self.grid.compatible_with(self.ambient.grid):
            raise CapacityError("E and its ambient box must share one grid")
        if (cells & ~self.ambient.mask).any():
            raise CapacityError("E must lie inside the ambient mask")
        dil = dilate(cells)
        if (dil & self.ambient.boundary_mask).any():
            raise CapacityError("E (dilated) must stay clear of the ambient boundary")

    @property
    def dilated(self) -> np.ndarray:
        return dilate(self.cells) & self.ambient.mask


def _energy(u: np.ndarray, mask: np.ndarray, h: float, n: int) -> float:
    grad = 0.0
    for lower, upper in faces(mask.ndim):
        both = mask[upper] & mask[lower]
        d = (u[upper] - u[lower])[both]
        grad += float((d * d).sum())
    return h ** (n - 2) * grad + h ** n * float((u[mask] ** 2).sum())


class _BoxOperator:
    """``diag*I - off*adjacency`` on the free cells of a mask, acting on flat
    vectors over the free cells' sine-transform box that are zero off the
    free cells; box cells beyond the mask's array are not free.

    ``A @ p`` writes into two buffers that every product reuses, so it
    returns a view that the next product overwrites.  ``precondition``
    applies ``R A_box^-1 R^T``.
    """

    def __init__(self, free: np.ndarray, diag: float, off: float):
        from scipy.fft import dstn, idstn, next_fast_len

        self._dstn, self._idstn = dstn, idstn
        coords = np.nonzero(free)
        lo = [int(c.min()) for c in coords]
        self.box = tuple(next_fast_len(int(c.max()) - a + 2, real=True) - 1
                         for c, a in zip(coords, lo))
        self.window = tuple(slice(a, min(a + size, extent)) for a, size,
                            extent in zip(lo, self.box, free.shape))
        self.inner = tuple(slice(0, w.stop - w.start) for w in self.window)
        self.free = free[self.window]
        self.fixed = np.ones(self.box, dtype=bool)
        self.fixed[self.inner] = ~self.free
        self.diag, self.off = diag, off
        self.eig = np.full(self.box, diag, dtype=float)
        for ax, size in enumerate(self.box):
            k = np.arange(1, size + 1) * (math.pi / (size + 1))
            self.eig -= 2 * off * np.cos(k).reshape(
                [-1 if a == ax else 1 for a in range(len(self.box))])
        self._sum = np.empty(self.box)
        self._out = np.empty(self.box)

    def to_box(self, values: np.ndarray) -> np.ndarray:
        """The flat box vector of ``values`` (one per mask cell) on the
        free cells, zero elsewhere."""
        x = np.zeros(self.box)
        x[self.inner] = values[self.window]
        x[self.fixed] = 0.0
        return x.ravel()

    def from_box(self, x: np.ndarray) -> np.ndarray:
        """The free cells' entries of a flat box vector, in C order."""
        return x.reshape(self.box)[self.inner][self.free]

    def __matmul__(self, p: np.ndarray) -> np.ndarray:
        p = p.reshape(self.box)
        q = np.multiply(p, self.diag, out=self._out)
        s = neighbour_sum(p, self._sum)
        s *= self.off
        q -= s
        q[self.fixed] = 0.0
        return q.ravel()

    def precondition(self, r: np.ndarray) -> np.ndarray:
        z = self._dstn(r.reshape(self.box), type=1)
        z /= self.eig
        z = self._idstn(z, type=1, overwrite_x=True)
        z[self.fixed] = 0.0
        return z.ravel()


def _box_solve(free: np.ndarray, diag: float, off: float, rhs: np.ndarray,
               linear_tol: float, what: str) -> np.ndarray:
    """Solve ``(diag*I - off*adjacency) x = rhs`` on the free cells by CG on
    their sine-transform box (``_BoxOperator``), preconditioned by the box
    inverse; ``rhs`` has one value per mask cell and the solution lists
    the free cells in C order."""
    op = _BoxOperator(free, diag, off)
    sol, info = cg(op, op.to_box(rhs), rtol=linear_tol, atol=0.0,
                   maxiter=20 * int(np.count_nonzero(free)) + 200,
                   M=op.precondition)
    if info != 0:
        raise CapacityError(f"{what} CG did not converge (info={info})")
    return op.from_box(sol)


def capacity(E: CompactMask) -> float:
    """Discrete minimum of the capacity energy for the set E.

    The dilated set is pinned at 1, the ambient boundary ring at 0, and the
    Euler-Lagrange system -lap_h(u) + u = 0 is solved on the free cells.
    """
    if not E.cells.any():
        return 0.0
    V = E.ambient
    h, n = E.grid.h, E.grid.n
    pinned_one = E.dilated
    pinned_zero = V.boundary_mask & ~pinned_one
    free = V.mask & ~pinned_one & ~pinned_zero
    u = np.zeros(E.grid.extents)
    u[pinned_one] = 1.0
    if free.any():
        one = pinned_one.astype(float)
        rhs = neighbour_sum(one, np.empty_like(one)) / h ** 2
        u[free] = _box_solve(free, 2 * n / h ** 2 + 1.0, 1 / h ** 2, rhs,
                             CAPACITY_TOL, "capacity")
    return _energy(u, V.mask, h, n)


def single_cell_capacity(h: float, n: int, halfwidth: float = 1.0) -> float:
    """Capacity of one grid cell in a fixed physical box.

    This is the resolution floor of the profile machinery: any nonempty
    complement piece costs at least about this much at cell size h.
    """
    pad = max(int(math.ceil(halfwidth / h)), 2)
    extents = (2 * pad + 1,) * n
    grid = Grid(n=n, h=h, origin=(-(pad + 0.5) * h,) * n, extents=extents)
    ambient = SpatialDomain(grid, np.ones(extents, dtype=bool))
    cells = np.zeros(extents, dtype=bool)
    cells[(pad,) * n] = True
    return capacity(CompactMask(grid, cells, ambient))


@dataclass(frozen=True)
class CapacityProfile:
    """Sampled map r -> cap(B(x0, r) \\ U) with dyadic Wiener partial sums."""

    x0: tuple
    radii: list[float]
    cap_values: list[float]
    integrands: list[float]          # cap / r^(n-2)
    partial_sums: list[float]        # cumulative integrand * log 2
    n: int
    h: float
    ambient_halfwidth: float
    ambient_sensitivity: float       # cap change when the box grows 1.5x

    def to_rows(self):
        for k, (r, c, i, s) in enumerate(zip(self.radii, self.cap_values,
                                             self.integrands, self.partial_sums)):
            yield {"k": k, "r": r, "cap": c, "integrand": i, "partial_sum": s}


def _on_spatial_boundary(U: SpatialDomain, x0: np.ndarray) -> bool:
    h = U.grid.h
    tol = 1.01 * h * math.sqrt(U.grid.n)
    centers = U.grid.centers()
    d_in = np.linalg.norm(centers[U.mask] - x0, axis=-1)
    if d_in.size == 0 or d_in.min() > tol:
        return False
    comp = ~U.mask
    if comp.any():
        d_out = np.linalg.norm(centers[comp] - x0, axis=-1).min()
    else:
        d_out = math.inf
    lo = np.asarray(U.grid.origin)
    hi = lo + np.asarray(U.grid.extents) * h
    d_edge = float(np.minimum(x0 - lo, hi - x0).min())
    return min(d_out, d_edge) <= tol


def _complement_mask_in_ball(U: SpatialDomain, x0: np.ndarray, r: float,
                             amb_grid: Grid) -> np.ndarray:
    """Cells of the ambient grid inside B(x0, r) and outside U."""
    centers = amb_grid.centers()
    inside_ball = np.linalg.norm(centers - x0, axis=-1) < r
    # ambient grids are lattice-aligned with U's grid, so cells map by offset
    offset = np.round((np.asarray(amb_grid.origin) - np.asarray(U.grid.origin))
                      / U.grid.h).astype(int)
    lo = np.maximum(offset, 0)
    hi = np.minimum(offset + np.asarray(amb_grid.extents), U.grid.extents)
    in_U = np.zeros(amb_grid.extents, dtype=bool)
    if (lo < hi).all():                 # the overlap of the two boxes
        in_U[tuple(map(slice, lo - offset, hi - offset))] = \
            U.mask[tuple(map(slice, lo, hi))]
    return inside_ball & ~in_U


def _aligned_ambient(U: SpatialDomain, x0: np.ndarray, halfwidth: float
                     ) -> tuple[Grid, SpatialDomain]:
    h = U.grid.h
    lo_cells = np.floor((x0 - halfwidth - np.asarray(U.grid.origin)) / h).astype(int)
    hi_cells = np.ceil((x0 + halfwidth - np.asarray(U.grid.origin)) / h).astype(int)
    extents = tuple(int(b - a) for a, b in zip(lo_cells, hi_cells))
    origin = tuple(float(o + a * h) for o, a in zip(U.grid.origin, lo_cells))
    grid = Grid(n=U.grid.n, h=h, origin=origin, extents=extents)
    return grid, SpatialDomain(grid, np.ones(extents, dtype=bool))


def _shell_capacity(U: SpatialDomain, x0: np.ndarray, r: float,
                    halfwidth: float) -> float:
    amb_grid, ambient = _aligned_ambient(U, x0, halfwidth)
    cells = _complement_mask_in_ball(U, x0, r, amb_grid)
    if not cells.any():
        return 0.0
    return capacity(CompactMask(amb_grid, cells, ambient))


def wiener_profile(U: SpatialDomain, x0, k_max: int) -> CapacityProfile:
    """Dyadic capacity profile of the complement of U at the boundary point x0.

    Shell k uses radius 2^-k; each shell contributes integrand * log 2 to the
    running sum (one dyadic step of the Wiener integral).  k_max must keep
    the finest ball at least 4 cells across.

    One fixed ambient box (halfwidth ``AMBIENT_HALFWIDTH``) serves
    every shell: a per-shell box would make the truncation error drift with k
    and put spurious jumps into the dyadic trend.  Truncation only increases
    values; the reported sensitivity bounds its size.
    """
    if U.grid.n < 2:
        raise CapacityError("the Wiener profile needs n >= 2")
    x0 = np.asarray(x0, dtype=float)
    if not _on_spatial_boundary(U, x0):
        raise CapacityError(f"x0={tuple(x0)} is not on the boundary of U")
    if 2.0 ** (-k_max) < 2 * U.grid.h:
        raise CapacityError(
            f"k_max={k_max} under-resolves the finest ball at h={U.grid.h}; "
            f"need 2^-k_max >= {2 * U.grid.h}")
    radii, caps, integrands, sums = [], [], [], []
    total = 0.0
    for k in range(k_max + 1):
        r = 2.0 ** (-k)
        cap_k = _shell_capacity(U, x0, r, AMBIENT_HALFWIDTH)
        radii.append(r)
        caps.append(cap_k)
        integrand = cap_k / r ** (U.grid.n - 2)
        integrands.append(integrand)
        total += integrand * _LOG2
        sums.append(total)
    cap_grown = _shell_capacity(U, x0, radii[0], 1.5 * AMBIENT_HALFWIDTH)
    return CapacityProfile(
        x0=tuple(map(float, x0)), radii=radii, cap_values=caps,
        integrands=integrands, partial_sums=sums, n=U.grid.n, h=U.grid.h,
        ambient_halfwidth=AMBIENT_HALFWIDTH,
        ambient_sensitivity=caps[0] - cap_grown)


@dataclass(frozen=True)
class ThicknessVerdict:
    classification: str              # "thick" | "thin" | "inconclusive"
    slope: float
    total: float
    summands_decreasing: bool
    tail_at_floor: bool
    floor_unit: float
    confidence: str                  # "high" | "low"
    slope_tol: float
    sum_tol: float

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def classify_thickness(p: CapacityProfile) -> ThicknessVerdict:
    """Heuristic thick/thin call from finitely many shells.

    Divergence of the Wiener integral cannot be decided from a finite
    profile; the thresholds are artifact decisions and are echoed in the
    verdict.  Thin needs three things: total below ``SUM_TOL_FLOORS``
    single-cell floors, nonincreasing summands, and a tail integrand within
    ``FLOOR_FACTOR`` of that resolution floor (a complement piece of
    vanishing capacity is indistinguishable from one cell at cell size h;
    a tail that stays above the floor is not certified null).  Thick =
    partial sums growing at least ``SLOPE_TOL`` per shell.
    """
    if len(p.radii) < 4:
        raise CapacityError("need at least 4 shells to classify")
    floor_unit = single_cell_capacity(p.h, p.n,
                                      halfwidth=p.ambient_halfwidth)
    sum_tol = SUM_TOL_FLOORS * floor_unit
    k = np.arange(len(p.partial_sums))
    slope = float(np.polyfit(k, p.partial_sums, 1)[0])
    summands = np.asarray(p.integrands) * _LOG2
    decreasing = bool(np.all(summands[1:] <= summands[:-1] * (1 + 1e-3)))
    tail_at_floor = bool(p.cap_values[-1] <= FLOOR_FACTOR * floor_unit)
    total = p.partial_sums[-1]
    if total <= sum_tol and decreasing and tail_at_floor:
        cls = "thin"
        confidence = "high" if total <= 0.5 * sum_tol else "low"
    elif slope >= SLOPE_TOL:
        cls = "thick"
        # decaying summands with a passing slope = slowly diverging case
        confidence = "low" if decreasing else "high"
    else:
        cls = "inconclusive"
        confidence = "low"
    return ThicknessVerdict(cls, slope, total, decreasing, tail_at_floor,
                            floor_unit, confidence, SLOPE_TOL, sum_tol)


def torsion_profile(U: SpatialDomain, x0) -> SpatialField:
    """Solve -lap_h(v) = 1 in U with boundary values |x - x0|.

    The result dominates |x - x0| on every interior cell (discrete minimum
    principle; checked) and is exactly superharmonic: -lap_h(v) = 1 > 0.
    """
    if U.is_empty:
        raise GeometryError("torsion profile of an empty domain")
    if not U.is_connected():
        raise CapacityError("torsion profile needs a connected domain")
    x0 = np.asarray(x0, dtype=float)
    if not _on_spatial_boundary(U, x0):
        raise CapacityError(f"x0={tuple(x0)} is not on the boundary of U")
    h = U.grid.h
    centers = U.grid.centers()
    phi = np.linalg.norm(centers - x0, axis=-1)
    values = np.full(U.grid.extents, np.nan)
    values[U.boundary_mask] = phi[U.boundary_mask]
    core = U.core_mask
    if core.any():
        pinned = np.where(core, 0.0, phi)
        rhs = 1.0 + neighbour_sum(pinned, np.empty_like(phi)) / h ** 2
        sol = _box_solve(core, 2 * U.grid.n / h ** 2, 1 / h ** 2, rhs,
                         TORSION_TOL, "torsion")
        values[core] = sol
        slack = sol - phi[core]
        if slack.min() < -1e-9 * max(1.0, float(np.abs(sol).max())):
            raise CapacityError(
                "torsion profile fell below |x - x0|; solve is inconsistent")
    return SpatialField(U, values)
