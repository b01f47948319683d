"""Finite-difference solver for u_t = mu * lap(u^m) with Dirichlet data.

The scheme uses the standard 2n+1-point Laplacian applied to w = u^m and
either backward-Euler time stepping (damped Newton per step, symmetrized
Jacobian solved by CG) or forward Euler under a CFL bound.
On unions of cylinders with nondecreasing time sections the solve proceeds
slab by slab; cells appearing at a junction take their initial values from
the parabolic boundary data at the junction time.

The defined and the interior samples of every level are the domain's own
(``SpaceTimeDomain.samples``), for solves and for wrapped closed forms
alike, and the samples a solve pins are its parabolic boundary.  Boundary
data are array-valued, with a time per point (see ``BoundaryData``): each
member's pinned samples, over all levels, are drawn in one call.

A slab is a run of levels with one interior mask, its core, and
``_step_matrices`` builds each one, read-only, from the core alone.  Every
slab has one layout: it numbers the cells of the core's bounding box in C
order.  A box cell outside the core is a decoupled row: no coupling,
degree 0 and a zero right-hand side, so Newton and CG keep it at 0 and it
is never written back.  The adjacency ``A`` among the box's cells is
stored by its diagonals, a ``scipy.sparse.dia_matrix`` with the ascending
offsets +-stride of each axis along which the box is more than one cell
wide, and mask slices over ``geometry.faces`` give those diagonals
directly; the largest offset, the box's row stride, is the bandwidth
``bw``.  The pinned neighbours' Dirichlet contributions are a sum over
the box grown by one cell and clipped to the grid (``_Slab.ring_sum``),
which reads the grid only on the pinned ring, so the samples off the
domain (NaN) never enter it.  Each core cell adds its ring terms from +0
in ascending offset order, and a DIA product adds the diagonals from 0 in
ascending offset order; the padding adds exact zeros (+0), which leave
every sum as it is.  So on a box core, whose box cells are its own,
every product adds the neighbours' terms alone in ascending offset
order.  On any other core the vectors are longer than the core by the
box's unfilled share, and the dots over them (in CG and Newton) may round
differently.  The bundled punctured disk (18,081 cells in a 151 x 151
box, so 4,720 padded cells and vectors 26 % longer, the most padding that
the corpus and the tests reach) is the corpus's one such core: a solve on
it moved by at most 8.1e-16, with the same report.  At h = 1/128 (15,876
unknowns) the diagonals take 0.5 MB.  ``_slabs`` keeps a domain object's
slabs in its ``memo``, so every solve and residual check on it shares
them and a rebuilt domain, even an equal one, builds its own.
``Field.stats["assemblies"]`` counts the slabs a solve enters.

``solve_union_many`` solves a family of data on one domain in one pass,
and ``solve_union`` is its one-member case, so there is one stepping
loop.  The members step together as the rows of ``(K, n)`` arrays, and
each member's field and stats equal those of a solve of its own, bit for
bit: every operation either acts entry by entry or keeps one member's
arithmetic apart from the others'.  Products with the slab's matrices
take the stack's rows as a block of columns, which scipy multiplies entry
by entry in the one-vector order (``_rows``).  Dots and norms are
``np.vecdot`` rows, which give ``np.dot``'s bits (measured with numpy
2.4.6 at n = 7 to 40,000; ``einsum`` rows do not).  Each member's
Jacobian is factored by its own ``pbtrf`` call: one call over the stacked
band matched the members' own factors at bandwidths 5 and 14 but not at
30, 40, 62 or 126.  Newton keeps a line search and the stats per member,
and its arrays hold only the members still iterating: a member that has
converged leaves them for the result.  CG keeps its scalars, stopping
test and iteration count per member, and a member that has stopped keeps
its row while the others iterate.  No norm is pooled across members.

Newton's symmetrized Jacobian is ``I + c*S M S`` with
``S = diag(sqrt(m|u|^(m-1)))``.  A solve gives each slab it enters a
workspace (``_SlabJacobian``) that holds its mutable buffers, so solves
share no state.  Its matrix is block diagonal, one block per member still
iterating, stored by the diagonals of ``M = diag(deg) - A``.  Each Newton
iteration rewrites the matrix data in place, every entry as
``((s_row * m) * s_col) * c`` with 1.0 added on the diagonal.
Cells are numbered in C order, so the Jacobian is banded; its bandwidth
is the box's row stride.  When that is at most ``_BAND_MAX`` (32), each
iteration factors each member's Jacobian in place in its slot of the
workspace's band buffer by LAPACK ``pbtrf``, and CG is preconditioned by
one callable per slab that applies each slot's factor by ``pbtrs``
(a decoupled row's factor is 1 there): the routines that
``scipy.linalg.cholesky_banded`` and ``cho_solve_banded`` call.  The
factor is exact, so CG converges in one iteration; wider bands keep
plain CG.  The factor costs about n*bw^2, so the cutoff was taken from
the benchmark's Barenblatt ladder and criterion 5 runs: 32 factors the
h = 1/32 systems (band 30) and beat 16 and 64, where factoring the
h = 1/64 systems (band 62) cost more than their CG iterations.  Either
way CG stops on ``linear_tol`` relative to the right-hand side, so the
tolerances keep their meaning.  The CG is ``cg`` here, which ``capacity``
shares: scipy 1.17's ``scipy.sparse.linalg.cg`` iteration step for step,
so its iterates are scipy's bits, with the preconditioner a plain
callable and none of scipy's operator wrapping on each call.
``Field.stats`` counts the CG iterations per step (``linear_iterations``),
every halving of a Newton line search (``line_search_backtracks``) and
the line searches in which no halving met the Armijo test
(``line_search_failures``; the last halved step is kept).

Newton starts each implicit step from the backward-difference
extrapolation of the slab's own levels (``_extrapolated_start``), of order
``min(_PREDICTOR_ORDER, steps already taken on the slab)`` with
``_PREDICTOR_ORDER`` = 3: ``(2*u1 - u2) + ∇²u1 + ∇³u1``, with
``u1 = u_{k-1}`` and ``∇²u1 = (u1 - u2) - (u2 - u3)``, truncated at that
order.  Its error is O(dt^(order+1)) where that of ``u_{k-1}`` is O(dt).
At a slab start (the first step of a solve or the first step after a
junction, the steps that enter a new slab) no earlier level has values on
the new core, and Newton starts from ``u_{k-1}`` itself; the second step
on a slab keeps the linear ``2*u1 - u2``, bit for bit.  The difference
form keeps a constant history exact, where the monomial form
``4*u1 - 6*u2 + 4*u3 - u4`` turns 0.8 into 0.7999999999999996.  Counts
at one BLAS thread against the linear start: the benchmark's 20-pair
campaign item takes 1,305 member Newton iterations, each one banded
factor per member, against 1,679 (1,416 at order 2); the bundled
100-pair campaign 6,679 against 8,370, and the bundled Barenblatt ladder
346 against 420.  On the benchmark's cut Barenblatt levels every step
from the third on takes one Newton iteration, where at h = 1/64 each
took two.  A few scenarios take a few more (``union-resolutivity`` 247
against 233).  The explicit scheme has no Newton solve.  The start is not
clipped, since the odd power extension below takes negative iterates, and
the stopping test is unchanged.

The declared ``BoundaryData.bounds`` set the residual scale and the CFL
check, so every level's pinned samples are checked against them: a value
outside raises ``SolverError``, and ``Field.stats["data_bounds"]`` records
the declared and the observed ``[min, max]``.

``scheme_residual`` is the scheme as an array over every interior sample,
for the field's own scheme; it walks the same planned slabs and shares the
Laplacian expression with the solve, so reports check exactly what was
solved.

Powers of the field use the odd extension sign(u)*|u|^m so Newton iterates
may transiently cross zero; converged solutions are nonnegative because the
limit system is an M-matrix with nonnegative data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg import get_lapack_funcs

from .geometry import SpaceTimeDomain, check_monotone_sections, dilate, faces


class SolverError(RuntimeError):
    """Newton failed to converge, CFL violated, or invalid solver input."""


_DEGENERACY_FLOOR = 1e-12   # Jacobian regularization for cells with u ~ 0
_BAND_MAX = 32              # widest Jacobian band factored for CG
_PREDICTOR_ORDER = 3        # highest order of Newton's extrapolated start
_PBTRF, _PBTRS = get_lapack_funcs(("pbtrf", "pbtrs"), dtype=np.float64)


def _pow_odd(u: np.ndarray, m: float) -> np.ndarray:
    """sign(u)|u|^m; the monotone odd extension of u^m to negative values."""
    return np.sign(u) * np.abs(u) ** m


def cg(A, b: np.ndarray, *, rtol: float, atol: float = 0.0, maxiter: int,
       M: Callable | None = None, callback: Callable | None = None,
       counts: np.ndarray | None = None) -> tuple[np.ndarray, int]:
    """Solve ``A x = b`` for SPD ``A`` by preconditioned conjugate gradient
    from x0 = 0; ``M(r)`` applies the preconditioner (None: the identity).

    Returns ``(x, 0)`` once ``norm(r) < max(atol, rtol*norm(b))`` at the top
    of an iteration, else ``(x, maxiter)``; ``callback(x)`` runs after each
    iteration.  Each step is scipy 1.17's ``scipy.sparse.linalg.cg``, with
    the same dot and axpy order, so the iterates are its bits.  The array
    that ``A @ p`` returns is overwritten as the axpys' workspace, so it
    must not be a view of ``p``.

    ``b`` may also be a stack ``(K, n)`` of independent systems.  Then
    ``A`` is their block-diagonal matrix, applied to the raveled stack, and
    ``M`` maps a stack to a stack.  Each member keeps its own scalars,
    stopping test and iteration count, so its iterate is that of a call on
    its row alone, bit for bit; a member that has stopped keeps its row
    while the others iterate.  ``info`` is then an array, one entry per
    member, and ``counts`` (one integer per member), when given, gains each
    member's iterations.

    The dots are ``np.vecdot`` rows, with ``np.dot``'s bits; being a numpy
    ufunc, ``np.vecdot`` warns on an overflow where ``np.dot`` stays quiet.
    """
    B = np.atleast_2d(b)
    size = len(B)
    bnrm2 = np.sqrt(np.vecdot(B, B))
    tol = np.maximum(float(atol), float(rtol) * bnrm2)
    info = np.full(size, maxiter)
    x = np.zeros(B.shape)
    r = B.copy()
    # The running members: r, p and their scalars are packed to these rows.
    # scipy returns a zero b itself, signed zeros and all.
    act = np.arange(size)
    zero = bnrm2 == 0
    if np.count_nonzero(zero):
        x[zero] = B[zero]
        info[zero] = 0
        act, r, tol = act[~zero], r[~zero], tol[~zero]
    whole = act.size == size
    for it in range(maxiter):
        rr = np.vecdot(r, r)
        stop = np.sqrt(rr) < tol
        stopped = np.count_nonzero(stop)
        if stopped:
            info[act[stop]] = 0
            if counts is not None:
                counts[act[stop]] += it
            if stopped == act.size:
                break
            act, r, tol, rr = act[~stop], r[~stop], tol[~stop], rr[~stop]
            if it:
                p, rho_prev = p[~stop], rho_prev[~stop]
            whole = False
        elif not act.size:          # every b was zero
            break
        if M is None:               # z is r: the stopping test's dot is rho
            z, rho = r, rr
        else:
            if whole:
                z = M(r.reshape(b.shape)).reshape(r.shape)
            else:
                z = M(_spread(r, act, size).reshape(b.shape)
                      ).reshape(B.shape)[act]
            rho = np.vecdot(r, z)
        if it:
            p *= (rho / rho_prev)[:, None]
            p += z
        else:
            p = z.copy()
        if whole:
            q = (A @ p.reshape(-1)).reshape(p.shape)
        else:
            q = (A @ _spread(p, act, size).reshape(-1)
                 ).reshape(B.shape)[act]
        alpha = (rho / np.vecdot(p, q))[:, None]
        # q is this iteration's own array and is not read again, so it
        # takes alpha*q, then alpha*p: no temporary per iteration
        r -= np.multiply(alpha, q, out=q)
        if whole:
            x += np.multiply(alpha, p, out=q)
        else:
            x[act] += np.multiply(alpha, p, out=q)
        rho_prev = rho
        if callback is not None:
            callback(x.reshape(b.shape))
    else:
        if counts is not None:
            counts[act] += maxiter
    return x.reshape(b.shape), (info if b.ndim > 1 else int(info[0]))


def _spread(v: np.ndarray, act: np.ndarray, size: int) -> np.ndarray:
    """The packed rows ``v`` of members ``act`` in a stack of ``size``
    rows, zero elsewhere."""
    whole = np.zeros((size, v.shape[1]))
    whole[act] = v
    return whole


@dataclass(frozen=True)
class SolverConfig:
    scheme: str = "implicit"            # "implicit" | "explicit"
    newton_tol: float = 1e-10           # on the per-unit-time step residual
    newton_max: int = 40
    linear_tol: float = 1e-10           # CG relative tolerance
    diffusion: float = 1.0              # mu in u_t = mu*lap(u^m)

    def __post_init__(self):
        if self.scheme not in ("implicit", "explicit"):
            raise SolverError(f"unknown scheme {self.scheme!r}")
        if self.newton_tol <= 0 or self.linear_tol <= 0:
            raise SolverError("tolerances must be positive")
        if self.diffusion <= 0:
            raise SolverError("diffusion multiplier must be positive")


@dataclass(frozen=True)
class BoundaryData:
    """Nonnegative data on parabolic-boundary samples.

    ``fn(x, t)`` takes points ``x`` of shape ``(..., n)`` and times ``t``,
    one per point: a float, or an array that broadcasts against
    ``x.shape[:-1]``.  It returns values that broadcast to
    ``x.shape[:-1]``.  Scalar arithmetic on the times, such as a power,
    goes through ``geometry.per_time``, which keeps the bits it has on a
    float.
    """

    fn: Callable[[np.ndarray, float | np.ndarray], np.ndarray]
    bounds: tuple[float, float]

    def __post_init__(self):
        lo, hi = self.bounds
        if not (0 <= lo <= hi < math.inf):
            raise SolverError(f"bounds must satisfy 0 <= inf <= sup < inf, got {self.bounds}")

    def sample(self, x: np.ndarray, t: float | np.ndarray) -> np.ndarray:
        """Data at points ``x`` (shape ``(..., n)``) and times ``t`` (a
        float or one per point), shape ``x.shape[:-1]``.

        A value that is not finite, or below -1e-12, raises ``SolverError``
        naming its point and time; small negative values are clipped to 0."""
        x = np.asarray(x, dtype=float)
        v = self.fn(x, t)
        try:
            v = np.broadcast_to(v, x.shape[:-1])
        except ValueError:
            raise SolverError(
                f"boundary data must broadcast to {x.shape[:-1]}") from None
        finite = np.isfinite(v)
        if not finite.all():
            i = np.unravel_index(np.argmin(finite), v.shape)
            raise SolverError(f"boundary data is not finite at "
                              f"({x[i]}, {_time_at(t, v.shape, i)}): {v[i]}")
        if (v < -1e-12).any():
            i = np.unravel_index(np.argmin(v), v.shape)
            raise SolverError(f"boundary data is negative at "
                              f"({x[i]}, {_time_at(t, v.shape, i)}): {v[i]}")
        return np.maximum(v, 0.0)

    @classmethod
    def constant(cls, c: float) -> "BoundaryData":
        return cls(fn=lambda x, t: np.full(x.shape[:-1], c), bounds=(c, c))

    def shifted(self, eps: float) -> "BoundaryData":
        """Data f + eps (eps >= 0)."""
        base = self.fn
        return BoundaryData(fn=lambda x, t: base(x, t) + eps,
                            bounds=(self.bounds[0] + eps, self.bounds[1] + eps))

    def clipped_down(self, eps: float) -> "BoundaryData":
        """Data max(f - eps, 0)."""
        base = self.fn
        return BoundaryData(fn=lambda x, t: np.maximum(base(x, t) - eps, 0.0),
                            bounds=(max(self.bounds[0] - eps, 0.0),
                                    max(self.bounds[1] - eps, 0.0)))


def _time_at(t: float | np.ndarray, shape: tuple, i: tuple) -> float:
    """The time of point ``i`` when ``t`` broadcasts to ``shape``."""
    return float(np.broadcast_to(t, shape)[i])


class Field:
    """Grid function on a space-time domain: values per (cell, level).

    ``values[k]`` is defined (non-nan) on the cells marked in ``defined[k]``;
    ``scheme_mask[k]`` marks the cells where the time step ending at level k
    enforced the discrete equation (the interior samples).  Both masks are
    the domain's ``samples``.
    """

    def __init__(self, domain: SpaceTimeDomain, values: np.ndarray,
                 m: float, config: SolverConfig, stats: dict | None = None):
        self.domain = domain
        self.values = values
        self.m = float(m)
        self.config = config
        self.stats = stats or {}
        values.setflags(write=False)

    @property
    def defined(self) -> np.ndarray:
        return self.domain.samples[0]

    @property
    def scheme_mask(self) -> np.ndarray:
        return self.domain.samples[1]

    @classmethod
    def from_values(cls, domain: SpaceTimeDomain, values: np.ndarray, m: float,
                    config: SolverConfig | None = None) -> "Field":
        """Wrap externally produced values (e.g. a sampled closed form)."""
        vals = np.where(domain.samples[0], values, np.nan)
        return cls(domain, vals, m, config or SolverConfig())

    def sup(self) -> float:
        return float(np.nanmax(np.abs(self.values[self.defined])))

    def min(self) -> float:
        return float(np.nanmin(self.values[self.defined]))

    def scaled(self, factor: float) -> "Field":
        return Field(self.domain, self.values * factor, self.m, self.config,
                     dict(self.stats))


def cfl_max_dt(L: float, h: float, m: float, n: int) -> float:
    """Largest stable forward-Euler step for fields bounded by L.

    Linearized diffusion coefficient is m*L^(m-1); the bound is the classical
    h^2 / (2 n m L^(m-1)).  L = 0 freezes the field, so no constraint.
    """
    if L < 0:
        raise SolverError("field bound must be nonnegative")
    if L == 0:
        return math.inf
    return h * h / (2 * n * m * L ** (m - 1))


def _lap_h2(A: sp.dia_matrix, w: np.ndarray, bdry_w: np.ndarray,
            deg: np.ndarray) -> np.ndarray:
    """h^2 * lap_h(w) on a slab's box: A w + pinned neighbours - deg w, for
    one vector ``w`` or a stack of rows."""
    return _rows(A, w) + bdry_w - deg * w


def _rows(mat: sp.dia_matrix, w: np.ndarray) -> np.ndarray:
    """``mat @ w`` for one vector, or for every row of a stack.  scipy
    multiplies a block of columns entry by entry in the order that it
    multiplies one vector (the diagonals from 0, in ascending offset
    order), so each row gets the one-vector product's bits.  The block is
    a C-contiguous copy of the stack's transpose, which scipy multiplies
    faster than the strided view (n = 15,876, K = 8, one BLAS thread: 1.2
    against 2.0 ms)."""
    return (mat @ np.ascontiguousarray(w.T)).T


class _Slab(NamedTuple):
    """One slab on its core's bounding box: what the Laplacian and the
    Jacobian ``I + c*S M S``, with ``M = diag(deg) - A``, are built from.

    ``box`` is the core's bounding box and ``inside`` the core on it, whose
    cells are numbered in C order; ``A`` is their adjacency, a DIA matrix
    with ascending offsets, and ``deg`` is 2n on the core and 0 off it.
    ``bw``, the largest offset, is the box's row stride.  ``grown`` is the
    box grown by one cell and clipped to the grid, ``into`` where it sits
    in the box padded by one cell on each side, and ``ring`` the pinned
    neighbours on it: the grid cells outside the core next to one of its
    cells.  Every array is read-only.
    """

    box: tuple[slice, ...]
    inside: np.ndarray
    A: sp.dia_matrix
    deg: np.ndarray
    bw: int
    grown: tuple[slice, ...]
    into: tuple[slice, ...]
    ring: np.ndarray

    def gather(self, a: np.ndarray) -> np.ndarray:
        """The box cells of ``a`` (shape ``(..., *extents)``) as rows
        ``(..., N)``, 0 off the core (where ``a`` may be NaN)."""
        rows = np.where(self.inside, a[(..., *self.box)], 0.0)
        return rows.reshape(*rows.shape[:-self.inside.ndim], -1)

    def scatter(self, a: np.ndarray, rows: np.ndarray) -> None:
        """Write the core cells of ``rows`` (shape ``(..., N)``) into ``a``."""
        view = a[(..., *self.box)]
        np.copyto(view, rows.reshape(view.shape), where=self.inside)

    def ring_sum(self, u: np.ndarray, m: float) -> np.ndarray:
        """Per box cell, the sum of ``sign(u)|u|^m`` over its pinned
        neighbours, as rows ``(..., N)``, 0 off the core.

        ``u`` has shape ``(..., *extents)`` and is read on the ring only.
        Each core cell adds its neighbours from +0 in ascending grid offset
        order (axis 0 step -1, ..., axis n-1 step -1, axis n-1 step +1,
        ..., axis 0 step +1); a neighbour in the core or beyond the grid
        adds +0, which leaves the sum as it is."""
        ndim = self.inside.ndim
        lead = u.shape[:-ndim]
        padded = np.zeros((*lead, *(s + 2 for s in self.inside.shape)))
        np.copyto(padded[(..., *self.into)], u[(..., *self.grown)],
                  where=self.ring)
        w = _pow_odd(padded, m)
        below, above = [], []
        for ax in range(ndim):
            at = [slice(1, -1)] * ndim
            at[ax] = slice(None, -2)
            below.append(tuple(at))
            at[ax] = slice(2, None)
            above.append(tuple(at))
        out = np.zeros((*lead, *self.inside.shape))
        for at in below + above[::-1]:
            out += w[(..., *at)]
        out[..., ~self.inside] = 0.0
        return out.reshape(*lead, -1)


def _step_matrices(core: np.ndarray) -> _Slab:
    """The slab of the core cells ``core``, on the core's bounding box.

    A's diagonals come from mask slices over ``geometry.faces``: along each
    axis on which the box is more than one cell wide, a pair of neighbours
    in the core adds 1 at offset -stride in the lower cell's column and at
    +stride in the upper one's.

    The solver's one slab builder.  Its name is the stencil-assembly layer
    that the benchmark's tracer wraps (``bench/tracer.py``, as
    ``solver.assemble``), so it keeps that name.
    """
    ndim = core.ndim
    box = tuple(slice(int(at.min()), int(at.max()) + 1)
                for at in np.nonzero(core))
    grown = tuple(slice(max(b.start - 1, 0), min(b.stop + 1, extent))
                  for b, extent in zip(box, core.shape))
    into = tuple(slice(g.start - b.start + 1, g.stop - b.start + 1)
                 for g, b in zip(grown, box))
    inside = core[box].copy()
    shape, n = inside.shape, inside.size
    axes = [ax for ax in range(ndim) if shape[ax] > 1]
    strides = [math.prod(shape[ax + 1:]) for ax in axes]
    below, above = [], []
    for lower, upper in faces(ndim, axes):
        both = inside[lower] & inside[upper]
        for diag, at in ((below, lower), (above, upper)):
            full = np.zeros(shape)
            full[at] = both
            diag.append(full.reshape(n))
    # column j of diagonal off holds A[j - off, j]
    A = sp.dia_matrix((np.array(below + above[::-1]).reshape(-1, n),
                       [-s for s in strides] + strides[::-1]),
                      shape=(n, n))
    core_g = core[grown]
    ring = dilate(core_g) & ~core_g
    slab = _Slab(box, inside, A, np.where(inside, 2.0 * ndim, 0.0).reshape(n),
                 max(strides, default=0), grown, into, ring)
    for arr in (inside, A.data, A.offsets, slab.deg, ring):
        arr.setflags(write=False)
    return slab


def _slabs(d: SpaceTimeDomain) -> list[tuple[int, _Slab]]:
    """(level, slab) for every level with interior samples, built once per
    domain object (``d.memo``) and shared, read-only, by every solve on it.

    A slab is built only where a level's interior mask differs from the
    last one built, and the levels of one slab share one ``_Slab``.
    """
    return d.memo("slabs", _plan_slabs)


def _plan_slabs(d: SpaceTimeDomain) -> list[tuple[int, _Slab]]:
    out, slab, core = [], None, None
    for k, sel in enumerate(d.samples[1]):
        if not sel.any():
            continue
        if core is None or not np.array_equal(sel, core):
            slab, core = _step_matrices(sel), sel
        out.append((k, slab))
    return out


class _SlabJacobian:
    """Newton's Jacobians ``I + c*S M S`` on one slab, for one solve of up
    to ``size`` members.

    ``update`` takes the scales of the k members still iterating and makes
    ``J`` their block-diagonal matrix, each block one member's Jacobian,
    with its data rewritten in place: a DIA matrix on M's offsets, whose
    diagonals run through the k blocks and are zero where they cross from
    one block to the next.  When ``bw <= _BAND_MAX`` it also factors each
    block in place in its own slot of one band buffer by LAPACK ``pbtrf``,
    and ``precond`` applies slot i's factor to row i of a stack by
    ``pbtrs``; otherwise ``precond`` is None.
    """

    def __init__(self, slab: _Slab, size: int = 1):
        self.slab = slab
        self._n = n = slab.deg.size
        A = slab.A
        self._main = main = int(np.searchsorted(A.offsets, 0))
        self._offsets = np.insert(A.offsets, main, 0)
        # A's diagonal at each of M's offsets (None at the main one)
        self._adj = [*A.data[:main], None, *A.data[main:]]
        self._blocks(size)
        self.precond = None
        if slab.bw <= _BAND_MAX:
            # slot i viewed as a Fortran-ordered (bw + 1, n) array, which
            # pbtrf factors in place
            self._band = np.zeros((size, n * (slab.bw + 1)))
            self._slots = [row.reshape(n, slab.bw + 1).T for row in self._band]
            # The callable closes over the factor list, not over self, so
            # that the workspace and its callable form no reference cycle.
            self._factors = factors = list(self._slots)

            def precond(r: np.ndarray) -> np.ndarray:
                z = np.empty_like(r)
                for i, row in enumerate(r):
                    z[i] = _PBTRS(factors[i], row)[0]
                return z

            self.precond = precond

    def _blocks(self, k: int) -> None:
        """Make ``J`` the block-diagonal matrix of k blocks."""
        self.J = sp.dia_matrix(
            (np.zeros((len(self._offsets), k * self._n)), self._offsets),
            shape=(k * self._n, k * self._n))
        self._k = k

    def update(self, s: np.ndarray, c: float) -> None:
        """Set block i of J to ``I + c*S M S`` with ``S = diag(s[i])``, for
        each row of the stack ``s``; factor the blocks if the band is
        narrow.  Each entry is ``((s_row * m) * s_col) * c``, plus 1.0 on
        the diagonal."""
        k, n = len(s), self._n
        if k != self._k:
            self._blocks(k)
        data = self.J.data
        blocks = data.reshape(len(data), k, n)
        for diag, adj, off in zip(blocks, self._adj,
                                  self._offsets.tolist()):
            # each block's entries on the diagonal: columns lo to hi; the
            # columns before lo or from hi on stay +0
            lo, hi = max(off, 0), n + min(off, 0)
            out, s_row = diag[:, lo:hi], s[:, lo - off:hi - off]
            if adj is None:
                np.multiply(s_row, self.slab.deg, out=out)
            else:
                # s_row * -1 where A has an entry, +0 where it has none
                np.multiply(s_row, adj[lo:hi], out=out)
                np.subtract(0.0, out, out=out)
            out *= s[:, lo:hi]
        data *= c
        data[self._main] += 1.0
        if self.precond is not None:
            self.factor()

    def factor(self) -> None:
        """The banded Cholesky factor of each block of J, in place in its
        slot of the band buffer."""
        k, n, bw = self._k, self._n, self.slab.bw
        band = self._band[:k]
        band.fill(0.0)              # clears the last factors' fill-in
        # band row bw - off of a slot is the block's diagonal off
        cols = band.reshape(k, n, bw + 1)
        for diag, off in zip(self.J.data[self._main:],
                             self._offsets[self._main:].tolist()):
            cols[:, :, bw - off] = diag.reshape(k, n)
        for i in range(k):
            cb, info = _PBTRF(self._slots[i], overwrite_ab=1)
            if info > 0:
                raise SolverError(
                    "banded Cholesky factorization of the Jacobian failed: "
                    f"{info}-th leading minor not positive definite")
            self._factors[i] = cb


class _NewtonResult(NamedTuple):
    """One implicit step's solution and how Newton got there, one row or
    entry per member."""

    u: np.ndarray
    iterations: np.ndarray
    linear_iterations: np.ndarray
    backtracks: np.ndarray      # line-search halvings
    failures: np.ndarray        # line searches where no halving met Armijo


def _newton_step(prev: np.ndarray, start: np.ndarray, bdry_w: np.ndarray,
                 A: sp.dia_matrix, jac: _SlabJacobian,
                 deg: np.ndarray, c: float, m: float, cfg: SolverConfig,
                 res_scale: np.ndarray, dt: float) -> _NewtonResult:
    """Solve u - c*(A w(u) + g - deg*w(u)) = prev for one implicit step of
    every member of a stack (one row each).

    Newton starts from ``start``.  c = mu*dt/h^2, g = bdry_w (Dirichlet
    contributions), w = odd power m, ``jac`` is the slab's Jacobian
    workspace, and ``res_scale`` has one entry per member.  Each member
    meets its own tolerance and runs its own line search.  ``u``, ``F``,
    ``prev``, ``bdry_w`` and the targets hold only the members still
    iterating, ``live``: a member's row goes to the result at the first
    check it meets, and the arrays are copied only when a member leaves.
    The line search tries the full step on every row, then halves only
    the rows that miss the Armijo test.  Overflow is quiet, as it was in
    the ``np.linalg.norm`` of one member: an iterate that overflows misses
    its target and raises ``SolverError``.
    """
    def residual(u, prev, bdry_w):
        return u - c * _lap_h2(A, _pow_odd(u, m), bdry_w, deg) - prev

    members = len(start)
    target = cfg.newton_tol * res_scale * dt
    out = np.empty_like(start)
    iterations = np.zeros(members, dtype=int)
    linear = np.zeros(members, dtype=int)
    backtracks = np.zeros(members, dtype=int)
    failures = np.zeros(members, dtype=int)
    live = np.arange(members)
    u = start
    with np.errstate(over="ignore", invalid="ignore"):
        F = residual(u, prev, bdry_w)
        for it in range(cfg.newton_max + 1):
            met = np.max(np.abs(F), axis=1) <= target
            iterations[live] = it
            if np.count_nonzero(met):
                out[live[met]] = u[met]
                keep = ~met
                live, u, F = live[keep], u[keep], F[keep]
                prev, bdry_w, target = prev[keep], bdry_w[keep], target[keep]
                if not live.size:
                    break
            if it == cfg.newton_max:
                raise SolverError(
                    f"member {live[0]}: Newton did not converge in "
                    f"{cfg.newton_max} iterations; worst step residual "
                    f"{np.max(np.abs(F[0])) / dt:.3e} "
                    f"(target {cfg.newton_tol * res_scale[live[0]]:.3e})")
            s = np.sqrt(m * np.maximum(np.abs(u), _DEGENERACY_FLOOR)
                        ** (m - 1))
            jac.update(s, c)
            steps = np.zeros(live.size, dtype=int)
            y, info = cg(jac.J, s * (-F), rtol=cfg.linear_tol,
                         atol=0.0, maxiter=10 * u.shape[1] + 100,
                         M=jac.precond, counts=steps)
            linear[live] += steps
            if np.count_nonzero(info):
                i = np.flatnonzero(info)[0]
                raise SolverError(f"member {live[i]}: inner CG failed to "
                                  f"converge (info={info[i]})")
            delta = y / s
            norm0 = np.sqrt(np.vecdot(F, F))
            step = np.ones(live.size)
            u_new = u + delta
            F_new = F_try = residual(u_new, prev, bdry_w)
            search = np.arange(live.size)       # rows of live still halving
            for tries in range(1, 11):
                met = (np.sqrt(np.vecdot(F_try, F_try))
                       <= (1 - 1e-4 * step[search]) * norm0[search])
                search = search[~met]
                if not search.size:
                    break
                step[search] *= 0.5
                backtracks[live[search]] += 1
                if tries < 10:
                    u_try = u[search] + step[search, None] * delta[search]
                    F_try = residual(u_try, prev[search], bdry_w[search])
                    u_new[search], F_new[search] = u_try, F_try
            else:
                failures[live[search]] += 1
            u, F = u_new, F_new
    return _NewtonResult(np.maximum(out, 0.0, out=out), iterations, linear,
                         backtracks, failures)


def _extrapolated_start(prev_core: np.ndarray, slab: _Slab,
                        values: np.ndarray, k: int, order: int) -> np.ndarray:
    """Newton's start for step k: the backward-difference extrapolation of
    the given ``order`` from ``prev_core`` (level k - 1 on the slab's box)
    and the ``order`` levels before it, which must be defined on the core.

    The start is ``(2*u1 - u2) + ∇²u1 + ∇³u1``, truncated at ``order``,
    with ``∇²u1 = (u1 - u2) - (u2 - u3)`` and so on: order 1 keeps the
    linear extrapolation's bits, order 0 returns ``prev_core`` itself, and
    a constant history gives back its constant exactly.  The older levels
    are gathered here, so they are freed before Newton runs, and their
    differences are taken in place.
    """
    if not order:
        return prev_core
    table = [prev_core] + [slab.gather(values[:, k - j])
                           for j in range(2, order + 2)]
    start = 2 * table[0] - table[1]
    # pass i leaves the i-th backward difference at level k - 1 - (j - i)
    # in table[j] for j >= i (from the oldest down, so that each pass
    # reads the last one's values), and so ∇^i u1 in table[i]
    for i in range(1, order + 1):
        for j in range(order, i - 1, -1):
            np.subtract(table[j - 1], table[j], out=table[j])
        if i > 1:
            start += table[i]
    return start


def _pin_data(d: SpaceTimeDomain, datas: list[BoundaryData],
              values: np.ndarray) -> list[list[float]]:
    """Write each member's data on the pinned samples of every level (the
    parabolic boundary and the junction cells) into its row of ``values``,
    in one ``sample`` call per member, and return each member's observed
    ``[min, max]``.  The points and times drawn for the call live only
    here, so the solve does not hold them."""
    defined, interior = d.samples
    pinned = defined & ~interior
    points = np.broadcast_to(d.grid.centers(),
                             (*pinned.shape, d.grid.n))[pinned]
    times = np.broadcast_to(
        d.level_times().reshape(-1, *(1,) * d.grid.n), pinned.shape)[pinned]
    observed = []
    for row, data in zip(values, datas):
        sampled = data.sample(points, times)
        row[pinned] = sampled
        observed.append([float(sampled.min(initial=math.inf)),
                         float(sampled.max(initial=-math.inf))])
    return observed


def _raise_out_of_bounds(d: SpaceTimeDomain, values: np.ndarray,
                         declared: list[list[float]]) -> None:
    """Raise ``SolverError`` for the first level, and at it the first
    member, whose pinned samples in ``values`` leave the member's declared
    bounds."""
    defined, interior = d.samples
    for k in range(d.num_levels):
        pinned = defined[k] & ~interior[k]
        for i, (lo, hi) in enumerate(declared):
            sampled = values[i, k][pinned]
            s_lo = float(sampled.min(initial=math.inf))
            s_hi = float(sampled.max(initial=-math.inf))
            if s_lo < lo or s_hi > hi:
                raise SolverError(
                    f"member {i}: boundary data at t={d.level_time(k)} span "
                    f"[{s_lo}, {s_hi}], outside the declared bounds "
                    f"[{lo}, {hi}]")


def solve_union(d: SpaceTimeDomain, data: BoundaryData, cfg: SolverConfig,
                m: float) -> Field:
    """Slab-by-slab Dirichlet solve on a monotone union of cylinders.

    The returned field equals ``data`` on the parabolic-boundary samples,
    satisfies the discrete scheme at every interior (cell, level) and stays
    nonnegative.  The one-member case of ``solve_union_many``.
    """
    return solve_union_many(d, [data], cfg, m)[0]


def solve_union_many(d: SpaceTimeDomain, datas: list[BoundaryData],
                     cfg: SolverConfig, m: float) -> list[Field]:
    """``solve_union`` for each of ``datas`` on one domain, in one pass.

    The members step together as rows of ``(K, n)`` arrays on the domain's
    planned slabs, and each field (values and stats) equals its own
    ``solve_union`` bit for bit.  The fields' values are views of one
    ``(K, levels, *extents)`` array, which lives as long as any of them.
    A member whose samples leave its declared bounds, or whose Newton
    iteration fails, raises ``SolverError`` naming its index in ``datas``.
    """
    datas = list(datas)
    if not datas:
        raise SolverError("no boundary data to solve for")
    ok, t_bad = check_monotone_sections(d)
    if not ok:
        raise SolverError(f"time sections are not nondecreasing (violation at t={t_bad})")
    if d.num_steps < 1:
        raise SolverError("domain has no time steps to solve")
    grid = d.grid
    h, dt = grid.h, d.dt
    mu = cfg.diffusion
    members = len(datas)
    res_scale = [max(1.0, mu * data.bounds[1] ** m / h ** 2) for data in datas]
    if cfg.scheme == "explicit":
        for i, data in enumerate(datas):
            max_dt = cfl_max_dt(data.bounds[1], h, m, grid.n) / mu
            if dt > max_dt * (1 + 1e-12):
                raise SolverError(
                    f"member {i}: explicit step dt={dt} exceeds the CFL "
                    f"bound {max_dt:.6g}")

    levels = d.num_levels
    values = np.full((members, levels, *grid.extents), np.nan)
    declared = [list(map(float, data.bounds)) for data in datas]
    observed = _pin_data(d, datas, values)
    if any(s_lo < lo or s_hi > hi
           for (lo, hi), (s_lo, s_hi) in zip(declared, observed)):
        _raise_out_of_bounds(d, values, declared)

    newton_iters: list[list[int]] = [[] for _ in datas]
    linear_iters: list[list[int]] = [[] for _ in datas]
    backtracks = np.zeros(members, dtype=int)
    ls_failures = np.zeros(members, dtype=int)
    c = mu * dt / h ** 2
    scales = np.array(res_scale)
    slab, assemblies = None, 0
    for k, level_slab in _slabs(d):
        new_slab = level_slab is not slab
        if new_slab:
            slab, taken = level_slab, 0
            if cfg.scheme == "implicit":
                jac = _SlabJacobian(slab, members)
            assemblies += 1
        prev_core = slab.gather(values[:, k - 1])
        if np.isnan(prev_core).any():
            raise SolverError("missing initial values on a slab core")

        if cfg.scheme == "implicit":
            # Each step taken on this slab solved on this same core, so
            # that many levels before k - 1 are defined there.
            start = _extrapolated_start(prev_core, slab, values, k,
                                        min(_PREDICTOR_ORDER, taken))
            taken += 1
            bdry_w = slab.ring_sum(values[:, k], m)
            sol = _newton_step(prev_core, start, bdry_w, slab.A, jac,
                               slab.deg, c, m, cfg, scales, dt)
            u_new = sol.u
            for i in range(members):
                newton_iters[i].append(int(sol.iterations[i]))
                linear_iters[i].append(int(sol.linear_iterations[i]))
            backtracks += sol.backtracks
            ls_failures += sol.failures
        else:
            lap = _lap_h2(slab.A, _pow_odd(prev_core, m),
                          slab.ring_sum(values[:, k - 1], m), slab.deg)
            u_new = np.maximum(prev_core + c * lap, 0.0)
        slab.scatter(values[:, k], u_new)

    return [Field(d, values[i], m, cfg, {
        "newton_iterations": newton_iters[i],
        "linear_iterations": linear_iters[i],
        "line_search_backtracks": int(backtracks[i]),
        "line_search_failures": int(ls_failures[i]),
        "assemblies": assemblies,
        "residual_scale": res_scale[i],
        "data_bounds": {"declared": declared[i], "observed": observed[i]},
        "dt": dt,
        "h": h,
    }) for i in range(members)]


def scheme_residual(f: Field) -> np.ndarray:
    """The scheme residual (u_k - u_{k-1})/dt - mu*lap_h(w) per sample.

    w = u^m at level k for the implicit scheme and at level k - 1 for the
    explicit one, as ``f.config.scheme`` says.  The result has shape
    ``(levels, *extents)`` and is nan off ``f.scheme_mask`` (boundary
    samples and level 0).
    """
    d = f.domain
    lag = 0 if f.config.scheme == "implicit" else 1
    out = np.full(f.values.shape, np.nan)
    for k, slab in _slabs(d):
        u = f.values[k - lag]
        lap = _lap_h2(slab.A, _pow_odd(slab.gather(u), f.m),
                      slab.ring_sum(u, f.m), slab.deg) / d.grid.h ** 2
        du = slab.gather(f.values[k]) - slab.gather(f.values[k - 1])
        slab.scatter(out[k], du / d.dt - f.config.diffusion * lap)
    return out


COMPARISON_TOL = 1e-10      # relative to max(1, sup |u|, sup |v|)


def comparison_check(u: Field, v: Field) -> tuple[bool, list]:
    """Check v <= u at all interior samples (discrete comparison principle),
    up to ``COMPARISON_TOL``."""
    if u.domain is not v.domain and (
            u.domain.num_levels != v.domain.num_levels
            or not u.domain.grid.compatible_with(v.domain.grid)):
        raise SolverError("comparison requires fields on the same domain")
    scale = max(1.0, u.sup(), v.sup())
    sel = u.scheme_mask & v.scheme_mask
    diff = v.values - u.values
    bad = sel & (diff > COMPARISON_TOL * scale)
    violations = [(tuple(map(int, w[1:])), int(w[0]), float(diff[tuple(w)]))
                  for w in np.argwhere(bad)]
    return len(violations) == 0, violations
