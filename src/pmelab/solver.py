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
data are array-valued (see ``BoundaryData``): each level's pinned samples
are drawn in one call.  The stencil (``geometry.face_stencil``) is built
once per slab, where a level's interior mask differs from the previous
one's, and the constant Jacobian part ``M = 2n*I - A`` goes with it.
``Field.stats["assemblies"]`` counts the slabs a solve enters.  Core
values are gathered and scattered through the stencil's flat grid
indices, and the Dirichlet contributions of the pinned neighbours are
array sums per stencil direction.

Every solve on one ``SpaceTimeDomain`` object shares its plan: the
monotonicity check and each slab's stencil with M and its Jacobian pattern
are computed once and kept, read-only, for as long as the object lives (a
``weakref.WeakKeyDictionary`` keyed by identity, so a rebuilt domain, even
an equal one, builds its own).

Newton's symmetrized Jacobian is ``I + c*S M S`` with
``S = diag(sqrt(m|u|^(m-1)))``.  A solve gives each slab it enters a
workspace (``_SlabJacobian``) that holds its mutable buffers, so solves
share no state.  Its CSR matrix shares M's index arrays, and each Newton
iteration rewrites the matrix data in place by scaling M's stored data.
Cells are numbered in C order, so the Jacobian is banded; its bandwidth
is the largest index distance between neighbours (a row of the core in
2-D).  When that is at most ``_BAND_MAX`` (32), each iteration factors
the Jacobian in place in the workspace's band buffer by LAPACK
``pbtrf``, and CG is preconditioned by one callable per slab that
applies the factor by ``pbtrs``: the routines that
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

Newton starts each implicit step from the linear extrapolation
``2*u_{k-1} - u_{k-2}`` of the last two levels, whose error is O(dt^2)
where that of ``u_{k-1}`` is O(dt).  On the finest Barenblatt level of
the benchmark ladder (h = 1/128) it cuts every step from the third on to
one Newton iteration, from two.  It does not apply at a slab start (the
first step of a solve or the first step after a junction, the steps that
enter a new slab), where level k - 2 has no values on the new core:
there Newton starts from ``u_{k-1}``.  The explicit scheme has no Newton
solve.  The start is not clipped, since the odd power extension below
takes negative iterates, and the stopping test is unchanged.

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

import itertools
import math
import weakref
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg import get_lapack_funcs

from .geometry import (
    SpaceTimeDomain,
    Stencil,
    check_monotone_sections,
    face_stencil,
    pinned_sum,
)


class SolverError(RuntimeError):
    """Newton failed to converge, CFL violated, or invalid solver input."""


_DEGENERACY_FLOOR = 1e-12   # Jacobian regularization for cells with u ~ 0
_BAND_MAX = 32              # widest Jacobian band factored for CG
_PBTRF, _PBTRS = get_lapack_funcs(("pbtrf", "pbtrs"), dtype=np.float64)


def _pow_odd(u: np.ndarray, m: float) -> np.ndarray:
    """sign(u)|u|^m; the monotone odd extension of u^m to negative values."""
    return np.sign(u) * np.abs(u) ** m


def cg(A, b: np.ndarray, *, rtol: float, atol: float = 0.0, maxiter: int,
       M: Callable | None = None, callback: Callable | None = None
       ) -> tuple[np.ndarray, int]:
    """Solve ``A x = b`` for SPD ``A`` by preconditioned conjugate gradient
    from x0 = 0; ``M(r)`` applies the preconditioner (None: the identity).

    Returns ``(x, 0)`` once ``norm(r) < max(atol, rtol*norm(b))`` at the top
    of an iteration, else ``(x, maxiter)``; ``callback(x)`` runs after each
    iteration.  Each step is scipy 1.17's ``scipy.sparse.linalg.cg``, with
    the same dot and axpy order, so the iterates are its bits.
    """
    bnrm2 = np.linalg.norm(b)
    if bnrm2 == 0:
        return b.copy(), 0
    tol = max(float(atol), float(rtol) * float(bnrm2))
    x = np.zeros_like(b)
    r = b.copy()
    rho_prev = p = None
    for it in range(maxiter):
        if np.linalg.norm(r) < tol:
            return x, 0
        z = r if M is None else M(r)
        rho = np.dot(r, z)
        if it:
            p *= rho / rho_prev
            p += z
        else:
            p = z.copy()
        q = A @ p
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
        if callback is not None:
            callback(x)
    return x, maxiter


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

    ``fn(x, t)`` takes points ``x`` of shape ``(..., n)`` at one time ``t``
    and returns values that broadcast to ``x.shape[:-1]``.
    """

    fn: Callable[[np.ndarray, float], np.ndarray]
    bounds: tuple[float, float]

    def __post_init__(self):
        lo, hi = self.bounds
        if not (0 <= lo <= hi < math.inf):
            raise SolverError(f"bounds must satisfy 0 <= inf <= sup < inf, got {self.bounds}")

    def sample(self, x: np.ndarray, t: float) -> np.ndarray:
        """Data at points ``x`` (shape ``(..., n)``), shape ``x.shape[:-1]``."""
        x = np.asarray(x, dtype=float)
        try:
            v = np.broadcast_to(self.fn(x, t), x.shape[:-1])
        except ValueError:
            raise SolverError(
                f"boundary data must broadcast to {x.shape[:-1]}") from None
        if (v < -1e-12).any():
            i = np.unravel_index(np.argmin(v), v.shape)
            raise SolverError(
                f"boundary data is negative at ({x[i]}, {t}): {v[i]}")
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


def _step_matrices(core_mask: np.ndarray) -> Stencil:
    """The stencil of one slab's core cells (built once per distinct core).

    A function of its own, so that profiles show the solver's assembly
    apart from the capacity solves that share ``face_stencil``.
    """
    return face_stencil(core_mask)


def _lap_h2(A: sp.csr_matrix, w: np.ndarray, bdry_w: np.ndarray,
            deg: float) -> np.ndarray:
    """h^2 * lap_h(w) on the core: A w + pinned neighbours - 2n w."""
    return A @ w + bdry_w - deg * w


# Set-up shared by every solve on one domain object, kept as long as the
# object lives: build function -> its result.  Keyed by identity, so a
# rebuilt equal domain builds its own.
_PLANS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _planned(d: SpaceTimeDomain, build: Callable):
    """``build(d)``, computed once per domain object."""
    plan = _PLANS.setdefault(d, {})
    if build not in plan:
        plan[build] = build(d)
    return plan[build]


class _Slab(NamedTuple):
    """One slab's stencil and where its Jacobian ``I + c*S M S`` puts M's
    stored data.

    ``M = 2n*I - A``.  ``rows`` is the CSR row of each stored entry of M and
    ``diag`` the positions of the diagonal ones.  ``upper`` lists the
    entries on or above the diagonal and ``band`` their flat index into the
    Fortran-ordered ``(bw + 1, n)`` upper banded storage (row
    ``bw + row - col``), where ``bw`` is the largest ``col - row``.
    Every array is read-only.
    """

    stencil: Stencil
    M: sp.csr_matrix
    rows: np.ndarray
    diag: np.ndarray
    upper: np.ndarray
    band: np.ndarray
    bw: int


def _slab(st: Stencil, deg: float) -> _Slab:
    """The stencil ``st`` with ``M = deg*I - A`` and its Jacobian pattern."""
    A = st.adjacency
    M = (sp.diags(np.full(A.shape[0], deg)) - A).tocsr()
    n = M.shape[0]
    rows = np.repeat(np.arange(n), np.diff(M.indptr))
    offset = M.indices - rows
    bw = int(offset.max(initial=0))
    upper = np.flatnonzero(offset >= 0)
    band = M.indices[upper] * (bw + 1) + bw - offset[upper]
    diag = np.flatnonzero(offset == 0)
    for arr in (A.data, A.indices, A.indptr, st.flat,
                *itertools.chain(*st.pinned), M.data, M.indices, M.indptr,
                rows, diag, upper, band):
        arr.setflags(write=False)
    return _Slab(st, M, rows, diag, upper, band, bw)


def _slabs(d: SpaceTimeDomain) -> list[tuple[int, _Slab]]:
    """(level, slab) for every level with interior samples.

    The stencil is built only when a level's interior mask differs from
    the last one built, so once per slab, and the levels of one slab share
    one ``_Slab``.
    """
    deg = float(2 * d.grid.n)
    out, slab, core = [], None, None
    for k, sel in enumerate(d.samples[1]):
        if not sel.any():
            continue
        if core is None or not np.array_equal(sel, core):
            slab, core = _slab(_step_matrices(sel), deg), sel
        out.append((k, slab))
    return out


class _SlabJacobian:
    """Newton's Jacobian ``I + c*S M S`` on one slab, for one solve.

    ``J`` shares M's index arrays, and ``update`` rewrites its data in
    place.  When ``bw <= _BAND_MAX``, ``update`` also factors J in place
    in a band buffer by LAPACK ``pbtrf``, and ``precond`` applies the
    factor by ``pbtrs``; otherwise ``precond`` is None.
    """

    def __init__(self, slab: _Slab):
        M = slab.M
        n = M.shape[0]
        self.slab = slab
        self.J = sp.csr_matrix((np.empty(M.nnz), M.indices, M.indptr),
                               shape=M.shape)
        self.precond = None
        if slab.bw <= _BAND_MAX:
            # viewed as a Fortran-ordered (bw + 1, n) array, which pbtrf
            # factors in place
            self._band = np.zeros(n * (slab.bw + 1))
            # The callable closes over a one-slot list, not over self, so
            # that the workspace and its callable form no reference cycle.
            self._cb = cb = [self._band.reshape(n, slab.bw + 1).T]
            self.precond = lambda r: _PBTRS(cb[0], r)[0]

    def update(self, s: np.ndarray, c: float) -> None:
        """Set J to ``I + c*S M S`` with ``S = diag(s)``; factor it if the
        band is narrow."""
        slab, data = self.slab, self.J.data
        np.multiply(s[slab.rows], slab.M.data, out=data)
        data *= s[slab.M.indices]
        data *= c
        data[slab.diag] += 1.0
        if self.precond is not None:
            self.factor()

    def factor(self) -> None:
        """The banded Cholesky factor of J, in place in the band buffer."""
        self._band.fill(0.0)        # clears the last factor's fill-in
        self._band[self.slab.band] = self.J.data[self.slab.upper]
        cb, info = _PBTRF(self._cb[0], overwrite_ab=1)
        if info > 0:
            raise SolverError(
                "banded Cholesky factorization of the Jacobian failed: "
                f"{info}-th leading minor not positive definite")
        self._cb[0] = cb


class _NewtonResult(NamedTuple):
    """One implicit step's solution and how Newton got there."""

    u: np.ndarray
    iterations: int
    linear_iterations: int
    backtracks: int         # line-search halvings
    failures: int           # line searches where no halving met Armijo


def _newton_step(prev: np.ndarray, start: np.ndarray, bdry_w: np.ndarray,
                 A: sp.csr_matrix, jac: _SlabJacobian, deg: float, c: float,
                 m: float, cfg: SolverConfig, res_scale: float,
                 dt: float) -> _NewtonResult:
    """Solve u - c*(A w(u) + g - deg*w(u)) = prev for one implicit step.

    Newton starts from ``start``.  c = mu*dt/h^2, g = bdry_w (Dirichlet
    contributions), w = odd power m, ``jac`` is the slab's Jacobian
    workspace.
    """
    u = start
    linear_iters = [0]

    def count(_xk):
        linear_iters[0] += 1

    def residual(uv: np.ndarray) -> np.ndarray:
        w = _pow_odd(uv, m)
        return uv - c * _lap_h2(A, w, bdry_w, deg) - prev

    F = residual(u)
    target = cfg.newton_tol * res_scale * dt
    backtracks = failures = 0
    for it in range(cfg.newton_max):
        if np.max(np.abs(F)) <= target:
            return _NewtonResult(np.maximum(u, 0.0), it, linear_iters[0],
                                 backtracks, failures)
        d = m * np.maximum(np.abs(u), _DEGENERACY_FLOOR) ** (m - 1)
        s = np.sqrt(d)
        jac.update(s, c)
        y, info = cg(jac.J, s * (-F), rtol=cfg.linear_tol, atol=0.0,
                     maxiter=10 * len(u) + 100, M=jac.precond,
                     callback=count)
        if info != 0:
            raise SolverError(f"inner CG failed to converge (info={info})")
        delta = y / s
        norm0 = np.linalg.norm(F)
        step = 1.0
        for _ in range(10):
            u_try = u + step * delta
            F_try = residual(u_try)
            if np.linalg.norm(F_try) <= (1 - 1e-4 * step) * norm0:
                break
            step *= 0.5
            backtracks += 1
        else:
            failures += 1
        u, F = u_try, F_try
    if np.max(np.abs(F)) <= target:
        return _NewtonResult(np.maximum(u, 0.0), cfg.newton_max,
                             linear_iters[0], backtracks, failures)
    raise SolverError(
        f"Newton did not converge in {cfg.newton_max} iterations; "
        f"worst step residual {np.max(np.abs(F)) / dt:.3e} "
        f"(target {cfg.newton_tol * res_scale:.3e})")


def solve_union(d: SpaceTimeDomain, data: BoundaryData, cfg: SolverConfig,
                m: float) -> Field:
    """Slab-by-slab Dirichlet solve on a monotone union of cylinders.

    The returned field equals ``data`` on the parabolic-boundary samples,
    satisfies the discrete scheme at every interior (cell, level) and stays
    nonnegative.
    """
    ok, t_bad = _planned(d, check_monotone_sections)
    if not ok:
        raise SolverError(f"time sections are not nondecreasing (violation at t={t_bad})")
    if d.num_steps < 1:
        raise SolverError("domain has no time steps to solve")
    grid = d.grid
    h, dt = grid.h, d.dt
    mu = cfg.diffusion
    L_bound = data.bounds[1]
    res_scale = max(1.0, mu * L_bound ** m / h ** 2)
    if cfg.scheme == "explicit":
        max_dt = cfl_max_dt(L_bound, h, m, grid.n) / mu
        if dt > max_dt * (1 + 1e-12):
            raise SolverError(
                f"explicit step dt={dt} exceeds the CFL bound {max_dt:.6g}")

    centers = grid.centers()
    levels = d.num_levels
    defined, scheme_mask = d.samples
    values = np.full(defined.shape, np.nan)
    lo, hi = map(float, data.bounds)
    observed = [math.inf, -math.inf]
    for k in range(levels):     # parabolic boundary and junction cells
        pinned = defined[k] & ~scheme_mask[k]
        sampled = data.sample(centers[pinned], d.level_time(k))
        s_lo = float(sampled.min(initial=math.inf))
        s_hi = float(sampled.max(initial=-math.inf))
        if s_lo < lo or s_hi > hi:
            raise SolverError(
                f"boundary data at t={d.level_time(k)} span [{s_lo}, {s_hi}], "
                f"outside the declared bounds [{lo}, {hi}]")
        observed = [min(observed[0], s_lo), max(observed[1], s_hi)]
        values[k][pinned] = sampled

    newton_iters: list[int] = []
    linear_iters: list[int] = []
    backtracks = ls_failures = 0
    flat_values = values.reshape(levels, -1)
    deg = 2 * grid.n
    c = mu * dt / h ** 2
    slab, assemblies = None, 0
    for k, level_slab in _planned(d, _slabs):
        new_slab = level_slab is not slab
        if new_slab:
            slab = level_slab
            stencil, A = slab.stencil, slab.stencil.adjacency
            if cfg.scheme == "implicit":
                jac = _SlabJacobian(slab)
            assemblies += 1
        prev_core = flat_values[k - 1, stencil.flat]
        if np.isnan(prev_core).any():
            raise SolverError("missing initial values on a slab core")

        if cfg.scheme == "implicit":
            # A continued slab means step k - 1 solved on this same core,
            # so level k - 2 is defined there: extrapolate linearly.
            start = (prev_core if new_slab
                     else 2 * prev_core - flat_values[k - 2, stencil.flat])
            bdry_w = pinned_sum(stencil, _pow_odd(values[k], m))
            sol = _newton_step(prev_core, start, bdry_w, A, jac, deg, c, m,
                               cfg, res_scale, dt)
            u_new = sol.u
            newton_iters.append(sol.iterations)
            linear_iters.append(sol.linear_iterations)
            backtracks += sol.backtracks
            ls_failures += sol.failures
        else:
            w_prev = _pow_odd(prev_core, m)
            bdry_w = pinned_sum(stencil, _pow_odd(values[k - 1], m))
            u_new = prev_core + c * _lap_h2(A, w_prev, bdry_w, deg)
            u_new = np.maximum(u_new, 0.0)
        flat_values[k, stencil.flat] = u_new

    stats = {
        "newton_iterations": newton_iters,
        "linear_iterations": linear_iters,
        "line_search_backtracks": backtracks,
        "line_search_failures": ls_failures,
        "assemblies": assemblies,
        "residual_scale": res_scale,
        "data_bounds": {"declared": [lo, hi], "observed": observed},
        "dt": dt,
        "h": h,
    }
    return Field(d, values, m, cfg, stats)


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
    flat_out = out.reshape(d.num_levels, -1)
    flat_values = f.values.reshape(d.num_levels, -1)
    for k, slab in _planned(d, _slabs):
        st = slab.stencil
        w = _pow_odd(f.values[k - lag], f.m)
        lap = _lap_h2(st.adjacency, w.ravel()[st.flat], pinned_sum(st, w),
                      2 * d.grid.n) / d.grid.h ** 2
        du = flat_values[k, st.flat] - flat_values[k - 1, st.flat]
        flat_out[k, st.flat] = du / d.dt - f.config.diffusion * lap
    return out


def comparison_check(u: Field, v: Field, tol: float = 1e-10) -> tuple[bool, list]:
    """Check v <= u at all interior samples (discrete comparison principle)."""
    if u.domain is not v.domain and (
            u.domain.num_levels != v.domain.num_levels
            or not u.domain.grid.compatible_with(v.domain.grid)):
        raise SolverError("comparison requires fields on the same domain")
    scale = max(1.0, u.sup(), v.sup())
    sel = u.scheme_mask & v.scheme_mask
    diff = v.values - u.values
    bad = sel & (diff > tol * scale)
    violations = [(tuple(map(int, w[1:])), int(w[0]), float(diff[tuple(w)]))
                  for w in np.argwhere(bad)]
    return len(violations) == 0, violations
