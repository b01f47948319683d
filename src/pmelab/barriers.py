"""Closed-form barrier families for u_t = lap(u^m), m >= 1, with exact residuals.

Six two-parameter families (level c > 0, index j = 1, 2, ...), each anchored
at a boundary point (taken as the space-time origin unless an anchor is
given).  Their residuals r = d/dt w - lap(w^m) are hand-differentiated
closed forms, so sign certification needs no numerical differentiation:

``quadratic_sub``
    (c^m + j|x|^2 + j*b*t^2)^(1/m) with b = m c^(m-1) / diam.
    Subparabolic (r <= 0) wherever t <= n*diam; equals c at the anchor.
``log_super``
    v^(-gamma) with v = c^(-1/gamma) + j^alpha s(t)^2 + j/(d - log|x|),
    d = 2 + log diam, 0 < alpha < gamma < 1/m (x = 0 uses the branch
    without the log term).  s(t) = |t| by default; with ``t_halfwidth`` w
    it is the distance max(|t| - w, 0) to the anchored time interval, which
    only weakens the time term (the sufficient j-condition is unchanged).
    Superparabolic (r >= 0) for j >= min_valid_j; needs n >= 2.  A one-cell
    neighbourhood of x = 0 is excluded from sign sampling (the value there
    is pinned by the x = 0 branch but the pointwise residual is not defined
    across the singular column).  As j grows the member collapses to zero
    off the column while keeping its anchor value c on it, which is what
    lets upper envelopes shed boundary columns of vanishing capacity.
``earliest_super``
    (c^m + j|x|^2 + j^(2m-1) t)^(1/m).  Superparabolic on t >= 0 for
    j >= min_valid_j; no valid j exists when m = 1.
``earliest_sub``
    (c^m - j|x|^2 - j*a*t)_+^(1/m) with a = 2 n m c^(m-1).
    Subparabolic on its support for every j (t >= 0).
``torsion_super``
    (c^m + j*v(x) + a*j*t^2)^(1/m) with a = c^(m-1) m / (2 diam), where v
    solves -lap(v) = 1 with data |x| (a torsion-type profile).  The
    Laplacian term uses the exact identity lap(v) = -1.  Superparabolic
    for |t| <= diam and every j.
``torsion_sub``
    max(c^m - j*v(x) - b*j^(1/m)*t^2, 1/j)^(1/m) with b = m / (2 diam).
    Subparabolic on its positivity region for |t| <= diam and every j;
    constant (exact solution) on the floor set.

Excluded samples (support boundaries, floor interfaces, the log family's
singular column) get residual nan and are counted separately by
``verify_sign``.

The closed forms are array-valued: points ``x`` of shape ``(..., n)``,
times broadcasting to ``x.shape[:-1]``.  ``verify_sign`` checks all its
samples (grid nodes plus jittered points drawn from one seeded Philox
stream) in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import SpaceTimeDomain, SpatialField, per_time

KINDS = ("quadratic_sub", "log_super", "earliest_super", "earliest_sub",
         "torsion_super", "torsion_sub")

# claimed residual sign per kind: -1 means r <= 0 (subparabolic), +1 r >= 0
CLAIMED_SIGN = {
    "quadratic_sub": -1,
    "log_super": +1,
    "earliest_super": +1,
    "earliest_sub": -1,
    "torsion_super": +1,
    "torsion_sub": -1,
}

_BAND_REL = 1e-9          # half-width of the excluded band at clip interfaces
_SIGN_TOL_REL = 1e-10     # certification tolerance relative to local scale


class BarrierError(ValueError):
    """Invalid barrier parameters or evaluation outside the defining region."""


def default_log_exponents(m: float) -> tuple[float, float]:
    """Midpoint choices alpha = 1/(4m), gamma = 1/(2m) in 0 < a < g < 1/m."""
    return 1.0 / (4 * m), 1.0 / (2 * m)


@dataclass(frozen=True)
class BarrierSpec:
    """One member of a barrier family, with derived constants.

    ``anchor`` is the boundary point the family is centred at; evaluation
    shifts coordinates so the formulas above apply verbatim.
    """

    kind: str
    c: float
    j: int
    m: float
    n: int
    diam: float
    alpha: float | None = None
    gamma: float | None = None
    torsion_field: SpatialField | None = None
    anchor: tuple | None = None      # ((x...), t); default origin
    t_halfwidth: float = 0.0         # log family: anchor a time interval

    def __post_init__(self):
        if self.kind not in KINDS:
            raise BarrierError(f"unknown barrier kind {self.kind!r}")
        if self.c <= 0 or self.j < 1 or self.m < 1 or self.diam <= 0:
            raise BarrierError("need c > 0, j >= 1, m >= 1, diam > 0")
        if self.kind == "log_super":
            if self.n < 2:
                raise BarrierError("the log family needs n >= 2")
            a, g = self.alpha, self.gamma
            if a is None or g is None:
                a, g = default_log_exponents(self.m)
                object.__setattr__(self, "alpha", a)
                object.__setattr__(self, "gamma", g)
            if not (0 < self.alpha < self.gamma < 1.0 / self.m):
                raise BarrierError("need 0 < alpha < gamma < 1/m")
        if self.kind.startswith("torsion") and self.torsion_field is None:
            raise BarrierError(f"{self.kind} needs a torsion_field")
        if self.t_halfwidth and self.kind != "log_super":
            raise BarrierError("t_halfwidth is a log-family parameter")
        if self.t_halfwidth < 0:
            raise BarrierError("t_halfwidth must be nonnegative")

    # -- derived constants (pure functions of the fields) ------------------

    @property
    def b_quadratic(self) -> float:
        return self.m * self.c ** (self.m - 1) / self.diam

    @property
    def d_log(self) -> float:
        return 2.0 + math.log(self.diam)

    @property
    def a_earliest(self) -> float:
        return 2 * self.n * self.m * self.c ** (self.m - 1)

    @property
    def a_torsion(self) -> float:
        return self.c ** (self.m - 1) * self.m / (2 * self.diam)

    @property
    def b_torsion(self) -> float:
        return self.m / (2 * self.diam)

    def shifted(self, x, t):
        """Points ``x`` (..., n) and times ``t`` relative to the anchor."""
        if self.anchor is None:
            return x, t
        ax, at = self.anchor
        return x - np.asarray(ax, dtype=float), t - at


def _rows(spec: BarrierSpec, x, t):
    """Rows X (N, n) and T (N,), their anchor-shifted copies, and the
    batch shape.  Flat rows keep one-point and batch calls in the same
    numpy loops, so both give the same bits.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    shape = x.shape[:-1]
    t = np.broadcast_to(np.asarray(t, dtype=float), shape)
    X, T = x.reshape(-1, x.shape[-1]), t.reshape(-1)
    return (X, T, *spec.shifted(X, T), shape)


def _check_region(bad: np.ndarray, X: np.ndarray, T: np.ndarray, what: str):
    if bad.any():
        i = np.flatnonzero(bad)[0]
        raise BarrierError(f"{what} at x={tuple(map(float, X[i]))}, t={T[i]}")


@np.errstate(divide="ignore")           # log(0) on the log family's column
def evaluate(spec: BarrierSpec, x, t):
    """Closed-form value (nonnegative), of shape ``x.shape[:-1]``.

    Raises ``BarrierError`` naming the first point outside the family's region.
    """
    m, c, j = spec.m, spec.c, spec.j
    X, T, xs, ts, shape = _rows(spec, x, t)
    r2 = (xs * xs).sum(-1)
    if spec.kind == "quadratic_sub":
        w = (c ** m + j * r2 + j * spec.b_quadratic * ts * ts) ** (1.0 / m)
    elif spec.kind == "log_super":
        s = np.maximum(np.abs(ts) - spec.t_halfwidth, 0.0)
        v = c ** (-1.0 / spec.gamma) + j ** spec.alpha * s * s
        on_column = r2 == 0.0          # the x = 0 branch has no log term
        D = spec.d_log - 0.5 * np.log(r2)
        _check_region(~on_column & (D <= 0), X, T,
                      "log family evaluated beyond its defining region")
        w = (v + np.where(on_column, 0.0, j / D)) ** (-spec.gamma)
    elif spec.kind == "earliest_super":
        arg = c ** m + j * r2 + j ** (2 * m - 1) * ts
        _check_region(arg < 0, X, T,
                      "earliest_super evaluated below its defining region")
        w = arg ** (1.0 / m)
    elif spec.kind == "earliest_sub":
        arg = c ** m - j * r2 - j * spec.a_earliest * ts
        w = np.maximum(arg, 0.0) ** (1.0 / m)
    else:
        # torsion profiles live in absolute coordinates
        v = spec.torsion_field.value_at(X)
        if spec.kind == "torsion_super":
            w = (c ** m + j * v + spec.a_torsion * j * ts * ts) ** (1.0 / m)
        else:
            arg = c ** m - j * v - spec.b_torsion * j ** (1.0 / m) * ts * ts
            w = np.maximum(arg, 1.0 / j) ** (1.0 / m)
    return w.reshape(shape)[()]


@np.errstate(divide="ignore", invalid="ignore")   # log(0), 0/0 if excluded
def _residual_terms(spec: BarrierSpec, x, t):
    """(residual, local scale), of shape ``x.shape[:-1]``.

    The residual is nan at excluded samples and 0 where the member solves
    the equation exactly (``zero``); the scale is 1 at both.
    """
    m, c, j, n = spec.m, spec.c, spec.j, spec.n
    X, T, xs, ts, shape = _rows(spec, x, t)
    r2 = (xs * xs).sum(-1)
    excluded = zero = False
    if spec.kind == "quadratic_sub":
        b = spec.b_quadratic
        A = c ** m + j * r2 + j * b * ts * ts
        time_term = (2 * j * b * ts / m) * A ** ((1.0 - m) / m)
        lap_term = 2.0 * j * n
        r, scale = time_term - lap_term, 1.0 + np.abs(time_term) + lap_term
    elif spec.kind == "log_super":
        g, a = spec.gamma, spec.alpha
        D = spec.d_log - 0.5 * np.log(r2)
        excluded = (r2 == 0.0) | (D <= 0)      # the column; beyond D = 0
        s = np.maximum(np.abs(ts) - spec.t_halfwidth, 0.0)
        v = c ** (-1.0 / g) + j ** a * s * s + j / D
        dv_dt = 2 * j ** a * s * np.copysign(1.0, ts)
        grad2 = j * j / (r2 * D ** 4)
        lap_v = j * ((n - 2) * D + 2.0) / (r2 * D ** 3)
        bracket = v * lap_v - (g * m + 1) * grad2 \
            - (1.0 / m) * v ** (1.0 + g * (m - 1)) * dv_dt
        pref = g * m * v ** (-g * m - 2.0)
        r = pref * bracket
        scale = 1.0 + pref * (np.abs(v * lap_v) + (g * m + 1) * grad2
                              + np.abs(v ** (1.0 + g * (m - 1)) * dv_dt) / m)
    elif spec.kind == "earliest_super":
        A = c ** m + j * r2 + j ** (2 * m - 1) * ts
        excluded = A <= 0
        time_term = (j ** (2 * m - 1) / m) * A ** ((1.0 - m) / m)
        lap_term = 2.0 * j * n
        r, scale = time_term - lap_term, 1.0 + time_term + lap_term
    elif spec.kind == "earliest_sub":
        a = spec.a_earliest
        A = c ** m - j * r2 - j * a * ts
        excluded = np.abs(A) <= _BAND_REL * c ** m     # the support edge
        zero = A < 0                # identically zero outside the support
        time_term = -(j * a / m) * A ** ((1.0 - m) / m)
        lap_term = -2.0 * j * n
        r = time_term - lap_term
        scale = 1.0 + np.abs(time_term) + abs(lap_term)
    elif spec.kind == "torsion_super":
        a = spec.a_torsion
        A = c ** m + j * spec.torsion_field.value_at(X) + a * j * ts * ts
        time_term = (2 * a * j * ts / m) * A ** ((1.0 - m) / m)
        # lap(w^m) = -j exactly
        r, scale = time_term + j, 1.0 + np.abs(time_term) + j
    else:
        b = spec.b_torsion
        A = c ** m - j * spec.torsion_field.value_at(X) \
            - b * j ** (1.0 / m) * ts * ts
        floor = 1.0 / j
        excluded = np.abs(A - floor) <= _BAND_REL * max(c ** m, floor)
        zero = A < floor            # the constant floor solves the equation
        time_term = -(2 * b * j ** (1.0 / m) * ts / m) * A ** ((1.0 - m) / m)
        # lap(w^m) = +j exactly
        r, scale = time_term - j, 1.0 + np.abs(time_term) + j
    r = np.where(excluded, np.nan, np.where(zero, 0.0, r))
    scale = np.where(excluded | zero, 1.0, scale)
    return r.reshape(shape)[()], scale.reshape(shape)[()]


def residual(spec: BarrierSpec, x, t):
    """d/dt w - lap(w^m) at points (..., n); nan marks an excluded sample."""
    return _residual_terms(spec, x, t)[0]


@dataclass(frozen=True)
class SamplingPolicy:
    """Where verify_sign samples: grid nodes plus jittered interior points."""

    jitter_factor: int = 10
    max_samples: int | None = None
    seed: int = 0


@dataclass(frozen=True, eq=False)
class SignReport:
    """A sign certificate's verdict.  The samples on the wrong side of the
    claimed sign are kept as read-only arrays ``x`` (k, n), ``t`` (k,) and
    ``residual`` (k,); ``violations`` is k."""

    kind: str
    claimed_sign: int
    min_residual: float
    max_residual: float
    x: np.ndarray
    t: np.ndarray
    residual: np.ndarray
    samples_checked: int
    samples_excluded: int

    @property
    def violations(self) -> int:
        return len(self.t)

    @property
    def certified(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        """A fixed-size summary: the scalars, the violation count and the
        sample furthest on the wrong side (``None`` when certified)."""
        worst = None
        if self.violations:
            i = int(np.argmin(self.claimed_sign * self.residual))
            worst = {"x": self.x[i].tolist(), "t": float(self.t[i]),
                     "residual": float(self.residual[i])}
        return {
            "kind": self.kind,
            "claimed_sign": self.claimed_sign,
            "min_residual": self.min_residual,
            "max_residual": self.max_residual,
            "violations": self.violations,
            "worst_violation": worst,
            "samples_checked": self.samples_checked,
            "samples_excluded": self.samples_excluded,
            "certified": self.certified,
        }


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _region_samples(region: SpaceTimeDomain, policy: SamplingPolicy):
    """Sample points X (N, n) and times T (N,) over the region, read-only
    and drawn once per region object and policy (``region.memo``).

    Nodes, level-major: the cell centers of the region's defined samples
    (at level L the bases of steps L - 1 and L).  Then per node
    ``jitter_factor`` Philox draws of a step k, a cell of its base (dropped
    if empty), a uniform point of that cell and a time in [t_k, t_k + dt).
    """
    return region.memo(("samples", policy), lambda r: _read_only(
        *_draw_samples(r, policy)))


def _draw_samples(region: SpaceTimeDomain, policy: SamplingPolicy):
    if region.num_steps == 0:
        raise BarrierError("empty sample set")
    rng = np.random.Generator(np.random.Philox(policy.seed))
    grid, times = region.grid, region.level_times()
    centers = grid.centers().reshape(-1, grid.n)
    level, cell = np.nonzero(region.samples[0].reshape(region.num_levels, -1))
    bases = region.step_masks().reshape(region.num_steps, -1)
    X, T = [centers[cell]], [times[level]]
    n_jit = policy.jitter_factor * len(level)
    counts = bases.sum(axis=1)
    first = np.cumsum(counts) - counts          # step k's cells in step_cells
    step_cells = np.nonzero(bases)[1]
    k = rng.integers(region.num_steps, size=n_jit)
    k = k[counts[k] > 0]
    cell = step_cells[first[k] + rng.integers(0, counts[k])]
    X.append(centers[cell] + (rng.random((len(k), grid.n)) - 0.5) * grid.h)
    T.append(times[k] + rng.random(len(k)) * region.dt)
    X, T = np.concatenate(X), np.concatenate(T)
    if policy.max_samples is not None and len(T) > policy.max_samples:
        keep = np.sort(rng.choice(len(T), policy.max_samples, replace=False))
        X, T = X[keep], T[keep]
    return X, T


def verify_sign(spec: BarrierSpec, region: SpaceTimeDomain,
                policy: SamplingPolicy | None = None) -> SignReport:
    """Certify the family member's residual sign over a sampled region.

    Violations are residuals beyond 1e-10 x local scale on the wrong side
    of the claimed sign.  Samples where the closed form is not
    differentiable, or (log family) within one cell of the singular column,
    are excluded and counted.
    """
    policy = policy or SamplingPolicy()
    sign = CLAIMED_SIGN[spec.kind]
    X, T = _region_samples(region, policy)
    total = len(T)
    if not total:
        raise BarrierError("empty sample set")
    if spec.kind == "log_super":
        xs, _ = spec.shifted(X, T)
        far = (xs * xs).sum(-1) >= region.grid.h * region.grid.h
        X, T = X[far], T[far]
    r, scale = _residual_terms(spec, X, T)
    ok = ~np.isnan(r)
    X, T, r, scale = X[ok], T[ok], r[ok], scale[ok]
    if not len(r):
        raise BarrierError("all samples were excluded")
    tol = _SIGN_TOL_REL * scale
    bad = r > tol if sign < 0 else r < -tol
    return SignReport(spec.kind, sign, float(r.min()), float(r.max()),
                      *_read_only(X[bad], T[bad], r[bad]), len(r),
                      total - len(r))


def min_valid_j(kind: str, c: float, m: float, n: int, diam: float,
                alpha: float | None = None, gamma: float | None = None,
                j_cap: int = 10 ** 7) -> int:
    """Smallest j for which the family's sufficient sign condition holds.

    Only the two kinds with a j-threshold are admitted.  The condition is
    evaluated on ascending blocks of 4096 indices from j = 1 and the first
    hit returned; if no j <= j_cap works, an error reports the cap.
    """
    if kind == "earliest_super":
        if m <= 1:
            raise BarrierError("earliest_super has no valid j for m = 1")
        delta = max(diam, 1.0)
        rhs_den = (2 * n * m) ** (m / (m - 1))

        def ok(j: np.ndarray) -> np.ndarray:
            return c ** m + 2 * j ** (2 * m - 1) * delta ** 2 <= j ** (2 * m) / rhs_den

    elif kind == "log_super":
        if n < 2:
            raise BarrierError("the log family needs n >= 2")
        if alpha is None or gamma is None:
            alpha, gamma = default_log_exponents(m)
        if not (0 < alpha < gamma < 1.0 / m):
            raise BarrierError("need 0 < alpha < gamma < 1/m")
        coef = 2 * (c ** (-1.0 / gamma) + diam ** 2 + 1) ** (gamma * (m - 1)) * diam

        def ok(j: np.ndarray) -> np.ndarray:
            return (1 - gamma * m) * j / (8 * diam ** 2) \
                >= coef * j ** (alpha + gamma * (m - 1))

    else:
        raise BarrierError(f"{kind!r} has no j-threshold (valid for every j)")

    j = 1
    while j <= j_cap:
        block = np.arange(j, min(j + 4096, j_cap + 1), dtype=float)
        hits = np.flatnonzero(ok(block))
        if hits.size:
            return int(block[hits[0]])
        j += len(block)
    raise BarrierError(f"no j <= {j_cap} satisfies the {kind} condition")


def barenblatt(x, t, m: float, n: int, C: float) -> np.ndarray:
    """Self-similar source solution; the solver's exact oracle for m > 1.

    value = t^(-n*beta) * (C - (beta*(m-1)/(2m)) |x|^2 / t^(2*beta))_+^(1/(m-1))
    with beta = 1/(n*(m-1)+2), at points ``x`` of shape ``(..., n)`` and
    times ``t``, a float or one per point (broadcasting against
    ``x.shape[:-1]``); the result has shape ``x.shape[:-1]``.  The powers
    of t are Python's, once per distinct time, so an array of times gives
    the bits of the per-time calls.
    """
    if m == 1:
        raise BarrierError("the source-solution oracle needs m > 1")
    if (np.asarray(t) <= 0).any():
        raise BarrierError("the source solution is defined for t > 0")
    if C <= 0:
        raise BarrierError("the mass constant must be positive")
    x = np.asarray(x, dtype=float)
    beta = 1.0 / (n * (m - 1) + 2)
    kappa = beta * (m - 1) / (2 * m)
    arg = C - kappa * (x * x).sum(-1) / per_time(lambda s: s ** (2 * beta), t)
    # the power of an array, on one point too: numpy's power of a scalar
    # differs from its array power in the last bit on some inputs
    pos = np.maximum(arg, 0.0)
    return (per_time(lambda s: s ** (-n * beta), t)
            * (pos.reshape(-1) ** (1.0 / (m - 1))).reshape(pos.shape))


def barenblatt_support_radius(t: float, m: float, n: int, C: float) -> float:
    beta = 1.0 / (n * (m - 1) + 2)
    kappa = beta * (m - 1) / (2 * m)
    return math.sqrt(C / kappa) * t ** beta

