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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import SpaceTimeDomain, SpatialField

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

    def shifted(self, x, t: float) -> tuple[np.ndarray, float]:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self.anchor is None:
            return x, t
        ax, at = self.anchor
        return x - np.asarray(ax, dtype=float), t - at

    def _torsion_value(self, x_abs) -> float:
        # torsion profiles live in absolute coordinates
        return self.torsion_field.value_at(x_abs)


def evaluate(spec: BarrierSpec, x, t: float) -> float:
    """Closed-form value of the family member at (x, t); nonnegative."""
    m, c, j = spec.m, spec.c, spec.j
    xs, ts = spec.shifted(x, t)
    r2 = float(xs @ xs)
    if spec.kind == "quadratic_sub":
        return (c ** m + j * r2 + j * spec.b_quadratic * ts * ts) ** (1.0 / m)
    if spec.kind == "log_super":
        s = max(abs(ts) - spec.t_halfwidth, 0.0)
        v = c ** (-1.0 / spec.gamma) + j ** spec.alpha * s * s
        if r2 > 0:
            D = spec.d_log - 0.5 * math.log(r2)
            if D <= 0:
                raise BarrierError("log family evaluated beyond its defining region")
            v += j / D
        return v ** (-spec.gamma)
    if spec.kind == "earliest_super":
        arg = c ** m + j * r2 + j ** (2 * m - 1) * ts
        if arg < 0:
            raise BarrierError("earliest_super evaluated below its defining region")
        return arg ** (1.0 / m)
    if spec.kind == "earliest_sub":
        arg = c ** m - j * r2 - j * spec.a_earliest * ts
        return max(arg, 0.0) ** (1.0 / m)
    v = spec._torsion_value(np.atleast_1d(np.asarray(x, dtype=float)))
    if spec.kind == "torsion_super":
        return (c ** m + j * v + spec.a_torsion * j * ts * ts) ** (1.0 / m)
    arg = c ** m - j * v - spec.b_torsion * j ** (1.0 / m) * ts * ts
    return max(arg, 1.0 / j) ** (1.0 / m)


def _residual_terms(spec: BarrierSpec, x, t: float) -> tuple[float, float]:
    """(residual, local scale); residual is nan for excluded samples."""
    m, c, j, n = spec.m, spec.c, spec.j, spec.n
    xs, ts = spec.shifted(x, t)
    r2 = float(xs @ xs)

    if spec.kind == "quadratic_sub":
        b = spec.b_quadratic
        A = c ** m + j * r2 + j * b * ts * ts
        time_term = (2 * j * b * ts / m) * A ** ((1.0 - m) / m)
        lap_term = 2.0 * j * n
        return time_term - lap_term, 1.0 + abs(time_term) + lap_term

    if spec.kind == "log_super":
        if r2 == 0.0:
            return math.nan, 1.0
        g, a = spec.gamma, spec.alpha
        D = spec.d_log - 0.5 * math.log(r2)
        if D <= 0:
            return math.nan, 1.0
        s = max(abs(ts) - spec.t_halfwidth, 0.0)
        v = c ** (-1.0 / g) + j ** a * s * s + j / D
        dv_dt = 2 * j ** a * s * math.copysign(1.0, ts)
        grad2 = j * j / (r2 * D ** 4)
        lap_v = j * ((n - 2) * D + 2.0) / (r2 * D ** 3)
        bracket = v * lap_v - (g * m + 1) * grad2 \
            - (1.0 / m) * v ** (1.0 + g * (m - 1)) * dv_dt
        pref = g * m * v ** (-g * m - 2.0)
        scale = 1.0 + pref * (abs(v * lap_v) + (g * m + 1) * grad2
                              + abs(v ** (1.0 + g * (m - 1)) * dv_dt) / m)
        return pref * bracket, scale

    if spec.kind == "earliest_super":
        A = c ** m + j * r2 + j ** (2 * m - 1) * ts
        if A <= 0:
            return math.nan, 1.0
        time_term = (j ** (2 * m - 1) / m) * A ** ((1.0 - m) / m)
        lap_term = 2.0 * j * n
        return time_term - lap_term, 1.0 + time_term + lap_term

    if spec.kind == "earliest_sub":
        a = spec.a_earliest
        A = c ** m - j * r2 - j * a * ts
        if abs(A) <= _BAND_REL * c ** m:
            return math.nan, 1.0
        if A < 0:
            return 0.0, 1.0         # identically zero outside the support
        time_term = -(j * a / m) * A ** ((1.0 - m) / m)
        lap_term = -2.0 * j * n
        return time_term - lap_term, 1.0 + abs(time_term) + abs(lap_term)

    v = spec._torsion_value(np.atleast_1d(np.asarray(x, dtype=float)))
    if spec.kind == "torsion_super":
        a = spec.a_torsion
        A = c ** m + j * v + a * j * ts * ts
        time_term = (2 * a * j * ts / m) * A ** ((1.0 - m) / m)
        return time_term + j, 1.0 + abs(time_term) + j    # lap(w^m) = -j exactly

    b = spec.b_torsion
    A = c ** m - j * v - b * j ** (1.0 / m) * ts * ts
    floor = 1.0 / j
    if abs(A - floor) <= _BAND_REL * max(c ** m, floor):
        return math.nan, 1.0
    if A < floor:
        return 0.0, 1.0             # constant floor solves the equation
    time_term = -(2 * b * j ** (1.0 / m) * ts / m) * A ** ((1.0 - m) / m)
    return time_term - j, 1.0 + abs(time_term) + j        # lap(w^m) = +j exactly


def residual(spec: BarrierSpec, x, t: float) -> float:
    """d/dt w - lap(w^m) at (x, t); nan marks an excluded sample."""
    return _residual_terms(spec, x, t)[0]


@dataclass(frozen=True)
class SamplingPolicy:
    """Where verify_sign samples: grid nodes plus jittered interior points."""

    include_nodes: bool = True
    jitter_factor: int = 10
    max_samples: int | None = None
    seed: int = 0
    exclusion_radius: float | None = None   # spatial radius around the anchor


@dataclass(frozen=True)
class SignReport:
    kind: str
    claimed_sign: int
    min_residual: float
    max_residual: float
    violating_samples: list
    samples_checked: int
    samples_excluded: int

    @property
    def certified(self) -> bool:
        return not self.violating_samples

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "claimed_sign": self.claimed_sign,
            "min_residual": self.min_residual,
            "max_residual": self.max_residual,
            "violations": [
                {"x": list(map(float, x)), "t": t, "residual": r}
                for x, t, r in self.violating_samples],
            "samples_checked": self.samples_checked,
            "samples_excluded": self.samples_excluded,
            "certified": self.certified,
        }


def _region_samples(region: SpaceTimeDomain, policy: SamplingPolicy):
    rng = np.random.Generator(np.random.Philox(policy.seed))
    centers = region.grid.centers()
    nodes = []
    if policy.include_nodes:
        seen = set()
        for k in range(region.num_steps):
            mask = region.step_base_mask(k)
            for level in (k, k + 1):
                t = region.level_time(level)
                for idx in np.argwhere(mask):
                    key = (level, *map(int, idx))
                    if key not in seen:
                        seen.add(key)
                        nodes.append((centers[tuple(idx)], t))
    jitter = []
    n_jit = policy.jitter_factor * max(len(nodes), 1)
    h = region.grid.h
    step_masks = [np.argwhere(region.step_base_mask(k))
                  for k in range(region.num_steps)]
    for _ in range(n_jit):
        k = int(rng.integers(region.num_steps))
        cells = step_masks[k]
        if len(cells) == 0:
            continue
        idx = tuple(cells[int(rng.integers(len(cells)))])
        x = centers[idx] + (rng.random(region.grid.n) - 0.5) * h
        t = region.level_time(k) + rng.random() * region.dt
        jitter.append((x, t))
    samples = nodes + jitter
    if policy.max_samples is not None and len(samples) > policy.max_samples:
        keep = rng.choice(len(samples), size=policy.max_samples, replace=False)
        samples = [samples[i] for i in sorted(keep)]
    return samples


def verify_sign(spec: BarrierSpec, region: SpaceTimeDomain,
                policy: SamplingPolicy | None = None) -> SignReport:
    """Certify the family member's residual sign over a sampled region.

    Violations are residuals beyond 1e-10 x local scale on the wrong side
    of the claimed sign.  Samples where the closed form is not
    differentiable are excluded and counted.
    """
    policy = policy or SamplingPolicy()
    sign = CLAIMED_SIGN[spec.kind]
    samples = _region_samples(region, policy)
    if not samples:
        raise BarrierError("empty sample set")
    excl_r = policy.exclusion_radius
    if excl_r is None and spec.kind == "log_super":
        excl_r = region.grid.h
    lo, hi = math.inf, -math.inf
    excluded = 0
    checked = 0
    violations = []
    for x, t in samples:
        if excl_r is not None:
            xs, _ = spec.shifted(x, t)
            if float(xs @ xs) < excl_r * excl_r:
                excluded += 1
                continue
        r, scale = _residual_terms(spec, x, t)
        if math.isnan(r):
            excluded += 1
            continue
        checked += 1
        lo, hi = min(lo, r), max(hi, r)
        tol = _SIGN_TOL_REL * scale
        if (sign < 0 and r > tol) or (sign > 0 and r < -tol):
            violations.append((tuple(map(float, np.atleast_1d(x))), float(t), float(r)))
    if checked == 0:
        raise BarrierError("all samples were excluded")
    return SignReport(spec.kind, sign, lo, hi, violations, checked, excluded)


def min_valid_j(kind: str, c: float, m: float, n: int, diam: float,
                alpha: float | None = None, gamma: float | None = None,
                j_cap: int = 10 ** 7) -> int:
    """Smallest j for which the family's sufficient sign condition holds.

    Only the two kinds with a j-threshold are admitted.  The condition is
    scanned ascending from j = 1 and the first hit returned; if no
    j <= j_cap works, an error reports the cap.
    """
    if kind == "earliest_super":
        if m <= 1:
            raise BarrierError("earliest_super has no valid j for m = 1")
        delta = max(diam, 1.0)
        rhs_den = (2 * n * m) ** (m / (m - 1))

        def ok(j: float) -> bool:
            return c ** m + 2 * j ** (2 * m - 1) * delta ** 2 <= j ** (2 * m) / rhs_den

    elif kind == "log_super":
        if n < 2:
            raise BarrierError("the log family needs n >= 2")
        if alpha is None or gamma is None:
            alpha, gamma = default_log_exponents(m)
        if not (0 < alpha < gamma < 1.0 / m):
            raise BarrierError("need 0 < alpha < gamma < 1/m")
        coef = 2 * (c ** (-1.0 / gamma) + diam ** 2 + 1) ** (gamma * (m - 1)) * diam

        def ok(j: float) -> bool:
            return (1 - gamma * m) * j / (8 * diam ** 2) \
                >= coef * j ** (alpha + gamma * (m - 1))

    else:
        raise BarrierError(f"{kind!r} has no j-threshold (valid for every j)")

    j = 1
    while j <= j_cap:
        block = np.arange(j, min(j + 4096, j_cap + 1), dtype=float)
        hits = [int(b) for b in block if ok(b)]
        if hits:
            return hits[0]
        j += len(block)
    raise BarrierError(f"no j <= {j_cap} satisfies the {kind} condition")


def barenblatt(x, t: float, m: float, n: int, C: float) -> np.ndarray:
    """Self-similar source solution; the solver's exact oracle for m > 1.

    value = t^(-n*beta) * (C - (beta*(m-1)/(2m)) |x|^2 / t^(2*beta))_+^(1/(m-1))
    with beta = 1/(n*(m-1)+2), at points ``x`` of shape ``(..., n)``; the
    result has shape ``x.shape[:-1]``.
    """
    if m == 1:
        raise BarrierError("the source-solution oracle needs m > 1")
    if t <= 0:
        raise BarrierError("the source solution is defined for t > 0")
    if C <= 0:
        raise BarrierError("the mass constant must be positive")
    x = np.asarray(x, dtype=float)
    beta = 1.0 / (n * (m - 1) + 2)
    kappa = beta * (m - 1) / (2 * m)
    arg = C - kappa * (x * x).sum(-1) / t ** (2 * beta)
    return t ** (-n * beta) * np.maximum(arg, 0.0) ** (1.0 / (m - 1))


def barenblatt_support_radius(t: float, m: float, n: int, C: float) -> float:
    beta = 1.0 / (n * (m - 1) + 2)
    kappa = beta * (m - 1) / (2 * m)
    return math.sqrt(C / kappa) * t ** beta

