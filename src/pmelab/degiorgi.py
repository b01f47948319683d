"""Executable trace of the geometric level-set iteration behind the
supremum estimate for subsolutions of u_t = lap(u^m).

On a space-time box Q(x0, t0, rho) = B(x0, rho) x (t0 - rho^2, t0 + rho^2)
the iteration shrinks boxes

    t_j(+/-) = +/- (sigma^2 rho^2 + (1 - sigma^2) rho^2 / 2^j),
    rho_j    = sigma rho + (1 - sigma) rho / 2^j,
    Q_j      = B(x0, rho_j) x (t0 + t_j(-), t0 + t_j(+)),

raises truncation levels k_j = k - k/2^(j+1) towards k, and tracks the
truncated energies

    Y_j   = sum over bricks fully inside Q_j of (u - M - k_j)_+^2 * vol,
    |A_j| = measure of {u > M + k_(j+1)} over the same bricks.

Midpoint quadrature over whole bricks (cell x time step) keeps the level
inequality Y_j >= 4^-(j+2) k^2 |A_j| an exact finite-sum statement.  The
recursion constant A is fitted as max_j Y_(j+1) / (b^j Y_j^(1+alpha)) with
alpha = 2/(n+2) and b = 4^(1+alpha); once Y_0 <= A^(-1/alpha) b^(-1/alpha^2)
the closed-loop decay Y_j <= A^(-1/alpha) b^(-1/alpha^2) b^(-j/alpha) is
verified on the tail.

The companion supremum estimate reads

    max over Q(x0, t0, sigma rho) of (u - M)
        <= C * (mean over Q(rho) of (u - M)_+^2)^(1/lambda),

with lambda = 2 + (m-1) n / 2; the artifact reports the smallest C making
it hold (never a ground-truth constant).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .solver import Field


# the iteration stops once Y_j falls below this fraction of
# max(k^2, 1) times the volume of the box around Q(rho): the quadrature floor
ENERGY_FLOOR = 1e-14


class IterationError(RuntimeError):
    """Degenerate iteration geometry or invalid parameters."""


def constants(m: float, n: int) -> tuple[float, float, float]:
    """(alpha, b, lambda) = (2/(n+2), 4^(1+alpha), 2 + (m-1)n/2)."""
    if m < 1 or n < 1:
        raise IterationError("need m >= 1 and n >= 1")
    alpha = 2.0 / (n + 2)
    b = 4.0 ** (1 + alpha)
    lam = 2.0 + (m - 1) * n / 2.0
    return alpha, b, lam


@dataclass(frozen=True)
class IterationReport:
    params: dict
    levels: list[float]              # k_j
    energies: list[float]            # Y_j
    measures: list[float]            # |A_j|
    brick_counts: list[int]
    alpha: float
    b: float
    lam: float
    fitted_A: float | None
    level_check: list[bool]          # Y_j >= 4^-(j+2) k^2 |A_j|, exact
    level_bounds: list[float]
    decay_verified: bool | None      # closed-loop tail decay, if applicable
    truncated: bool

    @property
    def all_level_checks_pass(self) -> bool:
        return all(self.level_check)

    def to_rows(self):
        for j in range(len(self.energies)):
            ratio = (self.energies[j] / self.level_bounds[j]
                     if self.level_bounds[j] > 0 else math.inf)
            yield {"j": j, "k_j": self.levels[j], "Y_j": self.energies[j],
                   "A_j_measure": self.measures[j], "ratio": ratio,
                   "bound": self.level_bounds[j],
                   "bricks": self.brick_counts[j]}

    def to_dict(self) -> dict:
        return {
            "params": self.params,
            "alpha": self.alpha, "b": self.b, "lambda": self.lam,
            "fitted_A": self.fitted_A,
            "levels": self.levels, "energies": self.energies,
            "measures": self.measures,
            "level_checks_pass": self.all_level_checks_pass,
            "decay_verified": self.decay_verified,
            "truncated": self.truncated,
        }


def _brick_samples(u: Field, x0: np.ndarray, t0: float):
    """Defined samples as (value, center distance to x0, level time)."""
    d = u.domain
    centers = d.grid.centers()
    dist = np.linalg.norm(centers - x0, axis=-1)
    out = []
    for lev in range(d.num_levels):
        sel = u.defined[lev]
        if not sel.any():
            continue
        t = d.level_time(lev)
        vals = u.values[lev][sel]
        dd = dist[sel]
        out.append((vals, dd, t))
    return out


def iterate(u: Field, x0, t0: float, rho: float, sigma: float,
            M: float, k: float, j_max: int = 20) -> IterationReport:
    """Run the shrinking-box iteration on a discrete field.

    Requires 0 < sigma < 1, M >= 0, k > 0 and Q(x0, t0, rho) inside the
    field's domain.  Stops at j_max, at the quadrature floor, or (with a
    truncation flag) when no brick fits inside Q_j.
    """
    if not 0 < sigma < 1:
        raise IterationError(f"need 0 < sigma < 1, got {sigma}")
    if M < 0 or k <= 0 or rho <= 0:
        raise IterationError("need M >= 0, k > 0, rho > 0")
    x0 = np.asarray(x0, dtype=float)
    d = u.domain
    n = d.grid.n
    h, dt = d.grid.h, d.dt
    if (t0 - rho * rho < d.t_min - 1e-9) or (t0 + rho * rho > d.t_max + 1e-9):
        raise IterationError("Q(x0, t0, rho) sticks out of the field's time range")
    vol = h ** n * dt
    half_diag = 0.5 * h * math.sqrt(n)
    samples = _brick_samples(u, x0, t0)

    alpha, b, lam = constants(u.m, n)
    levels, energies, measures, counts = [], [], [], []
    checks, bounds = [], []
    truncated = False
    floor_scale = ENERGY_FLOOR * max(k * k, 1.0) * (2 * rho ** 2) * (2 * rho) ** n

    for j in range(j_max + 1):
        rho_j = sigma * rho + (1 - sigma) * rho / 2 ** j
        tj = sigma ** 2 * rho ** 2 + (1 - sigma ** 2) * rho ** 2 / 2 ** j
        k_j = k - k / 2 ** (j + 1)
        k_j1 = k - k / 2 ** (j + 2)
        Y = 0.0
        A_meas = 0.0
        cnt = 0
        for vals, dd, t in samples:
            if t - 0.5 * dt < t0 - tj or t + 0.5 * dt > t0 + tj:
                continue
            inside = dd + half_diag <= rho_j
            if not inside.any():
                continue
            v = vals[inside]
            cnt += int(inside.sum())
            pos = np.maximum(v - M - k_j, 0.0)
            Y += float((pos * pos).sum()) * vol
            A_meas += float((v > M + k_j1).sum()) * vol
        if cnt == 0:
            truncated = True
            break
        bound = 4.0 ** (-(j + 2)) * k * k * A_meas
        levels.append(k_j)
        energies.append(Y)
        measures.append(A_meas)
        counts.append(cnt)
        bounds.append(bound)
        checks.append(Y >= bound)
        if Y < floor_scale:
            break

    fitted_A = None
    ratios = []
    for j in range(len(energies) - 1):
        if energies[j] > 0:
            ratios.append(energies[j + 1] / (b ** j * energies[j] ** (1 + alpha)))
    if ratios:
        fitted_A = max(ratios)

    decay_verified = None
    if fitted_A is not None and fitted_A > 0 and energies:
        cap = fitted_A ** (-1 / alpha) * b ** (-1 / alpha ** 2)
        if energies[0] <= cap:
            decay_verified = all(
                energies[j] <= cap * b ** (-j / alpha) * (1 + 1e-9)
                for j in range(len(energies)))

    params = {"x0": tuple(map(float, x0)), "t0": t0, "rho": rho,
              "sigma": sigma, "M": M, "k": k, "m": u.m, "n": n,
              "h": h, "dt": dt}
    return IterationReport(params, levels, energies, measures, counts,
                           alpha, b, lam, fitted_A, checks, bounds,
                           decay_verified, truncated)


@dataclass(frozen=True)
class SupEstimateResult:
    lhs: float                       # max of (u - M) over Q(sigma rho)
    rhs_mean: float                  # quadrature mean of (u - M)_+^2 over Q(rho)
    lam: float
    fitted_C: float | None           # smallest C; None when flagged
    flag: str | None                 # "zero-rhs" when lhs > 0 but rhs = 0

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def sup_estimate_check(u: Field, x0, t0: float, rho: float, sigma: float,
                       M: float) -> SupEstimateResult:
    """Fit the smallest C in the supremum estimate on the given box pair.

    Both sides use the same sample set conventions: the sup is the max over
    defined samples with centers in Q(sigma rho); the mean uses bricks fully
    inside Q(rho), normalized by their own quadrature volume (so constant
    fields yield closed-form C exactly).
    """
    if not 0 < sigma < 1:
        raise IterationError(f"need 0 < sigma < 1, got {sigma}")
    x0 = np.asarray(x0, dtype=float)
    d = u.domain
    n = d.grid.n
    h, dt = d.grid.h, d.dt
    vol = h ** n * dt
    half_diag = 0.5 * h * math.sqrt(n)
    _, _, lam = constants(u.m, n)

    lhs = -math.inf
    num = 0.0
    den = 0.0
    for vals, dd, t in _brick_samples(u, x0, t0):
        sr = sigma * rho
        in_sup = (dd <= sr) & np.full(dd.shape, abs(t - t0) <= sr * sr)
        if in_sup.any():
            lhs = max(lhs, float(vals[in_sup].max()) - M)
        ok_t = (t - 0.5 * dt >= t0 - rho * rho) and (t + 0.5 * dt <= t0 + rho * rho)
        if ok_t:
            inside = dd + half_diag <= rho
            if inside.any():
                pos = np.maximum(vals[inside] - M, 0.0)
                num += float((pos * pos).sum()) * vol
                den += float(inside.sum()) * vol
    if lhs == -math.inf:
        raise IterationError("no samples inside Q(sigma rho)")
    if den == 0:
        raise IterationError("no bricks inside Q(rho)")
    mean = num / den
    if lhs <= 0:
        return SupEstimateResult(lhs, mean, lam, 0.0, None)
    if mean == 0:
        return SupEstimateResult(lhs, mean, lam, None, "zero-rhs")
    return SupEstimateResult(lhs, mean, lam, lhs / mean ** (1.0 / lam), None)
