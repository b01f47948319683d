"""Approximate Perron envelopes and boundary-regularity probes.

On monotone unions of cylinders with positive continuous data the upper and
lower Perron envelopes collapse onto the unique continuous solution, so the
envelopes are approximated by Dirichlet solves with data f + eps (upper) and
max(f - eps, 0) (lower).  General envelopes over superparabolic classes have
no finite algorithmic description and are out of numerical scope.

Probes turn the asymptotic boundary-regularity definitions into desk-scale
decisions: gaps between the bracket fields and the boundary value are
measured over shrinking space-time balls, extrapolated linearly over the
three smallest radii, and compared against a discretization error estimate
obtained from a coarse companion solve.  A probe solves its whole family
in one pass per domain, estimates every member in one coarse pass and
selects its balls once per domain.  All decision thresholds are explicit
fields of the returned report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .capacity import CapacityProfile, ThicknessVerdict
from .geometry import (
    Cylinder,
    Grid,
    SpaceTimeDomain,
    SpatialDomain,
    parabolic_boundary,
    per_time,
)
from .solver import (
    BoundaryData,
    Field,
    SolverConfig,
    solve_union,
    solve_union_many,
)


class PerronError(RuntimeError):
    """Invalid probe input (point off the boundary, empty truncation, ...)."""


DEFAULT_EPS_LADDER = (0.1, 0.05, 0.025)     # fractions of sup f


@dataclass(frozen=True)
class PerronBracket:
    epsilons: list[float]
    lowers: list[Field]
    uppers: list[Field]
    gaps: list[float]                # sup of (upper - lower) per epsilon
    field: Field                     # the solve with data f itself

    def to_dict(self) -> dict:
        return {"epsilons": self.epsilons, "gaps": self.gaps}


def perron_bracket(d: SpaceTimeDomain, f: BoundaryData,
                   eps_ladder, cfg: SolverConfig, m: float) -> PerronBracket:
    """Bracket the Perron solution by solves with data f + eps and (f - eps)_+.

    The bracket ordering lower <= upper holds pointwise for each eps (checked);
    on resolutive instances the gap shrinks along the eps ladder.  The solve
    with data f itself and every solve of the ladder run in one
    ``solve_union_many`` pass.
    """
    epsilons = list(eps_ladder)
    if any(eps <= 0 for eps in epsilons):
        raise PerronError("epsilon ladder entries must be positive")
    field, *fields = solve_union_many(
        d, [f] + [g for eps in epsilons
                  for g in (f.shifted(eps), f.clipped_down(eps))], cfg, m)
    uppers, lowers, gaps = fields[::2], fields[1::2], []
    for upper, lower in zip(uppers, lowers):
        sel = upper.scheme_mask & lower.scheme_mask
        diff = upper.values[sel] - lower.values[sel]
        if diff.size == 0:
            raise PerronError("bracket fields share no interior samples")
        if diff.min() < -1e-8 * max(1.0, f.bounds[1]):
            raise PerronError("bracket ordering violated; solver inconsistency")
        gaps.append(float(diff.max()))
    return PerronBracket(epsilons, lowers, uppers, gaps, field)


# ---------------------------------------------------------------------------
# discretization error estimate via a coarse companion solve

def _blocks(a: np.ndarray) -> list[np.ndarray]:
    """The 2^n strided views of ``a`` zero-padded to even extents, one per
    offset of a 2x block; view ``o`` holds ``a[2*i + o]`` at coarse index i."""
    padded = np.zeros(tuple(s + s % 2 for s in a.shape), dtype=a.dtype)
    padded[tuple(slice(0, s) for s in a.shape)] = a
    return [padded[tuple(slice(o, None, 2) for o in offsets)]
            for offsets in np.ndindex(*(2,) * a.ndim)]


def coarsen_domain(d: SpaceTimeDomain) -> SpaceTimeDomain:
    """Companion domain at doubled h and doubled dt (masks join by blocks),
    built once per domain object (``d.memo``), so that every estimate on
    one domain shares one companion and the slabs that the solver plans
    for it."""
    return d.memo("coarse", _coarsen)


def _coarsen(d: SpaceTimeDomain) -> SpaceTimeDomain:
    g = d.grid
    g2 = Grid(n=g.n, h=2 * g.h, origin=g.origin,
              extents=tuple((e + 1) // 2 for e in g.extents))
    cyls = [Cylinder(SpatialDomain(g2, np.logical_or.reduce(
        _blocks(c.base.mask))), c.t1, c.t2) for c in d.cylinders]
    return SpaceTimeDomain(cyls, 2 * d.dt)


def _block_compare(fine: Field, coarse: Field) -> float:
    """Max difference between a field and its 2x-coarser companion.

    Fine values are block-averaged onto coarse cells; compared over coarse
    interior samples at shared levels.
    """
    best = 0.0
    found = False
    for k2 in range(1, coarse.domain.num_levels):
        k = 2 * k2
        cdef = coarse.scheme_mask[k2]
        # sum adds the views in offset order, which fixes the rounding
        block_sum = sum(_blocks(np.where(fine.defined[k], fine.values[k],
                                         0.0)))
        block_cnt = sum(_blocks(fine.defined[k]))
        full = cdef & (block_cnt == 2 ** fine.domain.grid.n)
        if full.any():
            found = True
            mean = block_sum[full] / block_cnt[full]
            best = max(best, float(np.abs(mean - coarse.values[k2][full]).max()))
    if not found:
        raise PerronError("no comparable samples between refinement levels")
    return best


def discretization_estimate(fines: list[Field], datas: list[BoundaryData],
                            cfg: SolverConfig, m: float) -> list[float]:
    """Sup difference between each solved field and the solve for its data
    on the 2x-coarser companion.

    ``fines[i]`` is the caller's solve for ``datas[i]``; all of them lie on
    one domain object, whose companion solves every datum in one
    ``solve_union_many`` pass.  Self-calibrating error scale for probe
    verdicts: data profiles with a poor modulus of attainment (a steep tent
    at the probed point, say) are judged against their own resolution
    sensitivity.
    """
    if len(fines) != len(datas):
        raise PerronError(f"{len(fines)} fields for {len(datas)} data")
    if len({id(fine.domain) for fine in fines}) != 1:
        raise PerronError("the fields must lie on one domain object")
    coarse = solve_union_many(coarsen_domain(fines[0].domain), datas, cfg, m)
    return [_block_compare(fine, c) for fine, c in zip(fines, coarse)]


# ---------------------------------------------------------------------------
# regularity probes

@dataclass(frozen=True)
class RegularityProbe:
    point: tuple                      # ((x...), t)
    approach_radii: list[float]
    family_labels: list[str]
    upper_gaps: list[list[float]]     # per member, per radius
    lower_gaps: list[list[float]]
    upper_intercepts: list[float]
    lower_intercepts: list[float]
    verdict: str
    disc_ests: list[float]            # per member, self-calibrated
    eps: float
    note: str = ""

    # verdict rule (deterministic given the gaps):
    #   a member's side passes <=> fitted intercept <= 2 * its disc estimate
    #   a member's side flags  <=> intercept > 5 * its disc estimate AND the
    #     gap curve is flat (decreases < 25% across the radius ladder; slow
    #     genuine moduli decrease, irregular gaps do not)
    #   any flag -> "irregular evidence"; both sides pass for every member ->
    #   "regular evidence"; all upper (lower) sides pass -> "upper-regular
    #   (lower-regular) evidence"; otherwise "inconclusive".

    def to_dict(self) -> dict:
        return {
            "point": {"x": list(self.point[0]), "t": self.point[1]},
            "radii": self.approach_radii,
            "family": self.family_labels,
            "upper_gaps": self.upper_gaps,
            "lower_gaps": self.lower_gaps,
            "upper_intercepts": self.upper_intercepts,
            "lower_intercepts": self.lower_intercepts,
            "verdict": self.verdict,
            "disc_ests": self.disc_ests,
            "eps": self.eps,
            "note": self.note,
        }


def _ball_masks(d: SpaceTimeDomain, xi: np.ndarray, radii) -> np.ndarray:
    """Interior samples of ``d`` within each radius of xi = (x0, t0),
    stacked as ``(len(radii), levels, *extents)``."""
    d2x = ((d.grid.centers() - xi[:-1]) ** 2).sum(axis=-1)
    # scalar squares (pow), which can round otherwise than an array's x*x
    d2t = np.array([(t - xi[-1]) ** 2 for t in d.level_times()])
    r2 = np.array([r ** 2 for r in radii])
    d2 = d2x + d2t.reshape(-1, *(1,) * d.grid.n)
    balls = d.samples[1] & (d2 <= r2.reshape(-1, *(1,) * d2.ndim))
    if not all(ball.any() for ball in balls):
        raise PerronError("no interior samples within the given radius")
    return balls


def _min_over_ball(field: Field, ball: np.ndarray, eps: float) -> float:
    """Min over the ball's samples of the pinned solve, debiased by its data
    shift eps.  Kept a function of its own because ``bench/tracer.py``
    binds it as the layer ``perron.min_over_ball``."""
    return float(field.values[ball].min()) - eps


@dataclass(frozen=True)
class RemovabilityCertificate:
    """Permission to reinstate a capacity-thin boundary column.

    Discrete boundary pieces of vanishing capacity (a one-cell puncture
    column, say) carry positive capacity at any fixed h, so pinned solves
    attain their data and over-report the upper Perron envelope there.  The
    continuum envelope sheds such pieces; numerically this is realized by
    solving on the enlarged domain with the piece reinstated, *provided*
    the capacity module has classified the piece thin.  The certificate
    carries the enlarged domain, the profile and verdict that license it.
    """

    envelope_domain: SpaceTimeDomain
    profile: CapacityProfile
    verdict: ThicknessVerdict

    def validate(self, d: SpaceTimeDomain) -> None:
        if self.verdict.classification != "thin":
            raise PerronError(
                "removability needs a 'thin' capacity verdict, got "
                f"{self.verdict.classification!r}")
        env = self.envelope_domain
        if env.num_levels != d.num_levels or env.dt != d.dt \
                or not env.grid.compatible_with(d.grid):
            raise PerronError("envelope domain must share grid and time levels")
        x0 = np.asarray(self.profile.x0, dtype=float)
        r_fine = min(self.profile.radii)
        centers = d.grid.centers()
        dist = np.linalg.norm(centers - x0, axis=-1)
        steps, env_steps = d.step_masks(), env.step_masks()
        if (dist[(env_steps & ~steps).any(axis=0)] > r_fine).any():
            raise PerronError(
                "reinstated cells extend beyond the finest profiled shell; "
                "the thin verdict does not cover them")
        if (steps & ~env_steps).any():
            raise PerronError("envelope domain must contain the probed domain")


def _fit_intercept(radii: list[float], gaps: list[float]) -> float:
    """Extrapolate gap(r) to r = 0 over the 3 smallest radii.

    The fit is linear in sqrt(r): space-time balls mix the spatial and the
    time directions, and the natural modulus of attainment at regular
    points scales like the parabolic distance, i.e. like sqrt of the
    Euclidean radius.  Irregular points keep an order-one flat gap, which
    the fit reproduces as a positive intercept.
    """
    pairs = sorted(zip(radii, gaps))[:3]
    r = np.sqrt([p[0] for p in pairs])
    g = np.array([p[1] for p in pairs])
    if len(r) == 1:
        return max(float(g[0]), 0.0)
    coef = np.polyfit(r, g, 1)
    return max(float(coef[1]), 0.0)


def _approach_radii(radii: list[float]) -> list[float]:
    """Distinct approach radii, largest first; at least 3, all positive."""
    radii = sorted(set(radii), reverse=True)
    if len(radii) < 3:
        raise PerronError("need at least 3 approach radii")
    if radii[-1] <= 0:
        raise PerronError("approach radii must be positive")
    return radii


class OffBoundaryError(PerronError):
    """The probed point matches no parabolic-boundary sample."""


def _probe_setup(d: SpaceTimeDomain, xi0, radii: list[float],
                 removability: RemovabilityCertificate | None):
    """Checks shared by both probes: xi0 lies within a cell of a
    parabolic-boundary sample of d, the radii are admissible and the
    certificate fits d.  Returns (x0, t0, xi, radii)."""
    x0, t0 = np.asarray(xi0[0], dtype=float), float(xi0[1])
    tol_x = 0.75 * d.grid.h * math.sqrt(d.grid.n)
    near_t = np.abs(d.level_times() - t0) <= 0.51 * d.dt
    near_x = np.linalg.norm(d.grid.centers() - x0, axis=-1) <= tol_x
    if not (parabolic_boundary(d)[near_t] & near_x).any():
        raise OffBoundaryError(f"xi0=({tuple(x0)}, {t0}) does not match any "
                               "parabolic-boundary sample")
    radii = _approach_radii(radii)
    if removability is not None:
        removability.validate(d)
    return x0, t0, np.append(x0, t0), radii


def _is_flat(gaps: list[float]) -> bool:
    """A gap curve that fails to decrease by 25% across the ladder is flat."""
    top = max(gaps)
    if top <= 0:
        return False
    return 1.0 - min(gaps[-1], gaps[0]) / top < 0.25


def _verdict(up_ints: list[float], low_ints: list[float],
             up_gaps: list[list[float]], low_gaps: list[list[float]],
             disc_ests: list[float]) -> str:
    for u, lo, ug, lg, dd in zip(up_ints, low_ints, up_gaps, low_gaps,
                                 disc_ests):
        if (u > 5 * dd and _is_flat(ug)) or (lo > 5 * dd and _is_flat(lg)):
            return "irregular evidence"
    up_ok = all(u <= 2 * dd for u, dd in zip(up_ints, disc_ests))
    low_ok = all(lo <= 2 * dd for lo, dd in zip(low_ints, disc_ests))
    if up_ok and low_ok:
        return "regular evidence"
    if up_ok:
        return "upper-regular evidence"
    if low_ok:
        return "lower-regular evidence"
    return "inconclusive"


TENT_WIDTH = 0.75          # of the grid's longest side


def default_data_family(d: SpaceTimeDomain, xi0
                        ) -> tuple[list[BoundaryData], list[str]]:
    """Constants 1 and 2, a positive linear-in-x profile, and a tent profile
    positive at xi0 and vanishing ``TENT_WIDTH`` of the grid's longest side
    away from it; exercises both the upper and the lower regularity
    definitions with few solves."""
    x0, t0 = np.asarray(xi0[0], dtype=float), float(xi0[1])
    lo = np.asarray(d.grid.origin)
    span = max(float(e * d.grid.h) for e in d.grid.extents)
    tent_width = TENT_WIDTH * span

    def linear(x, t):
        return 1.0 + (x[..., 0] - lo[0]) / span

    def tent(x, t):
        r = np.sqrt(((x - x0) ** 2).sum(-1)
                    + per_time(lambda s: (s - t0) ** 2, t))
        return np.maximum(1.0 - r / tent_width, 0.0)

    family = [BoundaryData.constant(1.0), BoundaryData.constant(2.0),
              BoundaryData(fn=linear, bounds=(1.0, 2.0)),
              BoundaryData(fn=tent, bounds=(0.0, 1.0))]
    return family, ["constant-1", "constant-2", "linear-x", "tent"]


def regularity_probe(d: SpaceTimeDomain, xi0, family: list[BoundaryData],
                     radii: list[float], cfg: SolverConfig, m: float,
                     family_labels: list[str] | None = None,
                     removability: RemovabilityCertificate | None = None
                     ) -> RegularityProbe:
    """Probe upper/lower boundary regularity at xi0 with a data family.

    For each member f the upper gap at radius r estimates
    limsup (upper envelope of f) - f(xi0) by
    max over interior samples within r of the (f + eps)-solve, minus
    f(xi0) + eps; lower gaps mirror this with min and (f - eps)_+.

    A :class:`RemovabilityCertificate` is the one thing that tightens the
    upper envelope; since the lower envelope never exceeds the upper one,
    the lower gap then uses f(xi0) minus the min of the two estimates, which
    is what exposes irregularity at boundary columns of vanishing capacity.
    """
    x0, t0, xi, radii = _probe_setup(d, xi0, radii, removability)
    eps = 0.025 * max(f.bounds[1] for f in family)
    labels = family_labels or [f"member-{i}" for i in range(len(family))]

    f_xis = [float(f.sample(x0, t0)) for f in family]
    if min(f_xis) <= 0:
        raise PerronError("family members must be positive at xi0")
    ups = [f.shifted(eps) for f in family]
    # one pass per domain; each member's f + eps and (f - eps)_+ alternate
    fields = solve_union_many(
        d, [g for f, up in zip(family, ups) for g in (up, f.clipped_down(eps))],
        cfg, m)
    uppers, lowers = fields[::2], fields[1::2]
    balls = _ball_masks(d, xi, radii)
    envelopes, env_balls = uppers, balls
    if removability is not None:
        env_domain = removability.envelope_domain
        envelopes = solve_union_many(env_domain, ups, cfg, m)
        env_balls = _ball_masks(env_domain, xi, radii)
    # a one-cell puncture does not survive block coarsening, so the probed
    # domain has no faithful coarse companion; the estimates are calibrated
    # on the envelopes' domain
    disc_ests = discretization_estimate(envelopes, ups, cfg, m)

    up_gaps, low_gaps, up_ints, low_ints = [], [], [], []
    for f_xi, upper, lower, envelope in zip(f_xis, uppers, lowers, envelopes):
        ug, lg = [], []
        for ball, env_ball in zip(balls, env_balls):
            up_est = min(upper.values[ball].max(),
                         envelope.values[env_ball].max()) - eps
            ug.append(float(up_est) - f_xi)
            low_est = float(lower.values[ball].min()) + eps
            if envelope is not upper:
                low_est = min(low_est,
                              float(envelope.values[env_ball].min()) - eps)
            lg.append(f_xi - low_est)
        up_gaps.append(ug)
        low_gaps.append(lg)
        up_ints.append(_fit_intercept(radii, ug))
        low_ints.append(_fit_intercept(radii, lg))

    verdict = _verdict(up_ints, low_ints, up_gaps, low_gaps, disc_ests)
    return RegularityProbe((tuple(map(float, x0)), t0), radii, labels,
                           up_gaps, low_gaps, up_ints, low_ints, verdict,
                           disc_ests, eps)


@dataclass(frozen=True)
class DichotomyResult:
    branch: str                      # "attains" | "drops-to-zero" | "inconclusive"
    liminf_estimate: float
    boundary_value: float
    tol: float
    per_radius: list[tuple[float, float]]

    def to_dict(self) -> dict:
        return {"branch": self.branch, "liminf_estimate": self.liminf_estimate,
                "boundary_value": self.boundary_value, "tol": self.tol,
                "per_radius": [{"r": r, "min": v} for r, v in self.per_radius]}


def dichotomy_check(d: SpaceTimeDomain, xi0, f: BoundaryData,
                    radii: list[float], cfg: SolverConfig, m: float,
                    tol: float | None = None,
                    removability: RemovabilityCertificate | None = None
                    ) -> DichotomyResult:
    """Classify the boundary behaviour at xi0: attain f(xi0) or drop to zero.

    Estimates liminf of the upper envelope along shrinking balls and applies
    the margin rule: attains if the estimate is >= f(xi0) - tol,
    drops-to-zero if <= tol, otherwise inconclusive.  tol is capped at
    0.4 * f(xi0) so the two branches stay mutually exclusive.

    The envelope estimate is the pinned solve of f + eps.  One certified
    mechanism tightens it: a :class:`RemovabilityCertificate`, which
    replaces the solve domain by one with a capacity-thin boundary column
    reinstated (the envelope sheds such columns; the pinned solve alone
    cannot see this because any nonempty voxel column carries positive
    capacity at fixed h).
    """
    x0, t0, xi, radii = _probe_setup(d, xi0, radii, removability)
    f_xi = float(f.sample(x0, t0))
    if f_xi <= 0:
        raise PerronError("dichotomy needs f(xi0) > 0")
    eps = 0.025 * max(f.bounds[1], f_xi)
    solve_domain = d if removability is None else removability.envelope_domain
    up = f.shifted(eps)
    upper = solve_union(solve_domain, up, cfg, m)
    (disc_est,) = discretization_estimate([upper], [up], cfg, m)
    if tol is None:
        tol = max(0.1 * f_xi, 2 * disc_est)
    tol = min(tol, 0.4 * f_xi)
    mins = [(r, _min_over_ball(upper, ball, eps))
            for r, ball in zip(radii, _ball_masks(solve_domain, xi, radii))]
    est = _fit_intercept(radii, [v for _, v in mins])     # liminf estimate
    if est >= f_xi - tol:
        branch = "attains"
    elif est <= tol:
        branch = "drops-to-zero"
    else:
        branch = "inconclusive"
    return DichotomyResult(branch, est, f_xi, tol, mins)


def future_truncation_probe(d: SpaceTimeDomain, xi0,
                            family: list[BoundaryData], radii: list[float],
                            cfg: SolverConfig, m: float,
                            family_labels: list[str] | None = None
                            ) -> tuple[RegularityProbe, RegularityProbe, bool]:
    """Pair a probe on the full domain with one on the past truncation.

    The truncation keeps only times strictly before t0.  If xi0 is no longer
    on the truncated boundary it is an earliest point of what remains, which
    is regular outright; the truncated report then records that branch
    instead of gap tables.  Returns (full, truncated, verdicts agree).
    """
    x0, t0 = np.asarray(xi0[0], dtype=float), float(xi0[1])
    full = regularity_probe(d, xi0, family, radii, cfg, m,
                            family_labels=family_labels)
    trunc = d.truncate(t0) if t0 < d.t_max else d
    if not trunc.cylinders or trunc.num_steps < 1:
        raise PerronError("truncation at t0 is empty")
    try:
        trunc_probe = regularity_probe(trunc, xi0, family, radii, cfg, m,
                                       family_labels=family_labels)
    except OffBoundaryError:
        trunc_probe = RegularityProbe(
            (tuple(map(float, x0)), t0), _approach_radii(radii),
            [], [], [], [], [], "regular evidence", [], 0.0,
            note="earliest point of the truncated domain; regular outright")
    return full, trunc_probe, full.verdict == trunc_probe.verdict


def scale_transform(f: Field, a: float, m: float) -> Field:
    """Map a solution of u_t = a*lap(u^m) to one of the unit equation.

    Pointwise multiplication by a^(1/(m-1)); exact at the discrete level
    because the stencil is linear in the Laplacian.  Undefined for m = 1
    (no such transform exists there).
    """
    if m == 1:
        raise PerronError("the multiplicative transform fails for m = 1")
    if a <= 0:
        raise PerronError("the equation multiplier must be positive")
    return f.scaled(a ** (1.0 / (m - 1)))
