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
obtained from a coarse companion solve.  All decision thresholds are
explicit fields of the returned report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .barriers import (
    CLAIMED_SIGN,
    BarrierSpec,
    SamplingPolicy,
    evaluate as barrier_evaluate,
    verify_sign,
)
from .capacity import CapacityProfile, ThicknessVerdict
from .geometry import (
    Cylinder,
    Grid,
    SpaceTimeDomain,
    SpatialDomain,
    parabolic_boundary,
)
from .solver import BoundaryData, Field, SolverConfig, solve_union


class PerronError(RuntimeError):
    """Invalid probe input (point off the boundary, empty truncation, ...)."""


DEFAULT_EPS_LADDER = (0.1, 0.05, 0.025)     # fractions of sup f


@dataclass(frozen=True)
class PerronBracket:
    epsilons: list[float]
    lowers: list[Field]
    uppers: list[Field]
    gaps: list[float]                # sup of (upper - lower) per epsilon

    def to_dict(self) -> dict:
        return {"epsilons": self.epsilons, "gaps": self.gaps}


def perron_bracket(d: SpaceTimeDomain, f: BoundaryData,
                   eps_ladder, cfg: SolverConfig, m: float) -> PerronBracket:
    """Bracket the Perron solution by solves with data f + eps and (f - eps)_+.

    The bracket ordering lower <= upper holds pointwise for each eps (checked);
    on resolutive instances the gap shrinks along the eps ladder.
    """
    epsilons, lowers, uppers, gaps = [], [], [], []
    for eps in eps_ladder:
        if eps <= 0:
            raise PerronError("epsilon ladder entries must be positive")
        upper = solve_union(d, f.shifted(eps), cfg, m)
        lower = solve_union(d, f.clipped_down(eps), cfg, m)
        sel = upper.scheme_mask & lower.scheme_mask
        diff = upper.values[sel] - lower.values[sel]
        if diff.size == 0:
            raise PerronError("bracket fields share no interior samples")
        if diff.min() < -1e-8 * max(1.0, f.bounds[1]):
            raise PerronError("bracket ordering violated; solver inconsistency")
        epsilons.append(eps)
        lowers.append(lower)
        uppers.append(upper)
        gaps.append(float(diff.max()))
    return PerronBracket(epsilons, lowers, uppers, gaps)


# ---------------------------------------------------------------------------
# discretization error estimate via a coarse companion solve

def _coarsen_mask(mask: np.ndarray) -> np.ndarray:
    nd = mask.ndim
    padded = np.zeros(tuple(s + s % 2 for s in mask.shape), dtype=bool)
    padded[tuple(slice(0, s) for s in mask.shape)] = mask
    out = np.zeros(tuple(s // 2 for s in padded.shape), dtype=bool)
    for offsets in np.ndindex(*(2,) * nd):
        sl = tuple(slice(o, None, 2) for o in offsets)
        out |= padded[sl]
    return out


def coarsen_domain(d: SpaceTimeDomain) -> SpaceTimeDomain:
    """Companion domain at doubled h and doubled dt (masks join by blocks)."""
    g = d.grid
    g2 = Grid(n=g.n, h=2 * g.h, origin=g.origin,
              extents=tuple((e + 1) // 2 for e in g.extents))
    cyls = [Cylinder(SpatialDomain(g2, _coarsen_mask(c.base.mask)), c.t1, c.t2)
            for c in d.cylinders]
    return SpaceTimeDomain(cyls, 2 * d.dt)


def _block_compare(fine: Field, coarse: Field) -> float:
    """Max difference between a field and its 2x-coarser companion.

    Fine values are block-averaged onto coarse cells; compared over coarse
    interior samples at shared levels.
    """
    d = fine.domain
    nd = d.grid.n
    pad_shape = tuple(e + e % 2 for e in d.grid.extents)
    best = 0.0
    found = False
    for k2 in range(1, coarse.domain.num_levels):
        k = 2 * k2
        cdef = coarse.scheme_mask[k2]
        block_sum = np.zeros_like(coarse.values[k2])
        block_cnt = np.zeros(coarse.values[k2].shape, dtype=int)
        fv = np.zeros(pad_shape)
        fd = np.zeros(pad_shape, dtype=bool)
        inner = tuple(slice(0, e) for e in d.grid.extents)
        fv[inner] = np.where(fine.defined[k], fine.values[k], 0.0)
        fd[inner] = fine.defined[k]
        for offsets in np.ndindex(*(2,) * nd):
            sl = tuple(slice(o, None, 2) for o in offsets)
            block_sum += fv[sl]
            block_cnt += fd[sl]
        full = cdef & (block_cnt == 2 ** nd)
        if full.any():
            found = True
            mean = block_sum[full] / block_cnt[full]
            best = max(best, float(np.abs(mean - coarse.values[k2][full]).max()))
    if not found:
        raise PerronError("no comparable samples between refinement levels")
    return best


def discretization_estimate(d: SpaceTimeDomain, f: BoundaryData,
                            cfg: SolverConfig, m: float,
                            fine: Field | None = None) -> float:
    """Sup difference between the solve for f and a 2x-coarser companion.

    Self-calibrating error scale for probe verdicts: data profiles with a
    poor modulus of attainment (a steep tent at the probed point, say) are
    judged against their own resolution sensitivity.
    """
    if fine is None:
        fine = solve_union(d, f, cfg, m)
    d2 = coarsen_domain(d)
    coarse = solve_union(d2, f, replace(cfg, dt=None), m)
    return _block_compare(fine, coarse)


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

    @property
    def disc_est(self) -> float:
        return max(self.disc_ests) if self.disc_ests else 0.0

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


def check_upper_member(spec: BarrierSpec, d: SpaceTimeDomain,
                       data: BoundaryData, seed: int = 0,
                       max_samples: int = 20000) -> float:
    """Verify that a barrier member belongs to the upper class for ``data``.

    Two certificates are required: the residual sign over the domain
    (superparabolic, sampled) and domination of the boundary data at every
    parabolic-boundary sample.  Returns the smallest domination margin.
    Raises on failure.
    """
    if CLAIMED_SIGN[spec.kind] <= 0:
        raise PerronError(f"{spec.kind} is subparabolic; not an upper-class kind")
    report = verify_sign(spec, d, SamplingPolicy(seed=seed,
                                                 max_samples=max_samples))
    if not report.certified:
        raise PerronError(
            f"barrier sign certification failed with {len(report.violating_samples)}"
            " violations; not superparabolic at this sampling")
    on_pb = parabolic_boundary(d).mask
    centers = d.grid.centers()
    margin = math.inf
    for k in range(d.num_levels):
        pts, t = centers[on_pb[k]], d.level_time(k)
        if len(pts):
            gaps = barrier_evaluate(spec, pts, t) - data.sample(pts, t)
            margin = min(margin, float(gaps.min()))
    if margin < -1e-9 * max(1.0, data.bounds[1]):
        raise PerronError(
            f"barrier does not dominate the boundary data (margin {margin:.3e})")
    return margin


def _min_over_ball(field: Field, members: list[BarrierSpec],
                   xi: np.ndarray, r: float, eps: float) -> float:
    """Min over interior ball samples of min(pinned solve - eps, members).

    The pinned solve is debiased by its data shift eps; certified members
    are used as-is (conservative upper bounds for the envelope).
    """
    sel = field._ball_mask(xi, r)
    if not sel.any():
        raise PerronError("no interior samples within the given radius")
    vals = field.values[sel] - eps
    if members:
        level, *cell = np.nonzero(sel)
        pts = field.domain.grid.centers()[tuple(cell)]
        t = field.domain.level_times()[level]
        for spec in members:
            vals = np.minimum(vals, barrier_evaluate(spec, pts, t))
    return float(vals.min())


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
        for k in range(d.num_steps):
            diff = env.step_base_mask(k) & ~d.step_base_mask(k)
            if not diff.any():
                continue
            if (dist[diff] > r_fine).any():
                raise PerronError(
                    "reinstated cells extend beyond the finest profiled shell; "
                    "the thin verdict does not cover them")
        if any((d.step_base_mask(k) & ~env.step_base_mask(k)).any()
               for k in range(d.num_steps)):
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


def _check_on_parabolic_boundary(d: SpaceTimeDomain, xi0) -> None:
    x0, t0 = np.asarray(xi0[0], dtype=float), float(xi0[1])
    tol_x = 0.75 * d.grid.h * math.sqrt(d.grid.n)
    near_t = np.abs(d.level_times() - t0) <= 0.51 * d.dt
    near_x = np.linalg.norm(d.grid.centers() - x0, axis=-1) <= tol_x
    if (parabolic_boundary(d).mask[near_t] & near_x).any():
        return
    raise PerronError(
        f"xi0=({tuple(x0)}, {t0}) does not match any parabolic-boundary sample")


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


def default_data_family(d: SpaceTimeDomain, xi0, tent_width: float | None = None
                        ) -> tuple[list[BoundaryData], list[str]]:
    """Constants 1 and 2, a positive linear-in-x profile, and a tent profile
    positive at xi0 and vanishing away from it; exercises both the upper and
    the lower regularity definitions with few solves."""
    x0, t0 = np.asarray(xi0[0], dtype=float), float(xi0[1])
    lo = np.asarray(d.grid.origin)
    span = max(float(e * d.grid.h) for e in d.grid.extents)
    if tent_width is None:
        tent_width = 0.75 * span

    def linear(x, t):
        return 1.0 + (x[..., 0] - lo[0]) / span

    def tent(x, t):
        r = np.sqrt(((x - x0) ** 2).sum(-1) + (t - t0) ** 2)
        return np.maximum(1.0 - r / tent_width, 0.0)

    family = [BoundaryData.constant(1.0), BoundaryData.constant(2.0),
              BoundaryData(fn=linear, bounds=(1.0, 2.0)),
              BoundaryData(fn=tent, bounds=(0.0, 1.0))]
    return family, ["constant-1", "constant-2", "linear-x", "tent"]


def regularity_probe(d: SpaceTimeDomain, xi0, family: list[BoundaryData],
                     radii: list[float], cfg: SolverConfig, m: float,
                     eps: float | None = None,
                     disc_est: float | None = None,
                     family_labels: list[str] | None = None,
                     upper_members: list[BarrierSpec] | None = None,
                     removability: RemovabilityCertificate | None = None,
                     _skip_boundary_check: bool = False) -> RegularityProbe:
    """Probe upper/lower boundary regularity at xi0 with a data family.

    For each member f the upper gap at radius r estimates
    limsup (upper envelope of f) - f(xi0) by
    max over interior samples within r of the (f + eps)-solve, minus
    f(xi0) + eps; lower gaps mirror this with min and (f - eps)_+.

    ``upper_members`` (certified upper-class barriers, see
    :func:`check_upper_member`) and a :class:`RemovabilityCertificate`
    tighten the upper envelope; since the lower envelope never exceeds the
    upper one, the lower gap then uses f(xi0) minus the min of the
    estimates, which is what exposes irregularity at boundary columns of
    vanishing capacity.
    """
    if not _skip_boundary_check:
        _check_on_parabolic_boundary(d, xi0)
    radii = sorted(set(radii), reverse=True)
    if len(radii) < 3:
        raise PerronError("need at least 3 approach radii")
    if any(r <= 0 for r in radii):
        raise PerronError("approach radii must be positive")
    x0, t0 = np.asarray(xi0[0], dtype=float), float(xi0[1])
    xi = np.append(x0, t0)
    sup_f = max(f.bounds[1] for f in family)
    if eps is None:
        eps = 0.025 * sup_f
    labels = family_labels or [f"member-{i}" for i in range(len(family))]

    if removability is not None:
        removability.validate(d)

    up_gaps, low_gaps, up_ints, low_ints, disc_ests = [], [], [], [], []
    for f in family:
        f_xi = float(f.sample(x0, t0))
        if f_xi <= 0:
            raise PerronError("family members must be positive at xi0")
        members = list(upper_members or [])
        for spec in members:
            check_upper_member(spec, d, f.shifted(eps))
        upper = solve_union(d, f.shifted(eps), cfg, m)
        lower = solve_union(d, f.clipped_down(eps), cfg, m)
        envelope = None
        if removability is not None:
            envelope = solve_union(removability.envelope_domain,
                                   f.shifted(eps), cfg, m)
        if disc_est is not None:
            disc_m = disc_est
        elif envelope is not None:
            # a one-cell puncture does not survive block coarsening, so the
            # probed domain has no faithful coarse companion; calibrate on
            # the reinstated domain instead
            disc_m = discretization_estimate(removability.envelope_domain,
                                             f.shifted(eps), cfg, m,
                                             fine=envelope)
        else:
            disc_m = discretization_estimate(d, f.shifted(eps), cfg, m,
                                             fine=upper)
        ug, lg = [], []
        for r in radii:
            up_est = upper.ball_extremum(xi, r, "max") - eps
            if envelope is not None:
                up_est = min(up_est, envelope.ball_extremum(xi, r, "max") - eps)
            ug.append(up_est - f_xi)
            low_est = lower.ball_extremum(xi, r, "min") + eps
            if members:
                low_est = min(low_est,
                              _min_over_ball(upper, members, xi, r, eps) + eps)
            if envelope is not None:
                low_est = min(low_est,
                              envelope.ball_extremum(xi, r, "min") - eps)
            lg.append(f_xi - low_est)
        up_gaps.append(ug)
        low_gaps.append(lg)
        up_ints.append(_fit_intercept(radii, ug))
        low_ints.append(_fit_intercept(radii, lg))
        disc_ests.append(disc_m)

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
                    eps: float | None = None, tol: float | None = None,
                    disc_est: float | None = None,
                    upper_members: list[BarrierSpec] | None = None,
                    removability: RemovabilityCertificate | None = None
                    ) -> DichotomyResult:
    """Classify the boundary behaviour at xi0: attain f(xi0) or drop to zero.

    Estimates liminf of the upper envelope along shrinking balls and applies
    the margin rule: attains if the estimate is >= f(xi0) - tol,
    drops-to-zero if <= tol, otherwise inconclusive.  tol is capped at
    0.4 * f(xi0) so the two branches stay mutually exclusive.

    The base envelope estimate is the pinned solve of f + eps.  It can be
    tightened by two certified mechanisms: the pointwise min with
    upper-class barrier members (``upper_members``; each is certified by
    sign and boundary domination before use), and a
    :class:`RemovabilityCertificate`, which replaces the solve domain by
    one with a capacity-thin boundary column reinstated (the envelope sheds
    such columns; the pinned solve alone cannot see this because any
    nonempty voxel column carries positive capacity at fixed h).
    """
    _check_on_parabolic_boundary(d, xi0)
    x0, t0 = np.asarray(xi0[0], dtype=float), float(xi0[1])
    f_xi = float(f.sample(x0, t0))
    if f_xi <= 0:
        raise PerronError("dichotomy needs f(xi0) > 0")
    radii = sorted(set(radii), reverse=True)
    if len(radii) < 3:
        raise PerronError("need at least 3 approach radii")
    if eps is None:
        eps = 0.025 * max(f.bounds[1], f_xi)
    solve_domain = d
    if removability is not None:
        removability.validate(d)
        solve_domain = removability.envelope_domain
    members = list(upper_members or [])
    for spec in members:
        check_upper_member(spec, solve_domain, f.shifted(eps))
    xi = np.append(x0, t0)
    upper = solve_union(solve_domain, f.shifted(eps), cfg, m)
    if disc_est is None:
        disc_est = discretization_estimate(solve_domain, f.shifted(eps), cfg,
                                           m, fine=upper)
    if tol is None:
        tol = max(0.1 * f_xi, 2 * disc_est)
    tol = min(tol, 0.4 * f_xi)
    mins = [(r, _min_over_ball(upper, members, xi, r, eps)) for r in radii]
    # liminf estimate: fit min(r) in sqrt(r) over the 3 smallest radii
    small = sorted(mins)[:3]
    r = np.sqrt([p[0] for p in small])
    v = np.array([p[1] for p in small])
    coef = np.polyfit(r, v, 1)
    est = max(float(coef[1]), 0.0)
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
                            **kwargs) -> tuple[RegularityProbe, RegularityProbe, bool]:
    """Pair a probe on the full domain with one on the past truncation.

    The truncation keeps only times strictly before t0.  If xi0 is no longer
    on the truncated boundary it is an earliest point of what remains, which
    is regular outright; the truncated report then records that branch
    instead of gap tables.  Returns (full, truncated, verdicts agree).
    """
    x0, t0 = np.asarray(xi0[0], dtype=float), float(xi0[1])
    full = regularity_probe(d, xi0, family, radii, cfg, m, **kwargs)
    trunc = d.truncate(t0) if t0 < d.t_max else d
    if not trunc.cylinders or trunc.num_steps < 1:
        raise PerronError("truncation at t0 is empty")
    try:
        _check_on_parabolic_boundary(trunc, xi0)
        on_boundary = True
    except PerronError:
        on_boundary = False
    if on_boundary:
        trunc_probe = regularity_probe(trunc, xi0, family, radii, cfg, m,
                                       _skip_boundary_check=True, **kwargs)
    else:
        trunc_probe = RegularityProbe(
            (tuple(map(float, x0)), t0), sorted(set(radii), reverse=True),
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
